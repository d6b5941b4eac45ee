import numpy as np
import pytest

from cohgen import (
    DimensionMismatch,
    InvalidGamma,
    NoConvergence,
    NotHermitian,
    ResolutionTooLarge,
    SolverConfig,
    SolverMethod,
    ZeroCommutator,
    capacity_bound_equality,
    capacity_numeric,
    capacity_qubit,
    coherence_commutator,
    coherence_derivative,
    holder_hamiltonian,
    hs_norm,
    max_surprisal_variance,
    optimal_hamiltonian,
    optimal_state,
    random_density,
    random_hermitian,
    simplex_grid_oracle,
    surprisal_variance,
    validate_density,
    validate_prob_vector,
)
from refvals import (
    BEST_P_400,
    BOUND,
    CAP_SIGMA_X,
    F_3_SMALL_BRANCH,
    F_BEST_400,
    F_MAX,
    G_AT_XSTAR,
    GAMMA_3_SMALL_BRANCH,
    GAMMA_MIRROR_2,
    GAMMA_STAR,
    X_STAR,
)

SY = np.array([[0, -1j], [1j, 0]])


# ---------------------------------------------------------------- gamma family

def test_family_maximum_matches_oracle():
    for d in range(2, 7):
        res = max_surprisal_variance(d)
        assert abs(res.gamma - GAMMA_STAR[d]) < 1e-12
        assert abs(res.f_max - F_MAX[d]) < 1e-13
        assert abs(res.capacity_bound - BOUND[d]) < 1e-13
        assert abs(res.capacity_bound - np.sqrt(2 * res.f_max)) < 1e-15


def test_family_distribution_is_valid():
    for d in (2, 4, 6):
        g = max_surprisal_variance(d).gamma
        p = np.concatenate([[g], np.full(d - 1, (1 - g) / (d - 1))])
        validate_prob_vector(p)


def test_family_balanced_point_gives_zero():
    assert surprisal_variance(np.array([0.5, 0.5])) == 0.0


def test_family_mirror_degeneracy_d2():
    # gamma and 1-gamma give the same variance for d=2; the smaller is returned
    assert abs(X_STAR + GAMMA_MIRROR_2 - 1.0) < 1e-15
    a = surprisal_variance(np.array([X_STAR, 1 - X_STAR]))
    b = surprisal_variance(np.array([GAMMA_MIRROR_2, 1 - GAMMA_MIRROR_2]))
    assert abs(a - b) < 1e-14
    assert max_surprisal_variance(2).gamma < 0.5


def test_family_small_branch_is_strictly_worse_d3():
    # the second local peak below gamma = 1/3 must lose
    tail = (1 - GAMMA_3_SMALL_BRANCH) / 2
    f_small = surprisal_variance(np.array([GAMMA_3_SMALL_BRANCH, tail, tail]))
    assert abs(f_small - F_3_SMALL_BRANCH) < 1e-13
    assert f_small < F_MAX[3]


# ------------------------------------------------- optimal states/Hamiltonians

def test_optimal_state_amplitudes():
    psi = optimal_state(2, 0.083)
    np.testing.assert_allclose(psi, [np.sqrt(0.083), np.sqrt(0.917)], atol=1e-15)
    np.testing.assert_allclose(optimal_state(4, 0.25), [0.5] * 4, atol=1e-15)
    for d in (2, 3, 5):
        assert abs(np.linalg.norm(optimal_state(d, 0.3)) - 1.0) < 1e-14


def test_optimal_state_rejects_boundary_gamma():
    for g in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidGamma):
            optimal_state(3, g)


def test_optimal_hamiltonian_qubit_form():
    h = optimal_hamiltonian(2)
    np.testing.assert_allclose(h, np.array([[0, 1j], [-1j, 0]]) / np.sqrt(2), atol=1e-16)


def test_optimal_hamiltonian_unit_norm():
    for d in range(2, 9):
        assert abs(hs_norm(optimal_hamiltonian(d)) - 1.0) < 1e-14


def test_holder_hamiltonian_saturates():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho = random_density(d, rng, mix=0.05)
        m = coherence_commutator(rho)
        if hs_norm(m) < 1e-12:
            continue
        h = holder_hamiltonian(rho)
        assert abs(hs_norm(h) - 1.0) < 1e-13
        rate = coherence_derivative(h, rho).analytic
        assert abs(rate - hs_norm(m)) < 1e-9


def test_holder_hamiltonian_rejects_stationary_states():
    with pytest.raises(ZeroCommutator):
        holder_hamiltonian(np.diag([0.4, 0.6]))
    with pytest.raises(ZeroCommutator):
        holder_hamiltonian(np.full((2, 2), 0.5))


def test_bound_equality_small_dims():
    for d in range(2, 7):
        rep = capacity_bound_equality(d)
        assert rep.gap < 1e-8
        assert abs(rep.rhs - BOUND[d]) < 1e-13


def test_sign_of_literal_pairing():
    # canonical coupling + real optimal amplitudes: positive rate only for d=2
    for d in (2, 3, 4):
        g = max_surprisal_variance(d).gamma
        psi = optimal_state(d, g)
        rho = np.outer(psi, psi.conj())
        rate = coherence_derivative(optimal_hamiltonian(d), rho).analytic
        if d == 2:
            assert abs(rate - BOUND[2]) < 1e-12
        else:
            assert abs(rate + BOUND[d]) < 1e-12  # sign-flipped branch
            flipped = psi.copy()
            flipped[0] = -flipped[0]
            rho_f = np.outer(flipped, flipped.conj())
            rate_f = coherence_derivative(optimal_hamiltonian(d), rho_f).analytic
            assert abs(rate_f - BOUND[d]) < 1e-12


# ------------------------------------------------------------- qubit closed form

def test_qubit_diagonal_hamiltonian():
    res = capacity_qubit(np.diag([1.0, -1.0]) / np.sqrt(2))
    assert res.value == 0.0
    np.testing.assert_allclose(res.argmax_state, np.diag([1.0, 0.0]), atol=1e-16)
    assert res.method is SolverMethod.QUBIT_ANALYTIC


def test_qubit_canonical_coupling():
    res = capacity_qubit(SY / np.sqrt(2))
    assert abs(res.value - BOUND[2]) < 1e-13
    assert abs(res.argmax_state[0, 0].real - X_STAR) < 1e-9
    # reported argmax actually achieves the reported value
    rate = coherence_derivative(SY / np.sqrt(2), res.argmax_state).analytic
    assert abs(rate - res.value) < 1e-12


def test_qubit_sigma_x():
    res = capacity_qubit(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(res.value - CAP_SIGMA_X) < 1e-13
    assert abs(res.value - 2 * G_AT_XSTAR) < 1e-13


def test_qubit_phase_and_diagonal_covariance():
    rng = np.random.default_rng(12)
    base = capacity_qubit(np.array([[0.0, 0.7], [0.7, 0.0]]))
    for _ in range(25):
        theta = rng.uniform(0, 2 * np.pi)
        a, b = rng.uniform(-3, 3, size=2)
        off = 0.7 * np.exp(1j * theta)
        h = np.array([[a, off], [np.conj(off), b]])
        res = capacity_qubit(h)
        assert abs(res.value - base.value) < 1e-12
        rate = coherence_derivative(h, res.argmax_state).analytic
        assert abs(rate - res.value) < 1e-12


def test_qubit_requires_2x2():
    with pytest.raises(DimensionMismatch):
        capacity_qubit(np.eye(3))


def test_qubit_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        capacity_qubit(np.array([[0.0, 1.0], [5.0, 0.0]]))


def test_qubit_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        capacity_qubit(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_qubit_argmax_is_valid_state():
    rng = np.random.default_rng(21)
    for _ in range(10):
        res = capacity_qubit(random_hermitian(2, rng))
        validate_density(res.argmax_state)
        assert res.min_diag > 0


# ------------------------------------------------------------- numeric ascent

def test_numeric_matches_closed_form():
    rng = np.random.default_rng(100)
    for k in range(10):
        h = random_hermitian(2, rng)
        num = capacity_numeric(h, SolverConfig(restarts=8, seed=k))
        ana = capacity_qubit(h)
        assert num.converged
        assert abs(num.value - ana.value) < 1e-9
        assert num.value >= ana.value - 1e-6  # numeric never loses to closed form
        assert num.method is SolverMethod.PURE_STATE_ASCENT


def test_numeric_reaches_bound_on_canonical_hamiltonians():
    for d in (3, 4, 5):
        res = capacity_numeric(optimal_hamiltonian(d), SolverConfig(restarts=16, seed=7))
        assert res.converged
        assert abs(res.value - BOUND[d]) < 1e-8
        validate_density(res.argmax_state)
        rate = coherence_derivative(optimal_hamiltonian(d), res.argmax_state).analytic
        assert abs(rate - res.value) < 1e-9


def test_numeric_zero_and_diagonal_hamiltonians():
    z = capacity_numeric(np.zeros((2, 2)), SolverConfig(restarts=4, seed=0))
    assert z.value == 0.0
    dg = capacity_numeric(np.diag([1.0, -2.0, 0.5]), SolverConfig(restarts=4, seed=0))
    assert abs(dg.value) < 1e-12


def test_numeric_scaling_linearity():
    h = random_hermitian(3, np.random.default_rng(11))
    r1 = capacity_numeric(h, SolverConfig(restarts=8, seed=2))
    r3 = capacity_numeric(3.0 * h, SolverConfig(restarts=8, seed=2))
    assert abs(r3.value - 3.0 * r1.value) <= 1e-6 * abs(r3.value)


def test_numeric_deterministic_by_seed():
    h = random_hermitian(4, np.random.default_rng(5))
    a = capacity_numeric(h, SolverConfig(restarts=6, seed=42))
    b = capacity_numeric(h, SolverConfig(restarts=6, seed=42))
    assert a.value == b.value
    assert np.array_equal(a.argmax_state, b.argmax_state)
    c = capacity_numeric(h, SolverConfig(restarts=6, seed=43))
    assert abs(c.value - a.value) < 1e-8  # different seed, same optimum


def test_numeric_mixed_search_never_beats_pure():
    rng = np.random.default_rng(3)
    h = random_hermitian(2, rng)
    ana = capacity_qubit(h)
    mixed = capacity_numeric(h, SolverConfig(restarts=8, seed=5, mixed=True))
    assert mixed.method is SolverMethod.MIXED_STATE_ASCENT
    assert mixed.converged
    assert mixed.value <= ana.value + 1e-6
    assert mixed.value >= ana.value - 1e-5  # and it does find the optimum


def test_numeric_starved_solver_reports_payload():
    h = random_hermitian(2, np.random.default_rng(3))
    with pytest.raises(NoConvergence) as err:
        capacity_numeric(h, SolverConfig(restarts=1, max_iters=1, seed=0))
    best = err.value.best_result
    assert best is not None
    assert best.converged is False
    assert 0.0 <= best.value <= capacity_qubit(h).value + 1e-9


def test_solver_config_validation():
    h = np.eye(2)
    for bad in (
        SolverConfig(restarts=0),
        SolverConfig(max_iters=0),
        SolverConfig(grad_tol=0.0),
        SolverConfig(step_init=-1.0),
    ):
        with pytest.raises(ValueError):
            capacity_numeric(h, bad)


def test_numeric_rejects_1x1():
    with pytest.raises(DimensionMismatch):
        capacity_numeric(np.array([[1.0]]))


# ------------------------------------------------------------------ grid oracle

def test_grid_oracle_degenerate_resolution():
    res = simplex_grid_oracle(2, 2)
    assert res.f_best == 0.0


def test_grid_oracle_d2_fine():
    res = simplex_grid_oracle(2, 400)
    assert abs(res.best_p[0] - BEST_P_400) < 1e-15
    assert abs(res.f_best - F_BEST_400) < 1e-13
    assert abs(res.best_p[0] - GAMMA_STAR[2]) <= 1.0 / 400


def test_grid_oracle_sandwich_d3():
    res = simplex_grid_oracle(3, 60)
    f_star = F_MAX[3]
    assert res.f_best <= f_star + 1e-12
    # lower bound: the best family-shaped point that actually lies on the
    # grid (equal tails need 60 - k even) is in the oracle's search set
    witness = 0.0
    for k in range(0, 61, 2):  # 60 - k even <=> k even
        tail = (60 - k) / (2 * 60)
        witness = max(witness, surprisal_variance(np.array([k / 60, tail, tail])))
    assert res.f_best >= witness - 1e-12


def test_grid_oracle_limits():
    with pytest.raises(ResolutionTooLarge):
        simplex_grid_oracle(2, 401)
    with pytest.raises(ValueError):
        simplex_grid_oracle(5, 10)
    with pytest.raises(ValueError):
        simplex_grid_oracle(2, 0)
