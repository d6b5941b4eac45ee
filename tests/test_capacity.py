import math
from dataclasses import replace

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
    random_pure_state,
    simplex_grid_oracle,
    surprisal_variance,
    validate_density,
    validate_hermitian,
)
from cohgen.capacity import (
    LN2,
    _FLOOR,
    _armijo_ascent,
    _branch_peak,
    _family_f,
    _family_log_ratio,
    _pure_value_and_grad,
    _rho_from_factor,
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
        assert p.min() > 0.0 and p.max() < 1.0
        assert abs(p.sum() - 1.0) < 1e-12


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


def _phi(gamma, d):
    """Stationarity condition of the family, f' = log₂((1-γ)/((d-1)γ))·φ."""
    return (1.0 - 2.0 * gamma) * _family_log_ratio(gamma, d) - 2.0 / LN2


def test_stationarity_condition_sign_structure():
    # the three pieces of the proof in _branch_peak's docstring, on a grid
    floor = -2.0 / LN2
    for d in (2, 3, 8, 32, 399, 10**5):
        def phi(g):
            return (1.0 - 2.0 * g) * np.log2((1.0 - g) / ((d - 1) * g)) + floor

        lower = phi(np.linspace(0.0, 1.0 / d, 20_001)[1:-1])
        assert np.all(np.diff(lower) < 0), d
        assert lower[0] > 0 > lower[-1]
        if d > 2:
            middle = phi(np.linspace(1.0 / d, 0.5, 20_001)[1:])
            assert np.all(middle <= floor), d
        upper = phi(np.linspace(0.5, 1.0, 20_001)[:-1])
        assert np.all(np.diff(upper) > 0), d
        assert upper[0] < 0 < upper[-1]


def test_branch_peaks_are_roots_of_the_stationarity_condition():
    # a sign change across a relative step of 1e-9; adjacent doubles are too
    # close, rounding noise in φ hides the sign change there
    for d in list(range(2, 400)) + [10**3, 10**4, 10**5]:
        uniform = 1.0 / d
        roots = [_branch_peak(d, 1e-12, uniform)[0], _branch_peak(d, uniform, 1.0 - 1e-12)[0]]
        for g in roots:
            assert abs(_phi(g, d)) <= 1e-14, (d, g)
            assert _phi(g * (1 - 1e-9), d) * _phi(g * (1 + 1e-9), d) < 0, (d, g)
        assert roots[0] < uniform < roots[1]
        assert max_surprisal_variance(d).gamma in roots


def _two_branch_selection(d):
    """The family maximum as it was chosen before the branch was known in
    advance: solve both peaks and keep the larger, the lower γ on a tie."""
    eps = 1e-12
    uniform = 1.0 / d
    g_lo, f_lo = _branch_peak(d, eps, uniform)
    g_hi, f_hi = _branch_peak(d, uniform, 1.0 - eps)
    if abs(f_lo - f_hi) <= 1e-12:
        return (g_lo, f_lo) if g_lo <= g_hi else (g_hi, f_hi)
    return (g_lo, f_lo) if f_lo > f_hi else (g_hi, f_hi)


def test_one_branch_gives_the_two_branch_selection_bit_for_bit():
    for d in list(range(2, 400)) + [10**3, 10**4, 10**5, 10**6]:
        gamma, f_max = _two_branch_selection(d)
        res = max_surprisal_variance(d)
        assert (res.gamma, res.f_max, res.capacity_bound) == (
            gamma, f_max, math.sqrt(2.0 * f_max)), d


def test_branch_choice_proof_inequalities():
    # max_surprisal_variance's docstring: the lower branch never reaches
    # f_max(2), the upper branch of every d >= 3 passes it at γ = 0.9
    f2 = max_surprisal_variance(2).f_max
    assert abs(f2 - 0.9142) < 1e-4 and abs(_family_f(0.9, 3) - 1.5649) < 1e-4
    for d in (3, 4, 7, 32, 399, 10**3, 10**6):
        grid = np.linspace(0.0, 1.0 / d, 2001)[1:-1]
        for g in grid:
            assert 0.0 < _family_log_ratio(g, d) <= _family_log_ratio(g, 2), (d, g)
            assert _family_f(g, d) <= _family_f(g, 2), (d, g)
        assert _family_f(0.9, d) >= _family_f(0.9, 3) > f2, d
        assert max_surprisal_variance(d).gamma > 1.0 / d


@pytest.mark.parametrize("d", [1, 0, -3])
def test_dimension_below_two_is_a_dimension_mismatch(d):
    with pytest.raises(DimensionMismatch):
        max_surprisal_variance(d)
    with pytest.raises(DimensionMismatch):
        optimal_state(d, 0.5)
    with pytest.raises(DimensionMismatch):
        optimal_hamiltonian(d)
    with pytest.raises(DimensionMismatch):
        capacity_numeric(np.zeros((max(d, 0), max(d, 0))))


@pytest.mark.parametrize("d", [2.5, 3.0, True, "3"])
def test_non_integer_dimension_is_a_dimension_mismatch(d):
    # capacity_numeric reads d from a matrix shape, so it cannot be handed one
    with pytest.raises(DimensionMismatch):
        max_surprisal_variance(d)
    with pytest.raises(DimensionMismatch):
        optimal_state(d, 0.3)
    with pytest.raises(DimensionMismatch):
        optimal_hamiltonian(d)


def test_numpy_integer_dimensions_are_integers():
    d = np.int64(3)
    assert max_surprisal_variance(d) == max_surprisal_variance(3)
    assert optimal_state(d, 0.3).tobytes() == optimal_state(3, 0.3).tobytes()
    assert optimal_hamiltonian(d).tobytes() == optimal_hamiltonian(3).tobytes()


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
        rate = coherence_derivative(h, rho)
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
        rate = coherence_derivative(optimal_hamiltonian(d), rho)
        if d == 2:
            assert abs(rate - BOUND[2]) < 1e-12
        else:
            assert abs(rate + BOUND[d]) < 1e-12  # sign-flipped branch
            flipped = psi.copy()
            flipped[0] = -flipped[0]
            rho_f = np.outer(flipped, flipped.conj())
            rate_f = coherence_derivative(optimal_hamiltonian(d), rho_f)
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
    rate = coherence_derivative(SY / np.sqrt(2), res.argmax_state)
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
        rate = coherence_derivative(h, res.argmax_state)
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

def test_pure_gradient_matches_central_differences():
    # g is the projected Wirtinger gradient ∂J/∂ψ̄, so along a tangent δ
    # (⟨ψ, δ⟩ = 0) the rate moves at dJ/dε = 2 Re⟨g, δ⟩, at most 2‖g‖‖δ‖
    rng = np.random.default_rng(61)
    eps = 1e-5
    for _ in range(20):
        h = random_hermitian(6, rng, hs_normalized=True)
        psi = random_pure_state(6, rng)
        delta = random_pure_state(6, rng)
        delta -= np.vdot(psi, delta) * psi

        def rate(x):
            return _pure_value_and_grad(h, (x / np.linalg.norm(x))[None])[0][0]

        grad = _pure_value_and_grad(h, psi[None])[1][0]
        exact = 2.0 * np.vdot(grad, delta).real
        central = (rate(psi + eps * delta) - rate(psi - eps * delta)) / (2 * eps)
        scale = 2.0 * np.linalg.norm(grad) * np.linalg.norm(delta)
        assert abs(central - exact) <= 1e-6 * scale, (central, exact)


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
        rate = coherence_derivative(optimal_hamiltonian(d), res.argmax_state)
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


def test_numeric_starved_solver_reports_payload():
    h = random_hermitian(2, np.random.default_rng(3))
    with pytest.raises(NoConvergence) as err:
        capacity_numeric(h, SolverConfig(restarts=1, max_iters=1, seed=0))
    best = err.value.best_result
    assert best is not None
    assert best.converged is False
    assert 0.0 <= best.value <= capacity_qubit(h).value + 1e-9


# Scalar reference: the one-restart-at-a-time ascent that `_armijo_ascent`
# replaced, kept as written (plus a step count) as the oracle for its
# per-row logic.

def _ref_floor_renorm(psi):
    p = np.abs(psi) ** 2
    small = p < 1e-12
    if small.any():
        psi = psi.copy()
        mag = np.abs(psi[small])
        phase = np.where(mag > 0, psi[small] / np.where(mag > 0, mag, 1.0), 1.0)
        psi[small] = 1e-6 * phase
    return psi / np.linalg.norm(psi)


def _ref_objective(h, psi):
    logp = np.log2(np.abs(psi) ** 2)
    z = psi.conj() * (h @ psi)
    return -2.0 * float((logp * z.imag).sum())


def _ref_gradient(h, psi):
    logp = np.log2(np.abs(psi) ** 2)
    hpsi = h @ psi
    z = psi.conj() * hpsi
    grad = 1j * (logp * hpsi - h @ (logp * psi)) - (2.0 / math.log(2.0)) * z.imag / psi.conj()
    grad -= np.vdot(psi, grad) * psi
    return grad


def _ref_ascend_pure(h, psi0, cfg):
    """(value, converged, accepted steps) of one restart."""
    psi = _ref_floor_renorm(psi0)
    value = _ref_objective(h, psi)
    step = cfg.step_init
    converged = False
    steps = 0
    for _ in range(cfg.max_iters):
        grad = _ref_gradient(h, psi)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= cfg.grad_tol:
            converged = True
            break
        resolution = 1e-14 * max(1.0, abs(value))
        s = step
        accepted = False
        for k in range(60):
            cand = _ref_floor_renorm(psi + s * grad)
            cand_value = _ref_objective(h, cand)
            rise = 1e-4 * s * gnorm * gnorm
            if rise > resolution:
                if cand_value >= value + rise:
                    accepted = True
                    break
            else:
                cand_gnorm = float(np.linalg.norm(_ref_gradient(h, cand)))
                if cand_gnorm < gnorm and cand_value >= value - 100 * resolution:
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            break
        psi, value = cand, cand_value
        step = 2.0 * s if k == 0 else s
        steps += 1
    return value, converged, steps


def _ref_capacity(hamiltonian, cfg):
    """(value, converged) of the best restart, run one restart at a time."""
    h = validate_hermitian(hamiltonian)
    rng = np.random.default_rng(cfg.seed)
    best_value = -np.inf
    any_converged = False
    for _ in range(cfg.restarts):
        value, conv, _ = _ref_ascend_pure(h, random_pure_state(h.shape[0], rng), cfg)
        any_converged = any_converged or conv
        if value > best_value:
            best_value = value
    return max(best_value, 0.0) + 0.0, any_converged


# Mixed-state oracle: the rate is not convex in ρ, so "pure states suffice"
# is checked against a second search over density matrices ρ = AA† with
# unit-Frobenius factors A, driven through the solver's own `_armijo_ascent`.

def _floor_factor(a: np.ndarray) -> np.ndarray:
    """Keep every diagonal of AA†/Tr[AA†] above the floor; unit Frobenius norm per factor."""
    a = a / np.linalg.norm(a, axis=(-2, -1), keepdims=True)
    small = (np.abs(a) ** 2).sum(axis=-1) < _FLOOR
    if small.any():
        r, k = np.nonzero(small)
        akk = a[r, k, k]
        mag = np.abs(akk)
        a[r, k, k] = akk + 1e-6 * np.where(mag > 0, akk / np.where(mag > 0, mag, 1.0), 1.0)
        hit = small.any(axis=-1)
        a[hit] /= np.linalg.norm(a[hit], axis=(-2, -1), keepdims=True)
    return a


def _mixed_value_and_grad(h: np.ndarray, a: np.ndarray):
    """Rate of each ρ = AA† (unit-norm factors) under h and its gradient in A."""
    rho = _rho_from_factor(a)
    p = rho.diagonal(axis1=-2, axis2=-1).real
    logp = np.log2(p)
    gmat = 1j * (logp[..., :, None] * h - h * logp[..., None, :])  # i [diag(logp), h]
    value = (gmat * rho.swapaxes(-1, -2)).sum(axis=(-2, -1)).real   # Tr(G ρ)
    hrho_diag_im = (h @ rho).diagonal(axis1=-2, axis2=-1).imag
    w = gmat - (2.0 / LN2) * (hrho_diag_im / p)[..., None] * np.eye(len(h))
    return value, w @ a - value[:, None, None] * a


def _mixed_capacity(hamiltonian, cfg):
    """(value, converged) of the best of cfg.restarts mixed-state ascents."""
    h = validate_hermitian(hamiltonian)
    d = h.shape[0]
    rng = np.random.default_rng(cfg.seed)
    a0 = np.array([
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(cfg.restarts)
    ])
    _, values, converged = _armijo_ascent(
        a0, lambda a: _mixed_value_and_grad(h, a), _floor_factor, cfg
    )
    return float(values.max()), bool(converged.any())


def test_numeric_mixed_search_never_beats_pure():
    rng = np.random.default_rng(3)
    h = random_hermitian(2, rng)
    ana = capacity_qubit(h)
    value, converged = _mixed_capacity(h, SolverConfig(restarts=8, seed=5))
    assert converged
    assert value <= ana.value + 1e-6
    assert value >= ana.value - 1e-5  # and it does find the optimum
    for d in (3, 4):
        for k in range(3):
            h = random_hermitian(d, np.random.default_rng(10 * d + k))
            cfg = SolverConfig(restarts=8, seed=k)
            value, _ = _mixed_capacity(h, cfg)
            assert value <= capacity_numeric(h, cfg).value + 1e-6


def _disguised_matched(d, rng):
    """optimal_hamiltonian(d) under a random diagonal phase and permutation."""
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))
    h = phase[:, None] * optimal_hamiltonian(d) * phase.conj()[None, :]
    perm = rng.permutation(d)
    return h[np.ix_(perm, perm)]


def _equivalence_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for d in (2, 3, 8, 32):
        for kind in ("random", "matched"):
            if kind == "random":
                h = random_hermitian(d, rng, hs_normalized=True)
            else:
                h = _disguised_matched(d, rng)
            for restarts in (1, 7, 32):
                cfg = SolverConfig(restarts=restarts, seed=int(rng.integers(2**31)))
                cases.append(pytest.param(h, cfg, id=f"d{d}-{kind}-r{restarts}"))
    for d in (3, 8):
        cfg = SolverConfig(restarts=7, max_iters=1, seed=d)
        cases.append(pytest.param(random_hermitian(d, rng), cfg, id=f"d{d}-starved"))
    cfg = SolverConfig(restarts=4, seed=0)
    cases.append(pytest.param(np.zeros((2, 2)), cfg, id="zero"))
    cases.append(pytest.param(np.diag([1.0, -2.0, 0.5]), cfg, id="diagonal"))
    # Standing defect, kept as found: on this random qubit H every one of the
    # 32 restarts zig-zags slowly and stops at max_iters, so the solve raises
    # NoConvergence although its value equals the closed form.  The fix is a
    # better ascent at d = 2, not a looser tolerance.
    seed203 = np.array([
        [-0.3799007026462819, -0.20650968977976122 - 0.3411304944555071j],
        [-0.20650968977976122 + 0.3411304944555071j, 0.7332413815982273],
    ])
    cfg = SolverConfig(restarts=32, seed=36916922)
    cases.append(pytest.param(seed203, cfg, id="qubit-seed203-max-iters"))
    return cases


@pytest.mark.parametrize("h, cfg", _equivalence_cases())
def test_batched_restarts_match_scalar_reference(h, cfg):
    ref_value, ref_converged = _ref_capacity(h, cfg)
    if ref_converged:
        res = capacity_numeric(h, cfg)
    else:
        with pytest.raises(NoConvergence) as err:
            capacity_numeric(h, cfg)
        res = err.value.best_result
    assert res.converged is ref_converged
    assert abs(res.value - ref_value) <= 1e-12


def test_batched_exit_at_max_iters_matches_reference():
    # A restart whose gradient reaches tolerance on its last allowed step is
    # not converged: the tolerance test runs only at the start of an iteration.
    h = random_hermitian(3, np.random.default_rng(12), hs_normalized=True)
    cfg = SolverConfig(restarts=1, seed=4)
    psi0 = random_pure_state(3, np.random.default_rng(cfg.seed))
    _, conv, steps = _ref_ascend_pure(validate_hermitian(h), psi0, cfg)
    assert conv and steps > 1
    with pytest.raises(NoConvergence):
        capacity_numeric(h, replace(cfg, max_iters=steps))
    assert capacity_numeric(h, replace(cfg, max_iters=steps + 1)).converged


def test_solver_config_validation():
    h = np.eye(2)
    for bad in (
        SolverConfig(restarts=0),
        SolverConfig(max_iters=0),
        SolverConfig(grad_tol=0.0),
        SolverConfig(step_init=-1.0),
        # an infinite grad_tol would stop every restart at its random start
        # and call it converged; an infinite step_init gives NaN values
        SolverConfig(grad_tol=math.inf),
        SolverConfig(step_init=math.inf),
        SolverConfig(grad_tol=math.nan),
        # counts are integers: no 2.5 restarts, no 2.5 accepted steps
        SolverConfig(restarts=2.5),
        SolverConfig(max_iters=2.5),
        # bool is an Integral, but True restarts is not a count
        SolverConfig(restarts=True),
        SolverConfig(max_iters=True),
    ):
        with pytest.raises(ValueError):
            capacity_numeric(h, bad)
    # numpy integers are integers
    cfg = SolverConfig(restarts=np.int64(2), max_iters=np.int32(50))
    assert capacity_numeric(h, cfg).restarts_used == 2


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
        simplex_grid_oracle(4, 10)
    with pytest.raises(ValueError):
        simplex_grid_oracle(5, 10)
    with pytest.raises(ValueError):
        simplex_grid_oracle(2, 0)
    # typed errors, not numpy's TypeError; True is not resolution 1
    for d in (2.0, 2.5, True, "3"):
        with pytest.raises(DimensionMismatch):
            simplex_grid_oracle(d, 10)
    for resolution in (2.5, math.nan, True, 10.0, "10"):
        with pytest.raises(ValueError, match="integer"):
            simplex_grid_oracle(3, resolution)
