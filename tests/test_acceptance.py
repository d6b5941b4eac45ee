"""End-to-end acceptance gates.

Each test checks one required behavior at its stated tolerance and runtime
budget, and prints a single pass line on success (pytest -v shows the verdict
per test either way).  Reference numbers come from tests/refvals.py, which
was produced by an independent high-precision oracle.
"""
import time

import numpy as np

from cohgen import (
    SolverConfig,
    capacity_numeric,
    capacity_qubit,
    coherence_derivative,
    dephase,
    entropy_derivative_check,
    fd_derivative,
    holder_hamiltonian,
    hs_norm,
    coherence_commutator,
    max_surprisal_variance,
    optimal_state,
    random_density,
    random_hermitian,
    simplex_grid_oracle,
    surprisal_variance,
    surprisal_variance_pairform,
    trajectory,
)
from refvals import BOUND, F_MAX, X_STAR


def _ok(msg):
    print(f"PASS  {msg}")


def test_acceptance_qubit_population():
    """The best qubit input always puts weight 0.083 +/- 0.001 on one level."""
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(20):
        h = random_hermitian(2, rng)
        if abs(h[1, 0]) < 1e-3:
            continue
        t0 = time.perf_counter()
        res = capacity_qubit(h)
        samples.append(time.perf_counter() - t0)
        p_small = min(res.argmax_state[0, 0].real, res.argmax_state[1, 1].real)
        assert abs(p_small - 0.083) <= 1e-3
        assert abs(p_small - X_STAR) <= 1e-9
    assert samples and np.median(samples) < 1e-3  # sub-millisecond closed form
    _ok(f"qubit optimum population, median call {np.median(samples) * 1e6:.0f} us")


def test_acceptance_bound_equality_d2_to_d6():
    """Matched Hamiltonian at the optimal state attains sqrt(2 f_max) to 1e-8."""
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(2, 7):
        fam = max_surprisal_variance(d)
        psi = optimal_state(d, fam.gamma)
        sigma = np.outer(psi, psi.conj())
        rate = coherence_derivative(holder_hamiltonian(sigma), sigma)
        worst = max(worst, abs(rate - fam.capacity_bound))
        assert abs(rate - fam.capacity_bound) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(f"equality of rate and bound for d=2..6, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_acceptance_bound_is_never_exceeded():
    """10k random unit-norm (H, rho) pairs per d stay below the bound; the
    d=2 search closes to within 1e-3 of it."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        bound = BOUND[d]
        worst = -np.inf
        for k in range(10_000):
            h = random_hermitian(d, rng, hs_normalized=True)
            rho = random_density(d, rng, rank=1 if k % 2 else None)
            rate = coherence_derivative(h, rho)
            worst = max(worst, rate)
            assert rate <= bound + 1e-9
    # alternating refinement: re-match H to the state, re-optimize the state
    best = 0.0
    rho = random_density(2, rng, rank=1)
    for k in range(4):
        h = holder_hamiltonian(rho)
        res = capacity_numeric(h, SolverConfig(restarts=4, seed=k))
        rho = res.argmax_state
        best = max(best, res.value)
    assert abs(best - 1.35230) <= 1e-3
    assert abs(best - BOUND[2]) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(f"certificate on 30k random pairs + d=2 search to {best:.6f}, {elapsed:.1f}s")


def test_acceptance_derivative_formula():
    """Finite differences confirm the analytic rate: 1e-6 at h=1e-4, and
    the residual shrinks as h^2."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    steps = (1e-2, 1e-3, 1e-4)
    residuals = {h: [] for h in steps}
    for d in (2, 3, 4):
        for _ in range(200):
            rho = random_density(d, rng, mix=0.1)
            ham = random_hermitian(d, rng)
            exact = coherence_derivative(ham, rho)
            for h in steps:
                residuals[h].append(abs(fd_derivative(rho, ham, h) - exact))
    assert max(residuals[1e-4]) <= 1e-6
    means = np.array([np.mean(residuals[h]) for h in steps])
    slope = np.polyfit(np.log(steps), np.log(means), 1)[0]
    assert abs(slope - 2.0) <= 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(f"analytic vs finite differences, slope {slope:.3f}, {elapsed:.1f}s")


def test_acceptance_dephasing_log_pairing():
    """Tr[dephase(A) log2 dephase(B)] = Tr[A log2 dephase(B)] to 1e-10."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for d in range(2, 7):
        for _ in range(1000):
            a = random_hermitian(d, rng)
            b = random_density(d, rng, mix=0.2)
            logdiag = np.log2(b.diagonal().real)
            lhs = float(dephase(a).diagonal().real @ logdiag)
            rhs = float(np.trace(a @ np.diag(logdiag)).real)
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= 1e-10
    _ok(f"dephased-log pairing on 5000 draws, worst {worst:.2e}")


def test_acceptance_pairwise_variance_identity():
    """The pairwise double-sum equals the diagonal surprisal variance."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for d in range(2, 7):
        for _ in range(1000):
            rho = random_density(d, rng, mix=0.05)
            a = surprisal_variance_pairform(rho)
            b = surprisal_variance(rho.diagonal().real)
            worst = max(worst, abs(a - b))
            assert abs(a - b) <= 1e-10
    _ok(f"pairwise variance identity on 5000 draws, worst {worst:.2e}")


def test_acceptance_entropy_invariance():
    """Spectrum entropy is flat along every orbit; its analytic rate is 0."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng, mix=0.2)
        h = random_hermitian(d, rng)
        traj = trajectory(rho, h, np.linspace(0.0, 4.0, 100))
        assert traj.entropy.max() - traj.entropy.min() <= 1e-9
    for _ in range(100):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng, mix=0.3)
        h = random_hermitian(d, rng)
        assert abs(entropy_derivative_check(rho, h)) <= 1e-10
    _ok("entropy constant along orbits; analytic entropy rate 0")


def test_acceptance_holder_saturation():
    """The matched Hamiltonian attains rate equal to the commutator norm."""
    rng = np.random.default_rng(6)
    worst = 0.0
    n = 0
    while n < 1000:
        d = int(rng.integers(2, 7))
        rho = random_density(d, rng, mix=0.02)
        m = hs_norm(coherence_commutator(rho))
        if m < 1e-12:
            continue
        n += 1
        rate = coherence_derivative(holder_hamiltonian(rho), rho)
        worst = max(worst, abs(rate - m))
        assert abs(rate - m) <= 1e-9
    _ok(f"saturation on 1000 states, worst {worst:.2e}")


def test_acceptance_simplex_oracle():
    """Exhaustive simplex grids never beat the one-parameter family."""
    t0 = time.perf_counter()
    r2 = simplex_grid_oracle(2, 400)
    r3 = simplex_grid_oracle(3, 150)
    assert r2.f_best <= F_MAX[2] + 1e-12
    assert r3.f_best <= F_MAX[3] + 1e-12
    # and the grid winner lands within grid-spacing curvature of the maximum
    assert F_MAX[2] - r2.f_best <= 1e-3
    assert F_MAX[3] - r3.f_best <= 5e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(f"grid oracle d=2@400 gap {F_MAX[2] - r2.f_best:.1e}, "
        f"d=3@150 gap {F_MAX[3] - r3.f_best:.1e}, {elapsed:.1f}s")


def test_acceptance_cross_method():
    """Ascent and closed form agree to 1e-6 on 100 fixed-seed qubits."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(100):
        h = random_hermitian(2, rng)
        num = capacity_numeric(h, SolverConfig(restarts=8, seed=k))
        ana = capacity_qubit(h)
        worst = max(worst, abs(num.value - ana.value))
        assert abs(num.value - ana.value) <= 1e-6
    _ok(f"cross-method agreement on 100 qubits, worst gap {worst:.2e}")
