import numpy as np
import pytest

import cohgen.dynamics
from cohgen import (
    DimensionMismatch,
    SingularState,
    coherence_derivative,
    entropy_derivative_check,
    evolve,
    fd_derivative,
    optimal_hamiltonian,
    random_density,
    random_hermitian,
    rel_entropy_coherence,
    run_checks,
    trajectory,
    von_neumann_entropy,
)
from refvals import RATE_083

SY = np.array([[0, -1j], [1j, 0]])


def test_evolve_t_zero_identity():
    rng = np.random.default_rng(0)
    rho = random_density(3, rng)
    np.testing.assert_allclose(evolve(rho, random_hermitian(3, rng), 0.0), rho, atol=1e-14)


def test_evolve_commuting_case():
    rho = np.diag([0.2, 0.3, 0.5])
    h = np.diag([1.0, -1.0, 0.4])
    for t in (0.1, 1.7, -3.0):
        np.testing.assert_allclose(evolve(rho, h, t), rho, atol=1e-13)


def test_evolve_qubit_rotation_closed_form():
    h = -SY / np.sqrt(2)
    rho = np.diag([1.0, 0.0]).astype(complex)
    for t in (0.05, 0.4, 1.1):
        out = evolve(rho, h, t)
        assert abs(out[0, 0].real - np.cos(t / np.sqrt(2)) ** 2) < 1e-12


def test_evolve_group_property():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        rho = random_density(d, rng)
        h = random_hermitian(d, rng)
        s, t = rng.uniform(-2, 2, size=2)
        a = evolve(evolve(rho, h, s), h, t)
        b = evolve(rho, h, s + t)
        assert np.abs(a - b).max() < 1e-9


def test_evolve_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        evolve(np.diag([0.5, 0.5]), np.eye(3), 1.0)


def test_trajectory_single_point_grid():
    rng = np.random.default_rng(1)
    rho = random_density(2, rng)
    h = random_hermitian(2, rng)
    traj = trajectory(rho, h, np.array([0.0]))
    assert len(traj) == 1
    np.testing.assert_allclose(traj.states[0], rho, atol=1e-14)
    assert abs(traj.coherence[0] - rel_entropy_coherence(rho)) < 1e-12


def test_trajectory_entropy_constant():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho = random_density(d, rng, mix=0.1)
        h = random_hermitian(d, rng)
        traj = trajectory(rho, h, np.linspace(0.0, 5.0, 100))
        assert traj.entropy.max() - traj.entropy.min() < 1e-9
        assert np.all(traj.coherence >= 0)
        assert np.all(traj.coherence <= np.log2(d) + 1e-9)


def test_trajectory_initial_rise_from_near_incoherent():
    # a slightly coherent start under the canonical coupling gains coherence
    eps = 1e-3
    psi = np.array([np.sqrt(eps), np.sqrt(1 - eps)])
    rho = np.outer(psi, psi)
    traj = trajectory(rho, optimal_hamiltonian(2), np.array([0.0, 0.05, 0.1]))
    assert traj.coherence[1] > traj.coherence[0]


def test_trajectory_grid_must_ascend():
    rho = np.diag([0.5, 0.5])
    h = np.eye(2)
    with pytest.raises(ValueError):
        trajectory(rho, h, np.array([]))
    with pytest.raises(ValueError):
        trajectory(rho, h, np.array([0.0, 1.0, 0.5]))


def _reference_trajectory(rho, h, grid):
    """Point-by-point orbit: one conjugation and two scalar entropy calls per time."""
    lam, vec = np.linalg.eigh(h)
    rho_eig = vec.conj().T @ rho @ vec
    states, coh, ent = [], [], []
    for t in grid:
        w = vec * np.exp(-1j * lam * t)
        rho_t = w @ rho_eig @ w.conj().T
        rho_t = (rho_t + rho_t.conj().T) / 2
        states.append(rho_t)
        coh.append(rel_entropy_coherence(rho_t))
        ent.append(von_neumann_entropy(rho_t))
    return np.array(states), np.array(coh), np.array(ent)


@pytest.mark.parametrize("d", [2, 3, 8, 32])
@pytest.mark.parametrize("rank", ["pure", "full"])
def test_trajectory_matches_point_by_point_reference(d, rank):
    rng = np.random.default_rng([d, rank == "pure"])
    if rank == "pure":
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
    else:
        rho = random_density(d, rng, mix=0.1)
    h = random_hermitian(d, rng)
    block = max(1, cohgen.dynamics._BLOCK_ENTRIES // (d * d))
    # grid lengths on both sides of a block edge, and a long multi-block grid;
    # every grid is a prefix of the longest, so one reference run covers all
    lengths = sorted({1, block - 1, block, block + 1, 2000} - {0})
    full_grid = 0.002 * np.arange(lengths[-1])
    states, coh, ent = _reference_trajectory(rho, h, full_grid)
    for n in lengths:
        traj = trajectory(rho, h, full_grid[:n])
        assert len(traj) == n
        assert np.abs(np.array(traj.states) - states[:n]).max() <= 1e-12
        assert np.abs(traj.coherence - coh[:n]).max() <= 1e-12
        assert np.abs(traj.entropy - ent[:n]).max() <= 1e-12


def test_trajectory_states_are_read_only():
    rng = np.random.default_rng(10)
    rho = random_density(3, rng)
    traj = trajectory(rho, random_hermitian(3, rng), np.linspace(0.0, 1.0, 7))
    assert len(traj) == len(traj.states) == 7
    for state in traj.states:
        assert state.shape == (3, 3)
        assert not state.flags.writeable
        with pytest.raises(ValueError):
            state[0, 0] = 1.0


def test_entropy_check_catches_non_unitary_eigenbasis(monkeypatch):
    # Scaling one row of V makes the conjugation non-unitary in a way that
    # changes the spectrum along the orbit.  (A uniform scale would not: it
    # multiplies every state by the same constant.)  The check only sees this
    # because the entropy is recomputed from each sampled state.
    original = cohgen.dynamics.eig_hermitian

    def skewed_eig(h):
        lam, vec = original(h)
        vec = vec.copy()
        vec[0] *= 1.01
        return lam, vec

    monkeypatch.setattr(cohgen.dynamics, "eig_hermitian", skewed_eig)
    failed = {r.name for r in run_checks("fast", seed=0) if not r.passed}
    assert "entropy_constant_along_orbit" in failed


def test_fd_zero_for_full_support_diagonal():
    rho = np.diag([0.2, 0.5, 0.3])
    h = random_hermitian(3, np.random.default_rng(3))
    assert abs(fd_derivative(rho, h, 1e-4)) < 1e-7


def test_fd_matches_frozen_rate():
    h = SY / np.sqrt(2)
    psi = np.array([np.sqrt(0.083), -np.sqrt(0.917)])
    rho = np.outer(psi, psi.conj())
    assert abs(fd_derivative(rho, h, 1e-4) - RATE_083) < 1e-6


def test_fd_zero_for_balanced_state():
    rho = np.full((2, 2), 0.5)
    h = random_hermitian(2, np.random.default_rng(4))
    assert abs(fd_derivative(rho, h, 1e-4)) < 1e-6


def test_fd_step_validation():
    rho = np.diag([0.5, 0.5])
    with pytest.raises(ValueError):
        fd_derivative(rho, np.eye(2), 0.0)
    with pytest.raises(ValueError):
        fd_derivative(rho, np.eye(2), 0.5)


def test_fd_richardson_tightens():
    rng = np.random.default_rng(7)
    rho = random_density(3, rng, mix=0.2)
    h = random_hermitian(3, rng)
    exact = coherence_derivative(h, rho).analytic
    plain = abs(fd_derivative(rho, h, 1e-2) - exact)
    rich = abs(fd_derivative(rho, h, 1e-2, richardson=True) - exact)
    assert rich < plain


def test_fd_second_order_convergence():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho = random_density(d, rng, mix=0.2)
        h = random_hermitian(d, rng)
        exact = coherence_derivative(h, rho).analytic
        r2 = abs(fd_derivative(rho, h, 1e-2) - exact)
        r4 = abs(fd_derivative(rho, h, 1e-4) - exact)
        # residual should drop by about (1e-2/1e-4)^2; allow two decades slack
        assert r4 < r2 * 1e-2 + 1e-12


def test_entropy_rate_vanishes():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng, mix=0.3)
        h = random_hermitian(d, rng)
        rep = entropy_derivative_check(rho, h, 1e-4)
        assert abs(rep.rhs) < 1e-10
        assert abs(rep.lhs) < 1e-6


def test_entropy_check_rejects_singular_state():
    psi = np.array([0.6, 0.8])
    with pytest.raises(SingularState):
        entropy_derivative_check(np.outer(psi, psi), np.eye(2), 1e-4)
