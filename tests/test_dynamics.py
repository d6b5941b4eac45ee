import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

import cohgen.dynamics
from cohgen import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
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


@pytest.mark.parametrize("grid", [[math.nan], [0.0, math.inf], [-math.inf, 0.0]])
def test_trajectory_grid_must_be_finite(grid):
    # like evolve's t; unchecked, a NaN point reads as coherence 0 and entropy 0
    rho = np.array([[0.8, 0.3], [0.3, 0.2]])
    with pytest.raises(ValueError, match="finite"):
        trajectory(rho, np.array([[0.0, 1.0], [1.0, 0.0]]), grid)


def _reference_trajectory(rho, h, grid):
    """Point-by-point orbit: one conjugation and two scalar entropy calls per time."""
    lam, vec = np.linalg.eigh(h)
    rho_eig = vec.conj().T @ rho @ vec
    coh, ent = [], []
    for t in grid:
        w = vec * np.exp(-1j * lam * t)
        rho_t = w @ rho_eig @ w.conj().T
        rho_t = (rho_t + rho_t.conj().T) / 2
        coh.append(rel_entropy_coherence(rho_t))
        ent.append(von_neumann_entropy(rho_t))
    return np.array(coh), np.array(ent)


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
    coh, ent = _reference_trajectory(rho, h, full_grid)
    for n in lengths:
        traj = trajectory(rho, h, full_grid[:n])
        assert len(traj) == n
        assert np.abs(traj.coherence - coh[:n]).max() <= 1e-12
        assert np.abs(traj.entropy - ent[:n]).max() <= 1e-12


def test_trajectory_memory_does_not_grow_with_the_grid():
    # a (2000, 32, 32) complex stack is 32.8 MB; the blocks keep the working
    # set to a few of their 0.5 MB temporaries whatever the grid length
    rng = np.random.default_rng(14)
    rho, h = random_density(32, rng), random_hermitian(32, rng)

    def peak_mb(points):
        grid = np.linspace(0.0, 5.0, points)
        tracemalloc.start()
        try:
            trajectory(rho, h, grid)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    short, long = peak_mb(200), peak_mb(2000)
    assert long < 4.0, long
    assert abs(long - short) < 1.0, (short, long)


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


def test_fd_oracles_diagonalize_and_validate_once(monkeypatch):
    calls = {"eig": 0, "density": 0}
    eig, density = cohgen.dynamics.eig_hermitian, cohgen.dynamics.validate_density

    def counted_eig(h):
        calls["eig"] += 1
        return eig(h)

    def counted_density(m):
        calls["density"] += 1
        return density(m)

    monkeypatch.setattr(cohgen.dynamics, "eig_hermitian", counted_eig)
    monkeypatch.setattr(cohgen.dynamics, "validate_density", counted_density)
    rng = np.random.default_rng(10)
    rho, h = random_density(3, rng, mix=0.2), random_hermitian(3, rng)
    fd_derivative(rho, h, 1e-3)
    assert calls == {"eig": 1, "density": 1}
    entropy_derivative_check(rho, h)
    assert calls == {"eig": 1, "density": 2}
    trajectory(rho, h, np.linspace(0.0, 1.0, 50))
    assert calls == {"eig": 2, "density": 3}


def test_fd_oracles_reject_invalid_states():
    bad = [
        (np.array([[0.5, 0.1], [0.3, 0.5]]), NotHermitian),
        (np.diag([0.5, 0.6]), NotUnitTrace),
        (np.diag([1.2, -0.2]), NotPSD),
    ]
    for rho, error in bad:
        with pytest.raises(error):
            fd_derivative(rho, SY, 1e-3)
        with pytest.raises(error):
            trajectory(rho, SY, np.array([0.0, 1.0]))
    # a full-rank but non-Hermitian state reaches the density validation
    with pytest.raises(NotHermitian):
        entropy_derivative_check(np.array([[0.5, 0.1], [0.3, 0.5]]), SY)


_ENTRY_POINTS = {
    "evolve": lambda rho, h: evolve(rho, h, 0.5),
    "trajectory": lambda rho, h: trajectory(rho, h, np.array([0.0, 1.0])),
    "fd_derivative": lambda rho, h: fd_derivative(rho, h, 1e-3),
    "entropy_derivative_check": entropy_derivative_check,
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "rho, h, error",
    [
        (np.full((2, 3), 1 / 3), np.zeros((2, 3)), DimensionMismatch),
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), np.eye(2), ValueError),
    ],
    ids=["non-square", "nan-state"],
)
def test_dynamics_entry_points_raise_typed_errors(entry, rho, h, error):
    # numpy's LinAlgError is a ValueError too, so pin the exact type
    with pytest.raises(ValueError) as exc:
        _ENTRY_POINTS[entry](rho, h)
    assert type(exc.value) is error


def test_fd_second_order_convergence():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho = random_density(d, rng, mix=0.2)
        h = random_hermitian(d, rng)
        exact = coherence_derivative(h, rho)
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
        assert abs(entropy_derivative_check(rho, h)) < 1e-10


def test_entropy_check_rejects_singular_state():
    psi = np.array([0.6, 0.8])
    with pytest.raises(SingularState):
        entropy_derivative_check(np.outer(psi, psi), np.eye(2))


def test_fd_oracles_on_stacks_give_the_single_pair_bits():
    rng = np.random.default_rng(12)
    for d in (2, 3, 5):
        rho = np.array([random_density(d, rng, mix=0.2) for _ in range(4)])
        h = np.array([random_hermitian(d, rng) for _ in range(4)])
        fd = fd_derivative(rho, h, 1e-4)
        rate = entropy_derivative_check(rho, h)
        for k in range(4):
            assert fd[k] == fd_derivative(rho[k], h[k], 1e-4)
            assert rate[k] == entropy_derivative_check(rho[k], h[k])


def test_fd_oracles_on_stacks_raise_the_single_pair_errors():
    # one bad pair in a stack raises what that pair alone raises
    rng = np.random.default_rng(13)
    rho = np.array([random_density(2, rng, mix=0.2) for _ in range(3)])
    h = np.array([random_hermitian(2, rng) for _ in range(3)])
    skew = h[1].copy()
    skew[0, 1] += 1e-3
    bad_pairs = [(np.array([[0.5, 0.1], [0.3, 0.5]]), h[1]), (np.diag([0.5, 0.6]), h[1]),
                 (np.diag([1.2, -0.2]), h[1]), (rho[1], skew)]
    singular = (np.full((2, 2), 0.5), h[1])   # a pure state: log₂ρ is not finite
    fd = functools.partial(fd_derivative, h=1e-3)
    for oracle, bad in ((fd, bad_pairs), (entropy_derivative_check, bad_pairs + [singular])):
        for bad_rho, bad_h in bad:
            with pytest.raises(ValueError) as single:
                oracle(bad_rho, bad_h)
            stack_rho, stack_h = rho.copy(), h.copy()
            stack_rho[1], stack_h[1] = bad_rho, bad_h
            with pytest.raises(type(single.value), match=re.escape(str(single.value))):
                oracle(stack_rho, stack_h)
        with pytest.raises(DimensionMismatch):
            oracle(rho, h[:2])
    with pytest.raises(ValueError):
        fd_derivative(rho, h, 0.5)
