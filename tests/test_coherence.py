import os
import subprocess
import sys

import numpy as np
import pytest

import cohgen
from cohgen import (
    DimensionMismatch,
    coherence_commutator,
    coherence_derivative,
    dephase,
    hs_norm,
    random_density,
    random_hermitian,
    rel_entropy_coherence,
    surprisal_variance,
    surprisal_variance_pairform,
    von_neumann_entropy,
)
from refvals import C_COMM_083, F_083, H2_025, H2_083, RATE_083

PLUS = np.full((2, 2), 0.5)


def _pure_state_density(q0):
    """Real pure state with diagonal (q0, 1-q0)."""
    psi = np.array([np.sqrt(q0), np.sqrt(1 - q0)])
    return np.outer(psi, psi)


def test_dephase_kills_offdiagonals():
    np.testing.assert_allclose(dephase(PLUS), np.diag([0.5, 0.5]))


def test_dephase_fixed_point_and_idempotent():
    diag = np.diag([0.3, 0.2, 0.5])
    np.testing.assert_allclose(dephase(diag), diag)
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = random_density(4, rng)
        once = dephase(rho)
        np.testing.assert_allclose(dephase(once), once, atol=1e-15)


def test_entropy_pure_mixed_and_scalar():
    assert von_neumann_entropy(PLUS) < 1e-12
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12
    assert abs(von_neumann_entropy(np.diag([0.25, 0.75])) - H2_025) < 1e-13


def test_entropy_range():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        s = von_neumann_entropy(random_density(d, rng))
        assert -1e-12 <= s <= np.log2(d) + 1e-9


def test_coherence_plus_state_is_one_bit():
    assert abs(rel_entropy_coherence(PLUS) - 1.0) < 1e-12


def test_coherence_of_incoherent_is_zero():
    assert rel_entropy_coherence(np.diag([0.3, 0.7])) == 0.0


def test_coherence_of_lopsided_pure_state():
    rho = _pure_state_density(0.083)
    assert abs(rel_entropy_coherence(rho) - H2_083) < 1e-12


def test_coherence_nonnegative_random():
    # dephasing can only raise entropy
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho = random_density(d, rng)
        assert rel_entropy_coherence(rho) >= 0.0


def test_commutator_zero_cases():
    assert np.all(coherence_commutator(np.diag([0.4, 0.6])) == 0)
    assert np.abs(coherence_commutator(PLUS)).max() < 1e-14


def test_commutator_lopsided_pure_state():
    m = coherence_commutator(_pure_state_density(0.083))
    expect = 1j * C_COMM_083 * np.array([[0, 1], [-1, 0]])
    np.testing.assert_allclose(m, expect, atol=1e-14)


def test_commutator_hermitian_traceless():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        m = coherence_commutator(random_density(d, rng))
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert abs(np.trace(m)) < 1e-12


def test_commutator_masks_zero_diagonal_without_nan():
    # a pure state living on a 2-dim subspace of a 3-dim space
    psi = np.array([np.sqrt(0.2), np.sqrt(0.8), 0.0])
    m = coherence_commutator(np.outer(psi, psi))
    assert np.all(np.isfinite(m))
    assert np.all(m[2, :] == 0) and np.all(m[:, 2] == 0)


def test_derivative_zero_for_stationary_states():
    rng = np.random.default_rng(2)
    h = random_hermitian(2, rng)
    assert coherence_derivative(h, np.diag([0.2, 0.8])).analytic == 0.0
    assert abs(coherence_derivative(h, PLUS).analytic) < 1e-13


def test_derivative_qubit_closed_form():
    # H with |H10| = 1/sqrt(2); arg(H01) = -pi/2, so the aligned state
    # carries off-diagonal phase -pi (a plain sign flip)
    h = np.array([[0, -1j], [1j, 0]]) / np.sqrt(2)
    psi = np.array([np.sqrt(0.083), -np.sqrt(0.917)])
    rep = coherence_derivative(h, np.outer(psi, psi.conj()))
    assert abs(rep.analytic - RATE_083) < 1e-13
    assert rep.boundary is False


def test_derivative_flags_boundary_states():
    psi = np.array([1.0, 0.0])
    rep = coherence_derivative(np.eye(2), np.outer(psi, psi))
    assert rep.boundary is True


def test_derivative_rejects_non_hermitian_under_optimize():
    # python -O strips asserts; the imaginary-residue guard must still raise
    code = (
        "import numpy as np\n"
        "from cohgen import NotHermitian, coherence_derivative\n"
        "rho = np.array([[0.3, 0.2], [0.2, 0.7]])\n"
        "try:\n"
        "    coherence_derivative(np.array([[0.0, 1.0], [0.0, 0.0]]), rho)\n"
        "except NotHermitian:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(cohgen.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_derivative_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        coherence_derivative(np.eye(3), np.diag([0.5, 0.5]))


def test_derivative_obeys_pairing_bound():
    rng = np.random.default_rng(29)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        rho = random_density(d, rng)
        h = random_hermitian(d, rng)
        lhs = coherence_derivative(h, rho).analytic
        assert lhs <= hs_norm(h) * hs_norm(coherence_commutator(rho)) + 1e-10


def test_surprisal_variance_degenerate_cases():
    # uniform: constant surprisal (1/3 etc. round, so only near-zero)
    for d in (2, 3, 6):
        assert surprisal_variance(np.full(d, 1.0 / d)) < 1e-12
    assert surprisal_variance(np.array([1.0, 0.0])) == 0.0


def test_surprisal_variance_scalar():
    assert abs(surprisal_variance(np.array([0.083, 0.917])) - F_083) < 1e-13


def test_pairform_examples():
    assert surprisal_variance_pairform(np.eye(2) / 2) == 0.0
    r = surprisal_variance_pairform(np.diag([0.083, 0.917]))
    assert abs(r - F_083) < 1e-13


def test_pairform_matches_diagonal_variance():
    rng = np.random.default_rng(31)
    for d in range(2, 7):
        for _ in range(200):
            rho = random_density(d, rng, mix=0.1)
            a = surprisal_variance_pairform(rho)
            b = surprisal_variance(rho.diagonal().real)
            assert abs(a - b) < 1e-10


def test_commutator_norm_vs_pairform():
    # ||commutator||^2 <= 2 f(diag), equality exactly on pure states
    rng = np.random.default_rng(37)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho = random_density(d, rng, mix=0.05)
        lhs = hs_norm(coherence_commutator(rho)) ** 2
        rhs = 2.0 * surprisal_variance_pairform(rho)
        assert lhs <= rhs + 1e-10
    for _ in range(200):
        d = int(rng.integers(2, 7))
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        lhs = hs_norm(coherence_commutator(rho)) ** 2
        rhs = 2.0 * surprisal_variance_pairform(rho)
        assert abs(lhs - rhs) < 1e-10


def test_dephased_log_pairing_identity():
    # Tr[dephase(A) log2 dephase(B)] = Tr[A log2 dephase(B)]
    rng = np.random.default_rng(41)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        a = random_hermitian(d, rng)
        b = random_density(d, rng, mix=0.2)
        logdiag = np.log2(b.diagonal().real)
        lhs = float(dephase(a).diagonal().real @ logdiag)
        rhs = float(np.trace(a @ np.diag(logdiag)).real)
        assert abs(lhs - rhs) < 1e-10
