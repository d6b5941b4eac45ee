import numpy as np
import pytest

from cohgen import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    eig_hermitian,
    hs_inner,
    hs_norm,
    random_hermitian,
    unitary_exp,
    validate_density,
    validate_hermitian,
    validate_pure_state,
)
from cohgen.sampling import ginibre_stack

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])


def test_validate_density_accepts_projectors():
    validate_density(np.diag([1.0, 0.0]))
    validate_density(np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_validate_density_rejects_entry_dominated_matrix():
    # off-diagonal 0.6 exceeds sqrt(0.6*0.4): not PSD
    with pytest.raises(NotPSD):
        validate_density(np.array([[0.6, 0.6], [0.6, 0.4]]))


def test_validate_density_rejects_wrong_trace():
    with pytest.raises(NotUnitTrace):
        validate_density(np.diag([0.7, 0.7]))


def test_validate_density_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_validate_density_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        validate_density(np.diag([1.5, -0.5]))


def test_validate_density_preserves_entries_and_is_readonly():
    rho = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
    out = validate_density(rho)
    assert np.array_equal(out, rho)
    with pytest.raises(ValueError):
        out[0, 0] = 2.0


def test_validate_hermitian_symmetrizes_tiny_deviation():
    m = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 3e-14j, -2.0]])
    h = validate_hermitian(m)
    assert np.allclose(h, h.conj().T, atol=0)


def test_validate_hermitian_rejects_large_deviation():
    with pytest.raises(NotHermitian):
        validate_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_non_square_and_non_finite_rejected():
    with pytest.raises(DimensionMismatch):
        validate_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        validate_hermitian(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError):
        validate_density(np.array([[np.inf, 0], [0, 1]]))


def test_validate_pure_state():
    validate_pure_state(np.array([0.6, 0.8]))
    validate_pure_state(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        validate_pure_state(np.array([1.0, 1.0]))
    # a unit-norm matrix is not a state vector
    with pytest.raises(DimensionMismatch):
        validate_pure_state(np.eye(2) / np.sqrt(2))


def test_eig_identity():
    lam, vec = eig_hermitian(np.eye(2))
    np.testing.assert_allclose(lam, [1.0, 1.0])
    np.testing.assert_allclose(vec.conj().T @ vec, np.eye(2), atol=1e-12)


def test_eig_diagonal_sorted_ascending():
    lam, vec = eig_hermitian(np.diag([0.7, 0.3]))
    np.testing.assert_allclose(lam, [0.3, 0.7])


def test_eig_pauli_y():
    lam, _ = eig_hermitian(SY)
    np.testing.assert_allclose(lam, [-1.0, 1.0], atol=1e-14)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5, 6):
        for _ in range(20):
            h = random_hermitian(d, rng)
            lam, vec = eig_hermitian(h)
            rebuilt = (vec * lam) @ vec.conj().T
            assert np.abs(rebuilt - h).max() < 1e-9
            assert np.abs(vec.conj().T @ vec - np.eye(d)).max() < 1e-10


def test_unitary_exp_t_zero_is_identity():
    rng = np.random.default_rng(1)
    h = random_hermitian(4, rng)
    np.testing.assert_allclose(unitary_exp(h, 0.0), np.eye(4), atol=1e-14)


def test_unitary_exp_diagonal_closed_form():
    u = unitary_exp(np.diag([2.0, -1.0]), 0.3)
    np.testing.assert_allclose(
        u, np.diag([np.exp(-0.6j), np.exp(0.3j)]), atol=1e-14
    )


def test_unitary_exp_pauli_rotation():
    # exp(-i (pi/2) s_y) = cos(pi/2) I - i sin(pi/2) s_y
    u = unitary_exp(SY, np.pi / 2)
    np.testing.assert_allclose(u, -1j * SY, atol=1e-13)


def test_unitary_exp_inverse_property():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        h = random_hermitian(d, rng)
        t = float(rng.uniform(-10, 10))
        u = unitary_exp(h, t) @ unitary_exp(h, -t)
        assert np.abs(u - np.eye(d)).max() < 1e-9


def test_hs_norm_values():
    assert hs_norm(np.zeros((3, 3))) == 0.0
    for d in (2, 3, 7):
        assert abs(hs_norm(np.eye(d)) - np.sqrt(d)) < 1e-14
    coupling = np.array([[0, 1j], [-1j, 0]]) / np.sqrt(2)
    assert abs(hs_norm(coupling) - 1.0) < 1e-14


def test_hs_inner_pauli_table():
    assert abs(hs_inner(np.eye(2), np.eye(2)) - 2.0) < 1e-14
    assert abs(hs_inner(SX, SY)) < 1e-14
    assert abs(hs_inner(SY, SY) - 2.0) < 1e-14


def test_hs_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hs_inner(np.eye(2), np.eye(3))


def test_cauchy_schwarz_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        a = random_hermitian(d, rng)
        b = random_hermitian(d, rng)
        assert abs(hs_inner(a, b)) <= hs_norm(a) * hs_norm(b) + 1e-12


def test_hs_norm_unitary_invariance():
    rng = np.random.default_rng(13)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        a = random_hermitian(d, rng)
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        assert abs(hs_norm(u @ a @ u.conj().T) - hs_norm(a)) < 1e-11


def test_hs_norm_and_inner_are_numpys_to_the_bit():
    # reports print these with 17 digits, so a stacked reduction that sums
    # in another order would show; a stack gives each matrix's own value
    rng = np.random.default_rng(14)
    for d in (1, 2, 3, 5, 8, 32, 64):
        a = np.array([random_hermitian(d, rng) for _ in range(6)])
        b = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
        norms, inner = hs_norm(b), hs_inner(a, b)
        for k in range(6):
            assert hs_norm(b[k]) == norms[k] == float(np.linalg.norm(b[k]))
            assert hs_inner(a[k], b[k]) == inner[k] == complex(np.vdot(a[k], b[k]))
        # a (3, 4, d, d) stack, and the non-contiguous view verify passes
        stack = rng.standard_normal((3, 4, d, d)) + 1j * rng.standard_normal((3, 4, d, d))
        norms, inner = hs_norm(stack), hs_inner(stack[::-1], stack)
        assert norms.shape == inner.shape == (3, 4)
        for j in range(3):
            for k in range(4):
                assert norms[j, k] == float(np.linalg.norm(stack[j, k]))
                assert inner[j, k] == complex(np.vdot(stack[2 - j, k], stack[j, k]))
        view = ginibre_stack(d, 7, 2, rng)[:, 0]
        norms, inner = hs_norm(view), hs_inner(view, view[::-1])
        for k in range(7):
            assert norms[k] == float(np.linalg.norm(view[k]))
            assert inner[k] == complex(np.vdot(view[k], view[6 - k]))
