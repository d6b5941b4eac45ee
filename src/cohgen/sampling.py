"""Random matrices and states for property tests and self-verification.

Every function takes an explicit ``numpy.random.Generator`` so that callers
control determinism; none of them touch global random state.
"""
import numpy as np


def _ginibre(d: int, k: int, rng) -> np.ndarray:
    return rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))


def random_pure_state(d: int, rng) -> np.ndarray:
    """Haar-random unit vector in C^d."""
    psi = _ginibre(d, 1, rng).ravel()
    return psi / np.linalg.norm(psi)


def random_hermitian(d: int, rng, hs_normalized: bool = False) -> np.ndarray:
    """Gaussian Hermitian matrix; optionally rescaled to unit Hilbert-Schmidt norm."""
    g = _ginibre(d, d, rng)
    h = (g + g.conj().T) / 2
    if hs_normalized:
        h = h / np.linalg.norm(h)
    return h


def random_density(d: int, rng, rank: int | None = None, mix: float = 0.0) -> np.ndarray:
    """Random density matrix G G†/Tr with a d×rank Ginibre factor.

    ``mix`` blends in the maximally mixed state, ``(1-mix) ρ + mix I/d``,
    which bounds the diagonal (and every eigenvalue) below by ``mix/d`` —
    handy when a test needs states safely away from vanishing diagonals.
    """
    if rank is None:
        rank = d
    g = _ginibre(d, rank, rng)
    rho = g @ g.conj().T
    rho /= rho.trace().real
    if mix:
        rho = (1.0 - mix) * rho + mix * np.eye(d) / d
    # exact Hermiticity for downstream validators
    return (rho + rho.conj().T) / 2
