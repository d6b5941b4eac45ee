"""Random matrices and states for property tests and self-verification.

Every function takes an explicit ``numpy.random.Generator`` so that callers
control determinism; none of them touch global random state.

:func:`ginibre_stack` draws the Ginibre factors of many samples at once, and
:func:`hermitian_from_ginibre` and :func:`density_from_ginibre` turn a stack
of them into Hamiltonians or states.  One ``standard_normal((n, operands, 2,
d, d))`` draw fills in C order, so it holds exactly the numbers that n
rounds of ``operands`` calls of :func:`random_hermitian` /
:func:`random_density` (rank d) would draw, in that order; the stacked
functions then give those calls' matrices bit for bit.
"""
import numpy as np

from .linalg import _check_dim, _is_int, _is_real, hs_norm


def _ginibre(d: int, k: int, rng) -> np.ndarray:
    return rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))


def ginibre_stack(d: int, n: int, operands: int, rng) -> np.ndarray:
    """Ginibre factors of shape (n, operands, d, d) from one draw.

    ``[k, j]`` is the factor that the j-th call of sample k would draw with
    :func:`random_hermitian` or :func:`random_density`: the real part's
    d×d block comes first, then the imaginary part's.
    """
    z = rng.standard_normal((n, operands, 2, d, d))
    return z[:, :, 0] + 1j * z[:, :, 1]


def hermitian_from_ginibre(g, hs_normalized: bool = False) -> np.ndarray:
    """(g + g†)/2 for one Ginibre factor or a stack; optionally each divided
    by its :func:`cohgen.linalg.hs_norm`, which a stack gives bit for bit as
    its matrices one by one."""
    h = (g + g.conj().swapaxes(-1, -2)) / 2
    if hs_normalized:
        h = h / np.reshape(hs_norm(h), h.shape[:-2] + (1, 1))
    return h


def density_from_ginibre(g, mix: float = 0.0) -> np.ndarray:
    """G G†/Tr for one d×rank Ginibre factor or a stack, blended with the
    maximally mixed state as in :func:`random_density`."""
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    if mix:
        d = rho.shape[-1]
        rho = (1.0 - mix) * rho + mix * np.eye(d) / d
    # exact Hermiticity for downstream validators
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def random_pure_state(d: int, rng) -> np.ndarray:
    """Haar-random unit vector in C^d."""
    psi = _ginibre(d, 1, rng).ravel()
    return psi / np.linalg.norm(psi)


def random_hermitian(d: int, rng, hs_normalized: bool = False) -> np.ndarray:
    """Gaussian Hermitian matrix; optionally rescaled to unit Hilbert-Schmidt norm."""
    return hermitian_from_ginibre(_ginibre(d, d, rng), hs_normalized)


def random_density(d: int, rng, rank: int | None = None, mix: float = 0.0) -> np.ndarray:
    """Random density matrix G G†/Tr with a d×rank Ginibre factor.

    ``mix`` blends in the maximally mixed state, ``(1-mix) ρ + mix I/d``,
    which bounds the diagonal (and every eigenvalue) below by ``mix/d`` —
    handy when a test needs states safely away from vanishing diagonals.
    ``DimensionMismatch`` unless d is an integer ≥ 1, then ``ValueError``
    unless ``rank`` is an integer in [1, d] (``None`` means d) and ``mix`` a
    real number in [0, 1]; a ``bool`` is neither.
    """
    _check_dim(d, 1)
    if rank is None:
        rank = d
    if not _is_int(rank, 1, d):
        raise ValueError(f"rank must be an integer in [1, {d}], got {rank!r}")
    if not _is_real(mix, 0.0, 1.0):
        raise ValueError(f"mix must be a real number in [0, 1], got {mix!r}")
    return density_from_ginibre(_ginibre(d, rank, rng), mix)
