"""Coherence measures in the fixed reference basis.

All entropies and logarithms are base 2; results are in bits (or bits² for
the surprisal variance).  Operations assume their density-matrix arguments
have already been validated (see :func:`cohgen.linalg.validate_density`).

A term containing ``log₂ ρ_ii`` with a vanishing diagonal entry is defined to
be zero: positive semidefiniteness forces the accompanying off-diagonal
factor to vanish as well, so this is the continuous extension, and it keeps
±Inf out of the arithmetic.  "Vanishing" means below ``ZERO_DIAG_TOL``.

Every function here also accepts a stack of states, shape (..., d, d) (for
:func:`surprisal_variance`, of distributions, shape (..., d)), and then
returns one result per state: an array where one state gives a float.  A
stacked call gives, bit for bit, what the calls on each state alone give.
"""
import numpy as np

from .errors import NotHermitian
from .linalg import _same_shape, _unstack, hs_inner

ZERO_DIAG_TOL = 1e-14


def dephase(rho: np.ndarray) -> np.ndarray:
    """Complete dephasing: keep the diagonal, zero all off-diagonal entries."""
    diag = np.asarray(rho).diagonal(axis1=-2, axis2=-1)
    out = np.zeros(diag.shape + diag.shape[-1:], dtype=np.complex128)
    k = np.arange(diag.shape[-1])
    out[..., k, k] = diag
    return out


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Shannon entropy along the last axis with the 0·log0 = 0 convention.

    Entries at or below ``ZERO_DIAG_TOL`` (after clamping negatives to zero)
    are replaced by 1 so that their term, 1·log₂1, is exactly zero.
    """
    p = np.maximum(p, 0.0)
    q = np.where(p > ZERO_DIAG_TOL, p, 1.0)
    # + 0.0 squashes IEEE -0.0
    return np.maximum(-(q * np.log2(q)).sum(axis=-1), 0.0) + 0.0


def von_neumann_entropy(rho: np.ndarray) -> float:
    """von Neumann entropy -Tr[ρ log₂ ρ] in bits.

    Eigenvalues within the PSD validation tolerance below zero are clamped to
    zero before taking logs.
    """
    lam = np.linalg.eigvalsh(np.asarray(rho, dtype=np.complex128))
    return _unstack(_entropy_bits(lam))


def rel_entropy_coherence(rho: np.ndarray) -> float:
    """Relative entropy of coherence S(Δ[ρ]) - S(ρ) in bits.

    The dephased entropy is computed from the diagonal directly; Δ[ρ] is
    diagonal by construction so an eigensolve would only add noise.
    """
    rho = np.asarray(rho)
    s_deph = _entropy_bits(rho.diagonal(axis1=-2, axis2=-1).real)
    return _unstack(np.maximum(s_deph - von_neumann_entropy(rho), 0.0) + 0.0)


def _masked_log2_diag(rho: np.ndarray):
    """Diagonal of ρ, its support mask, and log₂ of the diagonal (0 off support)."""
    d = np.asarray(rho).diagonal(axis1=-2, axis2=-1).real
    support = d > ZERO_DIAG_TOL
    logd = np.zeros_like(d)
    logd[support] = np.log2(d[support])
    return d, support, logd


def coherence_commutator(rho: np.ndarray) -> np.ndarray:
    """The Hermitian matrix i[ρ, log₂ Δ(ρ)] driving coherence change.

    Element-wise this is ``i ρ_ij (log₂ρ_jj - log₂ρ_ii)``; terms touching a
    vanishing diagonal entry are zero (see module docstring).  The result is
    traceless and Hermitian.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    d, support, logd = _masked_log2_diag(rho)
    m = 1j * rho * (logd[..., None, :] - logd[..., :, None])
    if not support.all():
        m[~(support[..., :, None] & support[..., None, :])] = 0.0
    return m


def coherence_derivative(hamiltonian, rho) -> float:
    """Instantaneous rate of coherence generation i Tr(H [ρ, log₂ Δ(ρ)]).

    Parameters
    ----------
    hamiltonian : array_like
        Hermitian matrix (validated upstream), or a stack of them.
    rho : array_like
        Density matrix (validated upstream), or a stack of the same shape.

    Returns
    -------
    float
        Signed rate in bits per unit time: coherence can also decrease.  A
        stack of pairs gives an array with one rate per pair.

    Raises
    ------
    NotHermitian
        A rate has an imaginary part above 1e-10, which a Hermitian pair
        cannot produce.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=np.complex128)
    rho = np.asarray(rho, dtype=np.complex128)
    _same_shape(hamiltonian, rho)
    val = np.asarray(hs_inner(hamiltonian, coherence_commutator(rho)))
    # i[ρ, log₂Δ(ρ)] is Hermitian, so the pairing is real for Hermitian H
    residue = val.imag.reshape(-1)
    if not np.all(np.abs(residue) <= 1e-10):
        raise NotHermitian(
            f"rate has imaginary residue {residue[np.abs(residue).argmax()]:.3e}; "
            "the Hamiltonian is not Hermitian"
        )
    return _unstack(val.real)


def surprisal_variance(p) -> float:
    """Variance of the surprisal -log₂ p_i under p, in bits².

    Zero for both the uniform distribution (constant surprisal) and
    deterministic distributions (single outcome).  A stack of distributions
    along the last axis gives one variance per distribution.
    """
    p = np.asarray(p, dtype=np.float64)
    stacked = p.ndim >= 2
    if not stacked:
        p = p.reshape(1, -1)
    full = (p > ZERO_DIAG_TOL).all(axis=-1)
    s = -np.log2(np.where(full[..., None], p, 1.0))
    mean = (p * s).sum(axis=-1)
    second = (p * s * s).sum(axis=-1)
    # A distribution with vanishing entries drops them before summing: kept
    # as zeros they would move the pairwise summation's grouping.
    for k in zip(*np.nonzero(~full)):
        q = p[k][p[k] > ZERO_DIAG_TOL]
        s_k = -np.log2(q)
        mean[k], second[k] = (q * s_k).sum(), (q * s_k * s_k).sum()
    out = np.maximum(second - mean * mean, 0.0) + 0.0
    return out if stacked else float(out[0])


def surprisal_variance_pairform(rho) -> float:
    """Surprisal variance from the pairwise form ½ Σ ρ_ii ρ_jj (log₂ρ_jj - log₂ρ_ii)².

    Agrees with :func:`surprisal_variance` of the diagonal; the pairwise
    arrangement is the shape that appears in the capacity bound.
    """
    d, support, logd = _masked_log2_diag(rho)
    d = np.where(support, d, 0.0)
    diff = logd[..., None, :] - logd[..., :, None]
    pairs = d[..., :, None] * d[..., None, :] * diff * diff
    return _unstack(0.5 * pairs.sum(axis=(-2, -1)))
