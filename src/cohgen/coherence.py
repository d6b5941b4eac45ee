"""Coherence measures in the fixed reference basis.

All entropies and logarithms are base 2; results are in bits (or bits² for
the surprisal variance).  Operations assume their density-matrix arguments
have already been validated (see :func:`cohgen.linalg.validate_density`).

A term containing ``log₂ ρ_ii`` with a vanishing diagonal entry is defined to
be zero: positive semidefiniteness forces the accompanying off-diagonal
factor to vanish as well, so this is the continuous extension, and it keeps
±Inf out of the arithmetic.  "Vanishing" means below ``ZERO_DIAG_TOL``.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian
from .linalg import hs_inner

ZERO_DIAG_TOL = 1e-14

# Diagonal entries below this are reported as boundary cases in
# DerivativeReport: the analytic derivative formula assumes log₂ρ_ii exists,
# and its value close to the boundary is dominated by near-singular logs.
BOUNDARY_DIAG_TOL = 1e-10


@dataclass(frozen=True)
class DerivativeReport:
    """Analytic instantaneous rate of change of coherence at t = 0.

    ``boundary`` is set when some diagonal entry of the state is below
    ``BOUNDARY_DIAG_TOL``; the formula is still evaluated with the
    zero-diagonal convention but loses its smooth-derivative interpretation
    there.
    """

    analytic: float
    state: np.ndarray
    hamiltonian: np.ndarray
    min_diag: float
    boundary: bool


def validate_prob_vector(p) -> np.ndarray:
    """Check entries lie in [0, 1] and sum to 1 within 1e-12."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if p.min() < -1e-12 or p.max() > 1 + 1e-12:
        raise ValueError(f"entries outside [0, 1]: min {p.min():.3e}, max {p.max():.3e}")
    s = p.sum()
    if abs(s - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {s:.17g}, not 1")
    return p


def dephase(rho: np.ndarray) -> np.ndarray:
    """Complete dephasing: keep the diagonal, zero all off-diagonal entries."""
    rho = np.asarray(rho)
    return np.diag(rho.diagonal()).astype(np.complex128)


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Shannon entropy along the last axis with the 0·log0 = 0 convention.

    Entries at or below ``ZERO_DIAG_TOL`` (after clamping negatives to zero)
    are replaced by 1 so that their term, 1·log₂1, is exactly zero.
    """
    p = np.clip(p, 0.0, None)
    q = np.where(p > ZERO_DIAG_TOL, p, 1.0)
    # + 0.0 squashes IEEE -0.0
    return np.maximum(-(q * np.log2(q)).sum(axis=-1), 0.0) + 0.0


def von_neumann_entropy(rho: np.ndarray) -> float:
    """von Neumann entropy -Tr[ρ log₂ ρ] in bits.

    Eigenvalues within the PSD validation tolerance below zero are clamped to
    zero before taking logs.
    """
    lam = np.linalg.eigvalsh(np.asarray(rho, dtype=np.complex128))
    return float(_entropy_bits(lam))


def rel_entropy_coherence(rho: np.ndarray) -> float:
    """Relative entropy of coherence S(Δ[ρ]) - S(ρ) in bits.

    The dephased entropy is computed from the diagonal directly; Δ[ρ] is
    diagonal by construction so an eigensolve would only add noise.
    """
    rho = np.asarray(rho)
    s_deph = float(_entropy_bits(rho.diagonal().real))
    return max(s_deph - von_neumann_entropy(rho), 0.0) + 0.0


def _masked_log2_diag(rho: np.ndarray):
    """Diagonal of ρ, its support mask, and log₂ of the diagonal (0 off support)."""
    d = np.asarray(rho).diagonal().real
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
    m = 1j * rho * (logd[None, :] - logd[:, None])
    if not support.all():
        m[~support, :] = 0.0
        m[:, ~support] = 0.0
    return m


def coherence_derivative(hamiltonian, rho) -> DerivativeReport:
    """Instantaneous rate of coherence generation i Tr(H [ρ, log₂ Δ(ρ)]).

    Parameters
    ----------
    hamiltonian : array_like
        Hermitian matrix (validated upstream).
    rho : array_like
        Density matrix (validated upstream).

    Returns
    -------
    DerivativeReport
        Signed rate in bits per unit time: coherence can also decrease.

    Raises
    ------
    NotHermitian
        The rate has an imaginary part above 1e-10, which a Hermitian pair
        cannot produce.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=np.complex128)
    rho = np.asarray(rho, dtype=np.complex128)
    if hamiltonian.shape != rho.shape:
        raise DimensionMismatch(
            f"shape mismatch {hamiltonian.shape} vs {rho.shape}"
        )
    val = hs_inner(hamiltonian, coherence_commutator(rho))
    # i[ρ, log₂Δ(ρ)] is Hermitian, so the pairing is real for Hermitian H
    if not abs(val.imag) <= 1e-10:
        raise NotHermitian(
            f"rate has imaginary residue {val.imag:.3e}; "
            "the Hamiltonian is not Hermitian"
        )
    min_diag = float(rho.diagonal().real.min())
    return DerivativeReport(
        analytic=float(val.real),
        state=rho,
        hamiltonian=hamiltonian,
        min_diag=min_diag,
        boundary=min_diag < BOUNDARY_DIAG_TOL,
    )


def surprisal_variance(p) -> float:
    """Variance of the surprisal -log₂ p_i under p, in bits².

    Zero for both the uniform distribution (constant surprisal) and
    deterministic distributions (single outcome).
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    nz = p > ZERO_DIAG_TOL
    q = p[nz]
    s = -np.log2(q)
    mean = float((q * s).sum())
    second = float((q * s * s).sum())
    return max(second - mean * mean, 0.0) + 0.0


def surprisal_variance_pairform(rho) -> float:
    """Surprisal variance from the pairwise form ½ Σ ρ_ii ρ_jj (log₂ρ_jj - log₂ρ_ii)².

    Agrees with :func:`surprisal_variance` of the diagonal; the pairwise
    arrangement is the shape that appears in the capacity bound.
    """
    d, support, logd = _masked_log2_diag(rho)
    d = np.where(support, d, 0.0)
    diff = logd[None, :] - logd[:, None]
    return float(0.5 * (np.outer(d, d) * diff * diff).sum())
