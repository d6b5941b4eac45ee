"""Dense complex linear algebra for small Hermitian problems.

States and observables are plain ``numpy`` arrays.  The validators below are
the entry points that upgrade raw arrays to the shapes/invariants the rest of
the package relies on; they return read-only copies so validated objects
cannot be mutated behind the caller's back.
"""
import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
)

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-12


def _as_square_complex(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def validate_hermitian(m, tol: float = HERM_TOL) -> np.ndarray:
    """Check Hermiticity entrywise and return the symmetrized matrix.

    Inputs within ``tol`` of Hermitian are replaced by ``(m + m†)/2`` so that
    downstream eigensolves see an exactly Hermitian operator.  The returned
    array is a read-only copy.
    """
    m = _as_square_complex(m)
    dev = np.abs(m - m.conj().T).max()
    if dev > tol:
        raise NotHermitian(
            f"matrix deviates from its conjugate transpose by {dev:.3e} "
            f"(tolerance {tol:.1e})"
        )
    out = (m + m.conj().T) / 2
    out.setflags(write=False)
    return out


def validate_density(m) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite.

    Entries are preserved verbatim (no renormalization, no symmetrization);
    only the checks are performed.  Raises the error naming the first violated
    invariant together with the worst offending magnitude.
    """
    m = _as_square_complex(m)
    dev = np.abs(m - m.conj().T).max()
    if dev > HERM_TOL:
        raise NotHermitian(
            f"density matrix deviates from Hermiticity by {dev:.3e} "
            f"(tolerance {HERM_TOL:.1e})"
        )
    tr = np.trace(m)
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotUnitTrace(f"trace is {tr.real:.17g}, deviation {abs(tr - 1.0):.3e}")
    lam = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if lam[0] < -PSD_TOL:
        raise NotPSD(f"smallest eigenvalue {lam[0]:.3e} below -{PSD_TOL:.1e}")
    # ρ_ii ρ_jj ≥ |ρ_ij|² holds for any PSD matrix; with the eigenvalue test
    # passed this can only trip on borderline numerics, but it is cheap and
    # pins down the offending pair when it does.
    diag = m.diagonal().real
    gram = np.outer(diag, diag) - np.abs(m) ** 2
    np.fill_diagonal(gram, 0.0)
    worst = gram.min()
    if worst < -PSD_TOL:
        i, j = np.unravel_index(gram.argmin(), gram.shape)
        raise NotPSD(
            f"entry bound rho_{i}{i} rho_{j}{j} >= |rho_{i}{j}|^2 violated "
            f"by {-worst:.3e}"
        )
    out = m.copy()
    out.setflags(write=False)
    return out


def validate_pure_state(psi) -> np.ndarray:
    """Check a state vector is normalized; returns a read-only copy."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(psi)):
        raise ValueError("state vector contains NaN or Inf entries")
    nrm2 = float(np.vdot(psi, psi).real)
    if abs(nrm2 - 1.0) > 1e-12:
        raise ValueError(f"state vector norm² is {nrm2:.17g}, not 1")
    out = psi.copy()
    out.setflags(write=False)
    return out


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Hermitian matrix (within ``HERM_TOL``; symmetrized internally).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues ascending; columns of the second array are the
        corresponding orthonormal eigenvectors, ``h = V diag(λ) V†``.
    """
    h = validate_hermitian(h)
    try:
        lam, vec = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc
    return lam, vec


def unitary_exp(h, t: float) -> np.ndarray:
    """Unitary ``exp(-i t h)`` of a Hermitian generator via eigendecomposition.

    No cohgen module calls it (``dynamics`` rotates in the eigenbasis
    itself), but it stays public: it is the one-call form of the evolution
    operator, and the benchmark's per-layer tracer (``perfbench/tracing.py``)
    wraps it by name, so removing it would break ``--trace 1`` runs.
    """
    lam, vec = eig_hermitian(h)
    return (vec * np.exp(-1j * lam * t)) @ vec.conj().T


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(Tr[m† m])."""
    m = _as_square_complex(m)
    return float(np.linalg.norm(m))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(a† b)."""
    a = _as_square_complex(a)
    b = _as_square_complex(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))
