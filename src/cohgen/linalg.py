"""Dense complex linear algebra for small Hermitian problems.

States and observables are plain ``numpy`` arrays.  The validators below are
the entry points that upgrade raw arrays to the shapes/invariants the rest of
the package relies on; they return read-only copies so validated objects
cannot be mutated behind the caller's back.

``validate_density``, ``eig_hermitian``, ``hs_norm`` and ``hs_inner`` also
accept a stack of matrices, shape (..., d, d), and then check or return one
result per matrix, bit for bit what a call on each matrix alone gives.
``validate_hermitian`` takes one matrix, because the solver's entry points
rely on it to reject anything else; ``_validate_hermitian_stack`` is its
stacked form.
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


def _as_square_stack(m) -> np.ndarray:
    """A complex array of non-empty square matrices, shape (..., d, d), with finite entries."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _as_square_complex(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return _as_square_stack(m)


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _unstack(x: np.ndarray):
    """A single matrix's result as a Python scalar; a stack's as its array."""
    return x.item() if x.ndim == 0 else x


def _validate_hermitian_stack(m) -> np.ndarray:
    """Stacked form of :func:`validate_hermitian`: every matrix is checked."""
    m = _as_square_stack(m)
    dev = np.abs(m - _adjoint(m)).max()
    if dev > HERM_TOL:
        raise NotHermitian(
            f"matrix deviates from its conjugate transpose by {dev:.3e} "
            f"(tolerance {HERM_TOL:.1e})"
        )
    out = (m + _adjoint(m)) / 2
    out.setflags(write=False)
    return out


def validate_hermitian(m) -> np.ndarray:
    """Check Hermiticity entrywise and return the symmetrized matrix.

    Inputs within ``HERM_TOL`` of Hermitian are replaced by ``(m + m†)/2`` so that
    downstream eigensolves see an exactly Hermitian operator.  The returned
    array is a read-only copy.
    """
    return _validate_hermitian_stack(_as_square_complex(m))


def validate_density(m) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite.

    Entries are preserved verbatim (no renormalization, no symmetrization);
    only the checks are performed.  Raises the error naming the first violated
    invariant together with the worst offending magnitude.  A stack of
    matrices is checked matrix by matrix; the error then names the worst
    offence against the first invariant that any of them violates.
    """
    m = _as_square_stack(m)
    dev = np.abs(m - _adjoint(m)).max()
    if dev > HERM_TOL:
        raise NotHermitian(
            f"density matrix deviates from Hermiticity by {dev:.3e} "
            f"(tolerance {HERM_TOL:.1e})"
        )
    tr = np.trace(m, axis1=-2, axis2=-1).reshape(-1)
    k = int(np.abs(tr - 1.0).argmax())
    if abs(tr[k] - 1.0) > TRACE_TOL:
        raise NotUnitTrace(f"trace is {tr[k].real:.17g}, deviation {abs(tr[k] - 1.0):.3e}")
    smallest = np.linalg.eigvalsh((m + _adjoint(m)) / 2)[..., 0].min()
    if smallest < -PSD_TOL:
        raise NotPSD(f"smallest eigenvalue {smallest:.3e} below -{PSD_TOL:.1e}")
    # ρ_ii ρ_jj ≥ |ρ_ij|² holds for any PSD matrix; with the eigenvalue test
    # passed this can only trip on borderline numerics, but it is cheap and
    # pins down the offending pair when it does.
    d = m.shape[-1]
    diag = m.diagonal(axis1=-2, axis2=-1).real
    gram = (diag[..., :, None] * diag[..., None, :] - np.abs(m) ** 2).reshape(-1, d * d)
    gram[:, :: d + 1] = 0.0
    worst = gram.min()
    if worst < -PSD_TOL:
        i, j = divmod(int(gram.argmin()) % (d * d), d)
        raise NotPSD(
            f"entry bound rho_{i}{i} rho_{j}{j} >= |rho_{i}{j}|^2 violated "
            f"by {-worst:.3e}"
        )
    out = m.copy()
    out.setflags(write=False)
    return out


def validate_pure_state(psi) -> np.ndarray:
    """Check a state vector is normalized; returns a read-only copy.

    Only a 1-D array is a state vector: anything else, a matrix included,
    raises ``DimensionMismatch``.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1:
        raise DimensionMismatch(f"expected a state vector, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("state vector contains NaN or Inf entries")
    nrm2 = float(np.vdot(psi, psi).real)
    if abs(nrm2 - 1.0) > 1e-12:
        raise ValueError(f"state vector norm² is {nrm2:.17g}, not 1")
    out = psi.copy()
    out.setflags(write=False)
    return out


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix or of each matrix of a stack.

    Parameters
    ----------
    h : array_like
        Hermitian matrix (within ``HERM_TOL``; symmetrized internally), or
        a stack of them, shape (..., d, d).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues ascending; columns of the second array are the
        corresponding orthonormal eigenvectors, ``h = V diag(λ) V†``.
    """
    h = _validate_hermitian_stack(h)
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


def hs_norm(m):
    """Hilbert-Schmidt (Frobenius) norm sqrt(Tr[m† m]): a float for one
    matrix, an array for a stack.

    Each matrix goes through ``np.linalg.norm`` on its own: a stacked
    reduction sums in another order and moves the last bit.
    """
    m = _as_square_stack(m)
    flat = m.reshape(-1, *m.shape[-2:])
    norms = np.array([np.linalg.norm(x) for x in flat]).reshape(m.shape[:-2])
    return _unstack(norms)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(a† b): a complex for one pair of
    matrices, an array for a stack, each pair through ``np.vdot``."""
    a = _as_square_stack(a)
    b = _as_square_stack(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    d = a.shape[-1]
    pairs = zip(a.reshape(-1, d, d), b.reshape(-1, d, d))
    products = np.array([np.vdot(x, y) for x, y in pairs]).reshape(a.shape[:-2])
    return _unstack(products)
