"""Unitary time evolution and finite-difference oracles.

The finite-difference derivative here is the independent check on the closed
form in :func:`cohgen.coherence.coherence_derivative`: it knows nothing about
commutators, only about evolving the state and differencing the coherence.

:func:`entropy_derivative_check` returns the entropy rate -Tr[ρ̇ log₂ ρ] of
the von Neumann equation, which vanishes for unitary dynamics.

:func:`fd_derivative` and :func:`entropy_derivative_check` also accept
stacks of pairs, ρ and H of one shape (..., d, d): every pair is validated
and the results are arrays with one entry per pair, bit for bit the
single-pair results.  ``evolve`` and ``trajectory`` take one pair.
"""
from dataclasses import dataclass

import numpy as np

from .coherence import _entropy_bits, rel_entropy_coherence
from .errors import DimensionMismatch, SingularState
from .linalg import (
    _adjoint,
    _as_square_complex,
    _as_square_stack,
    _unstack,
    _validate_hermitian_stack,
    eig_hermitian,
    validate_density,
)

# Matrix entries per block of the stacked conjugation in `trajectory`.  A
# whole 2000-point grid at d = 32 in one block would hold several (2000, 32,
# 32) complex temporaries at once; blocks keep them a fixed size instead, so
# the working memory does not grow with the grid.
_BLOCK_ENTRIES = 2**15


@dataclass(frozen=True)
class Trajectory:
    """Sampled unitary orbit: coherence and entropy in bits at each time."""

    times: np.ndarray
    coherence: np.ndarray
    entropy: np.ndarray

    def __len__(self):
        return len(self.times)


def _check_shapes(rho, hamiltonian, as_square=_as_square_complex):
    """Square, finite operands of one shape (``DimensionMismatch`` / ``ValueError``);
    ``as_square=_as_square_stack`` also admits stacks."""
    rho = as_square(rho)
    hamiltonian = as_square(hamiltonian)
    if rho.shape != hamiltonian.shape:
        raise DimensionMismatch(f"shape mismatch {rho.shape} vs {hamiltonian.shape}")
    return rho, hamiltonian


def _rotate(rho, lam, vec, t: float) -> np.ndarray:
    """e^{-iHt} ρ e^{iHt} from the eigendecomposition H = V diag(λ) V†, for
    one matrix or a stack."""
    u = (vec * np.exp(-1j * lam * t)[..., None, :]) @ _adjoint(vec)
    return u @ rho @ _adjoint(u)


def evolve(rho, hamiltonian, t: float) -> np.ndarray:
    """Conjugate ρ by exp(-i t H); the result is revalidated as a density matrix."""
    rho, hamiltonian = _check_shapes(rho, hamiltonian)
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    lam, vec = eig_hermitian(hamiltonian)
    return validate_density(_rotate(rho, lam, vec, t))


def trajectory(rho, hamiltonian, t_grid) -> Trajectory:
    """Sample the orbit t ↦ e^{-iHt} ρ e^{iHt} on a finite, strictly
    ascending time grid.

    H is diagonalized once.  The grid is then taken in blocks: each block is
    one stacked conjugation W ρ' W† with W = V diag(e^{-iλt}) and ρ' = V†ρV,
    and one stacked ``eigvalsh`` whose eigenvalues give both the entropy and,
    with the diagonal, the coherence.  Per grid point that is two d×d complex
    matrix products and one Hermitian eigenvalue solve, O(d³); the entropy
    is recomputed from every sampled state, never copied from S(ρ), so it
    stays a check on the conjugation.  A block holds at most
    ``_BLOCK_ENTRIES`` matrix entries (about 0.5 MB of complex128 per
    temporary) and is dropped once its coherence and entropy are taken, so
    the working memory does not grow with the grid.  ρ is validated once at
    entry, like in :func:`fd_derivative`.
    """
    rho, hamiltonian = _check_shapes(rho, hamiltonian)
    rho = validate_density(rho)
    t_grid = np.asarray(t_grid, dtype=np.float64).reshape(-1)
    if t_grid.size == 0:
        raise ValueError("time grid is empty")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("time grid must be finite")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0):
        raise ValueError("time grid must be strictly ascending")
    lam, vec = eig_hermitian(hamiltonian)
    rho_eig = vec.conj().T @ rho @ vec
    d = rho.shape[0]
    block = max(1, _BLOCK_ENTRIES // (d * d))
    ent = np.empty(t_grid.size)
    s_diag = np.empty(t_grid.size)
    for start in range(0, t_grid.size, block):
        part = slice(start, start + block)
        w = vec * np.exp(-1j * lam * t_grid[part, None])[:, None, :]
        rho_t = w @ rho_eig @ w.conj().swapaxes(-1, -2)
        rho_t = (rho_t + rho_t.conj().swapaxes(-1, -2)) / 2
        ent[part] = _entropy_bits(np.linalg.eigvalsh(rho_t))
        s_diag[part] = _entropy_bits(rho_t.diagonal(axis1=-2, axis2=-1).real)
    coh = np.maximum(s_diag - ent, 0.0) + 0.0
    return Trajectory(times=t_grid, coherence=coh, entropy=ent)


def fd_derivative(rho, hamiltonian, h: float) -> float:
    """Central-difference estimate of d/dt C_r(ρ_t) at t = 0.

    H is diagonalized and ρ validated once; each orbit point then costs
    two matrix products and the coherence's eigensolve.  A stack of pairs
    gives an array of estimates.
    """
    if not 0.0 < h <= 0.1:
        raise ValueError(f"finite-difference step must lie in (0, 0.1], got {h}")
    rho, hamiltonian = _check_shapes(rho, hamiltonian, _as_square_stack)
    lam, vec = eig_hermitian(hamiltonian)
    rho = validate_density(rho)
    plus = rel_entropy_coherence(_rotate(rho, lam, vec, h))
    minus = rel_entropy_coherence(_rotate(rho, lam, vec, -h))
    return (plus - minus) / (2 * h)


def entropy_derivative_check(rho, hamiltonian) -> float:
    """Entropy rate d/dt S(ρ_t) = -Tr[ρ̇ log₂ ρ] at t = 0 for full-rank ρ.

    ρ̇ = -i[H, ρ] comes from the von Neumann equation.  Since ρ commutes with
    log₂ ρ, the rate vanishes analytically — the value quantifies how well
    the numerics reproduce that.  A stack of pairs gives an array of rates;
    every state of it must be full rank.
    """
    rho, hamiltonian = _check_shapes(rho, hamiltonian, _as_square_stack)
    lam, vec = np.linalg.eigh(rho)
    if lam.min() < 1e-10:
        raise SingularState(
            f"state eigenvalue {lam.min():.3e} below 1e-10; log₂ρ is not finite"
        )
    _validate_hermitian_stack(hamiltonian)
    validate_density(rho)
    log_rho = (vec * np.log2(lam)[..., None, :]) @ _adjoint(vec)
    rho_dot = -1j * (hamiltonian @ rho - rho @ hamiltonian)
    return _unstack(-np.trace(rho_dot @ log_rho, axis1=-2, axis2=-1).real)
