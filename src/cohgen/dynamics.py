"""Unitary time evolution and finite-difference oracles.

The finite-difference derivative here is the independent check on the closed
form in :func:`cohgen.coherence.coherence_derivative`: it knows nothing about
commutators, only about evolving the state and differencing the coherence.

:func:`fd_derivative` and :func:`entropy_derivative_check` also accept
stacks of pairs, ρ and H of one shape (..., d, d): every pair is validated
and the results are arrays (report fields for the latter) with one entry per
pair, bit for bit the single-pair results.  ``evolve`` and ``trajectory``
take one pair.
"""
from dataclasses import dataclass

import numpy as np

from .coherence import _entropy_bits, rel_entropy_coherence, von_neumann_entropy
from .errors import DimensionMismatch, SingularState
from .linalg import (
    _adjoint,
    _as_square_complex,
    _as_square_stack,
    _unstack,
    eig_hermitian,
    validate_density,
)

# Matrix entries per block of the stacked conjugation in `trajectory`.  A
# whole 2000-point grid at d = 32 in one block would hold several (2000, 32,
# 32) complex temporaries at once; blocks keep them a fixed size instead.
# The states stay in their per-block stacks too: copying them into one
# (T, d, d) array raised the orbit_scan benchmark's peak RSS from 78 to 106 MB.
_BLOCK_ENTRIES = 2**15


@dataclass(frozen=True)
class Trajectory:
    """Sampled unitary orbit: states with their coherence and entropy in bits."""

    times: np.ndarray
    states: tuple
    coherence: np.ndarray
    entropy: np.ndarray

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class EntropyDerivativeReport:
    """Two routes to d/dt S(ρ_t) at t = 0; both vanish for unitary dynamics."""

    lhs: float  # central finite difference of the entropy
    rhs: float  # -Tr[ρ̇ log₂ ρ] with ρ̇ = -i[H, ρ]


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
    """Sample the orbit t ↦ e^{-iHt} ρ e^{iHt} on an ascending time grid.

    H is diagonalized once.  The grid is then taken in blocks: each block is
    one stacked conjugation W ρ' W† with W = V diag(e^{-iλt}) and ρ' = V†ρV,
    and one stacked ``eigvalsh`` whose eigenvalues give both the entropy and,
    with the diagonal, the coherence.  Per grid point that is two d×d complex
    matrix products and one Hermitian eigenvalue solve, O(d³); the entropy
    is recomputed from every sampled state, never copied from S(ρ), so it
    stays a check on the conjugation.  A block holds at most
    ``_BLOCK_ENTRIES`` matrix entries (about 0.5 MB of complex128 per
    temporary), so the working memory beyond the returned states does not
    grow with the grid.  ``states`` are read-only views into the block stacks.
    ρ is validated once at entry, like in :func:`fd_derivative`.
    """
    rho, hamiltonian = _check_shapes(rho, hamiltonian)
    rho = validate_density(rho)
    t_grid = np.asarray(t_grid, dtype=np.float64).reshape(-1)
    if t_grid.size == 0:
        raise ValueError("time grid is empty")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0):
        raise ValueError("time grid must be strictly ascending")
    lam, vec = eig_hermitian(hamiltonian)
    rho_eig = vec.conj().T @ rho @ vec
    d = rho.shape[0]
    block = max(1, _BLOCK_ENTRIES // (d * d))
    states = []
    ent = np.empty(t_grid.size)
    s_diag = np.empty(t_grid.size)
    for start in range(0, t_grid.size, block):
        part = slice(start, start + block)
        w = vec * np.exp(-1j * lam * t_grid[part, None])[:, None, :]
        rho_t = w @ rho_eig @ w.conj().swapaxes(-1, -2)
        rho_t = (rho_t + rho_t.conj().swapaxes(-1, -2)) / 2
        rho_t.setflags(write=False)
        states.extend(rho_t)
        ent[part] = _entropy_bits(np.linalg.eigvalsh(rho_t))
        s_diag[part] = _entropy_bits(rho_t.diagonal(axis1=-2, axis2=-1).real)
    coh = np.maximum(s_diag - ent, 0.0) + 0.0
    return Trajectory(times=t_grid, states=tuple(states), coherence=coh, entropy=ent)


def _validate_step(h: float):
    if not 0.0 < h <= 0.1:
        raise ValueError(f"finite-difference step must lie in (0, 0.1], got {h}")


def fd_derivative(rho, hamiltonian, h: float, richardson: bool = False) -> float:
    """Central-difference estimate of d/dt C_r(ρ_t) at t = 0.

    With ``richardson=True`` the h and h/2 estimates are combined,
    ``(4 D(h/2) - D(h))/3``, cancelling the leading O(h²) truncation term.
    H is diagonalized and ρ validated once; each orbit point then costs
    two matrix products and the coherence's eigensolve.  A stack of pairs
    gives an array of estimates.
    """
    _validate_step(h)
    rho, hamiltonian = _check_shapes(rho, hamiltonian, _as_square_stack)
    lam, vec = eig_hermitian(hamiltonian)
    rho = validate_density(rho)

    def central(step):
        plus = rel_entropy_coherence(_rotate(rho, lam, vec, step))
        minus = rel_entropy_coherence(_rotate(rho, lam, vec, -step))
        return (plus - minus) / (2 * step)

    if richardson:
        return (4 * central(h / 2) - central(h)) / 3
    return central(h)


def entropy_derivative_check(rho, hamiltonian, h: float) -> EntropyDerivativeReport:
    """Compare two routes to d/dt S(ρ_t) at t = 0 for full-rank ρ.

    ``lhs`` differences the entropy along the orbit; ``rhs`` evaluates
    -Tr[ρ̇ log₂ ρ] with ρ̇ = -i[H, ρ] from the von Neumann equation.  Since ρ
    commutes with log₂ ρ, both vanish analytically — the check quantifies how
    well the numerics reproduce that.  A stack of pairs gives a report of
    arrays; every state of it must be full rank.
    """
    rho, hamiltonian = _check_shapes(rho, hamiltonian, _as_square_stack)
    _validate_step(h)
    lam, vec = np.linalg.eigh(rho)
    if lam.min() < 1e-10:
        raise SingularState(
            f"state eigenvalue {lam.min():.3e} below 1e-10; log₂ρ is not finite"
        )
    h_lam, h_vec = eig_hermitian(hamiltonian)
    validate_density(rho)
    s_plus = von_neumann_entropy(_rotate(rho, h_lam, h_vec, h))
    s_minus = von_neumann_entropy(_rotate(rho, h_lam, h_vec, -h))
    lhs = (s_plus - s_minus) / (2 * h)
    log_rho = (vec * np.log2(lam)[..., None, :]) @ _adjoint(vec)
    rho_dot = -1j * (hamiltonian @ rho - rho @ hamiltonian)
    rhs = -np.trace(rho_dot @ log_rho, axis1=-2, axis2=-1).real
    return EntropyDerivativeReport(lhs=lhs, rhs=_unstack(rhs))
