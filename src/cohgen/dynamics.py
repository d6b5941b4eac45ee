"""Unitary time evolution and finite-difference oracles.

:func:`trajectory` samples the coherence along an orbit without an
eigensolve per point.  The spectrum of ρ never moves under e^{-iHt}, so it
diagonalizes H and ρ once and then tracks only the diagonal of ρ(t),
through a rank-r factor of ρ: O(d²·r) per point.  Eigenvalues within the
rank cut-off ``_RANK_CUTOFF`` of the smallest get no column of the factor.
Its entropy column is S(ρ) at every point by construction, not a
measurement.

The finite-difference derivative here is the independent check on the closed
form in :func:`cohgen.coherence.coherence_derivative`: it knows nothing about
commutators, only about evolving the state and differencing the coherence.

:func:`entropy_derivative_check` returns the entropy rate -Tr[ρ̇ log₂ ρ] of
the von Neumann equation, which vanishes for unitary dynamics.

:func:`fd_derivative` and :func:`entropy_derivative_check` also accept
stacks of pairs, ρ and H of one shape (..., d, d): every pair is validated
and the results are arrays with one entry per pair, bit for bit the
single-pair results.  ``evolve`` and ``trajectory`` take one pair.

All four check their input in one order, and compute only after it: the
scalar parameter (the time, the time grid or the step), then ρ through
:func:`cohgen.linalg.validate_density`, then H through
:func:`cohgen.linalg.eig_hermitian` (the entropy rate, which needs H
itself, through the same Hermiticity check without the eigensolve), then
that ρ and H have one shape.  ``evolve`` and ``trajectory`` first require
each operand to be one matrix.  Each operand is checked once, and a call
with two faults reports the first in this order.
"""
from dataclasses import dataclass

import numpy as np

from .coherence import ZERO_DIAG_TOL, _entropy_bits, rel_entropy_coherence
from .errors import SingularState
from .linalg import (
    _adjoint,
    _is_real,
    _one_matrix,
    _same_shape,
    _unstack,
    _validate_hermitian_stack,
    eig_hermitian,
    validate_density,
)

# Entries per block temporary in `trajectory`.  A whole 2000-point grid of
# a full-rank d = 32 state in one block would hold (32, 2000 * 32) complex
# temporaries; blocks keep them a fixed size instead, so the working memory
# does not grow with the grid.
_BLOCK_ENTRIES = 2**15

# Rank cut-off of `trajectory`: an eigenvalue of ρ at most this far above
# the smallest one gets no column of the factor B.  It equals the entropy's
# zero threshold, below which a probability adds nothing to an entropy.
_RANK_CUTOFF = ZERO_DIAG_TOL


@dataclass(frozen=True)
class Trajectory:
    """Sampled unitary orbit: coherence and entropy in bits at each time."""

    times: np.ndarray
    coherence: np.ndarray
    entropy: np.ndarray

    def __len__(self):
        return len(self.times)


def _validated_pair(rho, hamiltonian):
    """The validated ρ and the eigendecomposition of H, for operands of one shape."""
    rho = validate_density(rho)
    lam, vec = eig_hermitian(hamiltonian)
    _same_shape(rho, vec)
    return rho, lam, vec


def _rotate(rho, lam, vec, t: float) -> np.ndarray:
    """e^{-iHt} ρ e^{iHt} from the eigendecomposition H = V diag(λ) V†, for
    one matrix or a stack."""
    u = (vec * np.exp(-1j * lam * t)[..., None, :]) @ _adjoint(vec)
    return u @ rho @ _adjoint(u)


def evolve(rho, hamiltonian, t: float) -> np.ndarray:
    """Conjugate ρ by exp(-i t H), once ρ has passed as a density matrix
    and H as Hermitian; a new array, not a validated copy."""
    if not _is_real(t, -np.inf, np.inf, "()"):
        raise ValueError(f"evolution time must be a finite real number, got {t!r}")
    rho, lam, vec = _validated_pair(_one_matrix(rho), _one_matrix(hamiltonian))
    return _rotate(rho, lam, vec, t)


def trajectory(rho, hamiltonian, t_grid) -> Trajectory:
    """Sample the orbit t ↦ e^{-iHt} ρ e^{iHt} on a finite, strictly
    ascending time grid.

    A unitary orbit keeps the spectrum of ρ, so only the diagonal of ρ(t)
    moves.  H = V diag(λ) V† and ρ' = V†ρV = U diag(μ) U† are diagonalized
    once, μ ascending.  The multiple μ₀ I of the identity in
    ρ' = μ₀ I + B B† never moves: it adds μ₀ to every diagonal entry,
    exactly, so a maximally mixed ρ has coherence 0.  B = U√(μ − μ₀) keeps
    the r columns whose μ − μ₀ exceeds ``_RANK_CUTOFF``.  Then
    diag ρ(t) = μ₀ + Σ_r |V (e^{-iλt} ∘ b_r)|², taken in blocks of grid
    points, each one (d, d) @ (d, T·r) product: O(d²·r) per point, O(d²)
    for a pure state (r = 1), and no eigensolve per point.  The coherence
    is S(diag ρ(t)) − S(ρ), and the entropy column is S(ρ) = S(μ) at every
    point by construction; it is no check on the orbit.

    A dropped column has μ − μ₀ ≤ ``_RANK_CUTOFF``, so the dropped mass is
    at most d × ``_RANK_CUTOFF`` per diagonal entry.  A block temporary
    holds at most ``_BLOCK_ENTRIES`` entries, so the working memory does
    not grow with the grid.  ρ is validated once at entry, like in
    :func:`fd_derivative`.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64).reshape(-1)
    if t_grid.size == 0:
        raise ValueError("time grid is empty")
    if not np.isfinite(t_grid).all():
        raise ValueError("time grid must be finite")
    if not (t_grid[1:] > t_grid[:-1]).all():
        raise ValueError("time grid must be strictly ascending")
    rho, lam, vec = _validated_pair(_one_matrix(rho), _one_matrix(hamiltonian))
    rho_eig = vec.conj().T @ rho @ vec
    mu, u = np.linalg.eigh((rho_eig + rho_eig.conj().T) / 2)
    above = mu - mu[0]
    keep = above > _RANK_CUTOFF
    factor = u[:, keep] * np.sqrt(above[keep])
    d, r = factor.shape
    block = max(1, _BLOCK_ENTRIES // (d * max(r, 1)))
    s_diag = np.empty(t_grid.size)
    for start in range(0, t_grid.size, block):
        times = t_grid[start:start + block]
        phased = np.exp(-1j * lam[:, None] * times)[:, :, None] * factor[:, None, :]
        amp = (vec @ phased.reshape(d, -1)).reshape(d, times.size, r)
        s_diag[start:start + times.size] = _entropy_bits(
            mu[0] + (amp.real**2 + amp.imag**2).sum(axis=-1).T)
    ent = np.full(t_grid.size, _entropy_bits(mu))
    coh = np.maximum(s_diag - ent, 0.0) + 0.0
    return Trajectory(times=t_grid, coherence=coh, entropy=ent)


def fd_derivative(rho, hamiltonian, h: float) -> float:
    """Central-difference estimate of d/dt C_r(ρ_t) at t = 0.

    H is diagonalized and ρ validated once; each orbit point then costs
    two matrix products and the coherence's eigensolve.  A stack of pairs
    gives an array of estimates.
    """
    if not _is_real(h, 0.0, 0.1, "(]"):
        raise ValueError(f"finite-difference step must be a real number in (0, 0.1], got {h!r}")
    rho, lam, vec = _validated_pair(rho, hamiltonian)
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
    rho = validate_density(rho)
    hamiltonian = _validate_hermitian_stack(hamiltonian)
    _same_shape(rho, hamiltonian)
    lam, vec = np.linalg.eigh(rho)
    if lam.min() < 1e-10:
        raise SingularState(
            f"state eigenvalue {lam.min():.3e} below 1e-10; log₂ρ is not finite"
        )
    log_rho = (vec * np.log2(lam)[..., None, :]) @ _adjoint(vec)
    rho_dot = -1j * (hamiltonian @ rho - rho @ hamiltonian)
    return _unstack(-np.trace(rho_dot @ log_rho, axis1=-2, axis2=-1).real)
