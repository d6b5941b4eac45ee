"""Coherence-generating capacity of a Hamiltonian.

The capacity of H is the maximum over input states of the instantaneous rate
of change of the relative entropy of coherence under exp(-iHt).  For 2×2
Hamiltonians a closed form reduces the problem to a 1-D maximization; for
general dimension the maximization over pure states runs as projected
gradient ascent on the complex unit sphere with random restarts.

The module also provides the pieces of the capacity upper bound
``sqrt(2 max_p f(p))`` (f = surprisal variance): the two-level distribution
family that attains ``max_p f(p)``, the matching optimal state and
Hamiltonian constructions, and an exhaustive simplex-grid oracle used by the
test suite to confirm the family is not beaten anywhere on the simplex.
"""
import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .coherence import coherence_commutator, coherence_derivative
from .errors import (
    DimensionMismatch,
    InvalidGamma,
    NoConvergence,
    ResolutionTooLarge,
    ZeroCommutator,
)
from .linalg import hs_norm, validate_hermitian
from .sampling import random_pure_state

LN2 = math.log(2.0)
_FLOOR = 1e-12          # smallest allowed squared amplitude during ascent
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60


class SolverMethod(enum.Enum):
    QUBIT_ANALYTIC = "QubitAnalytic"
    PURE_STATE_ASCENT = "PureStateAscent"
    MIXED_STATE_ASCENT = "MixedStateAscent"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`capacity_numeric`.

    ``mixed`` switches the search from pure states to a full density-matrix
    parameterization (ρ = AA†/Tr[AA†]).  It exists to probe numerically
    whether mixed states can beat pure ones — no run has ever shown that —
    and is off by default.
    """

    restarts: int = 32
    max_iters: int = 2000
    grad_tol: float = 1e-9
    step_init: float = 0.1
    seed: int = 0
    mixed: bool = False


def _validate_config(cfg: SolverConfig):
    if cfg.restarts < 1:
        raise ValueError(f"restarts must be ≥ 1, got {cfg.restarts}")
    if cfg.max_iters < 1:
        raise ValueError(f"max_iters must be ≥ 1, got {cfg.max_iters}")
    if not cfg.grad_tol > 0:
        raise ValueError(f"grad_tol must be positive, got {cfg.grad_tol}")
    if not cfg.step_init > 0:
        raise ValueError(f"step_init must be positive, got {cfg.step_init}")


@dataclass(frozen=True)
class CapacityResult:
    value: float                # bits per unit time
    argmax_state: np.ndarray    # density matrix attaining `value`
    method: SolverMethod
    restarts_used: int
    converged: bool
    min_diag: float             # smallest diagonal entry of argmax_state


@dataclass(frozen=True)
class GammaResult:
    """Maximum of the surprisal variance over the two-level family.

    The family is p(γ) = (γ, (1-γ)/(d-1), ..., (1-γ)/(d-1)); the capacity
    bound is sqrt(2 f_max).
    """

    gamma: float
    f_max: float          # bits²
    capacity_bound: float # bits per unit time


@dataclass(frozen=True)
class BoundEqualityReport:
    """Both sides of the capacity bound at the optimal state; gap = |lhs - rhs|."""

    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class GridSearchResult:
    best_p: np.ndarray
    f_best: float


# ---------------------------------------------------------------------------
# 1-D maximizations

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fun, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    x = (a + b) / 2
    return x, fun(x)


def _bisect_root(phi, lo: float, hi: float) -> float:
    """Bisection for a strictly monotone phi with a sign change on [lo, hi]."""
    flo = phi(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval collapsed to adjacent doubles
            break
        fm = phi(mid)
        if fm == 0.0:
            return mid
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _qubit_g(x: float) -> float:
    """sqrt(x(1-x)) log₂((1-x)/x); 2|H₁₀| times its max is the qubit capacity."""
    return math.sqrt(x * (1.0 - x)) * math.log2((1.0 - x) / x)


@lru_cache(maxsize=1)
def _qubit_xstar() -> float:
    x, _ = _branch_peak(2, 1e-12, 0.5)
    return x


def _family_log_ratio(gamma: float, d: int) -> float:
    return math.log2((1.0 - gamma) / ((d - 1) * gamma))


def _family_f(gamma: float, d: int) -> float:
    """Surprisal variance of (γ, (1-γ)/(d-1), ..., (1-γ)/(d-1)) in bits²."""
    return gamma * (1.0 - gamma) * _family_log_ratio(gamma, d) ** 2


def _branch_peak(d: int, lo: float, hi: float):
    """Locate the single interior peak of the family f on (lo, hi).

    Golden section brackets the peak to ~1e-8 (the best a derivative-free
    search can resolve near a flat maximum in doubles); the estimate is then
    polished on the stationarity condition (1-2γ)·log₂((1-γ)/((d-1)γ)) =
    2/ln2, whose left side is strictly monotone through each peak, giving γ
    to machine precision.
    """
    g_hat, f_hat = _golden_max(lambda g: _family_f(g, d), lo, hi)

    def phi(g):
        return (1.0 - 2.0 * g) * _family_log_ratio(g, d) - 2.0 / LN2

    blo = max(lo, g_hat - 1e-6)
    bhi = min(hi, g_hat + 1e-6)
    if phi(blo) * phi(bhi) > 0:  # polish bracket missed the root; use the branch
        blo, bhi = lo, hi
    if phi(blo) * phi(bhi) <= 0:
        g_hat = _bisect_root(phi, blo, bhi)
        f_hat = _family_f(g_hat, d)
    return g_hat, f_hat


def max_surprisal_variance(d: int) -> GammaResult:
    """Maximize the surprisal variance over the two-level family for dimension d.

    f(γ) vanishes at γ ∈ {0, 1/d, 1} and has one interior peak on each side
    of the uniform point γ = 1/d, so each side is searched separately and the
    larger peak wins.  For d = 2 the two peaks are mirror images with
    identical height; the smaller γ is returned.  γ is resolved to well
    below 1e-10 (see _branch_peak).
    """
    if d < 2:
        raise ValueError(f"dimension must be ≥ 2, got {d}")
    eps = 1e-12
    uniform = 1.0 / d
    g_lo, f_lo = _branch_peak(d, eps, uniform)
    g_hi, f_hi = _branch_peak(d, uniform, 1.0 - eps)
    if abs(f_lo - f_hi) <= 1e-12:
        gamma, f_max = (g_lo, f_lo) if g_lo <= g_hi else (g_hi, f_hi)
    elif f_lo > f_hi:
        gamma, f_max = g_lo, f_lo
    else:
        gamma, f_max = g_hi, f_hi
    return GammaResult(
        gamma=float(gamma),
        f_max=float(f_max),
        capacity_bound=float(math.sqrt(2.0 * f_max)),
    )


# ---------------------------------------------------------------------------
# Closed-form constructions

def optimal_state(d: int, gamma: float) -> np.ndarray:
    """Pure state sqrt(γ)|0⟩ + sqrt((1-γ)/(d-1)) Σ_{i≥1}|i⟩ as an amplitude vector."""
    if d < 2:
        raise ValueError(f"dimension must be ≥ 2, got {d}")
    if not 0.0 < gamma < 1.0:
        raise InvalidGamma(f"gamma must lie in (0, 1), got {gamma}")
    amp = np.full(d, math.sqrt((1.0 - gamma) / (d - 1)), dtype=np.complex128)
    amp[0] = math.sqrt(gamma)
    amp.setflags(write=False)
    return amp


def optimal_hamiltonian(d: int) -> np.ndarray:
    """The capacity-attaining Hamiltonian i/√2 (|0⟩⟨φ| - |φ⟩⟨0|), |φ⟩ uniform on 1..d-1.

    Entrywise: H₀ⱼ = i/sqrt(2(d-1)) and Hⱼ₀ = -i/sqrt(2(d-1)) for j ≥ 1, zero
    elsewhere; unit Hilbert-Schmidt norm by construction.
    """
    if d < 2:
        raise ValueError(f"dimension must be ≥ 2, got {d}")
    a = 1.0 / math.sqrt(2.0 * (d - 1))
    h = np.zeros((d, d), dtype=np.complex128)
    h[0, 1:] = 1j * a
    h[1:, 0] = -1j * a
    h.setflags(write=False)
    return h


def holder_hamiltonian(rho) -> np.ndarray:
    """The unit-norm Hamiltonian maximizing the coherence rate for this state.

    This is M/‖M‖₂ with M = i[ρ, log₂Δ(ρ)]: the inner product Tr(HM) attains
    Hölder's bound ‖H‖₂‖M‖₂ exactly when H is parallel to M, so the returned
    H gives coherence rate ‖M‖₂.
    """
    m = coherence_commutator(rho)
    n = hs_norm(m)
    if n < 1e-14:
        raise ZeroCommutator(
            "state commutes with its dephased log (diagonal, or balanced "
            "diagonal like the uniform-superposition state); coherence is "
            "first-order stationary for every Hamiltonian"
        )
    out = m / n
    out.setflags(write=False)
    return out


def capacity_bound_equality(d: int) -> BoundEqualityReport:
    """Evaluate both sides of max_{‖H‖₂≤1} capacity = sqrt(2 max_p f(p)).

    lhs: coherence rate of the Hölder-matched Hamiltonian at the optimal
    state; rhs: the bound from the two-level family.  The gap is reported,
    not asserted — assertions live in the test suite.
    """
    res = max_surprisal_variance(d)
    psi = optimal_state(d, res.gamma)
    rho = np.outer(psi, psi.conj())
    h = holder_hamiltonian(rho)
    lhs = coherence_derivative(h, rho).analytic
    return BoundEqualityReport(lhs=lhs, rhs=res.capacity_bound, gap=abs(lhs - res.capacity_bound))


# ---------------------------------------------------------------------------
# Qubit closed form

def capacity_qubit(hamiltonian) -> CapacityResult:
    """Capacity of a 2×2 Hamiltonian from the closed form 2|H₁₀| g(ρ₀₀).

    The rate for a pure qubit state with populations (x, 1-x) and optimal
    off-diagonal phase is 2|H₁₀| sqrt(x(1-x)) log₂((1-x)/x); the population
    x* maximizing it is found once by golden section (cached).  The optimal
    phase of ρ₀₁ is arg(H₀₁) - π/2.  When H₁₀ = 0 every state has rate 0 and
    the incoherent representative diag(1, 0) is returned.

    H goes through :func:`cohgen.linalg.validate_hermitian`: a non-Hermitian
    matrix raises ``NotHermitian`` and NaN or Inf entries raise ``ValueError``.
    """
    h = validate_hermitian(hamiltonian)
    if h.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2×2 matrix, got shape {h.shape}")
    coupling = abs(complex(h[1, 0]))
    if coupling == 0.0:
        state = np.diag([1.0 + 0j, 0j])
        state.setflags(write=False)
        return CapacityResult(
            value=0.0,
            argmax_state=state,
            method=SolverMethod.QUBIT_ANALYTIC,
            restarts_used=0,
            converged=True,
            min_diag=0.0,
        )
    x = _qubit_xstar()
    value = 2.0 * coupling * _qubit_g(x)
    alpha = math.atan2(h[0, 1].imag, h[0, 1].real) - math.pi / 2.0
    off = math.sqrt(x * (1.0 - x)) * np.exp(1j * alpha)
    state = np.array([[x, off], [np.conj(off), 1.0 - x]], dtype=np.complex128)
    state.setflags(write=False)
    return CapacityResult(
        value=float(value),
        argmax_state=state,
        method=SolverMethod.QUBIT_ANALYTIC,
        restarts_used=0,
        converged=True,
        min_diag=float(x),
    )


# ---------------------------------------------------------------------------
# Projected gradient ascent

def _floor_renorm(psi: np.ndarray) -> np.ndarray:
    """Push squared amplitudes below the floor up to 1e-6 and renormalize.

    The objective's gradient divides by conjugate amplitudes, so iterates
    must keep every component bounded away from zero.
    """
    p = np.abs(psi) ** 2
    small = p < _FLOOR
    if small.any():
        psi = psi.copy()
        mag = np.abs(psi[small])
        phase = np.where(mag > 0, psi[small] / np.where(mag > 0, mag, 1.0), 1.0)
        psi[small] = 1e-6 * phase
    return psi / np.linalg.norm(psi)


def _pure_objective(h: np.ndarray, psi: np.ndarray) -> float:
    """Coherence rate of |ψ⟩⟨ψ| under h: -2 Σ_k log₂|ψ_k|² Im[ψ̄_k (hψ)_k]."""
    logp = np.log2(np.abs(psi) ** 2)
    z = psi.conj() * (h @ psi)
    return -2.0 * float((logp * z.imag).sum())


def _pure_gradient(h: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Wirtinger gradient ∂J/∂ψ̄ projected to the tangent space of the sphere."""
    logp = np.log2(np.abs(psi) ** 2)
    hpsi = h @ psi
    z = psi.conj() * hpsi
    grad = 1j * (logp * hpsi - h @ (logp * psi)) - (2.0 / LN2) * z.imag / psi.conj()
    grad -= np.vdot(psi, grad) * psi
    return grad


def _ascend_pure(h: np.ndarray, psi0: np.ndarray, cfg: SolverConfig):
    psi = _floor_renorm(psi0)
    value = _pure_objective(h, psi)
    step = cfg.step_init
    converged = False
    for _ in range(cfg.max_iters):
        grad = _pure_gradient(h, psi)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= cfg.grad_tol:
            converged = True
            break
        resolution = 1e-14 * max(1.0, abs(value))
        s = step
        accepted = False
        for k in range(_MAX_BACKTRACKS):
            cand = _floor_renorm(psi + s * grad)
            cand_value = _pure_objective(h, cand)
            rise = _ARMIJO_C * s * gnorm * gnorm
            if rise > resolution:
                if cand_value >= value + rise:
                    accepted = True
                    break
            else:
                # The Armijo increase is below the floating-point resolution
                # of the objective (we are inside the quadratic cap of the
                # maximum), where a value test would accept equal-J steps
                # that wander.  Demand a strict drop in the first-order
                # optimality norm instead.
                cand_gnorm = float(np.linalg.norm(_pure_gradient(h, cand)))
                if cand_gnorm < gnorm and cand_value >= value - 100 * resolution:
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            break  # numerically stationary but gradient above tol: not converged
        psi, value = cand, cand_value
        step = 2.0 * s if k == 0 else s
    rho = np.outer(psi, psi.conj())
    return value, (rho + rho.conj().T) / 2, converged


def _rho_from_factor(a: np.ndarray) -> np.ndarray:
    rho = a @ a.conj().T
    return (rho + rho.conj().T) / 2


def _floor_factor(a: np.ndarray) -> np.ndarray:
    """Keep every diagonal of AA†/Tr[AA†] above the floor; unit Frobenius norm."""
    a = a / np.linalg.norm(a)
    rows = (np.abs(a) ** 2).sum(axis=1)
    small = rows < _FLOOR
    if small.any():
        a = a.copy()
        for k in np.nonzero(small)[0]:
            akk = a[k, k]
            phase = akk / abs(akk) if abs(akk) > 0 else 1.0
            a[k, k] = akk + 1e-6 * phase
        a = a / np.linalg.norm(a)
    return a


def _mixed_objective_parts(h: np.ndarray, a: np.ndarray):
    rho = _rho_from_factor(a)
    logp = np.log2(rho.diagonal().real)
    gmat = 1j * (logp[:, None] * h - h * logp[None, :])  # i [diag(logp), h]
    value = float((gmat * rho.T).sum().real)             # Tr(G ρ)
    return value, rho, gmat


def _mixed_gradient(h, a, value, rho, gmat):
    hrho_diag_im = (h @ rho).diagonal().imag
    w = gmat - (2.0 / LN2) * np.diag(hrho_diag_im / rho.diagonal().real)
    return w @ a - value * a


def _ascend_mixed(h: np.ndarray, a0: np.ndarray, cfg: SolverConfig):
    a = _floor_factor(a0)
    value, rho, gmat = _mixed_objective_parts(h, a)
    step = cfg.step_init
    converged = False
    for _ in range(cfg.max_iters):
        grad = _mixed_gradient(h, a, value, rho, gmat)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= cfg.grad_tol:
            converged = True
            break
        resolution = 1e-14 * max(1.0, abs(value))
        s = step
        accepted = False
        for k in range(_MAX_BACKTRACKS):
            cand = _floor_factor(a + s * grad)
            cand_value, cand_rho, cand_gmat = _mixed_objective_parts(h, cand)
            rise = _ARMIJO_C * s * gnorm * gnorm
            if rise > resolution:
                if cand_value >= value + rise:
                    accepted = True
                    break
            else:
                # Same noise-floor handling as the pure ascent: once the
                # objective can no longer resolve the Armijo increase, accept
                # only steps that strictly shrink the gradient norm.
                cand_grad = _mixed_gradient(
                    h, cand, cand_value, cand_rho, cand_gmat
                )
                cand_gnorm = float(np.linalg.norm(cand_grad))
                if cand_gnorm < gnorm and cand_value >= value - 100 * resolution:
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            break
        a, value, rho, gmat = cand, cand_value, cand_rho, cand_gmat
        step = 2.0 * s if k == 0 else s
    return value, rho, converged


def capacity_numeric(hamiltonian, cfg: SolverConfig | None = None) -> CapacityResult:
    """Capacity of a Hamiltonian by gradient ascent over states, any dimension.

    Runs ``cfg.restarts`` independent ascents from random starting states
    drawn from ``default_rng(cfg.seed)`` (so results are deterministic for a
    fixed config) and keeps the best.  Each ascent follows the analytic
    gradient of the coherence rate, projected to the unit sphere, with an
    Armijo backtracking line search.

    Raises :class:`NoConvergence` — with the best-effort result attached —
    when no restart brings the gradient norm below ``cfg.grad_tol``.
    """
    if cfg is None:
        cfg = SolverConfig()
    _validate_config(cfg)
    h = validate_hermitian(hamiltonian)
    d = h.shape[0]
    if d < 2:
        raise DimensionMismatch(f"dimension must be ≥ 2, got {d}")
    rng = np.random.default_rng(cfg.seed)
    best_value = -np.inf
    best_rho = None
    any_converged = False
    for _ in range(cfg.restarts):
        if cfg.mixed:
            a0 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            value, rho, conv = _ascend_mixed(h, a0, cfg)
        else:
            psi0 = random_pure_state(d, rng)
            value, rho, conv = _ascend_pure(h, psi0, cfg)
        any_converged = any_converged or conv
        if value > best_value:
            best_value, best_rho = value, rho
    if best_value < 0.0:
        # Every ascent got stuck below zero (essentially-diagonal h). The
        # uniform-magnitude state has rate exactly 0, which is always
        # attainable, so report that instead of a negative artefact.
        psi = np.full(d, 1.0 / math.sqrt(d), dtype=np.complex128)
        best_rho = np.outer(psi, psi.conj())
        best_value = 0.0
    best_rho = best_rho.copy()
    best_rho.setflags(write=False)
    result = CapacityResult(
        value=float(best_value) + 0.0,  # squash IEEE -0.0 from stuck ascents
        argmax_state=best_rho,
        method=SolverMethod.MIXED_STATE_ASCENT if cfg.mixed else SolverMethod.PURE_STATE_ASCENT,
        restarts_used=cfg.restarts,
        converged=any_converged,
        min_diag=float(best_rho.diagonal().real.min()),
    )
    if not any_converged:
        raise NoConvergence(
            f"no restart reached gradient tolerance {cfg.grad_tol:g} within "
            f"{cfg.max_iters} iterations",
            best_result=result,
        )
    return result


# ---------------------------------------------------------------------------
# Exhaustive simplex oracle (test-side cross-check)

def simplex_grid_oracle(d: int, resolution: int) -> GridSearchResult:
    """Exhaustive surprisal-variance maximization over the simplex grid p = k/resolution.

    Enumerates every composition of ``resolution`` into d nonnegative parts
    (roughly resolution^(d-1)/(d-1)! points — cheap for d = 2, 3; minutes and
    noticeable memory churn at d = 4 with the coarsest useful grids) and
    returns the grid maximizer.  Deliberately brute-force: this is the
    oracle the tests use to cross-examine the two-level-family claim, so it
    must not share machinery with :func:`max_surprisal_variance`.
    """
    if d not in (2, 3, 4):
        raise ValueError(f"grid oracle supports d in {{2, 3, 4}}, got {d}")
    if resolution > 400:
        raise ResolutionTooLarge(f"resolution {resolution} exceeds the cap of 400")
    if resolution < 1:
        raise ValueError(f"resolution must be ≥ 1, got {resolution}")

    def batches(batch_size=200_000):
        batch = []
        for cuts in combinations(range(resolution + d - 1), d - 1):
            edges = (-1,) + cuts + (resolution + d - 1,)
            batch.append([edges[i + 1] - edges[i] - 1 for i in range(d)])
            if len(batch) == batch_size:
                yield np.asarray(batch, dtype=np.float64)
                batch = []
        if batch:
            yield np.asarray(batch, dtype=np.float64)

    best_f = -1.0
    best_p = None
    for counts in batches():
        p = counts / resolution
        s = np.where(p > 0, -np.log2(np.maximum(p, 1e-300)), 0.0)
        m1 = (p * s).sum(axis=1)
        m2 = (p * s * s).sum(axis=1)
        f = m2 - m1 * m1
        k = int(f.argmax())
        if f[k] > best_f:
            best_f = float(f[k])
            best_p = p[k]
    best_p = best_p.copy()
    best_p.setflags(write=False)
    return GridSearchResult(best_p=best_p, f_best=best_f)
