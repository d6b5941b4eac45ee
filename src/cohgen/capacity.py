"""Coherence-generating capacity of a Hamiltonian.

The capacity of H is the maximum over input states of the instantaneous rate
of change of the relative entropy of coherence under exp(-iHt).  For 2×2
Hamiltonians a closed form reduces the problem to a 1-D maximization; for
general dimension the maximization over pure states runs as projected
gradient ascent on the complex unit sphere with random restarts.  A caller
sets only the number of restarts and their seed (:class:`SolverConfig`); the
first step, the gradient tolerance (relative to ‖H‖₂ once that exceeds 1),
the iteration limit and the stop rules' thresholds are module constants.  Every
result carries a proven ceiling on the capacity (``upper_bound``); the
ascent ends as soon as a restart finishes on it, or sits on it with a
gradient norm below ``_POISED_TOL``·max(1, ‖H‖₂), which happens for every
qubit H and every matched H, never for a generic H at d ≥ 3 (see
:func:`capacity_numeric`).  There, once a restart converges, a restart
still running stops, unconverged, when it has settled more than
``_BEHIND_TOL`` (relative) below the best converged value.  A solve that
does not converge is no error: it returns its best result, with
``converged`` false.

The module also provides the pieces of the capacity upper bound
``sqrt(2 max_p f(p))`` (f = surprisal variance): the two-level distribution
family that attains ``max_p f(p)``, the matching optimal state and
Hamiltonian constructions, and an exhaustive simplex-grid oracle used by the
test suite to confirm the family is not beaten anywhere on the simplex.
"""
import enum
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .coherence import coherence_commutator, coherence_derivative, surprisal_variance
from .errors import DimensionMismatch, ZeroCommutator
from .linalg import _check_dim, _is_int, _is_real, hs_norm, validate_hermitian
from .sampling import random_pure_state

LN2 = math.log(2.0)
_FLOOR = 1e-12          # smallest allowed squared amplitude during ascent
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_MAX_ITERS = 2000       # accepted steps per restart
_GRAD_TOL = 1e-9        # projected gradient norm that counts as converged
_STEP_INIT = 0.1        # first trial step of every restart
_CERT_TOL = 1e-14       # relative distance to the proven ceiling that ends a solve
_BEHIND_TOL = 1e-2      # relative gap below the best converged value that stops a row
_SETTLED_TOL = 1e-4     # gradient norm (times max(1, ‖H‖₂)) of a row that may stop behind
_POISED_TOL = 1e-6      # gradient norm (times max(1, ‖H‖₂)) of a live row that may certify


class SolverMethod(enum.Enum):
    QUBIT_ANALYTIC = "QubitAnalytic"
    PURE_STATE_ASCENT = "PureStateAscent"


@dataclass(frozen=True)
class SolverConfig:
    """The settings of :func:`capacity_numeric` a caller can vary.

    ``restarts`` starting states are drawn in turn from one
    ``default_rng(seed)`` and ascended together as one batch (see
    :func:`_armijo_ascent` for the fixed step, tolerance and iteration
    limit).  Both are integers, numpy integers included and ``bool``
    excluded: ``restarts`` at least 1 and ``seed`` at least 0.
    The search runs over pure states only; the test suite keeps a
    density-matrix ascent as an oracle that never beats it.
    """

    restarts: int = 32
    seed: int = 0


def _validate_config(cfg: SolverConfig):
    for name, low in (("restarts", 1), ("seed", 0)):
        value = getattr(cfg, name)
        if not _is_int(value, low):
            raise ValueError(f"{name} must be an integer ≥ {low}, got {value}")


@dataclass(frozen=True)
class CapacityResult:
    value: float                # bits per unit time
    argmax_state: np.ndarray    # density matrix attaining `value`
    method: SolverMethod
    restarts_used: int
    converged: bool
    min_diag: float             # smallest diagonal entry of argmax_state
    upper_bound: float          # proven ceiling on the capacity (see capacity_numeric)


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
# The two-level family and its peaks

def _bisect_root(phi, lo: float, hi: float) -> float:
    """Bisection for a phi with a single sign change on [lo, hi]."""
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


def _family_log_ratio(gamma: float, d: int) -> float:
    return math.log2((1.0 - gamma) / ((d - 1) * gamma))


def _family_f(gamma: float, d: int) -> float:
    """Surprisal variance of (γ, (1-γ)/(d-1), ..., (1-γ)/(d-1)) in bits²."""
    return gamma * (1.0 - gamma) * _family_log_ratio(gamma, d) ** 2


def _branch_peak(d: int, lo: float, hi: float):
    """The peak (γ, f(γ)) of the family f on the branch (lo, hi), to machine precision.

    The peak is the root of φ(γ) = (1-2γ)·L - 2/ln2, L = log₂((1-γ)/((d-1)γ)),
    found by bisection over the whole branch.  With f = γ(1-γ)L² and
    L' = -1/(ln2·γ(1-γ)), f' = L·φ and φ' = -2L - (1-2γ)/(ln2·γ(1-γ)).

    - Lower branch (0, 1/d): L > 0 and 1-2γ > 0, so φ' < 0; φ falls from
      +∞ to -2/ln2 at γ = 1/d, so it has exactly one root.
    - Upper branch, (1/d, 1/2]: L < 0 and 1-2γ ≥ 0, so φ ≤ -2/ln2 < 0 and
      there is no root.
    - Upper branch, [1/2, 1): -2L > 0 and -(1-2γ) ≥ 0, so φ' > 0; φ rises
      from -2/ln2 at γ = 1/2 to +∞ as γ → 1, so it has exactly one root.

    L keeps one sign on each branch, so f' = L·φ changes sign exactly once,
    at the root: f rises to it and falls after it, and the root is the peak.
    """

    def phi(g):
        return (1.0 - 2.0 * g) * _family_log_ratio(g, d) - 2.0 / LN2

    gamma = _bisect_root(phi, lo, hi)
    return gamma, _family_f(gamma, d)


def max_surprisal_variance(d: int) -> GammaResult:
    """Maximize the surprisal variance over the two-level family for dimension d.

    f(γ) vanishes at γ ∈ {0, 1/d, 1} and has one interior peak on each side
    of the uniform point γ = 1/d, the root of its branch's stationarity
    condition (see _branch_peak).  Which peak is higher is known in advance,
    so only that branch is solved.  With L(γ; d) = log₂((1-γ)/((d-1)γ)):

    - d = 2: the two peaks are mirror images, γ ↔ 1-γ, with equal height;
      the lower one, γ* < 1/2, is returned.
    - d ≥ 3: the upper peak wins.  On the lower branch, 0 < L(γ; d) ≤ L(γ; 2),
      so f(γ; d) ≤ f(γ; 2) ≤ f_max(2) = 0.9142.  On the upper branch,
      |L(0.9; d)| = log₂(9(d-1)) grows with d, so the upper peak is at least
      f(0.9; 3) = 1.5649 > 0.9142.

    ``DimensionMismatch`` for d < 2.
    """
    _check_dim(d)
    if d == 2:
        gamma, f_max = _branch_peak(2, 1e-12, 0.5)
    else:
        gamma, f_max = _branch_peak(d, 1.0 / d, 1.0 - 1e-12)
    return GammaResult(
        gamma=float(gamma),
        f_max=float(f_max),
        capacity_bound=float(math.sqrt(2.0 * f_max)),
    )


# ---------------------------------------------------------------------------
# Closed-form constructions

def optimal_state(d: int, gamma: float) -> np.ndarray:
    """Pure state sqrt(γ)|0⟩ + sqrt((1-γ)/(d-1)) Σ_{i≥1}|i⟩ as an amplitude vector."""
    _check_dim(d)
    if not _is_real(gamma, 0.0, 1.0, "()"):
        raise ValueError(f"gamma must be a real number in (0, 1), got {gamma!r}")
    amp = np.full(d, math.sqrt((1.0 - gamma) / (d - 1)), dtype=np.complex128)
    amp[0] = math.sqrt(gamma)
    amp.setflags(write=False)
    return amp


def optimal_hamiltonian(d: int) -> np.ndarray:
    """The capacity-attaining Hamiltonian i/√2 (|0⟩⟨φ| - |φ⟩⟨0|), |φ⟩ uniform on 1..d-1.

    Entrywise: H₀ⱼ = i/sqrt(2(d-1)) and Hⱼ₀ = -i/sqrt(2(d-1)) for j ≥ 1, zero
    elsewhere; unit Hilbert-Schmidt norm by construction.
    """
    _check_dim(d)
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
    H gives coherence rate ‖M‖₂.  A stack of states gives the stack of
    their Hamiltonians; ``ZeroCommutator`` if any state has none.
    """
    m = coherence_commutator(rho)
    n = np.asarray(hs_norm(m))[..., None, None]
    if n.min() < 1e-14:
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
    lhs = coherence_derivative(h, rho)
    return BoundEqualityReport(lhs=lhs, rhs=res.capacity_bound, gap=abs(lhs - res.capacity_bound))


# ---------------------------------------------------------------------------
# Qubit closed form

def capacity_qubit(hamiltonian) -> CapacityResult:
    """Capacity of a 2×2 Hamiltonian from the closed form 2|H₁₀| g(ρ₀₀).

    The rate for a pure qubit state with populations (x, 1-x) and optimal
    off-diagonal phase is 2|H₁₀| g(x), g(x) = sqrt(x(1-x)) log₂((1-x)/x).
    For x < 1/2, g(x)² is the d = 2 family's surprisal variance f(x), so the
    population x* maximizing the rate is γ* of ``max_surprisal_variance(2)``,
    whose tie rule returns the peak below 1/2.  The optimal
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
        x = value = 0.0
        state = np.diag([1.0 + 0j, 0j])
    else:
        x = max_surprisal_variance(2).gamma
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
        upper_bound=float(value),
    )


# ---------------------------------------------------------------------------
# Projected gradient ascent

def _floor_renorm(psi: np.ndarray) -> np.ndarray:
    """Push squared amplitudes below the floor up to 1e-6 and renormalize each row.

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
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def _pure_value_and_grad(h: np.ndarray, psi: np.ndarray):
    """Coherence rate of each |ψ⟩⟨ψ| under h and its projected gradient, one row per ψ.

    The rate is -2 Σ_k log₂|ψ_k|² Im[ψ̄_k (hψ)_k]; the gradient is the
    Wirtinger gradient ∂J/∂ψ̄ projected to the tangent space of the sphere.
    """
    logp = np.log2(np.abs(psi) ** 2)
    hpsi = psi @ h.T
    z = psi.conj() * hpsi
    value = -2.0 * (logp * z.imag).sum(axis=-1)
    grad = 1j * (logp * hpsi - (logp * psi) @ h.T) - (2.0 / LN2) * z.imag / psi.conj()
    grad -= (psi.conj() * grad).sum(axis=-1, keepdims=True) * psi
    return value, grad


def _rho_from_factor(a: np.ndarray) -> np.ndarray:
    """Symmetrized AA†, used with A = ψ as a column for the argmax state.

    ``np.outer(ψ, ψ̄)`` rounds differently, so it would change ``--out`` reports.
    """
    rho = a @ a.conj().swapaxes(-1, -2)
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def _armijo_ascent(x0: np.ndarray, value_and_grad, retract, ceiling=math.inf, scale=1.0):
    """Riemannian gradient ascent with Armijo backtracking, all restarts at once.

    ``x0`` holds one starting point per row; ``retract`` maps a stack of
    points back onto the search manifold and ``value_and_grad`` returns the
    objective and its tangent gradient for a stack (Absil, Mahony &
    Sepulchre, *Optimization Algorithms on Matrix Manifolds*, 2008).

    Every row follows the one-restart iteration: from step s, try
    ``retract(x + s·grad)``, s starting at ``_STEP_INIT``, halve s on
    rejection (at most ``_MAX_BACKTRACKS`` times), and start the next line
    search at 2s if the first try was accepted, else at s.  A row stops when
    its gradient norm reaches ``_GRAD_TOL``·max(1, ``scale``) (converged),
    when no step is accepted (stalled), after ``_MAX_ITERS`` accepted steps
    or when it falls behind (below).  ``scale`` is the size of the objective,
    ‖H‖₂ for the capacity: the gradient's rounding noise grows with it, so an
    absolute tolerance would never be met on a large H.  Each pass
    evaluates one candidate of every live row, whatever stage its line
    search is at, so a solve costs as many passes as its slowest live row
    has candidates.  The gradient of an accepted candidate is that of the
    next iterate, so it is never recomputed.

    ``ceiling`` is a proven upper bound C on the objective.  When a row
    stops converged, stalled or at the limit, with its value within
    ``_CERT_TOL``·C of C on either side, no other row can beat it by more
    than that: the row counts as converged and every live row stops where it
    is, unconverged.  A live row certifies the same way on any pass, without
    waiting to stop, when its value lies in the narrower window
    [(1 − ``_CERT_TOL``/2)·C, (1 + ``_CERT_TOL``)·C] and its gradient norm
    is at most ``_POISED_TOL``·max(1, ``scale``).  That is what ends a solve
    whose rows zig-zag on C until ``_MAX_ITERS``.  The gradient guard keeps
    a wrong bound just below the true maximum from stopping a row that
    is passing through it on the way up.  A live row certifies as soon as
    it enters the window, so the half-width low edge keeps the value it
    reports no more than ``_CERT_TOL``·C/2 below C.  The window is
    two-sided, so a value above C (a wrong bound) never stops the ascent.
    A pass first compares every live value with the low edge; the rest of
    the test runs only when some row reaches it or stops, so a pass on which
    no row is near C, as on every pass for a generic H at d ≥ 3, costs one
    vector comparison more than without a ceiling.

    Behind, the fourth stop reason, is tested on every pass once some row
    has converged without certifying.  With B the best converged value so
    far, a live row stops where it is, unconverged, when it has settled,
    gradient norm at most ``_SETTLED_TOL``·max(1, ``scale``), on a value
    below B − ``_BEHIND_TOL``·|B|.  Both conditions are needed: rows far
    behind B do climb past it after a slow stretch near a saddle, where the
    gradient norm fell to 6e-4 but not below 1e-4 in the probed solves, so
    the value gap alone would drop the best restart of some solves.  Rows
    are independent, so a kept row's iterates are the same as without the
    rule.  The rule is a heuristic, checked by ``tools/prune_sweep.py``; a
    solve in which no row converges never prunes.

    Returns the final points, their values and a converged flag per row.
    """
    tol, settled = _GRAD_TOL * max(1.0, scale), _SETTLED_TOL * max(1.0, scale)
    poised = _POISED_TOL * max(1.0, scale)
    low, high = (1.0 - _CERT_TOL) * ceiling, (1.0 + _CERT_TOL) * ceiling  # empty when infinite
    live_low = (1.0 - _CERT_TOL / 2) * ceiling
    best = -math.inf                    # best converged value so far
    x = retract(x0)
    value, grad = value_and_grad(x)
    gnorm = np.linalg.norm(grad.reshape(len(x), -1), axis=-1)
    out_x, out_value = np.empty_like(x), np.empty(len(x))
    converged = np.zeros(len(x), dtype=bool)
    rows = np.arange(len(x))            # restart index of each live row
    s = np.full(len(x), _STEP_INIT)     # step of the row's next candidate
    k = np.zeros(len(x), dtype=int)     # backtracks so far in its line search
    iters = np.zeros(len(x), dtype=int)
    conv = done = gnorm <= tol
    while True:
        near = value >= live_low
        if (done | near).any():
            on_bound = (value <= high) & np.where(done, value >= low, near & (gnorm <= poised))
            if on_bound.any():
                conv, done = conv | on_bound, np.ones_like(done)
            elif conv.any():
                best = max(best, float(value[conv].max()))
        if best > -math.inf:
            done = done | ((gnorm <= settled) & (value < best - _BEHIND_TOL * abs(best)))
        if done.any():
            out_x[rows[done]], out_value[rows[done]] = x[done], value[done]
            converged[rows[done]] = conv[done]
            live = ~done
            rows, x, value, grad, gnorm, s, k, iters = (
                v[live] for v in (rows, x, value, grad, gnorm, s, k, iters)
            )
            if not rows.size:
                return out_x, out_value, converged
        per_row = (-1,) + (1,) * (x.ndim - 1)
        cand = retract(x + s.reshape(per_row) * grad)
        cand_value, cand_grad = value_and_grad(cand)
        cand_gnorm = np.linalg.norm(cand_grad.reshape(len(cand), -1), axis=-1)
        resolution = 1e-14 * np.maximum(1.0, np.abs(value))
        rise = _ARMIJO_C * s * gnorm * gnorm
        # Where the Armijo increase is below the floating-point resolution of
        # the objective (inside the quadratic cap of a maximum), a value test
        # would accept equal-J steps that wander; demand a strict drop in the
        # first-order optimality norm instead.
        ok = np.where(
            rise > resolution,
            cand_value >= value + rise,
            (cand_gnorm < gnorm) & (cand_value >= value - 100 * resolution),
        )
        take = ok.reshape(per_row)
        x = np.where(take, cand, x)
        grad = np.where(take, cand_grad, grad)
        value = np.where(ok, cand_value, value)
        gnorm = np.where(ok, cand_gnorm, gnorm)
        s = np.where(ok, np.where(k == 0, 2.0 * s, s), 0.5 * s)
        k = np.where(ok, 0, k + 1)
        iters += ok
        conv = ok & (gnorm <= tol) & (iters < _MAX_ITERS)
        done = conv | (ok & (iters == _MAX_ITERS)) | (k == _MAX_BACKTRACKS)


def capacity_numeric(hamiltonian, cfg: SolverConfig | None = None) -> CapacityResult:
    """Capacity of a Hamiltonian by gradient ascent over pure states, any dimension.

    Runs ``cfg.restarts`` ascents from random starting states drawn in turn
    from one ``default_rng(cfg.seed)`` (so results are deterministic for a
    fixed config) and keeps the best, the first restart holding the largest
    value.  Each ascent follows the analytic gradient of the coherence rate,
    projected to the unit sphere, with an Armijo backtracking line search.
    The restarts advance together as one (restarts, d) array
    (:func:`_armijo_ascent`), one pass per line-search candidate, and a pass
    costs little more with 32 rows than with one.  So the cost is set by the
    slowest restart still running, not by the sum over restarts: once a
    restart converges, those that settle (gradient norm at most
    ``_SETTLED_TOL``·max(1, ‖H‖₂)) more than ``_BEHIND_TOL`` below the best
    converged value stop, so the tail is the slowest restart that stays
    near the best or keeps climbing.  The gradient tolerance is
    ``_GRAD_TOL``·max(1, ‖H‖₂).

    The ascent is also handed a proven ceiling, kept as ``upper_bound``:
    C = ‖H − diag H‖₂ · √(2 max_p f(p)), the second factor being
    ``max_surprisal_variance(d).capacity_bound``.  Proof: in the rate
    −2 Σ_k log₂|ψ_k|² Im[ψ̄_k (Hψ)_k] the diagonal of H contributes
    Im[H_kk |ψ_k|²] = 0, so H and H − diag H have the same rate at every
    state, and the paper bounds the rate of any H by ‖H‖₂ · √(2 max_p f(p))
    (Hölder, with ‖i[ρ, log₂Δ(ρ)]‖₂² = 2 f(p) for a pure ρ of populations
    p).  Equality holds for every d = 2 H, where ‖H − diag H‖₂ = √2 |H₁₀|
    and √(2 f_max(2)) = √2 g(x*) make C the closed form 2|H₁₀| g(x*) of
    :func:`capacity_qubit`, and for every matched H (a multiple of
    :func:`optimal_hamiltonian` under a diagonal phase and a permutation),
    which has a zero diagonal and attains the paper's bound.  Once a restart
    finishes within ``_CERT_TOL``·C of C, or while still running sits within
    ``_CERT_TOL``·C/2 below C (or ``_CERT_TOL``·C above) with a gradient norm
    of at most ``_POISED_TOL``·max(1, ‖H‖₂), the solve is certified and the
    other restarts stop (see :func:`_armijo_ascent`).  A generic H at d ≥ 3
    stays well below C, so its solve runs exactly as it would without one.

    ``converged`` means some restart brought the gradient norm below
    that tolerance or finished on the ceiling.  When neither happened within
    ``_MAX_ITERS`` accepted steps the best-effort result still returns, with
    ``converged`` false.
    """
    if cfg is None:
        cfg = SolverConfig()
    _validate_config(cfg)
    h = validate_hermitian(hamiltonian)
    d = h.shape[0]
    _check_dim(d)
    ceiling = hs_norm(h - np.diag(h.diagonal())) * max_surprisal_variance(d).capacity_bound
    rng = np.random.default_rng(cfg.seed)
    x0 = np.array([random_pure_state(d, rng) for _ in range(cfg.restarts)])
    x, values, converged = _armijo_ascent(
        x0, lambda psi: _pure_value_and_grad(h, psi), _floor_renorm, ceiling, hs_norm(h)
    )
    best = int(np.argmax(values))  # the first of equal maxima
    best_rho = _rho_from_factor(x[best][:, None])
    best_value = values[best]
    if best_value < 0.0:
        # Every ascent got stuck below zero (essentially-diagonal h). The
        # uniform-magnitude state has rate exactly 0, which is always
        # attainable, so report that instead of a negative artefact.
        psi = np.full(d, 1.0 / math.sqrt(d), dtype=np.complex128)
        best_rho = np.outer(psi, psi.conj())
        best_value = 0.0
    best_rho.setflags(write=False)
    return CapacityResult(
        value=float(best_value) + 0.0,  # squash IEEE -0.0 from stuck ascents
        argmax_state=best_rho,
        method=SolverMethod.PURE_STATE_ASCENT,
        restarts_used=cfg.restarts,
        converged=bool(converged.any()),
        min_diag=float(best_rho.diagonal().real.min()),
        upper_bound=float(ceiling),
    )


# ---------------------------------------------------------------------------
# Exhaustive simplex oracle (test-side cross-check)

def simplex_grid_oracle(d: int, resolution: int) -> GridSearchResult:
    """Exhaustive surprisal-variance maximization over the simplex grid p = k/resolution.

    Enumerates every composition of ``resolution`` into d nonnegative parts,
    for d = 2 or 3 only (at most 80,601 points at the cap of 400), and
    returns the grid maximizer, the first of equal maxima.  Deliberately
    brute-force: this is the oracle the tests use to cross-examine the
    two-level-family claim, so it must not share machinery with
    :func:`max_surprisal_variance`; f is the generic
    :func:`cohgen.coherence.surprisal_variance` of all grid points at once.
    A non-integer d raises ``DimensionMismatch``; a resolution that is not
    an integer in [1, 400] (a ``bool`` included) raises ``ValueError``.
    """
    _check_dim(d)
    if d not in (2, 3):
        raise ValueError(f"grid oracle supports d in {{2, 3}}, got {d}")
    if not _is_int(resolution, 1, 400):
        raise ValueError(f"resolution must be an integer in [1, 400], got {resolution!r}")
    counts = []
    for cuts in combinations(range(resolution + d - 1), d - 1):
        edges = (-1,) + cuts + (resolution + d - 1,)
        counts.append([edges[i + 1] - edges[i] - 1 for i in range(d)])
    p = np.asarray(counts, dtype=np.float64) / resolution
    f = surprisal_variance(p)
    k = int(f.argmax())
    best_p = p[k].copy()
    best_p.setflags(write=False)
    return GridSearchResult(best_p=best_p, f_best=float(f[k]))
