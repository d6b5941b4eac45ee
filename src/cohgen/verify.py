"""Self-verification: every structural identity the package relies on.

Each check pits two independently computed quantities against each other
(closed form vs finite difference, matrix form vs probability form, search
vs exhaustive grid) and reports the largest residual seen.  One rule,
:func:`_verdict`, turns the residuals of every check into its verdict: the
check passes when the largest residual is at most its tolerance, and a NaN
residual is the largest, so it fails.  ``fast`` keeps sample counts small
enough for interactive use; ``full`` runs the counts the acceptance tests
use.

A sampled check is declared with :func:`_sampled`: its report name, its
tolerance, its (fast, full) sample counts per dimension, the dimensions it
runs and its detail line, on top of a generator ``residuals(d, n, rng)``
that yields one residual per sample.  Most generators draw all n samples
of a dimension at once with :func:`cohgen.sampling.ginibre_stack`, which
gives exactly the per-sample ``random_hermitian`` / ``random_density``
stream, pass the stacks to the library's stacked functions in one call each
and ``yield from`` the n residuals.  ``qubit_cross_method`` loops over
samples, and ``entropy_constant_along_orbit`` calls ``trajectory``, which
takes one pair, once per sample.  The two checks without a sample loop
(``capacity_bound_equality`` and ``simplex_grid_oracle``) are written out
and hand their residuals to :func:`_verdict` too.

``trajectory`` writes S(ρ) as the entropy of every orbit point by
construction, so a drift test on its entropy column could not fail.
``entropy_constant_along_orbit`` keeps its name and evolves each state with
an e^{-iHt} built from a Taylor series instead (:func:`_taylor_orbit`),
which never diagonalizes H.  Its residual is the larger of those states'
entropy drift and their coherence gap to ``trajectory``.

Checks draw from per-check seeded generators, so a report is a pure function
of (level, seed).  The check names, their order and their count are what the
benchmark in ``perfbench/`` expects of a report.
"""
import time
from dataclasses import dataclass

import numpy as np

from .capacity import (
    SolverConfig,
    capacity_bound_equality,
    capacity_numeric,
    capacity_qubit,
    holder_hamiltonian,
    max_surprisal_variance,
    simplex_grid_oracle,
)
from .coherence import (
    _entropy_bits,
    coherence_commutator,
    coherence_derivative,
    dephase,
    surprisal_variance,
    surprisal_variance_pairform,
    von_neumann_entropy,
)
from .dynamics import entropy_derivative_check, fd_derivative, trajectory
from .linalg import _adjoint, _is_int, hs_norm
from .sampling import (
    density_from_ginibre,
    ginibre_stack,
    hermitian_from_ginibre,
    random_density,
    random_hermitian,
)


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict; the field order is the key order of a check in
    the ``cohgen verify --out`` report, which is written with ``asdict``."""

    name: str
    passed: bool
    tolerance: float
    residual: float
    detail: str


def _rng_for(seed: int, index: int):
    return np.random.default_rng([seed, index])


def _verdict(name, tolerance, residuals, detail) -> CheckResult:
    """The one rule of every check: its residual is the largest of
    ``residuals``, and it passes when that is at most ``tolerance``.  A NaN
    is the largest, so a NaN residual fails."""
    largest = float(np.max(residuals))
    return CheckResult(name, bool(largest <= tolerance), tolerance, largest, detail)


def _sampled(name, tolerance, counts, dims, detail):
    """Make ``residuals(d, n, rng)`` a check ``fn(level, rng) -> CheckResult``.

    ``counts`` is the (fast, full) number of samples per dimension and
    ``detail`` is formatted with that ``n``.  Every residual yielded over
    ``dims`` in turn goes to :func:`_verdict`.  The generator stays
    reachable as ``check.residuals``.
    """

    def decorate(residuals):
        def check(level: str, rng) -> CheckResult:
            n = counts[level == "full"]
            found = [r for d in dims for r in residuals(d, n, rng)]
            return _verdict(name, tolerance, found, detail.format(n=n))

        check.__name__, check.__doc__ = residuals.__name__, residuals.__doc__
        check.residuals = residuals
        return check

    return decorate


@_sampled("dephased_log_pairing", 1e-10, (100, 1000), range(2, 7),
          "{n} pairs per dimension 2..6")
def check_dephased_log_pairing(d, n, rng):
    """Tr[Δ(A) log₂Δ(B)] = Tr[A log₂Δ(B)]: only the diagonal of A can pair
    with a dephased logarithm."""
    g = ginibre_stack(d, n, 2, rng)
    a = hermitian_from_ginibre(g[:, 0])
    b = density_from_ginibre(g[:, 1], mix=0.05)
    log_b = dephase(b)
    log_b[:, range(d), range(d)] = np.log2(b.diagonal(axis1=1, axis2=2).real)
    yield from abs(np.trace(dephase(a) @ log_b, axis1=1, axis2=2).real
                   - np.trace(a @ log_b, axis1=1, axis2=2).real)


@_sampled("surprisal_pairform_equivalence", 1e-10, (100, 1000), range(2, 7),
          "{n} states per dimension 2..6")
def check_pairform_equivalence(d, n, rng):
    """Pairwise surprisal form ½ Σ ρii ρjj (log₂ρjj - log₂ρii)² equals the
    plain variance of the surprisal of the diagonal."""
    rho = density_from_ginibre(ginibre_stack(d, n, 1, rng)[:, 0], mix=0.02)
    diagonal = rho.diagonal(axis1=1, axis2=2).real
    yield from abs(surprisal_variance_pairform(rho) - surprisal_variance(diagonal))


@_sampled("fd_vs_analytic_rate", 1e-6, (20, 200), (2, 3, 4),
          "{n} full-support pairs per dimension 2..4, step 1e-4")
def check_fd_vs_analytic(d, n, rng):
    """Closed-form coherence rate against the central finite difference."""
    g = ginibre_stack(d, n, 2, rng)
    rho = density_from_ginibre(g[:, 0], mix=0.2)
    h = hermitian_from_ginibre(g[:, 1], hs_normalized=True)
    analytic = coherence_derivative(h, rho)
    yield from abs(fd_derivative(rho, h, 1e-4) - analytic)


_TAYLOR_TERMS = 8


def _taylor_orbit(rho, h, step, points):
    """ρ_k = e^{-iHkτ} ρ e^{iHkτ} for k < ``points`` and each pair of the
    stacks ρ, H of shape (n, d, d): shape (n, points, d, d), with no
    eigensolve.

    E† = e^{iHτ} is the Taylor series of A = iHτ/2^s to ``_TAYLOR_TERMS``
    terms, in Horner form I + A(I + A/2(I + …)), squared s times; s is the
    fewest halvings that bring ‖Hτ‖_F/2^s to 1/16 or less, so the
    truncation is below (1/16)^9/9! ≈ 4e-17.  The orbit then doubles: the
    first m states conjugated by E^m are the next m, and for Hermitian S
    that is two products over the whole stack, E S E† = (S E†)† E†.
    """
    n, d, _ = h.shape
    scale = 16 * step * np.linalg.norm(h, axis=(1, 2)).max()
    squarings = max(0, int(np.ceil(np.log2(max(scale, 1.0)))))
    a = 1j * step / 2**squarings * h
    identity = back = np.eye(d)
    for k in range(_TAYLOR_TERMS, 0, -1):
        back = identity + a @ back / k
    for _ in range(squarings):
        back = back @ back
    states = rho[:, None]
    while states.shape[1] < points:
        half = (states.reshape(n, -1, d) @ back).reshape(states.shape)
        moved = (_adjoint(half).reshape(n, -1, d) @ back).reshape(states.shape)
        states = np.concatenate([states, moved], axis=1)
        back = back @ back
    return states[:, :points]


@_sampled("entropy_constant_along_orbit", 1e-9, (5, 20), (2, 3, 4),
          "{n} orbits per dimension 2..4, 100-point grids, against a Taylor exponential")
def check_entropy_constant(d, n, rng):
    """``trajectory``'s coherence against states evolved by a Taylor-series
    e^{-iHt}, a route that never diagonalizes H.  The residual is the larger
    of the entropy drift of those states and the largest gap between
    ``trajectory``'s coherence and theirs, S(Δ[ρ]) − S(ρ) as in
    ``rel_entropy_coherence``, from the eigenvalues the drift uses."""
    grid = np.linspace(0.0, 5.0, 100)
    pairs = [(random_density(d, rng, mix=0.1), random_hermitian(d, rng)) for _ in range(n)]
    rho, h = (np.array(side) for side in zip(*pairs))
    states = _taylor_orbit(rho, h, grid[1], grid.size)
    entropy = von_neumann_entropy(states)
    reference = np.maximum(_entropy_bits(states.diagonal(axis1=-2, axis2=-1).real) - entropy, 0.0)
    coherence = np.array([trajectory(r, g, grid).coherence for r, g in pairs])
    gap = np.abs(coherence - reference)
    yield from np.maximum(np.abs(entropy - entropy[:, :1]).max(axis=1), gap.max(axis=1))


@_sampled("entropy_rate_identity", 1e-10, (10, 50), (2, 3, 4),
          "{n} full-rank states per dimension 2..4")
def check_entropy_rate_identity(d, n, rng):
    """-Tr[ρ̇ log₂ρ] with ρ̇ = -i[H,ρ] vanishes for full-rank states."""
    g = ginibre_stack(d, n, 2, rng)
    rho = density_from_ginibre(g[:, 0], mix=0.2)
    yield from abs(entropy_derivative_check(rho, hermitian_from_ginibre(g[:, 1])))


@_sampled("holder_saturation", 1e-9, (20, 200), range(2, 7),
          "{n} full-support states per dimension 2..6")
def check_holder_saturation(d, n, rng):
    """The matched Hamiltonian M/‖M‖₂ achieves rate exactly ‖M‖₂."""
    rho = density_from_ginibre(ginibre_stack(d, n, 1, rng)[:, 0], mix=0.05)
    rate = coherence_derivative(holder_hamiltonian(rho), rho)
    yield from abs(rate - hs_norm(coherence_commutator(rho)))


def check_bound_equality(level: str, rng) -> CheckResult:
    """Best rate over unit-norm Hamiltonians equals sqrt(2 f_max) at the
    optimal state, for dimensions 2..6."""
    gaps = {d: capacity_bound_equality(d).gap for d in range(2, 7)}
    detail = " ".join(f"d={d}:{gap:.2e}" for d, gap in gaps.items())
    return _verdict("capacity_bound_equality", 1e-8, list(gaps.values()), detail)


@_sampled("capacity_bound_certificate", 1e-9, (300, 2000), (2, 3, 4),
          "{n} random pairs per dimension 2..4; residual = worst rate - bound")
def check_bound_certificate(d, n, rng):
    """No random (H, ρ) pair with ‖H‖₂ = 1 beats the capacity bound."""
    bound = max_surprisal_variance(d).capacity_bound
    g = ginibre_stack(d, n, 2, rng)
    h = hermitian_from_ginibre(g[:, 0], hs_normalized=True)
    yield from coherence_derivative(h, density_from_ginibre(g[:, 1])) - bound


@_sampled("qubit_cross_method", 1e-6, (3, 25), (2,),
          "{n} random 2x2 Hamiltonians, 8 restarts each")
def check_qubit_cross_method(d, n, rng):
    """Gradient-ascent capacity agrees with the qubit closed form."""
    for _ in range(n):
        h = random_hermitian(d, rng)
        cfg = SolverConfig(restarts=8, seed=int(rng.integers(2**32)))
        yield abs(capacity_numeric(h, cfg).value - capacity_qubit(h).value)


def check_grid_oracle(level: str, rng) -> CheckResult:
    """Exhaustive simplex grids never beat the two-level family maximum."""
    overshoots, details = [], []
    for d, resolution in ((2, 400), (3, 150)):
        family = max_surprisal_variance(d)
        overshoots.append(simplex_grid_oracle(d, resolution).f_best - family.f_max)
        details.append(f"d={d}@{resolution}: grid-family={overshoots[-1]:.2e}")
    return _verdict("simplex_grid_oracle", 1e-12, overshoots, "; ".join(details))


_CHECKS = [
    ("fast", check_dephased_log_pairing),
    ("fast", check_pairform_equivalence),
    ("fast", check_fd_vs_analytic),
    ("fast", check_entropy_constant),
    ("fast", check_entropy_rate_identity),
    ("fast", check_holder_saturation),
    ("fast", check_bound_equality),
    ("fast", check_bound_certificate),
    ("fast", check_qubit_cross_method),
    ("full", check_grid_oracle),
]


def timed_checks(level: str = "fast", seed: int = 0):
    """Run the suite at the given level, yielding (CheckResult, wall seconds)
    for each check as it finishes.  The level and the seed, an integer ≥ 0
    (numpy's included, never a ``bool``), are checked before any check runs."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    if not _is_int(seed, 0):
        raise ValueError(f"seed must be an integer ≥ 0, got {seed!r}")
    for index, (min_level, fn) in enumerate(_CHECKS):
        if min_level == "full" and level != "full":
            continue
        start = time.perf_counter()
        result = fn(level, _rng_for(seed, index))
        yield result, time.perf_counter() - start


def run_checks(level: str = "fast", seed: int = 0) -> list:
    """Run the suite at the given level; returns one CheckResult per check."""
    return [result for result, _ in timed_checks(level, seed)]
