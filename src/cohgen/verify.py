"""Self-verification: every structural identity the package relies on.

Each check pits two independently computed quantities against each other
(closed form vs finite difference, matrix form vs probability form, search
vs exhaustive grid) and reports the worst residual seen.  ``fast`` keeps
sample counts small enough for interactive use; ``full`` runs the counts the
acceptance tests use.

Checks draw from per-check seeded generators, so a report is a pure function
of (level, seed).
"""
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
    coherence_commutator,
    coherence_derivative,
    dephase,
    surprisal_variance,
    surprisal_variance_pairform,
)
from .dynamics import entropy_derivative_check, fd_derivative, trajectory
from .errors import NoConvergence
from .linalg import hs_norm
from .sampling import random_density, random_hermitian


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


def check_dephased_log_pairing(level: str, rng) -> CheckResult:
    """Tr[Δ(A) log₂Δ(B)] = Tr[A log₂Δ(B)]: only the diagonal of A can pair
    with a dephased logarithm."""
    n = 1000 if level == "full" else 100
    worst = 0.0
    for d in range(2, 7):
        for _ in range(n):
            a = random_hermitian(d, rng)
            b = random_density(d, rng, mix=0.05)
            log_b = np.diag(np.log2(b.diagonal().real))
            lhs = np.trace(dephase(a) @ log_b).real
            rhs = np.trace(a @ log_b).real
            worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        name="dephased_log_pairing",
        passed=worst <= 1e-10,
        tolerance=1e-10,
        residual=worst,
        detail=f"{n} pairs per dimension 2..6",
    )


def check_pairform_equivalence(level: str, rng) -> CheckResult:
    """Pairwise surprisal form ½ Σ ρii ρjj (log₂ρjj - log₂ρii)² equals the
    plain variance of the surprisal of the diagonal."""
    n = 1000 if level == "full" else 100
    worst = 0.0
    for d in range(2, 7):
        for _ in range(n):
            rho = random_density(d, rng, mix=0.02)
            lhs = surprisal_variance_pairform(rho)
            rhs = surprisal_variance(rho.diagonal().real)
            worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        name="surprisal_pairform_equivalence",
        passed=worst <= 1e-10,
        tolerance=1e-10,
        residual=worst,
        detail=f"{n} states per dimension 2..6",
    )


def check_fd_vs_analytic(level: str, rng) -> CheckResult:
    """Closed-form coherence rate against the central finite difference."""
    n = 200 if level == "full" else 20
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(n):
            rho = random_density(d, rng, mix=0.2)
            h = random_hermitian(d, rng, hs_normalized=True)
            analytic = coherence_derivative(h, rho).analytic
            numeric = fd_derivative(rho, h, 1e-4)
            worst = max(worst, abs(numeric - analytic))
    return CheckResult(
        name="fd_vs_analytic_rate",
        passed=worst <= 1e-6,
        tolerance=1e-6,
        residual=worst,
        detail=f"{n} full-support pairs per dimension 2..4, step 1e-4",
    )


def check_entropy_constant(level: str, rng) -> CheckResult:
    """Spectrum (hence entropy) is invariant along every unitary orbit."""
    n = 20 if level == "full" else 5
    worst = 0.0
    grid = np.linspace(0.0, 5.0, 100)
    for d in (2, 3, 4):
        for _ in range(n):
            rho = random_density(d, rng, mix=0.1)
            h = random_hermitian(d, rng)
            traj = trajectory(rho, h, grid)
            worst = max(worst, float(np.abs(traj.entropy - traj.entropy[0]).max()))
    return CheckResult(
        name="entropy_constant_along_orbit",
        passed=worst <= 1e-9,
        tolerance=1e-9,
        residual=worst,
        detail=f"{n} orbits per dimension 2..4, 100-point grids",
    )


def check_entropy_rate_identity(level: str, rng) -> CheckResult:
    """-Tr[ρ̇ log₂ρ] with ρ̇ = -i[H,ρ] vanishes for full-rank states."""
    n = 50 if level == "full" else 10
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(n):
            rho = random_density(d, rng, mix=0.2)
            h = random_hermitian(d, rng)
            report = entropy_derivative_check(rho, h, 1e-3)
            worst = max(worst, abs(report.rhs))
    return CheckResult(
        name="entropy_rate_identity",
        passed=worst <= 1e-10,
        tolerance=1e-10,
        residual=worst,
        detail=f"{n} full-rank states per dimension 2..4",
    )


def check_holder_saturation(level: str, rng) -> CheckResult:
    """The matched Hamiltonian M/‖M‖₂ achieves rate exactly ‖M‖₂."""
    n = 200 if level == "full" else 20
    worst = 0.0
    for d in range(2, 7):
        for _ in range(n):
            rho = random_density(d, rng, mix=0.05)
            h = holder_hamiltonian(rho)
            rate = coherence_derivative(h, rho).analytic
            worst = max(worst, abs(rate - hs_norm(coherence_commutator(rho))))
    return CheckResult(
        name="holder_saturation",
        passed=worst <= 1e-9,
        tolerance=1e-9,
        residual=worst,
        detail=f"{n} full-support states per dimension 2..6",
    )


def check_bound_equality(level: str, rng) -> CheckResult:
    """Best rate over unit-norm Hamiltonians equals sqrt(2 f_max) at the
    optimal state, for dimensions 2..6."""
    worst = 0.0
    gaps = []
    for d in range(2, 7):
        report = capacity_bound_equality(d)
        gaps.append(f"d={d}:{report.gap:.2e}")
        worst = max(worst, report.gap)
    return CheckResult(
        name="capacity_bound_equality",
        passed=worst <= 1e-8,
        tolerance=1e-8,
        residual=worst,
        detail=" ".join(gaps),
    )


def check_bound_certificate(level: str, rng) -> CheckResult:
    """No random (H, ρ) pair with ‖H‖₂ = 1 beats the capacity bound."""
    n = 2000 if level == "full" else 300
    worst = -np.inf
    for d in (2, 3, 4):
        bound = max_surprisal_variance(d).capacity_bound
        for _ in range(n):
            h = random_hermitian(d, rng, hs_normalized=True)
            rho = random_density(d, rng)
            rate = coherence_derivative(h, rho).analytic
            worst = max(worst, rate - bound)
    return CheckResult(
        name="capacity_bound_certificate",
        passed=worst <= 1e-9,
        tolerance=1e-9,
        residual=float(worst),
        detail=f"{n} random pairs per dimension 2..4; residual = worst rate - bound",
    )


def check_qubit_cross_method(level: str, rng) -> CheckResult:
    """Gradient-ascent capacity agrees with the qubit closed form."""
    n = 25 if level == "full" else 3
    worst = 0.0
    for k in range(n):
        h = random_hermitian(2, rng)
        cfg = SolverConfig(restarts=8, seed=int(rng.integers(2**32)))
        try:
            numeric = capacity_numeric(h, cfg).value
        except NoConvergence as err:
            numeric = err.best_result.value
        worst = max(worst, abs(numeric - capacity_qubit(h).value))
    return CheckResult(
        name="qubit_cross_method",
        passed=worst <= 1e-6,
        tolerance=1e-6,
        residual=worst,
        detail=f"{n} random 2x2 Hamiltonians, 8 restarts each",
    )


def check_grid_oracle(level: str, rng) -> CheckResult:
    """Exhaustive simplex grids never beat the two-level family maximum."""
    worst = -np.inf
    details = []
    for d, resolution in ((2, 400), (3, 150)):
        family = max_surprisal_variance(d)
        grid = simplex_grid_oracle(d, resolution)
        overshoot = grid.f_best - family.f_max
        worst = max(worst, overshoot)
        details.append(f"d={d}@{resolution}: grid-family={overshoot:.2e}")
    return CheckResult(
        name="simplex_grid_oracle",
        passed=worst <= 1e-12,
        tolerance=1e-12,
        residual=float(worst),
        detail="; ".join(details),
    )


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


def run_checks(level: str = "fast", seed: int = 0) -> list:
    """Run the suite at the given level; returns one CheckResult per check."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    results = []
    for index, (min_level, fn) in enumerate(_CHECKS):
        if min_level == "full" and level != "full":
            continue
        results.append(fn(level, _rng_for(seed, index)))
    return results
