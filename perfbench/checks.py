"""Output checks for every request, and the wrong outputs they must reject.

Nothing here imports cohgen: the reference values come from mpmath and
numpy alone, the way the test suite's frozen reference values were made.
Each check returns a list of problems; an empty list means the output passed.
"""
import csv
import io
import json
import math
from functools import lru_cache

import mpmath
import numpy as np

LN2 = math.log(2.0)

# g(x*) = max_x sqrt(x(1-x)) log2((1-x)/x), as frozen in the test suite's
# reference values; _qubit_coupling_factor() re-derives it and must agree.
G_AT_XSTAR = 0.95613664447685894

QUBIT_TOL = 1e-6       # |numeric - closed form| at d = 2
MATCHED_TOL = 1e-9     # |numeric - sqrt(2 f_max(d))| on matched Hamiltonians
BOUND_SLACK = 1e-9     # value <= min(Hölder bound, row-sum bound) + slack
ENTROPY_TOL = 1e-9     # entropy constant along the orbit, and equal to S(rho)
COHERENCE_SLACK = 1e-12
VERIFY_CHECKS = {"fast": 9, "full": 10}   # checks in a verify report


def _mp_fmax(d: int) -> mpmath.mpf:
    """max over gamma of gamma(1-gamma) log2^2((1-gamma)/((d-1)gamma)), 40 digits.

    Each branch either side of the uniform point 1/d has one interior peak,
    where (1-2g) log2((1-g)/((d-1)g)) = 2/ln 2; bisect that on both branches
    and keep the larger value.
    """
    with mpmath.workdps(40):
        d = mpmath.mpf(d)
        two_over_ln2 = 2 / mpmath.log(2)

        def log_ratio(g):
            return mpmath.log((1 - g) / ((d - 1) * g), 2)

        def phi(g):
            return (1 - 2 * g) * log_ratio(g) - two_over_ln2

        def f(g):
            return g * (1 - g) * log_ratio(g) ** 2

        best = mpmath.mpf(0)
        tiny = mpmath.mpf(10) ** -30
        for lo, hi in ((tiny, 1 / d), (max(1 / d, mpmath.mpf(0.5)), 1 - tiny)):
            flo = phi(lo)
            for _ in range(200):
                mid = (lo + hi) / 2
                fm = phi(mid)
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            best = max(best, f((lo + hi) / 2))
        return +best


@lru_cache(maxsize=None)
def capacity_bound(d: int) -> float:
    """sqrt(2 f_max(d)): the capacity of every unit-norm matched Hamiltonian."""
    with mpmath.workdps(40):
        return float(mpmath.sqrt(2 * _mp_fmax(d)))


@lru_cache(maxsize=None)
def _qubit_coupling_factor() -> float:
    with mpmath.workdps(40):
        g = float(mpmath.sqrt(_mp_fmax(2)))
    if g != G_AT_XSTAR:
        raise RuntimeError(f"mpmath g(x*) {g!r} disagrees with the frozen {G_AT_XSTAR!r}")
    return g


def row_sum_bound(h: np.ndarray) -> float:
    """2 g(x*) max_j sum_{k != j} |H_jk|: a capacity bound that is exact at d = 2.

    The rate is a sum over pairs j != k of |H_jk| |rho_jk| |log2(p_j/p_k)|
    at most, with |rho_jk| <= sqrt(p_j p_k); each pair term is at most
    (p_j + p_k) g(x*), so the rate is at most 2 g(x*) sum_j p_j sum_{k != j}
    |H_jk|, hence at most the largest off-diagonal row sum times 2 g(x*).
    """
    off = np.abs(h)
    np.fill_diagonal(off, 0.0)
    return 2.0 * _qubit_coupling_factor() * float(off.sum(axis=1).max())


def capacity_reference(kind: str, h: np.ndarray):
    """(exact capacity or None, tolerance) for a capacity request's input."""
    d = h.shape[0]
    if kind == "matched":
        return capacity_bound(d), MATCHED_TOL
    if d == 2:
        return 2.0 * abs(h[1, 0]) * _qubit_coupling_factor(), QUBIT_TOL
    return None, None


def check_capacity(request, exit_code, out: bytes | None) -> list:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if out is None:
        return ["no output file"]
    try:
        report = json.loads(out)
        value = float(report["numeric"]["value"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    h = request.meta["hamiltonian"]
    d = h.shape[0]
    problems = []
    ceiling = min(float(np.linalg.norm(h)) * capacity_bound(d), row_sum_bound(h)) + BOUND_SLACK
    values = [("numeric", value)]
    if "qubit" in report:
        values.append(("qubit", float(report["qubit"]["value"])))
    for name, v in values:
        if not 0.0 <= v <= ceiling:
            problems.append(f"{name} value {v!r} outside [0, {ceiling!r}]")
    exact, tol = capacity_reference(request.kind, h)
    if exact is not None and abs(value - exact) > tol:
        problems.append(f"numeric value {value!r} misses the exact {exact!r} by more than {tol:g}")
    return problems


def _entropy_bits(rho: np.ndarray) -> float:
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log2(lam)).sum())


def check_orbit(request, exit_code, out: bytes | None) -> list:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if out is None:
        return ["no output file"]
    rows = list(csv.reader(io.StringIO(out.decode("ascii", "replace"))))
    if not rows or rows[0] != ["t", "coherence_bits", "entropy_bits"]:
        return ["missing or wrong CSV header"]
    points = request.meta["points"]
    if len(rows) - 1 != points:
        return [f"{len(rows) - 1} rows, expected {points}"]
    try:
        table = np.array(rows[1:], dtype=np.float64)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    rho = request.meta["rho"]
    coherence, entropy = table[:, 1], table[:, 2]
    problems = []
    drift = float(np.abs(entropy - entropy[0]).max())
    if not drift <= ENTROPY_TOL:
        problems.append(f"entropy drifts by {drift:.3e} along the orbit")
    expected = _entropy_bits(rho)
    if not abs(entropy[0] - expected) <= ENTROPY_TOL:
        problems.append(f"entropy {entropy[0]!r} differs from S(rho) = {expected!r}")
    top = math.log2(rho.shape[0]) + COHERENCE_SLACK
    if not (coherence.min() >= 0.0 and coherence.max() <= top):
        problems.append(f"coherence leaves [0, log2 d]: [{coherence.min()!r}, {coherence.max()!r}]")
    return problems


def check_verify(request, exit_code, out: bytes | None) -> list:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if out is None:
        return ["no output file"]
    try:
        report = json.loads(out)
        checks = report["checks"]
        failed = [c["name"] for c in checks if c["passed"] is not True]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    if report.get("passed") is not True:
        problems.append("report says passed: false")
    if failed:
        problems.append(f"failed checks: {', '.join(failed)}")
    level = request.meta["level"]
    if len(checks) != VERIFY_CHECKS[level]:
        problems.append(f"{len(checks)} checks, expected {VERIFY_CHECKS[level]}")
    if report.get("seed") != request.meta["seed"] or report.get("level") != level:
        problems.append("report names another level or seed")
    return problems


CHECKS = {
    "capacity_sweep": check_capacity,
    "orbit_scan": check_orbit,
    "verify_suite": check_verify,
}


# ---------------------------------------------------------------------------
# Wrong outputs each check must reject.  A mutant applies to a request when
# the checks can know the right answer for it; it returns the wrong bytes.

def _capacity_in_nats(request, out: bytes):
    """The numeric capacity scaled by ln 2, as if logs were natural."""
    if capacity_reference(request.kind, request.meta["hamiltonian"])[0] is None:
        return None
    report = json.loads(out)
    report["numeric"]["value"] *= LN2
    return json.dumps(report).encode()


def _entropy_nudged(request, out: bytes):
    """One entropy value in the middle of the orbit perturbed by 1e-6."""
    lines = out.decode("ascii").splitlines()
    k = len(lines) // 2
    t, c, s = lines[k].split(",")
    lines[k] = f"{t},{c},{float(s) + 1e-6!r}"
    return ("\n".join(lines) + "\n").encode()


def _one_check_failed(request, out: bytes):
    """The first check of a verify report flipped to failed."""
    report = json.loads(out)
    report["checks"][0]["passed"] = False
    return json.dumps(report).encode()


MUTANTS = {
    "capacity_sweep": _capacity_in_nats,
    "orbit_scan": _entropy_nudged,
    "verify_suite": _one_check_failed,
}


def mutants_caught(workload: str, samples) -> tuple:
    """Apply the workload's mutant to (request, output) pairs that passed.

    Returns (mutants tried, mutants the checks let through).
    """
    mutate, check = MUTANTS[workload], CHECKS[workload]
    tried = missed = 0
    for request, out in samples:
        wrong = mutate(request, out)
        if wrong is None:
            continue
        tried += 1
        if not check(request, 0, wrong):
            missed += 1
    return tried, missed
