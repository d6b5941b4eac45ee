"""Command-line interface.

    cohgen capacity hamiltonian.json --restarts 8 --seed 0 --out report.json
    cohgen optimal --dim 3 --out optimal.json
    cohgen evolve state.json hamiltonian.json --grid 0:2:200 --out traj.csv
    cohgen scan-gamma --dim 2 --resolution 200 --out scan.csv --summary-out scan.json
    cohgen verify fast --out checks.json

stdout carries a short human summary; machine-readable output goes only to
``--out`` / ``--summary-out`` files, written with 17-significant-digit
numbers so identical invocations produce byte-identical files.  The
``--restarts`` and ``--seed`` flags of ``capacity`` are the solver's only
settings, and its report's ``config`` holds exactly those two.  ``verify``
also writes each check's wall time to stderr, one ``name: X ms`` line per
check in report order; timings never reach stdout or a report.  A NaN or
infinite residual is written as null, since JSON has neither; a NaN one has
failed its check.

A ``capacity`` report's ``numeric`` (and, at d = 2, ``qubit``) object holds
``upper_bound``, the proven ceiling the value is measured against: a solve
in which a restart settles on it is certified and ``converged``.

Each verb parses its arguments, calls the library once per quantity,
prints its summary and writes its files; it holds no rule of its own beyond
parsing.  The library owns every input rule and default: ``--restarts`` and
``--seed`` default to :class:`~cohgen.capacity.SolverConfig`'s, and
``trajectory`` rejects an empty, non-finite or non-ascending ``--grid``.

Exit codes: 0 success, 1 verification failure, 2 input/parse error (an
output file that cannot be written included), 3 solver non-convergence (a
``capacity`` result with ``converged`` false, whose report is still
written, or a failed eigensolve in any subcommand).
"""
import argparse
import dataclasses
import sys

import numpy as np

from .capacity import (
    SolverConfig,
    capacity_numeric,
    capacity_qubit,
    max_surprisal_variance,
    optimal_hamiltonian,
    optimal_state,
)
from .coherence import surprisal_variance
from .dynamics import trajectory
from .errors import ConvergenceFailure, ParseError
from .linalg import hs_norm
from .serialization import (
    csv_table,
    dumps_17,
    matrix_to_obj,
    parse_matrix_text,
    parse_state_text,
    trajectory_to_csv,
)
from .verify import timed_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_text(path, text: str):
    """Write ``text`` to ``path``; an optional output left unset (``None``) is skipped."""
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, steps = text.split(":")
        # an infinite end makes NaN or infinite points, which trajectory rejects
        with np.errstate(all="ignore"):
            return np.linspace(float(start), float(stop), int(steps))
    except ValueError as exc:
        raise ParseError(f"grid must be start:stop:steps, got {text!r}") from exc


def _result_obj(res) -> dict:
    return {
        "value": res.value,
        "upper_bound": res.upper_bound,
        "method": res.method.value,
        "restarts_used": res.restarts_used,
        "converged": res.converged,
        "min_diag": res.min_diag,
        "argmax_state": matrix_to_obj(res.argmax_state),
    }


def cmd_capacity(args) -> int:
    h = parse_matrix_text(_read_text(args.hamiltonian))  # each solver checks it is Hermitian
    cfg = SolverConfig(restarts=args.restarts, seed=args.seed)
    dim = h.shape[0]
    numeric = capacity_numeric(h, cfg)
    payload = {
        "command": "capacity",
        "dim": dim,
        "hamiltonian_hs_norm": hs_norm(h),
        "config": dataclasses.asdict(cfg),
        "numeric": _result_obj(numeric),
    }
    if dim == 2:
        qubit = capacity_qubit(h)
        payload["qubit"] = _result_obj(qubit)
        payload["method_gap"] = abs(numeric.value - qubit.value)
        print(f"capacity {qubit.value:.12g} bits per unit time (dim {dim})")
        print(f"method gap |numeric - closed form| = {payload['method_gap']:.3e}")
    else:
        print(f"capacity {numeric.value:.12g} bits per unit time (dim {dim})")
    if not numeric.converged:
        print("warning: gradient ascent did not converge; value is best-effort",
              file=sys.stderr)
    _write_text(args.out, dumps_17(payload))
    return EXIT_OK if numeric.converged else EXIT_NO_CONVERGENCE


def cmd_optimal(args) -> int:
    family = max_surprisal_variance(args.dim)
    psi = optimal_state(args.dim, family.gamma)
    ham = optimal_hamiltonian(args.dim)
    payload = {
        "command": "optimal",
        "dim": args.dim,
        "gamma": family.gamma,
        "f_max": family.f_max,
        "capacity_bound": family.capacity_bound,
        "state": matrix_to_obj(psi),
        "hamiltonian": matrix_to_obj(ham),
    }
    print(f"dim {args.dim}: gamma* {family.gamma:.12g}, "
          f"capacity bound {family.capacity_bound:.12g} bits per unit time")
    _write_text(args.out, dumps_17(payload))
    return EXIT_OK


def cmd_evolve(args) -> int:
    kind, state = parse_state_text(_read_text(args.state))
    if kind == "pure":  # trajectory checks ψψ†'s trace, ‖ψ‖², like any density matrix's
        state = np.outer(state, state.conj())
    ham = parse_matrix_text(_read_text(args.hamiltonian))
    grid = _parse_grid(args.grid)
    traj = trajectory(state, ham, grid)  # validates the density matrix and H
    peak = int(np.argmax(traj.coherence))
    print(f"max coherence {traj.coherence[peak]:.12g} bits "
          f"at t = {traj.times[peak]:.12g} ({len(traj)} samples)")
    _write_text(args.out, trajectory_to_csv(traj))
    return EXIT_OK


def cmd_scan_gamma(args) -> int:
    if args.resolution < 2:
        raise ParseError(f"resolution must be ≥ 2, got {args.resolution}")
    family = max_surprisal_variance(args.dim)
    gamma = np.arange(1, args.resolution) / args.resolution
    # evaluate through the generic surprisal variance of the explicit
    # distributions, not the closed-form family expression the summary
    # uses — the two routes cross-check each other
    tail = (1.0 - gamma) / (args.dim - 1)
    f = surprisal_variance(np.column_stack([gamma] + [tail] * (args.dim - 1)))
    csv = csv_table("gamma,f,sqrt2f", gamma, f, np.sqrt(2 * f))  # raises before any output
    print(f"dim {args.dim}: gamma* {family.gamma:.12g}, "
          f"f_max {family.f_max:.12g} bits², bound {family.capacity_bound:.12g}")
    _write_text(args.out, csv)
    _write_text(args.summary_out, dumps_17({
        "command": "scan-gamma",
        "dim": args.dim,
        "resolution": args.resolution,
        "gamma_star": family.gamma,
        "f_max": family.f_max,
        "capacity_bound": family.capacity_bound,
    }))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = []
    for result, seconds in timed_checks(level=args.level, seed=args.seed):
        print(f"{result.name}: {1e3 * seconds:.1f} ms", file=sys.stderr)
        results.append(result)
    all_passed = all(r.passed for r in results)
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        print(f"{mark} {r.name}: residual {r.residual:.3e} (tolerance {r.tolerance:.1e})")
    print(f"{'all checks passed' if all_passed else 'CHECKS FAILED'} "
          f"[{args.level}, seed {args.seed}]")
    checks = [dataclasses.asdict(r) for r in results]
    for check in checks:  # JSON has no NaN or infinity: such a residual is written as null
        check["residual"] = check["residual"] if np.isfinite(check["residual"]) else None
    _write_text(args.out, dumps_17({
        "command": "verify",
        "level": args.level,
        "seed": args.seed,
        "passed": all_passed,
        "checks": checks,
    }))
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohgen",
        description="Coherence-generating capacity of Hamiltonians "
                    "(relative entropy of coherence, base-2).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("capacity", help="capacity of a Hamiltonian from a matrix JSON file")
    p.add_argument("hamiltonian", help="matrix JSON file")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--seed", type=int, default=SolverConfig.seed, help="solver seed")
    p.add_argument("--restarts", type=int, default=SolverConfig.restarts,
                   help="gradient-ascent restarts")
    p.set_defaults(handler=cmd_capacity)

    p = sub.add_parser("optimal", help="best state/Hamiltonian pair for a dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(handler=cmd_optimal)

    p = sub.add_parser("evolve", help="coherence trajectory under exp(-iHt)")
    p.add_argument("state", help="state JSON file (amplitude vector or density matrix)")
    p.add_argument("hamiltonian", help="matrix JSON file")
    p.add_argument("--grid", required=True, help="time grid start:stop:steps")
    p.add_argument("--out", required=True, help="write the trajectory CSV here")
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("scan-gamma", help="scan the two-level family weight γ")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--resolution", type=int, default=100, help="number of grid cells")
    p.add_argument("--out", help="write the CSV here")
    p.add_argument("--summary-out", help="write the JSON summary here")
    p.set_defaults(handler=cmd_scan_gamma)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("level", nargs="?", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ConvergenceFailure) as exc:  # bad input, or a failed eigensolve
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE if isinstance(exc, ConvergenceFailure) else EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
