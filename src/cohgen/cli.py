"""Command-line interface.

    cohgen capacity hamiltonian.json --out report.json
    cohgen optimal --dim 3 --out optimal.json
    cohgen evolve state.json hamiltonian.json --grid 0:2:200 --out traj.csv
    cohgen scan-gamma --dim 2 --resolution 200 --out scan.csv --summary-out scan.json
    cohgen verify fast --out checks.json

stdout carries a short human summary; machine-readable output goes only to
``--out`` / ``--summary-out`` files, written with 17-significant-digit
numbers so identical invocations produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 input/parse error,
3 solver non-convergence.
"""
import argparse
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
from .errors import ConvergenceFailure, NoConvergence, ParseError
from .linalg import hs_norm, validate_density, validate_hermitian, validate_pure_state
from .serialization import (
    dumps_17,
    format_float,
    matrix_to_obj,
    parse_config_text,
    parse_matrix_text,
    parse_state_text,
    trajectory_to_csv,
    vector_to_obj,
)
from .verify import run_checks

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


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _solver_config(args) -> SolverConfig:
    """defaults < config file < command-line flags."""
    fields = {}
    if getattr(args, "config", None):
        fields = parse_config_text(_read_text(args.config))
    for name in ("seed", "restarts"):
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = value
    if getattr(args, "mixed", False):
        fields["mixed"] = True
    return SolverConfig(**fields)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be start:stop:steps, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ParseError(f"grid must be start:stop:steps, got {text!r}") from exc
    if steps < 1:
        raise ParseError(f"grid needs at least 1 step, got {steps}")
    if steps > 1 and stop <= start:
        raise ParseError(f"grid stop must exceed start, got {text!r}")
    return np.linspace(start, stop, steps)


def _config_obj(cfg: SolverConfig) -> dict:
    return {
        "restarts": cfg.restarts,
        "max_iters": cfg.max_iters,
        "grad_tol": cfg.grad_tol,
        "step_init": cfg.step_init,
        "seed": cfg.seed,
        "mixed": cfg.mixed,
    }


def _result_obj(res) -> dict:
    return {
        "value": res.value,
        "method": res.method.value,
        "restarts_used": res.restarts_used,
        "converged": res.converged,
        "min_diag": res.min_diag,
        "argmax_state": matrix_to_obj(res.argmax_state),
    }


def cmd_capacity(args) -> int:
    h = validate_hermitian(parse_matrix_text(_read_text(args.hamiltonian)))
    cfg = _solver_config(args)
    dim = h.shape[0]
    payload = {
        "command": "capacity",
        "dim": dim,
        "hamiltonian_hs_norm": hs_norm(h),
        "config": _config_obj(cfg),
    }
    exit_code = EXIT_OK
    try:
        numeric = capacity_numeric(h, cfg)
    except NoConvergence as err:
        numeric = err.best_result
        exit_code = EXIT_NO_CONVERGENCE
    payload["numeric"] = _result_obj(numeric)
    value = numeric.value
    if dim == 2:
        qubit = capacity_qubit(h)
        payload["qubit"] = _result_obj(qubit)
        payload["method_gap"] = abs(numeric.value - qubit.value)
        value = qubit.value
    print(f"capacity {value:.12g} bits per unit time (dim {dim})")
    if dim == 2:
        print(f"method gap |numeric - closed form| = {payload['method_gap']:.3e}")
    if not numeric.converged:
        print("warning: gradient ascent did not converge; value is best-effort",
              file=sys.stderr)
    if args.out:
        _write_text(args.out, dumps_17(payload))
    return exit_code


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
        "state": vector_to_obj(psi),
        "hamiltonian": matrix_to_obj(ham),
    }
    print(f"dim {args.dim}: gamma* {family.gamma:.12g}, "
          f"capacity bound {family.capacity_bound:.12g} bits per unit time")
    if args.out:
        _write_text(args.out, dumps_17(payload))
    return EXIT_OK


def cmd_evolve(args) -> int:
    kind, state = parse_state_text(_read_text(args.state))
    if kind == "pure":
        psi = validate_pure_state(state)
        rho = np.outer(psi, psi.conj())
    else:
        rho = state
    rho = validate_density(rho)
    ham = validate_hermitian(parse_matrix_text(_read_text(args.hamiltonian)))
    grid = _parse_grid(args.grid)
    traj = trajectory(rho, ham, grid)
    peak = int(np.argmax(traj.coherence))
    print(f"max coherence {traj.coherence[peak]:.12g} bits "
          f"at t = {traj.times[peak]:.12g} ({len(traj)} samples)")
    _write_text(args.out, trajectory_to_csv(traj))
    return EXIT_OK


def cmd_scan_gamma(args) -> int:
    if args.resolution < 2:
        raise ParseError(f"resolution must be ≥ 2, got {args.resolution}")
    family = max_surprisal_variance(args.dim)
    lines = ["gamma,f,sqrt2f"]
    for k in range(1, args.resolution):
        gamma = k / args.resolution
        # evaluate through the generic surprisal variance of the explicit
        # distribution, not the closed-form family expression the summary
        # uses — the two routes cross-check each other
        tail = (1.0 - gamma) / (args.dim - 1)
        f = surprisal_variance([gamma] + [tail] * (args.dim - 1))
        lines.append(
            f"{format_float(gamma)},{format_float(f)},{format_float(np.sqrt(2 * f))}"
        )
    print(f"dim {args.dim}: gamma* {family.gamma:.12g}, "
          f"f_max {family.f_max:.12g} bits², bound {family.capacity_bound:.12g}")
    if args.out:
        _write_text(args.out, "\n".join(lines) + "\n")
    if args.summary_out:
        summary = {
            "command": "scan-gamma",
            "dim": args.dim,
            "resolution": args.resolution,
            "gamma_star": family.gamma,
            "f_max": family.f_max,
            "capacity_bound": family.capacity_bound,
        }
        _write_text(args.summary_out, dumps_17(summary))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(level=args.level, seed=args.seed)
    all_passed = all(r.passed for r in results)
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        print(f"{mark} {r.name}: residual {r.residual:.3e} (tolerance {r.tolerance:.1e})")
    print(f"{'all checks passed' if all_passed else 'CHECKS FAILED'} "
          f"[{args.level}, seed {args.seed}]")
    if args.out:
        payload = {
            "command": "verify",
            "level": args.level,
            "seed": args.seed,
            "passed": all_passed,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "tolerance": r.tolerance,
                    "residual": r.residual,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        _write_text(args.out, dumps_17(payload))
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
    p.add_argument("--seed", type=int, help="solver seed")
    p.add_argument("--restarts", type=int, help="gradient-ascent restarts")
    p.add_argument("--config", help="key=value solver config file")
    p.add_argument("--mixed", action="store_true",
                   help="search mixed states (exploratory; pure is the default)")
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
    except ValueError as exc:  # ParseError and every validation error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
