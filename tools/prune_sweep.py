"""Does stopping restarts that fall behind ever lower a capacity?

    python tools/prune_sweep.py SRC

SRC is the root of a checkout (it holds ``src/cohgen`` and
``perfbench/workloads.py``).  The sweep solves 1,000 random unit-norm H,
``workloads.random_unit_hermitian(d, default_rng([d, s]))`` for s = 0, 1, ...
at d = 3, 4, 8, 32 and 64, each with 32 restarts and solver seed s, twice in
one process: with the solver's behind rule (``capacity._BEHIND_TOL`` and
``_SETTLED_TOL``) and with it switched off (``_BEHIND_TOL = inf``).  The two solves of one H run
back to back, in alternating order.  It prints, over all H and per d:

- how many pruned values are lower than the unpruned ones, and the largest
  relative loss
- how many are bit-identical, and how many are higher
- how many ``converged`` flags differ
- the solve time of each side

The last line of stdout is the same summary as one JSON object.  The exit
code is 1 if some value is lower by more than 1e-12 relative, else 0.  BLAS
runs on one thread, as in the benchmark.
"""
import importlib.util
import json
import math
import os
import sys
import time

COUNTS = {3: 250, 4: 250, 8: 250, 32: 200, 64: 50}
RESTARTS = 32
LOSS_TOL = 1e-12


def _load(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(rows) -> dict:
    """Counts and times over (d, s, pruned, unpruned, pruned_s, unpruned_s) rows."""
    loss = [(u.value - p.value) / abs(u.value) if u.value else 0.0 for _, _, p, u, _, _ in rows]
    worst = max(range(len(rows)), key=loss.__getitem__)
    return {
        "solves": len(rows),
        "lower": sum(p.value < u.value for _, _, p, u, _, _ in rows),
        "largest_relative_loss": max(0.0, loss[worst]),
        "largest_loss_at": list(rows[worst][:2]) if loss[worst] > 0 else None,
        "bit_identical": sum(p.value == u.value for _, _, p, u, _, _ in rows),
        "higher": sum(p.value > u.value for _, _, p, u, _, _ in rows),
        "converged_differ": sum(p.converged != u.converged for _, _, p, u, _, _ in rows),
        "pruned_s": round(sum(r[4] for r in rows), 3),
        "unpruned_s": round(sum(r[5] for r in rows), 3),
    }


def _line(label: str, s: dict) -> str:
    at = "" if s["largest_loss_at"] is None else " at (d, s) = ({}, {})".format(*s["largest_loss_at"])
    return (f"{label}: {s['solves']} H; lower {s['lower']}, largest relative loss "
            f"{s['largest_relative_loss']:.3g}{at}; bit-identical {s['bit_identical']}, "
            f"higher {s['higher']}; converged flags differ {s['converged_differ']}; "
            f"time pruned {s['pruned_s']:.2f} s, unpruned {s['unpruned_s']:.2f} s")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root = argv[0]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # set before numpy loads
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    from cohgen import SolverConfig, capacity_numeric
    import cohgen.capacity as capacity

    if not hasattr(capacity, "_BEHIND_TOL"):
        print(f"{capacity.__file__} has no behind rule (_BEHIND_TOL)", file=sys.stderr)
        return 2
    workloads = _load(os.path.join(root, "perfbench", "workloads.py"), "prune_sweep_workloads")
    rule = capacity._BEHIND_TOL

    def solve(h, cfg, tol):
        capacity._BEHIND_TOL = tol
        start = time.perf_counter()
        res = capacity_numeric(h, cfg)
        return res, time.perf_counter() - start

    rows = []
    for d, count in COUNTS.items():
        for s in range(count):
            h = workloads.random_unit_hermitian(d, np.random.default_rng([d, s]))
            cfg = SolverConfig(restarts=RESTARTS, seed=s)
            if len(rows) % 2:
                (u, u_s), (p, p_s) = solve(h, cfg, math.inf), solve(h, cfg, rule)
            else:
                (p, p_s), (u, u_s) = solve(h, cfg, rule), solve(h, cfg, math.inf)
            rows.append((d, s, p, u, p_s, u_s))
    capacity._BEHIND_TOL = rule

    report = {"behind_tol": rule, "settled_tol": getattr(capacity, "_SETTLED_TOL", None),
              "restarts": RESTARTS, "loss_tol": LOSS_TOL,
              "all": _summary(rows),
              "per_d": {d: _summary([r for r in rows if r[0] == d]) for d in COUNTS}}
    print(_line("all", report["all"]))
    for d, s in report["per_d"].items():
        print(_line(f"d = {d}", s))
    print(json.dumps(report))
    return 1 if report["all"]["largest_relative_loss"] > LOSS_TOL else 0


if __name__ == "__main__":
    raise SystemExit(main())
