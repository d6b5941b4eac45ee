"""Per-layer tracing from outside the program.

The layers are cohgen's modules.  ``Tracer.install`` replaces each traced
public function with a timing wrapper in every cohgen namespace that holds
it: modules bind each other's functions with ``from .x import y``, and
``verify._CHECKS`` holds the check functions by reference, so rebinding the
defining module alone would time almost nothing.  ``uninstall`` restores the
originals.

Each call is a span.  Spans nest on a stack; a span's self time is its
duration minus the durations of its direct children.
"""
import sys
import time
from functools import wraps

TRACED = {
    "cli": ["main"],
    "serialization": ["dumps_17", "trajectory_to_csv", "parse_matrix_text", "parse_state_text"],
    "linalg": ["validate_density", "validate_hermitian", "eig_hermitian", "unitary_exp"],
    "coherence": ["rel_entropy_coherence", "von_neumann_entropy", "coherence_derivative",
                  "coherence_commutator", "surprisal_variance", "surprisal_variance_pairform"],
    "dynamics": ["trajectory", "evolve", "fd_derivative", "entropy_derivative_check"],
    "capacity": ["capacity_numeric", "capacity_qubit", "max_surprisal_variance",
                 "simplex_grid_oracle", "holder_hamiltonian"],
    "sampling": ["random_density", "random_hermitian"],
}

# Calls that also feed derived counts (Tracer._count).
COUNTED = {"capacity.capacity_numeric", "dynamics.trajectory",
           "serialization.dumps_17", "serialization.trajectory_to_csv"}

# Report names of the checks in cohgen.verify._CHECKS, in run order.
VERIFY_CHECKS = [
    "dephased_log_pairing", "surprisal_pairform_equivalence", "fd_vs_analytic_rate",
    "entropy_constant_along_orbit", "entropy_rate_identity", "holder_saturation",
    "capacity_bound_equality", "capacity_bound_certificate", "qubit_cross_method",
    "simplex_grid_oracle",
]


def per_layer_metrics() -> list:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for module, names in TRACED.items():
        for name in names:
            base = f"{module}.{name}"
            out += [(f"{base}.calls", "count", "lower"),
                    (f"{base}.total_s", "s", "lower"),
                    (f"{base}.self_s", "s", "lower")]
            if name in ("dumps_17", "trajectory_to_csv"):
                out.append((f"{base}.bytes", "bytes", "lower"))
    out += [("capacity.restarts", "count", "lower"),
            ("capacity.restart_mean_ms", "ms", "lower"),
            ("capacity.converged_frac", "frac", "higher"),
            ("dynamics.trajectory.points", "count", "higher"),
            ("dynamics.trajectory.point_mean_us", "us", "lower")]
    out += [(f"verify.{check}.total_s", "s", "lower") for check in VERIFY_CHECKS]
    out.append(("trace_overhead_frac", "frac", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.stats = {}        # label -> [calls, total_s, self_s]
        self.counts = {"capacity.restarts": 0, "capacity.converged": 0,
                       "dynamics.trajectory.points": 0,
                       "serialization.dumps_17.bytes": 0,
                       "serialization.trajectory_to_csv.bytes": 0}
        self._stack = []       # child time accumulated by each open span
        self._saved = []       # (namespace, key, original) to restore

    def _record(self, label, duration, child):
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child

    def _wrap(self, fn, label):
        stack, record = self._stack, self._record
        count = self._count if label in COUNTED else None

        @wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                record(label(result) if callable(label) else label, duration, child)
                if count is not None:
                    count(label, result, error)

        return traced

    def _count(self, label, result, error):
        """Derived counts, taken at the call that does the work."""
        c = self.counts
        if label == "capacity.capacity_numeric":
            solved = result if result is not None else getattr(error, "best_result", None)
            if solved is not None:     # NoConvergence carries the best result
                c["capacity.restarts"] += solved.restarts_used
                c["capacity.converged"] += int(result is not None and result.converged)
        elif result is None:
            return
        elif label == "dynamics.trajectory":
            c["dynamics.trajectory.points"] += len(result)
        else:
            c[f"{label}.bytes"] += len(result)   # both formats are ASCII

    def install(self):
        namespaces = [m for name, m in list(sys.modules.items())
                      if (name == "cohgen" or name.startswith("cohgen.")) and m is not None]
        wrapped = {}
        for module, names in TRACED.items():
            defining = sys.modules[f"cohgen.{module}"]
            for name in names:
                fn = getattr(defining, name)
                label = f"{module}.{name}"
                wrapped[id(fn)] = self._wrap(fn, label)
        verify = sys.modules["cohgen.verify"]
        for _, fn in verify._CHECKS:
            wrapped[id(fn)] = self._wrap(fn, lambda r: f"verify.{r.name}" if r else "verify.?")
        for module in namespaces:
            space = vars(module)
            for key, value in list(space.items()):
                if id(value) in wrapped:
                    self._saved.append((space, key, value))
                    space[key] = wrapped[id(value)]
                elif isinstance(value, list) and any(
                        isinstance(item, tuple) and any(id(x) in wrapped for x in item)
                        for item in value):
                    self._saved.append((space, key, value))
                    space[key] = [tuple(wrapped.get(id(x), x) for x in item)
                                  if isinstance(item, tuple) else item for item in value]

    def uninstall(self):
        for space, key, value in reversed(self._saved):
            space[key] = value
        self._saved.clear()

    def metrics(self, passes: int, untraced_s: float, traced_s: float) -> dict:
        """Per-layer metrics per traced pass, named as in per_layer_metrics()."""
        values = {}
        for label, (calls, total, self_time) in self.stats.items():
            values[f"{label}.calls"] = calls / passes
            values[f"{label}.total_s"] = total / passes
            values[f"{label}.self_s"] = self_time / passes
        for key in ("serialization.dumps_17.bytes", "serialization.trajectory_to_csv.bytes",
                    "dynamics.trajectory.points", "capacity.restarts"):
            values[key] = self.counts[key] / passes
        solves = self.stats.get("capacity.capacity_numeric", [0, 0.0, 0.0])
        restarts = self.counts["capacity.restarts"]
        values["capacity.restart_mean_ms"] = 1e3 * solves[1] / restarts if restarts else 0.0
        values["capacity.converged_frac"] = (self.counts["capacity.converged"] / solves[0]
                                             if solves[0] else 0.0)
        points = self.counts["dynamics.trajectory.points"]
        trajectory = self.stats.get("dynamics.trajectory", [0, 0.0, 0.0])
        values["dynamics.trajectory.point_mean_us"] = 1e6 * trajectory[1] / points if points else 0.0
        values["trace_overhead_frac"] = traced_s / untraced_s - 1.0
        out = {}
        for name, unit, _ in per_layer_metrics():
            out[name] = {"value": values.get(name, 0.0), "unit": unit}
        return out
