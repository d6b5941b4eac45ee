"""The program keeps what the benchmark in ``perfbench/`` relies on.

The benchmark drives ``cohgen.cli.main`` and checks its outputs without
importing cohgen, and its ``--trace 1`` mode rebinds cohgen functions by
name.  These tests only read ``perfbench/``; a rename, a changed report
schema or a check that stops returning ``CheckResult`` fails here, in the
test suite, instead of in a benchmark run.
"""
import importlib.util
import json
import os
import subprocess
import sys

import cohgen.cli
import cohgen.verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_selftest_passes():
    # real outputs pass the benchmark's checks, deliberately wrong ones fail,
    # and the check counts and metric names match BENCHMARK.json
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_round_trip(tmp_path):
    tracing = _load_tracing()
    for module, names in tracing.TRACED.items():
        for name in names:
            assert callable(getattr(sys.modules[f"cohgen.{module}"], name, None)), \
                f"cohgen.{module}.{name}"
    checks_before = cohgen.verify._CHECKS
    h = tmp_path / "h.json"
    h.write_text('{"dim": 2, "re": [[0, 0], [0, 0]], "im": [[0, -1], [1, 0]]}')
    report = tmp_path / "verify.json"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cohgen.cli.main(["verify", "fast", "--out", str(report)]) == 0
        assert cohgen.cli.main(["capacity", str(h), "--out", str(tmp_path / "cap.json")]) == 0
    finally:
        tracer.uninstall()
    assert cohgen.verify._CHECKS is checks_before
    checks = json.loads(report.read_text())["checks"]
    assert all(list(c) == ["name", "passed", "tolerance", "residual", "detail"] for c in checks)
    names = [c["name"] for c in checks]
    assert set(names) <= set(tracing.VERIFY_CHECKS)
    spans = {label for label in tracer.stats if label.startswith("verify.")}
    assert spans == {f"verify.{name}" for name in names}
    assert all(tracer.stats[f"verify.{name}"][0] == 1 for name in names)
    for label in ("cli.main", "capacity.capacity_numeric", "capacity.capacity_qubit",
                  "serialization.parse_matrix_text", "serialization.dumps_17"):
        assert label in tracer.stats, label
