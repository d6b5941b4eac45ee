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

import numpy as np
import pytest

import cohgen.cli
import cohgen.verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
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
    tracing = _load_perfbench("tracing")
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


def _entropy_bits(p):
    p = p[p > 1e-14]
    return float(-(p * np.log2(p)).sum())


@pytest.mark.parametrize("seed, group", [(0, 0), (310, 0)])
def test_orbit_requests_match_an_expm_reference(seed, group, tmp_path):
    # the orbit_scan requests of one benchmark group, run as the benchmark
    # runs them; at 20 grid points the coherence column must match states
    # evolved with scipy's expm, and the entropy column must be S(rho)
    scipy_linalg = pytest.importorskip("scipy.linalg")
    workloads, checks = _load_perfbench("workloads"), _load_perfbench("checks")
    for request in workloads.orbit_group(seed, group, str(tmp_path)):
        for path, text in request.files.items():
            with open(path, "w") as f:
                f.write(text)
        assert cohgen.cli.main(request.argv) == 0
        with open(request.out, "rb") as f:
            out = f.read()
        assert checks.check_orbit(request, 0, out) == []
        h_obj = json.loads(request.files[request.argv[2]])
        h = np.array(h_obj["re"]) + 1j * np.array(h_obj["im"])
        rho = request.meta["rho"]
        table = np.loadtxt(request.out, delimiter=",", skiprows=1)
        s_rho = _entropy_bits(np.linalg.eigvalsh(rho))
        assert np.abs(table[:, 2] - s_rho).max() <= 1e-12, (request.kind, request.dim)
        for t, coherence, _ in table[np.linspace(0, len(table) - 1, 20).astype(int)]:
            u = scipy_linalg.expm(-1j * t * h)
            state = u @ rho @ u.conj().T
            expected = (_entropy_bits(state.diagonal().real)
                        - _entropy_bits(np.linalg.eigvalsh(state)))
            assert abs(coherence - expected) <= 1e-12, (request.kind, request.dim, t)
