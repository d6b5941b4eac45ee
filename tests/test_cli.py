"""End-to-end command-line tests, run in-process through cli.main."""
import argparse
import importlib.util
import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

import cohgen.capacity
import cohgen.cli
import cohgen.verify
from cohgen import (
    ConvergenceFailure,
    optimal_hamiltonian,
    random_hermitian,
    rel_entropy_coherence,
    surprisal_variance,
)
from cohgen.cli import build_parser, main
from cohgen.serialization import dumps_17, format_float, matrix_to_obj
from refvals import BOUND, F_MAX, GAMMA_STAR, X_STAR


def _write_matrix(path, m):
    path.write_text(dumps_17(matrix_to_obj(np.asarray(m, dtype=complex))))
    return str(path)


def _write_vector(path, v):
    path.write_text(dumps_17(matrix_to_obj(np.asarray(v, dtype=complex))))
    return str(path)


def test_capacity_canonical_qubit(tmp_path, capsys):
    hfile = _write_matrix(tmp_path / "h.json", optimal_hamiltonian(2))
    out = tmp_path / "report.json"
    code = main(["capacity", hfile, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "capacity" in stdout and "dim 2" in stdout
    rep = json.loads(out.read_text())
    assert abs(rep["numeric"]["value"] - BOUND[2]) < 1e-6
    assert abs(rep["qubit"]["value"] - BOUND[2]) < 1e-12
    assert rep["method_gap"] < 1e-6
    assert rep["numeric"]["converged"] is True


def test_capacity_reports_are_byte_identical(tmp_path):
    hfile = _write_matrix(tmp_path / "h.json", optimal_hamiltonian(2))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["capacity", hfile, "--out", str(out1)]) == 0
    assert main(["capacity", hfile, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_capacity_zero_matrix(tmp_path):
    hfile = _write_matrix(tmp_path / "z.json", np.zeros((2, 2)))
    out = tmp_path / "r.json"
    assert main(["capacity", hfile, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["numeric"]["value"] == 0.0


def test_capacity_d3_matches_family_bound(tmp_path):
    hfile = _write_matrix(tmp_path / "h3.json", optimal_hamiltonian(3))
    out = tmp_path / "r.json"
    assert main(["capacity", hfile, "--seed", "4", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["numeric"]["value"] - BOUND[3]) < 1e-5
    assert "qubit" not in rep  # closed form only applies to dim 2


def test_capacity_missing_file():
    assert main(["capacity", "/no/such/file.json"]) == 2


def test_capacity_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["capacity", str(bad)]) == 2


def test_capacity_non_hermitian_input(tmp_path):
    f = tmp_path / "nh.json"
    f.write_text(dumps_17({"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]],
                           "im": [[0.0, 0.0], [0.0, 0.0]]}))
    assert main(["capacity", str(f)]) == 2


def test_capacity_starved_solver_exits_3_but_writes_report(tmp_path, monkeypatch):
    hfile = _write_matrix(tmp_path / "h.json", optimal_hamiltonian(2))
    monkeypatch.setattr(cohgen.capacity, "_MAX_ITERS", 1)
    out = tmp_path / "r.json"
    code = main(["capacity", hfile, "--restarts", "1", "--out", str(out)])
    assert code == 3
    rep = json.loads(out.read_text())
    assert rep["numeric"]["converged"] is False
    assert rep["numeric"]["value"] >= 0.0


def _benchmark_workloads():
    # read-only: the benchmark's request builder
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed, group", [(35, 35), (69, 22), (80, 46), (203, 9),
                                         (314, 34), (316, 29)])
def test_capacity_certifies_the_zigzag_qubits(seed, group, tmp_path):
    # On these random qubit requests every restart zig-zags to _MAX_ITERS on
    # the closed-form value; the solve ends on the proven ceiling instead of
    # exiting 3.
    req = _benchmark_workloads().capacity_group(seed, group, str(tmp_path))[0]
    assert (req.kind, req.dim) == ("random", 2)
    for path, text in req.files.items():
        pathlib.Path(path).write_text(text)
    assert main(req.argv) == 0
    rep = json.loads(pathlib.Path(req.out).read_text())
    assert rep["numeric"]["converged"] is True
    assert rep["method_gap"] <= 1e-14 * rep["numeric"]["upper_bound"]
    assert rep["qubit"]["upper_bound"] == rep["qubit"]["value"]


def test_convergence_failure_from_any_verb_exits_3(monkeypatch, capsys):
    # `capacity` exits 3 by its result's `converged` flag (see the
    # starved-solver test above); a ConvergenceFailure, an eigensolve that
    # failed, falls to main's handler from any verb.
    def failed_eigensolve(level, seed):
        raise ConvergenceFailure("eigendecomposition did not converge")

    monkeypatch.setattr(cohgen.cli, "timed_checks", failed_eigensolve)
    assert main(["verify", "fast"]) == 3
    assert "eigendecomposition did not converge" in capsys.readouterr().err


def test_capacity_report_config_is_restarts_and_seed(tmp_path):
    hfile = _write_matrix(tmp_path / "h.json", optimal_hamiltonian(2))
    out = tmp_path / "r.json"
    assert main(["capacity", hfile, "--seed", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {"restarts": 32, "seed": 2}


def test_capacity_defaults_are_the_solver_config_defaults(tmp_path):
    # a random qutrit, whose report depends on both the seed and the restarts
    hfile = _write_matrix(tmp_path / "h.json", random_hermitian(3, np.random.default_rng(5)))
    default, explicit = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["capacity", hfile, "--out", str(default)]) == 0
    assert main(["capacity", hfile, "--restarts", "32", "--seed", "0",
                 "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()


def test_capacity_rejects_removed_config_flag(tmp_path, capsys):
    hfile = _write_matrix(tmp_path / "h.json", optimal_hamiltonian(2))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("restarts = 4\n")
    with pytest.raises(SystemExit) as exc:
        main(["capacity", hfile, "--config", str(cfg)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_capacity_rejects_removed_mixed_flag(tmp_path, capsys):
    hfile = _write_matrix(tmp_path / "h.json", optimal_hamiltonian(2))
    with pytest.raises(SystemExit) as exc:
        main(["capacity", hfile, "--mixed"])
    assert exc.value.code == 2
    assert "--mixed" in capsys.readouterr().err


def test_optimal_d2(tmp_path, capsys):
    out = tmp_path / "opt.json"
    assert main(["optimal", "--dim", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["gamma"] - X_STAR) < 1e-12
    assert abs(rep["capacity_bound"] - BOUND[2]) < 1e-12
    amp = np.array(rep["state"]["re"]) + 1j * np.array(rep["state"]["im"])
    assert abs(np.linalg.norm(amp) - 1.0) < 1e-12


def test_optimal_round_trips_bit_exact(tmp_path):
    out = tmp_path / "opt.json"
    assert main(["optimal", "--dim", "5", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    h = np.array(rep["hamiltonian"]["re"]) + 1j * np.array(rep["hamiltonian"]["im"])
    assert np.array_equal(h, optimal_hamiltonian(5))
    norm = math.sqrt(float(np.sum(np.abs(h) ** 2)))
    assert abs(norm - 1.0) < 1e-14


def test_evolve_single_point_grid(tmp_path):
    h = _write_matrix(tmp_path / "h.json", optimal_hamiltonian(2))
    psi = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    s = _write_vector(tmp_path / "s.json", psi)
    out = tmp_path / "t.csv"
    assert main(["evolve", s, h, "--grid", "0:1:1", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,coherence_bits,entropy_bits"
    assert len(lines) == 2
    t0, c0, _ = (float(x) for x in lines[1].split(","))
    assert t0 == 0.0
    assert abs(c0 - rel_entropy_coherence(np.outer(psi, psi))) < 1e-12


def test_evolve_initial_slope_matches_bound(tmp_path):
    from cohgen import max_surprisal_variance, optimal_state

    g = max_surprisal_variance(2).gamma
    h = _write_matrix(tmp_path / "h.json", optimal_hamiltonian(2))
    s = _write_vector(tmp_path / "s.json", optimal_state(2, g))
    out = tmp_path / "t.csv"
    assert main(["evolve", s, h, "--grid", "0:2:200", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    t = [float(r[0]) for r in rows]
    c = [float(r[1]) for r in rows]
    secant = (c[1] - c[0]) / (t[1] - t[0])
    assert abs(secant - BOUND[2]) < 1e-3


def test_evolve_diagonal_pair_stays_incoherent(tmp_path):
    h = _write_matrix(tmp_path / "h.json", np.diag([1.0, -1.0]))
    s = _write_matrix(tmp_path / "rho.json", np.diag([0.4, 0.6]))
    out = tmp_path / "t.csv"
    assert main(["evolve", s, h, "--grid", "0:3:7", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_evolve_bad_grid(tmp_path):
    # the text parse rejects a malformed grid; trajectory rejects an empty,
    # non-finite or non-ascending one
    h = _write_matrix(tmp_path / "h.json", optimal_hamiltonian(2))
    s = _write_vector(tmp_path / "s.json", np.array([1.0, 0.0]))
    out = tmp_path / "x"
    for grid in ("5:1:3", "0:1:0", "oops", "0:1:-3", "0:nan:3", "0:inf:3", "1:1:3",
                 "0:1", "0:1:2:3"):
        assert main(["evolve", s, h, "--grid", grid, "--out", str(out)]) == 2, grid
        assert not out.exists(), grid


def test_evolve_non_hermitian_hamiltonian_exits_2(tmp_path, capsys):
    h = _write_matrix(tmp_path / "h.json", [[0.0, 1.0], [0.0, 0.0]])
    s = _write_vector(tmp_path / "s.json", np.array([1.0, 0.0]))
    out = tmp_path / "t.csv"
    assert main(["evolve", s, h, "--grid", "0:1:3", "--out", str(out)]) == 2
    assert "deviates from its conjugate transpose by 1.000e+00" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["capacity", "optimal", "verify"])
@pytest.mark.parametrize("where", ["missing dir", "empty"])
def test_an_output_that_cannot_be_written_exits_2(verb, where, tmp_path, capsys):
    out = str(tmp_path / "no such dir" / "x.json") if where == "missing dir" else ""
    argv = {"capacity": ["capacity", _write_matrix(tmp_path / "h.json", optimal_hamiltonian(2))],
            "optimal": ["optimal", "--dim", "2"],
            "verify": ["verify", "fast"]}[verb]
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out}: " in err
    assert "Traceback" not in err


def test_scan_gamma_summary(tmp_path):
    out = tmp_path / "scan.csv"
    summ = tmp_path / "sum.json"
    assert main(["scan-gamma", "--dim", "3", "--resolution", "50",
                 "--out", str(out), "--summary-out", str(summ)]) == 0
    rep = json.loads(summ.read_text())
    assert abs(rep["gamma_star"] - GAMMA_STAR[3]) < 1e-10
    assert abs(rep["f_max"] - F_MAX[3]) < 1e-12
    assert abs(rep["capacity_bound"] - BOUND[3]) < 1e-12
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "gamma,f,sqrt2f"
    assert len(lines) == 50  # header + 49 interior points
    # every scanned f must sit at or below the claimed maximum
    for line in lines[1:]:
        _, f, root = line.split(",")
        assert float(f) <= rep["f_max"] + 1e-12
        assert abs(float(root) - np.sqrt(2 * float(f))) < 1e-12


def test_scan_gamma_balanced_row_is_zero(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan-gamma", "--dim", "2", "--resolution", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    gamma, f, _ = lines[1].split(",")
    assert float(gamma) == 0.5
    assert float(f) == 0.0


def _reference_scan_gamma_csv(dim, resolution):
    """The per-γ loop scan-gamma ran before it made one stacked call."""
    lines = ["gamma,f,sqrt2f"]
    for k in range(1, resolution):
        gamma = k / resolution
        tail = (1.0 - gamma) / (dim - 1)
        f = surprisal_variance([gamma] + [tail] * (dim - 1))
        lines.append(
            f"{format_float(gamma)},{format_float(f)},{format_float(np.sqrt(2 * f))}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dim", [2, 3, 7, 40])
@pytest.mark.parametrize("resolution", [2, 3, 100, 601])
def test_scan_gamma_matches_the_per_gamma_reference(dim, resolution, tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan-gamma", "--dim", str(dim), "--resolution", str(resolution),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == _reference_scan_gamma_csv(dim, resolution).encode()


def test_scan_gamma_rejects_a_non_finite_value(tmp_path, monkeypatch):
    monkeypatch.setattr(cohgen.cli, "surprisal_variance", lambda p: surprisal_variance(p) + math.nan)
    out = tmp_path / "scan.csv"
    assert main(["scan-gamma", "--dim", "3", "--resolution", "5", "--out", str(out)]) == 2
    assert not out.exists()


def test_scan_gamma_rejects_tiny_resolution():
    assert main(["scan-gamma", "--dim", "2", "--resolution", "1"]) == 2


def test_verify_fast_passes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "fast", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in stdout
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert all(c["passed"] for c in rep["checks"])
    assert len(rep["checks"]) >= 8


def test_verify_writes_check_times_to_stderr(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "fast", "--seed", "3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    lines = captured.err.splitlines()
    # one line per check, in report order; no timing reaches stdout or the report
    assert [line.split(": ")[0] for line in lines] == names
    assert all(re.fullmatch(r"[a-z_]+: \d+\.\d ms", line) for line in lines), lines
    assert " ms" not in captured.out and " ms" not in out.read_text()


def test_verify_catches_log_base_mutation(tmp_path, monkeypatch, capsys):
    # sabotage the family evaluation with natural logs; the equality check
    # must fail with the bound inflated by exactly ln 2
    original = cohgen.capacity._family_f

    def natural_log_family(gamma, d):
        return original(gamma, d) * (math.log(2) ** 2)

    monkeypatch.setattr(cohgen.capacity, "_family_f", natural_log_family)
    out = tmp_path / "verify.json"
    code = main(["verify", "fast", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    failed = {c["name"]: c for c in rep["checks"] if not c["passed"]}
    assert "capacity_bound_equality" in failed
    resid = failed["capacity_bound_equality"]["residual"]
    # each rhs is scaled by ln2, so the worst gap is bound(6)*(1 - ln2)
    expect = BOUND[6] * (1 - math.log(2))
    assert abs(resid - expect) < 1e-6


def test_verify_writes_a_nan_residual_as_null(tmp_path, monkeypatch, capsys):
    # one NaN rate per stack fails three checks; the report is still written
    original = cohgen.verify.coherence_derivative

    def first_rate_nan(*args):
        rate = np.array(original(*args))
        rate.flat[0] = math.nan
        return rate

    monkeypatch.setattr(cohgen.verify, "coherence_derivative", first_rate_nan)
    out = tmp_path / "verify.json"
    assert main(["verify", "fast", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    rep = json.loads(out.read_text())
    nan_checks = {"fd_vs_analytic_rate", "holder_saturation", "capacity_bound_certificate"}
    assert rep["passed"] is False
    for c in rep["checks"]:
        assert (c["residual"] is None) == (c["name"] in nan_checks) == (not c["passed"])
        if c["residual"] is None:
            assert f"FAIL {c['name']}: residual nan (tolerance" in stdout
    assert "CHECKS FAILED [fast, seed 0]" in stdout


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_readme_cli_matches_the_parser():
    # Every `cohgen ...` line of a ```sh block parses, and every inline code
    # span starting with `--` names an option of some subcommand.
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for p in subparsers.choices.values() for o in p._option_string_actions}
    commands = [line.strip()
                for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
                for line in block.splitlines() if line.strip().startswith("cohgen ")]
    assert commands
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
    spans = re.findall(r"`(--[^`\s]*)[^`]*`", readme)
    assert spans
    assert set(spans) <= options, set(spans) - options
