import contextlib
import importlib.util
import io
import json
import os

from cohgen import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "refactor_report", os.path.join(ROOT, "tools", "refactor_report.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring
over two lines."""
import math  # a trailing comment


# a comment line
def f(x):
    """One-line docstring."""

    y = (x +
         1)
    return math.sqrt(y)


class C:
    """Class docstring."""
    z = """not a docstring"""
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    tool = _load_tool()
    # import, def, the two lines of y, return, class, z
    assert tool.code_lines(SNIPPET) == 7
    assert tool.code_lines("") == 0


def test_package_count_sums_its_modules(tmp_path):
    tool = _load_tool()
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert tool.count_package(str(tmp_path)) == {"a": 7, "b": 1, "total": 8}


API_MODULE = '''
import dataclasses
import enum

__all__ = ["Color", "Failure", "Point", "scale"]


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    y: float = 0.0


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


class Failure(ValueError):
    pass


def scale(p: Point, k: float = 2.0) -> Point:
    return Point(k * p.x, k * p.y)


def hidden():
    pass
'''


def test_api_table_lists_fields_members_bases_and_signatures(tmp_path):
    tool = _load_tool()
    path = tmp_path / "api_module.py"
    path.write_text(API_MODULE)
    spec = importlib.util.spec_from_file_location("api_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert tool.api_table(module) == {
        "Color": ["RED", "BLUE"],
        "Failure": "class(ValueError)",
        "Point": ["x", "y"],
        "scale": "(p: api_module.Point, k: float = 2.0) -> api_module.Point",
    }


def test_bad_input_runs_exit_2_and_write_no_file(tmp_path):
    tool = _load_tool()
    runs = list(tool.bad_input_requests(str(tmp_path)))
    assert len(runs) == 12
    for label, argv, files, outputs in runs:
        for path, text in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 2, label
        assert stdout.getvalue() == "", label
        assert not any(os.path.exists(path) for path in outputs), label


def test_values_name_the_numbers_of_capacity_and_verify_reports(tmp_path):
    tool = _load_tool()
    h, out = tmp_path / "h.json", tmp_path / "c.json"
    h.write_text('{"dim": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}')
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["capacity", str(h), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert tool.report_values(report) == {
        "value": report["numeric"]["value"],
        "upper_bound": report["numeric"]["upper_bound"],
        "converged": True,
    }
    verify = {"command": "verify", "checks": [
        {"name": "a", "passed": True, "residual": 1e-15},
        {"name": "b", "passed": False, "residual": None}]}
    assert tool.report_values(verify) == {"a": 1e-15, "b": None}
    assert tool.report_values({"command": "optimal", "dim": 2}) is None


def test_standard_runs_include_the_zigzag_qubits(tmp_path):
    tool = _load_tool()
    workloads = tool._load(os.path.join(ROOT, "perfbench", "workloads.py"), "report_workloads")
    labels = [label for label, *_ in tool._requests(workloads, str(tmp_path))]
    assert len(labels) == len(set(labels)) == 1354
    for seed, group in [(35, 35), (69, 22), (80, 46), (203, 9), (314, 34), (316, 29)]:
        assert f"capacity_group {seed} {group} random 2" in labels
