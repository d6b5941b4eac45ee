"""Code-line counts and CLI output hashes of a cohgen checkout, for refactors.

    python tools/refactor_report.py SRC OUT.json

SRC is the root of a checkout (it holds ``src/cohgen`` and
``perfbench/workloads.py``).  OUT.json gets four tables:

- ``code_lines``: per module of ``SRC/src/cohgen``, the lines that hold
  code, counted with ``tokenize`` after ``ast`` has marked the docstrings;
  comments, blank lines and docstrings do not count.  ``total`` sums them.
- ``api``: each name in ``cohgen.__all__`` with the field names of a
  dataclass, the members of an enum, the base classes of another class or
  the ``inspect.signature`` of a function.
- ``outputs``: one SHA-256 per standard CLI run, over its exit code, its
  stdout and every file it writes (stderr is left out: ``verify`` writes
  wall times there).  The runs are ``verify fast --seed 0..49``, ``verify
  full --seed 0`` and ``--seed 7``, the verify requests of benchmark seeds
  0 and 310 for groups 0..599, ``capacity`` and ``evolve`` for benchmark
  groups (0, 0), (0, 1), (310, 0) and (1, 5), ``capacity`` on the random
  d = 2 H of benchmark groups (35, 35), (69, 22), (80, 46), (203, 9),
  (314, 34) and (316, 29) (zig-zag qubits, whose solves end only when a
  running restart certifies on the ceiling), ``capacity`` on one 3×3 H
  of norm about 6e7 (it converges only because the gradient tolerance
  scales with ‖H‖₂), ``optimal`` for
  d = 2..32, ``scan-gamma`` for d = 2, 3, 7 and 40, and twelve runs on bad
  input that exit 2 and write no file (``capacity`` of a non-Hermitian H
  and of an H with a 400-digit entry,
  ``evolve`` with a qubit state and a qutrit H, ``evolve`` with a NaN
  state, ``evolve --grid`` 5:1:3, 0:1:0 and 0:nan:3, ``evolve --grid
  0:1.7e308:2`` under an H whose phase λt overflows, ``optimal --dim 1``,
  ``scan-gamma --dim 1``, ``scan-gamma --resolution 1`` and ``verify --seed -1``),
  so that a refactor of validation is compared too.  The benchmark requests are
  built by ``SRC/perfbench/workloads.py``.
- ``values``: the numbers behind those hashes, per run that writes a
  report: ``numeric.value``, ``upper_bound`` and ``converged`` of each
  ``capacity`` run, and each check's ``residual`` of each ``verify`` run.

A refactor that keeps every output runs this on its parent checkout and on
itself and compares the two files: ``diff`` shows only the line counts that
moved, the public names that changed and, for a change that moves outputs,
each number that moved.  The runs share one process, with
SRC's cohgen imported and BLAS on one thread as in the benchmark.
"""
import ast
import contextlib
import dataclasses
import enum
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import sys
import tempfile
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# A large-norm H, whose gradient noise floor lies far above an absolute
# gradient tolerance: it pins the tolerance's scaling with ‖H‖₂.
_LARGE_NORM_H = json.dumps({
    "dim": 3,
    "re": [[0, 20000000, 10000000], [20000000, 5000000, 30000000],
           [10000000, 30000000, -5000000]],
    "im": [[0, 10000000, 0], [-10000000, 0, -20000000], [0, 20000000, 0]],
})
# (seed, group) of the benchmark's zig-zag qubits: on their random d = 2 H
# every restart steps s, tries 2s, is rejected and steps s again.
_ZIGZAG_GROUPS = ((35, 35), (69, 22), (80, 46), (203, 9), (314, 34), (316, 29))
_QUBIT_STATE = json.dumps({"dim": 2, "re": [1, 0], "im": [0, 0]})
_NAN_STATE = '{"dim": 2, "re": [[NaN, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}'
_QUBIT_H = json.dumps({"dim": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]})
_NON_HERMITIAN_H = json.dumps({"dim": 2, "re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]})
_QUTRIT_H = json.dumps({"dim": 3, "re": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                        "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]})
# Its eigenvalues ±1.118 overflow the phase λt at t = 1.7e308.
_OVERFLOW_H = json.dumps({"dim": 2, "re": [[1, 0.5], [0.5, -1]], "im": [[0, 0], [0, 0]]})
# An entry of 400 digits, which json reads as an int no double holds.
_HUGE_ENTRY_H = '{"dim": 2, "re": [[0, %s], [1, 0]], "im": [[0, 0], [0, 0]]}' % ("9" * 400)


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token other than a comment, outside docstrings."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def count_package(package_dir: str) -> dict:
    counts = {}
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
                counts[name[:-3]] = code_lines(fh.read())
    counts["total"] = sum(counts.values())
    return counts


def api_table(module) -> dict:
    """What each name of ``module.__all__`` offers a caller, as JSON values."""
    table = {}
    for name in sorted(module.__all__):
        obj = getattr(module, name)
        if dataclasses.is_dataclass(obj):
            table[name] = [field.name for field in dataclasses.fields(obj)]
        elif isinstance(obj, type) and issubclass(obj, enum.Enum):
            table[name] = [member.name for member in obj]
        elif isinstance(obj, type):
            table[name] = f"class({', '.join(base.__name__ for base in obj.__bases__)})"
        else:
            table[name] = str(inspect.signature(obj))
    return table


def _import_cohgen(root: str):
    """The cohgen package of ``root/src``, refusing any other copy."""
    sys.path.insert(0, os.path.join(root, "src"))
    cohgen = importlib.import_module("cohgen")
    if not os.path.abspath(cohgen.__file__).startswith(os.path.abspath(root) + os.sep):
        raise RuntimeError(f"imported {cohgen.__file__}, not the cohgen of {root}")
    return cohgen


def _load(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bad_input_requests(workdir: str):
    """(label, argv, input files, output paths) of the runs that must exit 2."""
    def out(name):
        return os.path.join(workdir, name)

    for what, h in (("non-Hermitian", _NON_HERMITIAN_H), ("400-digit entry", _HUGE_ENTRY_H)):
        yield (f"capacity {what} exit 2",
               ["capacity", out("h.json"), "--out", out("c.json")],
               {out("h.json"): h}, [out("c.json")])
    def evolve(grid):
        return ["evolve", out("state.json"), out("h.json"), "--grid", grid, "--out", out("t.csv")]

    yield ("evolve dimension mismatch exit 2", evolve("0:1:5"),
           {out("state.json"): _QUBIT_STATE, out("h.json"): _QUTRIT_H}, [out("t.csv")])
    yield ("evolve NaN state exit 2", evolve("0:1:5"),
           {out("state.json"): _NAN_STATE, out("h.json"): _QUBIT_H}, [out("t.csv")])
    for grid in ("5:1:3", "0:1:0", "0:nan:3"):
        yield (f"evolve --grid {grid} exit 2", evolve(grid),
               {out("state.json"): _QUBIT_STATE, out("h.json"): _QUBIT_H}, [out("t.csv")])
    yield ("evolve --grid 0:1.7e308:2 exit 2", evolve("0:1.7e308:2"),
           {out("state.json"): _QUBIT_STATE, out("h.json"): _OVERFLOW_H}, [out("t.csv")])
    yield "optimal --dim 1 exit 2", ["optimal", "--dim", "1", "--out", out("o.json")], {}, [out("o.json")]
    files = [out("s.csv"), out("s.json")]
    for bad in (["--dim", "1"], ["--dim", "2", "--resolution", "1"]):
        yield (f"scan-gamma {' '.join(bad)} exit 2",
               ["scan-gamma", *bad, "--out", files[0], "--summary-out", files[1]], {}, files)
    yield ("verify --seed -1 exit 2",
           ["verify", "fast", "--seed", "-1", "--out", out("v.json")], {}, [out("v.json")])


def _requests(workloads, workdir: str):
    """(label, argv, input files, output paths) of every standard run."""
    def out(name):
        return os.path.join(workdir, name)

    for seed in range(50):
        yield (f"verify fast --seed {seed}",
               ["verify", "fast", "--seed", str(seed), "--out", out("v.json")], {}, [out("v.json")])
    for seed in (0, 7):
        yield (f"verify full --seed {seed}",
               ["verify", "full", "--seed", str(seed), "--out", out("v.json")], {}, [out("v.json")])
    for seed in (0, 310):
        for group in range(600):
            for req in workloads.verify_group(seed, group, workdir):
                yield f"verify_group {seed} {group}", req.argv, req.files, [req.out]
    for seed, group in ((0, 0), (0, 1), (310, 0), (1, 5)):
        for make in (workloads.capacity_group, workloads.orbit_group):
            for req in make(seed, group, workdir):
                yield (f"{make.__name__} {seed} {group} {req.kind} {req.dim}",
                       req.argv, req.files, [req.out])
    for seed, group in _ZIGZAG_GROUPS:
        (req,) = [r for r in workloads.capacity_group(seed, group, workdir)
                  if (r.kind, r.dim) == ("random", 2)]
        yield f"capacity_group {seed} {group} random 2", req.argv, req.files, [req.out]
    yield ("capacity large-norm",
           ["capacity", out("h.json"), "--out", out("c.json")],
           {out("h.json"): _LARGE_NORM_H}, [out("c.json")])
    for d in range(2, 33):
        yield (f"optimal --dim {d}",
               ["optimal", "--dim", str(d), "--out", out("o.json")], {}, [out("o.json")])
    for d in (2, 3, 7, 40):
        files = [out("s.csv"), out("s.json")]
        yield (f"scan-gamma --dim {d}",
               ["scan-gamma", "--dim", str(d), "--out", files[0], "--summary-out", files[1]],
               {}, files)
    yield from bad_input_requests(workdir)


def report_values(report: dict):
    """The numbers of a ``capacity`` or ``verify`` report, or None for another."""
    if report.get("command") == "capacity":
        numeric = report["numeric"]
        return {key: numeric[key] for key in ("value", "upper_bound", "converged")}
    if report.get("command") == "verify":
        return {check["name"]: check["residual"] for check in report["checks"]}
    return None


def run_outputs(root: str):
    """(hashes, values) of every standard run of the CLI imported from ``root/src``.

    ``hashes`` holds a SHA-256 per run; ``values`` holds the
    :func:`report_values` of each run whose first output is such a report.
    """
    _import_cohgen(root)
    from cohgen import cli

    workloads = _load(os.path.join(root, "perfbench", "workloads.py"), "refactor_workloads")
    hashes, values = {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        for label, argv, files, outputs in _requests(workloads, workdir):
            for path, text in files.items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            for path in outputs:
                if os.path.exists(path):
                    os.remove(path)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            digest = hashlib.sha256(f"exit {code}\n{stdout.getvalue()}".encode())
            for path in outputs:
                if os.path.exists(path):  # a failed run may write nothing
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
                else:
                    digest.update(b"no file")
            if label in hashes:
                raise RuntimeError(f"duplicate run label {label!r}")
            hashes[label] = digest.hexdigest()
            if outputs[0].endswith(".json") and os.path.exists(outputs[0]):
                with open(outputs[0], encoding="utf-8") as fh:
                    numbers = report_values(json.load(fh))
                if numbers is not None:
                    values[label] = numbers
    return hashes, values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root, out = argv
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # as the benchmark runs; set before numpy loads
    report = {
        "code_lines": count_package(os.path.join(root, "src", "cohgen")),
        "api": api_table(_import_cohgen(root)),
    }
    report["outputs"], report["values"] = run_outputs(root)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"{report['code_lines']['total']} code lines, {len(report['outputs'])} outputs -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
