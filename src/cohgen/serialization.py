"""File formats: matrix/vector JSON and trajectory CSV.

All numeric output is written with 17 significant digits, which round-trips
IEEE-754 doubles exactly, so identical inputs produce byte-identical files on
any platform.  Parsing is strict: malformed input raises
:class:`cohgen.errors.ParseError` with the offending location.
"""
import json
import math

import numpy as np

from .errors import ParseError


def format_float(x) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r} cannot be serialized")
    return format(x, ".17g")


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format_float(x)
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps_17(obj) -> str:
    """JSON text with every float at 17 significant digits, indented by two
    spaces a level.

    Lists containing only numbers are kept on one line (matrix rows stay
    readable); dict keys keep insertion order.  Ends with a newline.  A
    list of Python floats whose sum is finite (so every entry is) skips the
    per-value type dispatch: it is written with ``format(v, ".17g")``, which
    is what :func:`format_float` writes for a finite float.
    """

    def emit(x, depth):
        pad = "  " * depth
        inner = "  " * (depth + 1)
        if isinstance(x, dict):
            if not x:
                return "{}"
            parts = [f"{inner}{json.dumps(str(k))}: {emit(v, depth + 1)}" for k, v in x.items()]
            return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
        if isinstance(x, np.ndarray):
            x = x.tolist()
        if isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            if set(map(type, x)) == {float} and math.isfinite(sum(x)):
                return "[" + ", ".join([format(v, ".17g") for v in x]) + "]"
            if all(_is_number(v) for v in x):
                return "[" + ", ".join(_scalar(v) for v in x) + "]"
            parts = [inner + emit(v, depth + 1) for v in x]
            return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
        return _scalar(x)

    return emit(obj, 0) + "\n"


def parse_json_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# matrix / vector schema: {"dim": d, "re": ..., "im": ...}

def matrix_to_obj(m) -> dict:
    """The schema object of a d×d matrix (rows of numbers) or of a length-d
    vector (a flat list), which :func:`parse_state_text` tells apart."""
    m = np.asarray(m, dtype=np.complex128)
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def _require_dim(obj) -> int:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ParseError(f"missing key {key!r}")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"'dim' must be a positive integer, got {dim!r}")
    return dim


def _number_row(row, length: int, what: str) -> list:
    if not isinstance(row, list) or len(row) != length:
        raise ParseError(f"{what} must be a list of {length} numbers")
    for v in row:
        if not _is_number(v):
            raise ParseError(f"{what} contains non-number {v!r}")
        if not math.isfinite(float(v)):
            raise ParseError(f"{what} contains non-finite value {v!r}")
    return [float(v) for v in row]


def matrix_from_obj(obj) -> np.ndarray:
    """Parse the matrix schema into a complex array (no physics validation)."""
    dim = _require_dim(obj)
    parts = []
    for key in ("re", "im"):
        block = obj[key]
        if not isinstance(block, list) or len(block) != dim:
            raise ParseError(f"{key!r} must be a list of {dim} rows")
        parts.append([_number_row(row, dim, f"{key!r} row {i}") for i, row in enumerate(block)])
    return np.asarray(parts[0]) + 1j * np.asarray(parts[1])


def vector_from_obj(obj) -> np.ndarray:
    dim = _require_dim(obj)
    re = _number_row(obj["re"], dim, "'re'")
    im = _number_row(obj["im"], dim, "'im'")
    return np.asarray(re) + 1j * np.asarray(im)


def parse_state_text(text: str):
    """Parse a state file: either an amplitude vector or a density matrix.

    Returns ``("pure", vector)`` when ``re`` holds a flat list of numbers and
    ``("density", matrix)`` when it holds rows, so files written for either
    representation are accepted interchangeably.
    """
    obj = parse_json_text(text)
    if not isinstance(obj, dict) or "re" not in obj or not isinstance(obj["re"], list) or not obj["re"]:
        raise ParseError("state file must hold a non-empty matrix or vector object")
    if isinstance(obj["re"][0], list):
        return "density", matrix_from_obj(obj)
    return "pure", vector_from_obj(obj)


def parse_matrix_text(text: str) -> np.ndarray:
    return matrix_from_obj(parse_json_text(text))


# ---------------------------------------------------------------------------
# trajectory CSV

TRAJECTORY_HEADER = "t,coherence_bits,entropy_bits"


def trajectory_to_csv(traj) -> str:
    """The CSV text of a trajectory: one row per time, each number as
    :func:`format_float` writes it.  A non-finite value raises its error,
    naming the first such value in row order."""
    table = np.column_stack([traj.times, traj.coherence, traj.entropy])
    finite = np.isfinite(table)
    if not finite.all():
        format_float(table[~finite][0])
    rows = "%.17g,%.17g,%.17g\n" * len(table) % tuple(table.ravel().tolist())
    return f"{TRAJECTORY_HEADER}\n{rows}"
