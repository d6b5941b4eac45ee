import json
import math
import re

import numpy as np
import pytest

from cohgen import ParseError, Trajectory, random_density, random_hermitian, trajectory
from cohgen.serialization import (
    TRAJECTORY_HEADER,
    dumps_17,
    format_float,
    matrix_from_obj,
    matrix_to_obj,
    parse_json_text,
    parse_matrix_text,
    parse_state_text,
    trajectory_to_csv,
    vector_from_obj,
)


def test_format_float_round_trips_doubles():
    values = [np.pi, 0.1, 1.0 / 3.0, 1e-300, -2.5e17, 0.0, float(np.nextafter(1.0, 2.0))]
    for v in values:
        assert float(format_float(v)) == v


def test_format_float_rejects_non_finite():
    for v in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            format_float(v)


def test_dumps_is_stable_and_json_compatible():
    obj = {"b": 1.5, "a": [1.0, 2.0, 3.0], "nested": {"x": True, "y": None}}
    text = dumps_17(obj)
    assert text == dumps_17(obj)  # byte stability
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["b"] == 1.5
    assert parsed["a"] == [1.0, 2.0, 3.0]
    assert parsed["nested"]["x"] is True


def test_dumps_17_digits():
    text = dumps_17({"v": 0.1})
    assert "0.10000000000000001" in text


def _reference_dumps_17(obj) -> str:
    """The emitter as it was before lists of Python floats got a fast path:
    every value of a one-line list goes through the type dispatch."""

    def is_number(x):
        return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)

    def scalar(x):
        if x is None:
            return "null"
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            return format_float(x)
        return json.dumps(x)

    def emit(x, depth):
        pad, inner = "  " * depth, "  " * (depth + 1)
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
            if all(is_number(v) for v in x):
                return "[" + ", ".join(scalar(v) for v in x) + "]"
            parts = [inner + emit(v, depth + 1) for v in x]
            return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
        return scalar(x)

    return emit(obj, 0) + "\n"


def test_dumps_17_matches_the_reference_emitter():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    big = 1.7976931348623157e308
    obj = {
        "state": matrix_to_obj(m),
        "edges": [-0.0, 5e-324, big, 3.0],
        "overflowing_sum": [big, big, -1.0],        # finite entries, infinite sum
        "mixed": [1, 2.5, np.float64(0.1), np.int64(-3)],
        "numpy_floats": np.arange(4.0)[:, None] / 7,
        "tuple": (0.25, 1e-300),
        "flags": [True, 1.0, None, "x"],
        "empty": [[], {}],
        "scalars": {"f": 0.1, "i": 7, "b": False, "n": None},
    }
    assert dumps_17(obj) == _reference_dumps_17(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 2])
def test_dumps_17_rejects_non_finite_like_the_reference(bad, where):
    row = [0.5, -1.25, 2.0]
    row[where] = bad
    obj = {"rows": [[1.0, 2.0], row + [math.nan]]}   # a later bad value too
    with pytest.raises(ValueError) as old:
        _reference_dumps_17(obj)
    with pytest.raises(ValueError, match=re.escape(str(old.value))):
        dumps_17(obj)


def test_matrix_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        obj = matrix_to_obj(m)
        text = dumps_17(obj)
        back = matrix_from_obj(parse_json_text(text))
        assert np.array_equal(back, m)


def test_vector_round_trip():
    v = np.array([0.6, -0.8j, 1e-17 + 1j])
    back = vector_from_obj(parse_json_text(dumps_17(matrix_to_obj(v))))
    assert np.array_equal(back, v)


def test_matrix_parse_errors():
    with pytest.raises(ParseError):
        parse_matrix_text("not json")
    with pytest.raises(ParseError):
        parse_matrix_text('{"re": [[1]], "im": [[0]]}')  # missing dim
    with pytest.raises(ParseError):
        parse_matrix_text('{"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]}')
    with pytest.raises(ParseError):
        parse_matrix_text('{"dim": true, "re": [[1]], "im": [[0]]}')
    with pytest.raises(ParseError):
        parse_matrix_text('{"dim": 1, "re": [["x"]], "im": [[0]]}')


def test_an_integer_too_large_for_a_double_is_a_parse_error():
    # json reads a 400-digit entry as a Python int, which no double holds
    huge = "9" * 400
    with pytest.raises(ParseError, match="too large for a double"):
        parse_matrix_text(f'{{"dim": 1, "re": [[{huge}]], "im": [[0]]}}')
    with pytest.raises(ParseError, match="too large for a double"):
        parse_state_text(f'{{"dim": 2, "re": [1, 0], "im": [0, -{huge}]}}')
    # the largest integers a double holds still parse, rounded like json floats
    big = parse_matrix_text(f'{{"dim": 1, "re": [[{10**308}]], "im": [[0]]}}')
    assert big[0, 0].real == 1e308


def test_state_text_dispatch():
    kind, vec = parse_state_text('{"dim": 2, "re": [0.6, 0.8], "im": [0.0, 0.0]}')
    assert kind == "pure"
    assert vec.shape == (2,)
    kind, mat = parse_state_text(
        '{"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}'
    )
    assert kind == "density"
    assert mat.shape == (2, 2)


def test_trajectory_csv_format():
    traj = trajectory(
        np.eye(2) / 2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 0.25])
    )
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == TRAJECTORY_HEADER == "t,coherence_bits,entropy_bits"
    assert len(lines) == 3
    t, c, e = lines[1].split(",")
    assert float(t) == 0.0 and float(c) == 0.0 and float(e) == 1.0


def _per_row_csv(traj) -> str:
    """The trajectory writer as it was: format_float on every value, row by row."""
    lines = [TRAJECTORY_HEADER]
    for t, c, s in zip(traj.times, traj.coherence, traj.entropy):
        lines.append(f"{format_float(t)},{format_float(c)},{format_float(s)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d", [2, 8, 32])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_trajectory_csv_matches_the_per_row_writer(kind, d):
    rng = np.random.default_rng([d, kind == "pure"])
    if kind == "pure":
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
    else:
        rho = random_density(d, rng)
    traj = trajectory(rho, random_hermitian(d, rng), np.linspace(0.0, 7.3, 2000))
    assert trajectory_to_csv(traj) == _per_row_csv(traj)
    # also -0.0, the extremes of a double and a time that is an integer, and
    # columns of one value (written once), of -0.0 alone, and of 0.0 and
    # -0.0 mixed, which are equal as numbers but not as text
    edges = np.array([-0.0, 5e-324, 1.7976931348623157e308, 3.0])
    for entropy in (np.zeros(4), np.full(4, -0.0), np.array([0.0, -0.0, 0.0, 0.0])):
        odd = Trajectory(times=edges, coherence=edges[::-1].copy(), entropy=entropy)
        assert trajectory_to_csv(odd) == _per_row_csv(odd)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["times", "coherence", "entropy"])
def test_trajectory_csv_rejects_non_finite_like_format_float(column, bad):
    columns = {name: np.linspace(0.0, 1.0, 5) for name in ("times", "coherence", "entropy")}
    columns[column][3] = bad
    columns["entropy"][4] = 7.0 if column == "entropy" else math.nan   # a later bad row
    with pytest.raises(ValueError) as old:
        _per_row_csv(Trajectory(**columns))
    with pytest.raises(ValueError, match=re.escape(str(old.value))):
        trajectory_to_csv(Trajectory(**columns))
