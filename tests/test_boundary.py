"""The element and matrix-JSON boundary against its reference rules.

OpticalElement stores canonical values as given and converts the rest;
matrix_to_json reads the matrix in one tolist and matrix_from_json builds
it in one np.array.  Each must keep what the entry-by-entry rules below
produce: the same stored types and bits, the same ValueError text for
every rejection, and the same JSON bytes.  matrix_from_json is also held
to the path it had before exact floats skipped its number checks and
conversion, kept below.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartanopt.circuit import KINDS, OpticalElement
from cartanopt.linalg import _parse_json, dump_matrix, load_matrix, matrix_from_json
from test_wire_fuzz import _MATRIX_FIELDS, _MATRIX_TEXT, _SPECIALS, _matrix_with


def _is_int(v) -> bool:
    return type(v) is int or isinstance(v, np.integer)


def _reference_element(kind, modes, angle):
    """(modes, angle) as the element rule converts them, or the ValueError it raises."""
    if kind not in KINDS:
        raise ValueError(f"unknown element kind {kind!r}")
    if not isinstance(modes, (tuple, list)) or not all(map(_is_int, modes)):
        raise ValueError(f"modes must be a list of integers, got {modes!r}")
    modes = tuple(map(int, modes))
    if modes and min(modes) < 0:
        raise ValueError(f"negative mode index in {modes}")
    if kind == "pbs":
        if len(modes) != 2 or modes[0] == modes[1]:
            raise ValueError("pbs needs two distinct modes")
        if angle is not None:
            raise ValueError("pbs carries no angle")
        return modes, None
    if len(modes) != 1:
        raise ValueError(f"{kind} acts on exactly one mode")
    if type(angle) is bool or not isinstance(angle, (float, int, np.floating, np.integer)):
        raise ValueError(f"{kind} angle must be a number, got {angle!r}")
    try:
        angle = float(angle)
    except OverflowError:
        angle = math.nan
    if not math.isfinite(angle):
        raise ValueError(f"{kind} needs a finite angle")
    return modes, angle


_MODE = st.one_of(
    st.integers(0, 3),
    st.integers(-1, 4),
    st.integers(0, 3).map(np.int64),
    st.integers(0, 3).map(np.uint8),
    st.sampled_from((True, False, 0.0, 1.5, "0", None)),
)
_ANGLE = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-10, 10),
    st.integers(-10, 10).map(np.int64),
    st.sampled_from((-0.0, 5e-324, math.nan, math.inf, -math.inf, 10**400, -(10**400))),
    st.sampled_from((np.float64(math.nan), np.float64(-math.inf), True, False, None, "0.1")),
)


@st.composite
def _elements(draw):
    """(kind, modes, angle), mostly of the kind's shape so the angle checks run too."""
    kind = draw(st.sampled_from(KINDS + ("bs",)))
    n = 2 if kind == "pbs" else 1
    modes = draw(st.one_of(
        st.lists(_MODE, min_size=n, max_size=n).map(tuple),
        st.lists(_MODE, min_size=n, max_size=n),
        st.lists(_MODE, max_size=3).map(tuple),
        st.sampled_from((0, "0", None, range(1))),
    ))
    angle = draw(st.one_of(st.none(), _ANGLE) if kind == "pbs" else _ANGLE)
    return kind, modes, angle


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_elements())
def test_element_matches_the_reference_rule(element):
    kind, modes, angle = element
    try:
        want = _reference_element(kind, modes, angle)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            OpticalElement(kind, modes, angle)
        assert str(got.value) == str(exc)
        return
    e = OpticalElement(kind, modes, angle)
    assert type(e.modes) is tuple and e.modes == want[0]
    assert all(type(m) is int for m in e.modes)
    if want[1] is None:
        assert e.angle_rad is None
    else:
        assert type(e.angle_rad) is float and e.angle_rad.hex() == want[1].hex()


def _reference_dump(M) -> str:
    """matrix JSON text read entry by entry."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    return json.dumps({
        "dim": n,
        "entries": [[[float(M[i, j].real), float(M[i, j].imag)] for j in range(n)]
                    for i in range(n)],
    })


_PART = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308)),
)


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 8))
    parts = draw(st.lists(_PART, min_size=2 * n * n, max_size=2 * n * n))
    M = np.array(parts).view(complex).reshape(n, n)
    return draw(st.sampled_from((M, M.T, M.real, M.tolist())))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_matrices())
def test_dump_matrix_matches_the_reference_and_round_trips(M):
    text = dump_matrix(M)
    assert text == _reference_dump(M)
    back = load_matrix(text)
    want = np.asarray(M, dtype=complex)
    assert back.dtype == np.complex128 and back.flags.c_contiguous
    assert back.shape == want.shape
    assert np.array_equal(back.view(np.uint64), np.ascontiguousarray(want).view(np.uint64))


def _reference_from_json(obj) -> np.ndarray:
    """matrix JSON read and written entry by entry."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    dim = obj.get("dim")
    entries = obj.get("entries")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("matrix JSON needs a positive integer 'dim'")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ValueError(f"'entries' must be a list of {dim} rows")
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"row {i} length != dim ({dim})")
    M = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        for j, cell in enumerate(row):
            if (not isinstance(cell, (list, tuple)) or len(cell) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               for v in cell)):
                raise ValueError(f"entry ({i},{j}) must be a [re, im] pair of numbers")
            try:
                re, im = float(cell[0]), float(cell[1])
            except OverflowError:
                re = im = math.inf
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"entry ({i},{j}) is not finite")
            M[i, j] = complex(re, im)
    return M


def _check_from_json(text):
    try:
        obj = _parse_json(text, "matrix")
    except ValueError:
        return
    _check_against_the_old_path(obj)
    try:
        want = _reference_from_json(obj)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            matrix_from_json(obj)
        assert str(got.value) == str(exc)
        return
    got = matrix_from_json(obj)
    assert got.dtype == np.complex128 and got.flags.c_contiguous and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_matrix_from_json_matches_the_reference_on_special_values():
    for value in _SPECIALS + (-0.0, 5e-324, 0, 1, False):
        for where in _MATRIX_FIELDS:
            for p in (0, 1):
                _check_from_json(_matrix_with(value, where, 1, 2, p))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_MATRIX_TEXT)
def test_matrix_from_json_matches_the_reference(text):
    _check_from_json(text)


def _old_matrix_from_json(obj) -> np.ndarray:
    """matrix_from_json as it read before exact floats skipped its checks."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    dim = obj.get("dim")
    entries = obj.get("entries")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("matrix JSON needs a positive integer 'dim'")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ValueError(f"'entries' must be a list of {dim} rows")
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"row {i} length != dim ({dim})")
    rows = []
    for i, row in enumerate(entries):
        values = []
        for j, cell in enumerate(row):
            if (not isinstance(cell, (list, tuple)) or len(cell) != 2
                    or not isinstance(cell[0], (int, float)) or isinstance(cell[0], bool)
                    or not isinstance(cell[1], (int, float)) or isinstance(cell[1], bool)):
                raise ValueError(f"entry ({i},{j}) must be a [re, im] pair of numbers")
            try:
                re, im = float(cell[0]), float(cell[1])
            except OverflowError:
                re = im = math.inf
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"entry ({i},{j}) is not finite")
            values.append(complex(re, im))
        rows.append(values)
    return np.array(rows, dtype=complex)


class _Float(float):
    pass


def _check_against_the_old_path(obj):
    try:
        want = _old_matrix_from_json(obj)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            matrix_from_json(obj)
        assert str(got.value) == str(exc)
        return
    got = matrix_from_json(obj)
    assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


_CELLS = (
    [0.5, -0.0], [-0.0, -0.0], [0, 1], [1, 0.25], [True, 0.5], [0.5, False], (0.5, -0.25),
    (0, -0.0), [5e-324, 1e308], [10**400, 0.0], [math.nan, 0.0], [0.0, -math.inf],
    [_Float(0.5), 0.5], [np.float64(0.5), 0.5], [0.5], [0.5, 0.5, 0.5], "0.5", None,
)


@pytest.mark.parametrize("cell", _CELLS, ids=repr)
def test_matrix_from_json_keeps_the_old_path_on_each_kind_of_cell(cell):
    # one odd cell at (1, 0) among exact floats, and every cell odd
    base = [[[float(i), -float(j)] for j in range(2)] for i in range(2)]
    base[1][0] = cell
    _check_against_the_old_path({"dim": 2, "entries": base})
    _check_against_the_old_path({"dim": 2, "entries": [[cell, cell], [cell, cell]]})
