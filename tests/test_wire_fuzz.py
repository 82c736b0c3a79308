"""Fuzzed wire input: the JSON readers and the CLI fail only with ValueError / exit 2.

load_matrix and deserialize get arbitrary JSON values, malformed text and
near-valid documents: a valid document with one field replaced by a
wrong type, an unknown kind, NaN, an infinity or a number too large for
a float.  Each call must return or raise ValueError and nothing else;
where the reader refuses a document, the CLI's compile, simulate and
verify must exit 2 on it.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cartanopt.circuit import OpticalCircuit, deserialize, hwp, pbs, ps, qwp, serialize
from cartanopt.cli import EXIT_INVALID_INPUT, main
from cartanopt.linalg import dump_matrix, haar_random_unitary, load_matrix

_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-5, 10),
        st.sampled_from((10**400, -(10**400), 2**63, 10**20)),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=6),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
# wrong types, unknown kinds and numbers that no float or mode count can hold
_SPECIALS = (math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**63, True, None, 1.5, -1,
             "1", "BS", "HWP", "", [], [0, 0], {})

_CIRCUIT = json.loads(serialize(OpticalCircuit(
    "sp", 2, (pbs(0, 1), hwp(0, 0.1), qwp(1, 0.2), ps(0, 0.3)), {"source": "fuzz"})))
_CIRCUIT_FIELDS = ("version", "convention", "spatial_modes", "elements", "metadata",
                   "kind", "modes", "angle_rad")
_MATRIX = json.loads(dump_matrix(haar_random_unitary(4, 3)))
_MATRIX_FIELDS = ("dim", "entries", "row", "cell", "part")


def _circuit_with(value, field, index):
    """_CIRCUIT as text with a top-level field or element index's field set to value."""
    doc = copy.deepcopy(_CIRCUIT)
    if field in doc:
        doc[field] = value
    else:
        doc["elements"][index][field] = value
    return json.dumps(doc)


def _matrix_with(value, where, i, j, p):
    """_MATRIX as text with dim, entries, row i, cell (i, j) or its part p set to value."""
    doc = copy.deepcopy(_MATRIX)
    if where in doc:
        doc[where] = value
    elif where == "row":
        doc["entries"][i] = value
    elif where == "cell":
        doc["entries"][i][j] = value
    else:
        doc["entries"][i][j][p] = value
    return json.dumps(doc)


_ARBITRARY = st.one_of(
    _JSON.map(json.dumps), st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40))
_CIRCUIT_TEXT = st.one_of(
    st.builds(_circuit_with, _JSON, st.sampled_from(_CIRCUIT_FIELDS), st.integers(0, 3)),
    _ARBITRARY,
)
_MATRIX_TEXT = st.one_of(
    st.builds(_matrix_with, _JSON, st.sampled_from(_MATRIX_FIELDS),
              st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
    _ARBITRARY,
)


def _refused(reader, text) -> bool:
    """True when reader raises ValueError on text; any other exception propagates."""
    try:
        reader(text)
    except ValueError:
        return True
    return False


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    good_matrix, good_circuit = d / "good_matrix.json", d / "good_circuit.json"
    good_matrix.write_text(json.dumps(_MATRIX))
    good_circuit.write_text(json.dumps(_CIRCUIT))
    return d / "input.json", str(good_matrix), str(good_circuit)


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _check_matrix_text(files, text):
    path, _, good_circuit = files
    if not _refused(load_matrix, text):
        return
    path.write_text(text, encoding="utf-8")
    assert _exit_code(["compile", "--matrix", str(path), "--convention", "ps"]) == EXIT_INVALID_INPUT
    assert _exit_code(["verify", "--circuit", good_circuit, "--matrix", str(path)]) == EXIT_INVALID_INPUT


def _check_circuit_text(files, text):
    path, good_matrix, _ = files
    if not _refused(deserialize, text):
        return
    path.write_text(text, encoding="utf-8")
    assert _exit_code(["simulate", "--circuit", str(path)]) == EXIT_INVALID_INPUT
    assert _exit_code(["verify", "--circuit", str(path), "--matrix", good_matrix]) == EXIT_INVALID_INPUT


def test_near_valid_documents_with_special_values(files):
    for value in _SPECIALS:
        for field in _CIRCUIT_FIELDS:
            for index in range(len(_CIRCUIT["elements"])):
                _check_circuit_text(files, _circuit_with(value, field, index))
        for where in _MATRIX_FIELDS:
            _check_matrix_text(files, _matrix_with(value, where, 1, 2, 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_MATRIX_TEXT)
def test_load_matrix_returns_or_raises_value_error(text):
    _refused(load_matrix, text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_CIRCUIT_TEXT)
def test_deserialize_returns_or_raises_value_error(text):
    _refused(deserialize, text)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_MATRIX_TEXT)
def test_cli_exits_two_on_refused_matrix(files, text):
    _check_matrix_text(files, text)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_CIRCUIT_TEXT)
def test_cli_exits_two_on_refused_circuit(files, text):
    _check_circuit_text(files, text)
