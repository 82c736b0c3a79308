"""Element IR: validation, counting, wire format, and peephole rewrites."""

import collections
import json
import math
import pathlib

import numpy as np
import pytest

from cartanopt import circuit as circuit_module
from cartanopt import waveplates
from cartanopt.circuit import (
    OpticalCircuit,
    OpticalElement,
    _rewrite_drop_zero_ps,
    _rewrite_merge_ps,
    _rewrite_resynthesize_run,
    chain_elements,
    deserialize,
    element_count,
    hwp,
    optimize,
    pbs,
    ps,
    qwp,
    serialize,
)
from cartanopt.compiler import CompileOptions, compile_m4
from cartanopt.linalg import DEFAULT_TOL, haar_random_unitary
from cartanopt.simulate import simulate
from cartanopt.waveplates import chain_matrix, synthesize_u2
from test_waveplates import _SHRINKING


def _circ(elements, conv="sp", m=2, metadata=None):
    return OpticalCircuit(
        convention=conv,
        num_spatial_modes=m,
        elements=tuple(elements),
        metadata=metadata or {},
    )


def test_element_validation():
    assert pbs(0, 1).modes == (0, 1)
    assert hwp(1, 0.5).angle_rad == 0.5
    with pytest.raises(ValueError):
        OpticalElement("pbs", (0, 0), None)
    with pytest.raises(ValueError):
        OpticalElement("pbs", (0,), None)
    with pytest.raises(ValueError):
        OpticalElement("hwp", (0, 1), 0.3)
    with pytest.raises(ValueError):
        OpticalElement("hwp", (0,), float("nan"))
    with pytest.raises(ValueError):
        OpticalElement("bs", (0,), 0.1)
    # numpy scalars are accepted and stored as Python numbers
    e = OpticalElement("qwp", (np.int64(1),), np.float64(0.25))
    assert e.modes == (1,) and type(e.modes[0]) is int
    assert e.angle_rad == 0.25 and type(e.angle_rad) is float


_NOT_INTS = "modes must be a list of integers, got "
# (kind, modes, angle, the ValueError text it gets)
_REFUSED = [
    ("hwp", (True,), 0.1, _NOT_INTS + "(True,)"),
    ("hwp", (0.0,), 0.1, _NOT_INTS + "(0.0,)"),
    ("hwp", ("0",), 0.1, _NOT_INTS + "('0',)"),
    ("hwp", 0, 0.1, _NOT_INTS + "0"),
    ("hwp", "0", 0.1, _NOT_INTS + "'0'"),
    ("hwp", None, 0.1, _NOT_INTS + "None"),
    ("pbs", (0, 1.5), None, _NOT_INTS + "(0, 1.5)"),
    ("hwp", (-1,), 0.1, "negative mode index in (-1,)"),
    ("hwp", (0,), "0.1", "hwp angle must be a number, got '0.1'"),
    ("hwp", (0,), True, "hwp angle must be a number, got True"),
    (["hwp"], (0,), 0.1, "unknown element kind ['hwp']"),
    ("pbs", (0, 1), 0.5, "pbs carries no angle"),
    ("qwp", (0,), None, "qwp angle must be a number, got None"),
    ("ps", (), 0.1, "ps acts on exactly one mode"),
    ("hwp", (0,), math.inf, "hwp needs a finite angle"),
    ("qwp", (0,), -math.inf, "qwp needs a finite angle"),
]


@pytest.mark.parametrize("kind,modes,angle", [case[:3] for case in _REFUSED])
def test_element_rejects_loose_types(kind, modes, angle):
    (message,) = [case[3] for case in _REFUSED if case[:3] == (kind, modes, angle)]
    with pytest.raises(ValueError) as refused:
        OpticalElement(kind, modes, angle)
    assert str(refused.value) == message


class _OwnRepr(float):
    def __repr__(self):
        return "quarter"


@pytest.mark.parametrize(
    "spelling,exact",
    [
        (("hwp", [1], 0.25), ("hwp", (1,), 0.25)),
        (("hwp", (np.int64(1),), 0.25), ("hwp", (1,), 0.25)),
        (("qwp", [np.uint8(1)], 1), ("qwp", (1,), 1.0)),
        (("qwp", (1,), np.float64(0.25)), ("qwp", (1,), 0.25)),
        (("ps", (1,), np.int32(-2)), ("ps", (1,), -2.0)),
        (("ps", (1,), -0.0), ("ps", (1,), -0.0)),
        (("hwp", (1,), _OwnRepr(0.25)), ("hwp", (1,), 0.25)),
        (("pbs", [0, 1], None), ("pbs", (0, 1), None)),
        (("pbs", (np.int64(1), 0), None), ("pbs", (1, 0), None)),
    ],
)
def test_element_stores_accepted_spellings_as_exact_types(spelling, exact):
    # every accepted spelling is stored as the exact-typed element would be,
    # so it compares, hashes and serializes as that element does
    e, want = OpticalElement(*spelling), OpticalElement(*exact)
    assert type(e.modes) is tuple and all(type(m) is int for m in e.modes)
    if want.angle_rad is None:
        assert e.angle_rad is None
    else:
        assert type(e.angle_rad) is float and e.angle_rad.hex() == want.angle_rad.hex()
    assert e == want and hash(e) == hash(want) and repr(e) == repr(want)
    assert serialize(_circ([e])) == serialize(_circ([want]))


def test_circuit_validates_mode_range():
    with pytest.raises(ValueError):
        _circ([hwp(2, 0.1)], m=2)
    with pytest.raises(ValueError):
        _circ([pbs(0, 3)], m=2)
    # every mode is checked, not only the last
    with pytest.raises(ValueError):
        _circ([pbs(3, 0)], m=2)
    with pytest.raises(ValueError):
        _circ([hwp(0, 0.1)], m=3)
    with pytest.raises(ValueError, match="not an OpticalElement"):
        _circ([("hwp", (0,), 0.1)], m=2)
    # the mode count follows the rule for mode indices: int or a numpy
    # integer, never bool or float, stored as int so it serializes
    c = _circ([hwp(1, 0.1)], m=np.int64(2))
    assert type(c.num_spatial_modes) is int
    assert json.loads(serialize(c))["spatial_modes"] == 2
    assert deserialize(serialize(c)) == c
    for bad in (2.0, 4.0, True, "2", None):
        with pytest.raises(ValueError):
            _circ([], m=bad)


def test_count_report_empty():
    rep = element_count(_circ([]))
    assert rep.total == 0
    assert sum(rep.by_kind.values()) == 0


def test_count_report_by_kind_and_baselines():
    c = _circ([pbs(0, 1), hwp(0, 0.1), qwp(1, 0.2), ps(0, 0.3), hwp(1, 0.4)])
    rep = element_count(c)
    assert rep.total == 5
    assert rep.by_kind == {"pbs": 1, "hwp": 2, "qwp": 1, "ps": 1}
    assert rep.baseline_comparisons == {"sp_csd": 21 - 5}


def test_baseline_keys_per_convention():
    assert element_count(_circ([], conv="ps", m=2)).baseline_comparisons == {"ps_csd_swap": 25}
    assert element_count(_circ([], conv="sp", m=2)).baseline_comparisons == {"sp_csd": 21}
    assert element_count(_circ([], conv="sp", m=4)).baseline_comparisons == {"m4_csd": 74}


def test_serialize_schema():
    c = _circ([pbs(0, 1), hwp(0, 0.25)], metadata={"k": "v"})
    doc = json.loads(serialize(c))
    assert doc["version"] == 1
    assert doc["convention"] == "sp"
    assert doc["spatial_modes"] == 2
    assert doc["elements"][0] == {"kind": "pbs", "modes": [0, 1]}
    assert doc["elements"][1]["angle_rad"] == 0.25
    assert doc["metadata"] == {"k": "v"}


def test_serialize_round_trip_identical():
    c = _circ(
        [pbs(0, 1), hwp(0, 0.1234567890123456), qwp(1, np.pi / 3), ps(1, 5.9)],
        metadata={"a": "1"},
    )
    text = serialize(c)
    c2 = deserialize(text)
    assert serialize(c2) == text
    assert c2.elements == c.elements
    assert c2.metadata == c.metadata


def _old_serialize(circuit):
    """serialize as it read: one json.dumps of the whole document."""
    elements = []
    for e in circuit.elements:
        rec = {"kind": e.kind, "modes": list(e.modes)}
        if e.kind != "pbs":
            rec["angle_rad"] = e.angle_rad
        elements.append(rec)
    return json.dumps({
        "version": 1,
        "convention": circuit.convention.tag,
        "spatial_modes": circuit.num_spatial_modes,
        "elements": elements,
        "metadata": circuit.metadata,
    })


def _serialize_cases():
    golden = pathlib.Path(__file__).parent / "data" / "golden_circuits.json"
    for text in json.loads(golden.read_text(encoding="utf-8")).values():
        yield deserialize(text)
    yield _circ([])
    yield _circ(
        [pbs(0, 3), hwp(3, -0.0), qwp(2, 5e-324), ps(1, 1e300), pbs(2, 1), ps(0, -1e-300),
         hwp(1, np.float64(2.5)), qwp(0, 7)],
        conv="sp", m=4,
    )
    for text in ('quote " and backslash \\', "tab\t nl\n nul\x00 esc\x1b del\x7f",
                 "\u00e9t\u00e9 \u03b8 \u2192 \U0001f600 \ud800", ""):
        yield _circ([hwp(0, 0.1)], conv="ps", metadata={text: text, "k": text})


@pytest.mark.parametrize("c", list(_serialize_cases()))
def test_serialize_keeps_the_bytes_of_json_dumps(c):
    assert serialize(c) == _old_serialize(c)


def test_serialize_preserves_angle_bits():
    angle = 0.8414709848078965
    c2 = deserialize(serialize(_circ([hwp(0, angle)])))
    assert c2.elements[0].angle_rad == angle


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(version=2),
        lambda d: d.update(convention="xy"),
        lambda d: d.update(spatial_modes="2"),
        lambda d: d["elements"].append({"kind": "BS", "modes": [0], "angle_rad": 0.1}),
        lambda d: d["elements"].append({"kind": "pbs", "modes": [0, 1], "angle_rad": 0.1}),
        lambda d: d["elements"].append({"kind": "hwp", "modes": [0]}),
        lambda d: d["elements"].append({"kind": "hwp", "modes": [9], "angle_rad": 0.1}),
        lambda d: d.update(version=True),
        lambda d: d["elements"].append({"kind": "hwp", "modes": [0], "angle_rad": 10**400}),
        lambda d: d["elements"].append({"kind": "hwp", "modes": [True], "angle_rad": 0.1}),
        lambda d: d["elements"].append({"kind": "hwp", "modes": 0, "angle_rad": 0.1}),
        lambda d: d["elements"].append({"kind": "hwp", "modes": [0], "angle_rad": "0.1"}),
        lambda d: d["elements"].append({"kind": "hwp", "modes": [0], "angle_rad": False}),
        lambda d: d["elements"].append({"kind": ["hwp"], "modes": [0], "angle_rad": 0.1}),
        lambda d: d["elements"].append("hwp"),
    ],
)
def test_deserialize_rejects_bad_documents(mutate):
    doc = json.loads(serialize(_circ([pbs(0, 1)])))
    mutate(doc)
    with pytest.raises(ValueError):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_malformed_json():
    with pytest.raises(ValueError):
        deserialize("{not json")
    with pytest.raises(ValueError):
        deserialize("[" * 100_000 + "]" * 100_000)


def test_optimize_drops_zero_ps():
    assert optimize(_circ([ps(0, 0.0)])).elements == ()
    assert optimize(_circ([ps(1, 2 * np.pi)])).elements == ()
    # the phase sweep drops such phases too, so these circuits keep it out:
    # sweeping the PS on mode 1 through the PBS takes four elements, so the
    # sweep is not kept, and a one-element run is never resynthesized
    a_tol = DEFAULT_TOL.angle_tol
    for angle in (0.5 * a_tol, 2 * np.pi - 0.5 * a_tol):
        before = _circ([ps(0, angle), ps(1, 0.7), pbs(0, 1)])
        assert optimize(before).elements == (ps(1, 0.7), pbs(0, 1)), angle
    # at twice angle_tol the PS is no identity and stays
    kept = _circ([ps(0, 2 * a_tol), ps(1, 0.7), pbs(0, 1)])
    assert optimize(kept) == kept


def test_drop_zero_ps_rule_drops_phases_within_angle_tol():
    a_tol = DEFAULT_TOL.angle_tol
    for angle in (0.0, 0.5 * a_tol, -0.5 * a_tol, 2 * np.pi - 0.5 * a_tol, 2 * np.pi):
        elems = [hwp(0, 0.3), ps(0, angle)]
        assert _rewrite_drop_zero_ps(elems, a_tol), angle
        assert elems == [hwp(0, 0.3)]
    for angle in (2 * a_tol, 2 * np.pi - 2 * a_tol):
        elems = [hwp(0, 0.3), ps(0, angle)]
        assert not _rewrite_drop_zero_ps(elems, a_tol), angle
        assert elems == [hwp(0, 0.3), ps(0, angle)]


def test_optimize_cancels_pbs_pair():
    assert optimize(_circ([pbs(0, 1), pbs(0, 1)])).elements == ()
    # a plate on a third mode sits between without blocking
    c = optimize(_circ([pbs(0, 1), hwp(2, 0.3), pbs(0, 1)], m=4))
    assert c.elements == (hwp(2, 0.3),)
    # a touching plate blocks the cancellation
    c = optimize(_circ([pbs(0, 1), hwp(0, 0.3), pbs(0, 1)]))
    assert element_count(c).by_kind["pbs"] == 2


def test_optimize_merges_phase_shifters():
    c = optimize(_circ([ps(0, 1.0), ps(0, 2.5)]))
    assert c.elements == (ps(0, 3.5),)
    c = optimize(_circ([ps(0, 1.0), qwp(1, 0.2), ps(0, 2.5)]))
    assert ps(0, 3.5) in c.elements and qwp(1, 0.2) in c.elements
    # a negative sum wraps into [0, 2pi)
    c = optimize(_circ([ps(0, -1.0), ps(0, -2.5)]))
    assert c.elements == (ps(0, 2 * np.pi - 3.5),)
    # the merged PS stays behind the HWP; the phase sweep would move it in
    # front, and resynthesizing the mode's three elements would too
    before = _circ([hwp(0, 0.3), ps(0, 1.0), qwp(1, 0.2), ps(0, 2.5)])
    after = optimize(before)
    assert after.elements == (hwp(0, 0.3), ps(0, 3.5), qwp(1, 0.2))
    assert np.abs(simulate(after) - simulate(before)).max() < 1e-12


def test_merge_ps_rule_adds_phases_past_other_modes():
    # a plate on another mode commutes past; the sum wraps into [0, 2pi)
    elems = [ps(0, 4.0), qwp(1, 0.2), ps(0, 3.5)]
    assert _rewrite_merge_ps(elems)
    assert elems == [ps(0, 7.5 - 2 * np.pi), qwp(1, 0.2)]
    # a plate on the PS's mode blocks the merge
    elems = [ps(0, 1.0), hwp(0, 0.3), ps(0, 2.5)]
    assert not _rewrite_merge_ps(elems)
    assert elems == [ps(0, 1.0), hwp(0, 0.3), ps(0, 2.5)]


def _full_chain_on(mode: int, seed: int) -> list:
    """A Haar gate's chain on one mode: PS-QWP-HWP-QWP, already its shortest."""
    chain = chain_elements(synthesize_u2(haar_random_unitary(2, seed)), mode)
    assert len(chain) == 4
    return chain


def test_resynthesize_run_rule_rewrites_only_the_shrinking_run():
    # a shrinking run on mode 0 between PBS(0, 1)s, with a full chain on
    # mode 1 interleaved: the mode-1 runs do not shrink, and the mode-0 run
    # is replaced by synthesize_u2's chain for its product in its place
    run = chain_elements(_SHRINKING[1], 0)
    other = _full_chain_on(1, 11)
    inner = [e for pair in zip(run, other) for e in pair] + run[len(other):]
    before = [*_full_chain_on(1, 12), pbs(0, 1), *inner, pbs(0, 1), *_full_chain_on(0, 13)]
    elems = list(before)
    assert _rewrite_resynthesize_run(elems, DEFAULT_TOL)
    rest = [e for e in before if e not in run]
    assert len(rest) == len(before) - len(run)
    first = before.index(run[0])
    shorter = chain_elements(synthesize_u2(chain_matrix(_SHRINKING[1])), 0)
    assert len(shorter) < len(run)
    assert elems == rest[:first] + shorter + rest[first:]
    # plain equality, global phase included
    got, want = simulate(_circ(elems)), simulate(_circ(before))
    assert np.abs(got - want).max() <= 1e-12
    # generic full chains on both modes around the PBSs: nothing shrinks
    elems = [*_full_chain_on(0, 14), *_full_chain_on(1, 15), pbs(0, 1),
             *[e for pair in zip(_full_chain_on(0, 16), _full_chain_on(1, 17)) for e in pair]]
    kept = list(elems)
    assert not _rewrite_resynthesize_run(elems, DEFAULT_TOL)
    assert elems == kept


def test_resynthesize_run_rule_rewrites_a_run_from_its_own_product():
    # the run products are taken in one batch, shorter runs padded; the
    # first run in element order is the shorter one, two QWPs that make
    # one HWP, and it is rewritten from its own product.  Given the full
    # chain's product instead, it would keep its two plates, and the full
    # chain given its product would shrink to one HWP
    short = [qwp(0, 0.3), qwp(0, 0.3)]
    full = _full_chain_on(1, 18)
    before = [short[0], full[0], short[1], *full[1:]]
    elems = list(before)
    assert _rewrite_resynthesize_run(elems, DEFAULT_TOL)
    shorter = chain_elements(synthesize_u2(chain_matrix([("qwp", 0.3), ("qwp", 0.3)])), 0)
    assert shorter == [hwp(0, 0.3)]
    assert elems == [*shorter, *full]
    got, want = simulate(_circ(elems)), simulate(_circ(before))
    assert np.abs(got - want).max() <= 1e-12


def test_optimize_stacks_the_plates_of_a_haar_compile_once_per_resynthesis_pass(monkeypatch):
    # each resynthesis pass takes all its run products from one plate
    # stack, and then calls synthesize_u2 once on each of the Haar 8x8
    # circuit's 16 same-mode runs of two or more elements
    calls = collections.Counter()

    def counted(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    counted(waveplates, "_plate_stack")
    counted(circuit_module, "_rewrite_resynthesize_run")
    counted(circuit_module, "synthesize_u2")
    compile_m4(haar_random_unitary(8, 5), CompileOptions(convention="sp", optimize=True))
    assert calls["_rewrite_resynthesize_run"] >= 1
    assert calls["_plate_stack"] == calls["_rewrite_resynthesize_run"]
    assert calls["synthesize_u2"] == 16


def test_optimize_collapses_plate_run():
    # same-angle QWP HWP QWP multiplies to -I, which one phase shifter covers
    run = [qwp(0, 0.1), hwp(0, 0.1), qwp(0, 0.1)]
    before = _circ(run)
    after = optimize(before)
    assert element_count(after).total == 1
    # exact equality, global phase included
    assert np.abs(simulate(after) - simulate(before)).max() < 1e-12


def test_optimize_merges_rotation_to_half_wave_pair():
    # a real rotation takes three plates in QWP-HWP-QWP form but only
    # two half-wave plates
    from cartanopt.circuit import chain_elements
    from cartanopt.waveplates import _chain_params, _full_chain, _su2

    rot = np.array(
        [[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]], dtype=complex
    )
    run = chain_elements(_full_chain(*_chain_params(*_su2(rot)))[1:], 0)
    assert len(run) == 3
    before = _circ(run)
    after = optimize(before)
    assert element_count(after).total == 2
    assert all(e.kind == "hwp" for e in after.elements)
    # exact equality, global phase included
    assert np.abs(simulate(after) - simulate(before)).max() < 1e-12


def test_optimize_shrinks_a_run_to_its_two_plate_product():
    # H(0.1) H(0.1) = -I, so the run is -H(0.7) Q(0.3): two plates, no PS
    before = _circ([qwp(0, 0.3), hwp(0, 0.7), hwp(0, 0.1), hwp(0, 0.1)])
    after = optimize(before)
    assert [e.kind for e in after.elements] == ["qwp", "hwp"]
    # exact equality, global phase included
    assert np.abs(simulate(after) - simulate(before)).max() < 1e-12


def test_optimize_drops_no_phase_beyond_angle_tol():
    # the PS sits just over angle_tol from 2 pi; dropping it from the
    # PS-QWP part alone moves that part's entries by at most angle_tol,
    # but the run's product by more, so the run keeps its three elements
    before = _circ([
        qwp(0, 0.40403972728386606), ps(0, -6.283185307178586), qwp(0, 5.105086062083414),
    ])
    after = optimize(before)
    assert np.abs(simulate(after) - simulate(before)).max() <= DEFAULT_TOL.angle_tol


def test_optimize_preserves_metadata():
    c = optimize(_circ([ps(0, 0.0)], metadata={"x": "y"}))
    assert c.metadata == {"x": "y"}


def test_optimize_random_circuits_safe():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.choice([2, 4]))
        conv = str(rng.choice(["ps", "sp"]))
        elems = []
        for _ in range(int(rng.integers(0, 25))):
            kind = str(rng.choice(["pbs", "hwp", "qwp", "ps", "ps0"]))
            if kind == "pbs":
                a, b = rng.choice(m, size=2, replace=False)
                elems.append(pbs(int(a), int(b)))
            elif kind == "ps0":
                elems.append(ps(int(rng.integers(0, m)), 0.0))
            else:
                factory = {"hwp": hwp, "qwp": qwp, "ps": ps}[kind]
                # angles outside [0, 2pi) drive the wrap-around paths of the
                # merge and rotation rules
                angle = float(rng.uniform(-4 * np.pi, 4 * np.pi))
                elems.append(factory(int(rng.integers(0, m)), angle))
        before = _circ(elems, conv=conv, m=m)
        after = optimize(before)
        assert element_count(after).total <= element_count(before).total
        assert np.abs(simulate(after) - simulate(before)).max() < 1e-9


def test_optimize_shrinks_compiled_walk():
    from cartanopt.compiler import CompileOptions, builtin_target, compile as compile_matrix

    U = builtin_target("walk", "ps")
    plain, _ = compile_matrix(U, CompileOptions(convention="ps"))
    tightened = optimize(plain)
    assert element_count(tightened).total < element_count(plain).total
    assert np.abs(simulate(tightened) - U).max() < 1e-9


def test_metadata_copied_and_stringly():
    src = {"a": "b"}
    c = _circ([ps(0, 1.0)], metadata=src)
    src["a"] = "mutated"
    assert c.metadata["a"] == "b"
