"""Optimizer corpus: optimize() returns the same bytes on seeded hand-built circuits.

Each case is a small circuit (2 or 4 spatial modes, 0-14 elements)
optimized under the default tolerances.  The SHA-256 of the serialized
result and its element count are compared with
tests/data/optimize_corpus.json.  Plate angles sit on multiples of
pi/8, exactly or just off by offsets around the default angle_tol and
farther out, so the short forms of synthesize_u2 (no plate, one plate,
two plates) fire and sit at their thresholds; the rest are uniform in
[-4pi, 4pi).  A second, swept family (SWEPT_SEED) wraps plate runs in
PBS pairs on one mode pair and puts a phase on both modes of each pair,
a random common part plus a difference of 0 or pi on one mode; trailing
phases on both modes take the common parts.  The phase sweep shortens
every one of them, and a difference of pi left on a run with an HWP
shrinks it only through the resynthesis pass after the sweep.  Its
records come first in the file, so the original family's lines keep
their bytes.  A change meant to make the
optimizer cheaper without changing what it emits must pass this test
unchanged; after a deliberate
change to the rewrites, re-record with

    PYTHONPATH=src python tests/test_optimize_corpus.py

and say in the change why the outputs moved.  The re-record prints each
moved case with its old and new element count and its plain (global
phase included) drift from the unoptimized circuit; it writes nothing
and exits 1 when a moved case got longer or drifts more than PLAIN_TOL.
The same circuits, not optimized, also pin simulate's output bytes
(SIMULATE_SHA256).  Both pins hold on the CPU kernel set they were
recorded on (RECORDED_KERNELS, see tests/kernels.py): another OpenBLAS
core or numpy SIMD loop rounds some products otherwise, and each failure
names the recorded and the running set.  A re-record prints
SIMULATE_SHA256 and the running set.
"""

import hashlib
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from cartanopt.circuit import OpticalCircuit, OpticalElement, optimize, serialize
from cartanopt.linalg import ToleranceConfig, dump_matrix
from cartanopt.simulate import simulate
from kernels import fingerprint, pin_message

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

import reference  # noqa: E402  (the benchmark's independent simulator)

CORPUS = pathlib.Path(__file__).parent / "data" / "optimize_corpus.json"

SEED = 6
NUM_CIRCUITS = 2000
# offsets from k*pi/8: around the default angle_tol, then farther out
OFFSETS = (0.0, 1e-13, 1e-12, 2e-12, 1e-9, 3e-9, 5e-7, 1e-6, 2e-6, 5e-4, 1e-3, 2e-3)
SWEPT_SEED = 7
NUM_SWEPT = 400
# a moved case must equal its input entry by entry to this
PLAIN_TOL = 1e-12
# SHA-256 over dump_matrix(simulate(c)) of the corpus circuits in order: pins
# the plate matrices and the simulator to the bit, signed zeros included
SIMULATE_SHA256 = "dfeb76ac4b2e38e3c01211b82e238b13fe175980abb5fdb382e2d7de3516cc75"
# the kernel set the corpus and SIMULATE_SHA256 were recorded on
RECORDED_KERNELS = "numpy 2.4.6, X86_V3 on, OpenBLAS SkylakeX"


def _angle(rng) -> float:
    if rng.random() < 0.3:
        return float(rng.uniform(-4 * math.pi, 4 * math.pi))
    k = int(rng.integers(-16, 17))
    offset = OFFSETS[int(rng.integers(len(OFFSETS)))]
    return k * math.pi / 8 + float(rng.choice((-1.0, 1.0))) * offset


def _circuits():
    rng = np.random.default_rng(SEED)
    circuits = []
    for _ in range(NUM_CIRCUITS):
        m = int(rng.choice((2, 4)))
        elems = []
        for _ in range(int(rng.integers(0, 15))):
            kind = str(rng.choice(("pbs", "hwp", "qwp", "ps"), p=(0.15, 0.35, 0.35, 0.15)))
            if kind == "pbs":
                a, b = rng.choice(m, size=2, replace=False)
                elems.append(OpticalElement("pbs", (int(a), int(b))))
            else:
                # mostly modes 0 and 1, so same-mode runs are long enough to rewrite
                mode = int(rng.integers(0, 2)) if rng.random() < 0.8 else int(rng.integers(0, m))
                elems.append(OpticalElement(kind, (mode,), _angle(rng)))
        conv = str(rng.choice(("ps", "sp")))
        circuits.append(OpticalCircuit(convention=conv, num_spatial_modes=m, elements=elems))
    return circuits


# offsets of a swept difference: below the default angle_tol, and above it
# (synthesize_u2 keeps the run).  1e-9 was the margin of a closed-form
# screen the optimizer once ran before synthesize_u2; the offsets stay,
# because the swept family's records are pinned to the circuits they draw.
# The offset at angle_tol itself is left to the first family: elided twice
# in one circuit, it can move a case by more than PLAIN_TOL.
TURN_OFFSETS = (0.0, 1e-13, 2e-12, 1e-9)


def _turn(rng) -> float:
    # 0 or pi, exactly or off by one of TURN_OFFSETS
    offset = TURN_OFFSETS[int(rng.integers(len(TURN_OFFSETS)))]
    return int(rng.integers(0, 2)) * math.pi + float(rng.choice((-1.0, 1.0))) * offset


def _swept_circuits():
    rng = np.random.default_rng(SWEPT_SEED)
    circuits = []
    for _ in range(NUM_SWEPT):
        m = int(rng.choice((2, 4)))
        i, j = (int(v) for v in rng.choice(m, size=2, replace=False))
        elems = []
        for _ in range(int(rng.integers(1, 4))):
            common = float(rng.uniform(-math.pi, math.pi))
            elems.append(OpticalElement("pbs", (i, j)))
            for mode, turn in ((i, _turn(rng)), (j, 0.0)):
                elems.append(OpticalElement("ps", (mode,), common + turn))
                for _ in range(int(rng.integers(1, 3))):
                    kind = str(rng.choice(("hwp", "qwp")))
                    elems.append(OpticalElement(kind, (mode,), _angle(rng)))
            elems.append(OpticalElement("pbs", (i, j)))
        for mode in (i, j):
            elems.append(OpticalElement("ps", (mode,), float(rng.uniform(-math.pi, math.pi))))
        conv = str(rng.choice(("ps", "sp")))
        circuits.append(OpticalCircuit(convention=conv, num_spatial_modes=m, elements=elems))
    return circuits


def _outputs():
    """(name, circuit, optimized circuit) for every corpus case, the swept family first."""
    for i, circuit in enumerate(_swept_circuits()):
        yield f"s{i:04d}_swept", circuit, optimize(circuit)
    for i, circuit in enumerate(_circuits()):
        yield f"c{i:04d}_default", circuit, optimize(circuit)


def _record(out) -> dict:
    return {
        "sha256": hashlib.sha256(serialize(out).encode()).hexdigest(),
        "elements": len(out.elements),
    }


def test_optimize_outputs_are_byte_identical():
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    current = {name: _record(out) for name, _, out in _outputs()}
    assert sorted(current) == sorted(recorded)
    moved = [name for name in current if current[name] != recorded[name]]
    assert not moved, (
        f"{len(moved)} cases moved, first: {moved[:10]}; {pin_message(RECORDED_KERNELS)}"
    )


def _reference_matrix(circuit) -> np.ndarray:
    elements = [(e.kind, e.modes, e.angle_rad) for e in circuit.elements]
    return reference.simulate(circuit.convention.tag, circuit.num_spatial_modes, elements)


def test_reference_simulator_keeps_every_record():
    # the rewrites and simulate read the same plate table
    # (waveplates._plate_entries), so a wrong entry there can agree with
    # itself; the benchmark's reference simulator is written apart from it.
    # Every record's output equals its input entry by entry, global phase
    # included, as the re-record requires
    moved = [
        name
        for name, circuit, out in _outputs()
        if not np.abs(_reference_matrix(out) - _reference_matrix(circuit)).max() <= PLAIN_TOL
    ]
    assert not moved, f"{len(moved)} records moved, first: {moved[:10]}"


def _simulate_sha256() -> str:
    h = hashlib.sha256()
    for circuit in _circuits():
        h.update(dump_matrix(simulate(circuit)).encode())
    return h.hexdigest()


def test_corpus_circuits_simulate_to_the_same_bytes():
    assert _simulate_sha256() == SIMULATE_SHA256, pin_message(RECORDED_KERNELS)


# Known fault: these plate products are exactly unitary, but optimize's
# rewrites re-check them with synthesize_u2, whose rounding exceeds a
# unitarity_tol of 1e-16 on each of the three.  At 1e-15 the rounding
# (about 1.1e-15 on the recorded kernel set) decided, and under
# OPENBLAS_CORETYPE=Nehalem none of them raised; 1e-16 is below the
# rounding of every kernel set tried.  Checking unitarity once, at the
# input, fixes it and turns this pin into a failure until the mark is
# removed.
@pytest.mark.xfail(strict=True, raises=ValueError, reason="plate products are re-checked")
def test_optimize_at_a_unitarity_tol_below_rounding():
    circuits = _circuits()
    tol = ToleranceConfig(unitarity_tol=1e-16)
    for i in (8, 60, 169):
        out = optimize(circuits[i], tol)
        assert len(out.elements) <= len(circuits[i].elements), i


def _rerecord() -> int:
    """Write the corpus anew unless a moved case grew or lost plain equality."""
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else {}
    corpus, refused = {}, []
    for name, circuit, out in _outputs():
        corpus[name] = rec = _record(out)
        if old.get(name) == rec:
            continue
        before = old[name]["elements"] if name in old else None
        drift = float(np.abs(simulate(out) - simulate(circuit)).max())
        print(f"{name}: {before} -> {rec['elements']} elements, plain drift {drift:.2e}")
        if (before is not None and rec["elements"] > before) or drift > PLAIN_TOL:
            refused.append(name)
    if refused:
        print(f"nothing written: {', '.join(refused)} grew or miss plain equality",
              file=sys.stderr)
        return 1
    CORPUS.parent.mkdir(exist_ok=True)
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in corpus.items())
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"SIMULATE_SHA256 = {_simulate_sha256()!r}")
    print(f"RECORDED_KERNELS = {fingerprint()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(_rerecord())
