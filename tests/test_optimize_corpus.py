"""Optimizer corpus: optimize() returns the same bytes on seeded hand-built circuits.

Each case is a small circuit (2 or 4 spatial modes, 0-14 elements)
optimized under one of three tolerance settings.  The SHA-256 of the
serialized result and its element count are compared with
tests/data/optimize_corpus.json.  Plate angles sit on multiples of
pi/8, exactly or just off by offsets around each angle_tol, so the
short forms of synthesize_u2 (no plate, one plate, two plates) fire and
sit at their thresholds; the rest are uniform in [-4pi, 4pi).  A change
meant to make the optimizer cheaper without changing what it emits must
pass this test unchanged; after a deliberate change to the rewrites,
re-record with

    PYTHONPATH=src python tests/test_optimize_corpus.py

and say in the change why the outputs moved.  The re-record prints each
moved case with its old and new element count and its plain (global
phase included) drift from the unoptimized circuit; it writes nothing
and exits 1 when a moved case not in MAY_GROW got longer or, at the
default tolerance, drifts more than PLAIN_TOL.  The same circuits, not
optimized, also pin simulate's output bytes (SIMULATE_SHA256).  Both pins
hold on the CPU kernel set they were recorded on (RECORDED_KERNELS, see
tests/kernels.py): another OpenBLAS core or numpy SIMD loop rounds some
products otherwise, and each failure names the recorded and the running
set.  A re-record prints SIMULATE_SHA256 and the running set.
"""

import hashlib
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from cartanopt.circuit import OpticalCircuit, OpticalElement, optimize, serialize
from cartanopt.linalg import DEFAULT_TOL, ToleranceConfig, dump_matrix
from cartanopt.simulate import simulate
from kernels import fingerprint, pin_message

CORPUS = pathlib.Path(__file__).parent / "data" / "optimize_corpus.json"

SEED = 6
NUM_CIRCUITS = 2000
TOLERANCES = {
    "default": DEFAULT_TOL,
    "a1e-6": ToleranceConfig(equivalence_tol=2e-4, angle_tol=1e-6),
    "a1e-3": ToleranceConfig(unitarity_tol=1e-6, equivalence_tol=0.2, angle_tol=1e-3),
}
# offsets from k*pi/8: around the default angle_tol, then around the looser ones
OFFSETS = (0.0, 1e-13, 1e-12, 2e-12, 1e-9, 3e-9, 5e-7, 1e-6, 2e-6, 5e-4, 1e-3, 2e-3)
# a moved default-tolerance case must equal its input entry by entry to this
PLAIN_TOL = 1e-12
# the only cases a re-record may let grow, each for a reason stated here.
# The HWP-HWP gap of synthesize_u2 became hypot(x, z), from max(|x|, |z|):
# each of these took a rotation pair that hypot(x, z) puts beyond
# angle_tol 1e-3, and now takes a three-plate chain of plain drift
# <= 4.4e-16
MAY_GROW = {
    "c0100_a1e-3",  # 6 -> 7, the pair drifted 7.7e-4
    "c0735_a1e-3",  # 7 -> 8, the pair drifted 9.9e-4
    "c1768_a1e-3",  # 6 -> 7, the pair drifted 9.0e-4
}
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


def _outputs():
    """(name, circuit, optimized circuit, tolerance) for every corpus case."""
    for i, circuit in enumerate(_circuits()):
        for tag, tol in TOLERANCES.items():
            yield f"c{i:04d}_{tag}", circuit, optimize(circuit, tol), tol


def _record(out) -> dict:
    return {
        "sha256": hashlib.sha256(serialize(out).encode()).hexdigest(),
        "elements": len(out.elements),
    }


def test_optimize_outputs_are_byte_identical():
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    current = {name: _record(out) for name, _, out, _ in _outputs()}
    assert sorted(current) == sorted(recorded)
    moved = [name for name in current if current[name] != recorded[name]]
    assert not moved, (
        f"{len(moved)} cases moved, first: {moved[:10]}; {pin_message(RECORDED_KERNELS)}"
    )


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
    """Write the corpus anew unless a moved case grew outside MAY_GROW or lost plain equality."""
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else {}
    corpus, refused = {}, []
    for name, circuit, out, tol in _outputs():
        corpus[name] = rec = _record(out)
        if old.get(name) == rec:
            continue
        before = old[name]["elements"] if name in old else None
        drift = float(np.abs(simulate(out) - simulate(circuit)).max())
        print(f"{name}: {before} -> {rec['elements']} elements, plain drift {drift:.2e}")
        grew = before is not None and rec["elements"] > before
        if (grew and name not in MAY_GROW) or (
            tol is DEFAULT_TOL and drift > PLAIN_TOL
        ):
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
