"""Optimizer corpus: optimize() returns the same bytes on seeded hand-built circuits.

Each case is a small circuit (2 or 4 spatial modes, 0-14 elements)
optimized under one of three tolerance settings.  The SHA-256 of the
serialized result is compared with tests/data/optimize_corpus.json.
Plate angles sit on multiples of pi/8, exactly or just off by offsets
around each angle_tol, so the special-case branches of synthesize_u2
and the rotation pair fire and sit at their thresholds; the rest are
uniform in [-4pi, 4pi).  A change meant to make the optimizer cheaper
without changing what it emits must pass this test unchanged; after a
deliberate change to the rewrites, re-record with

    PYTHONPATH=src python tests/test_optimize_corpus.py

and say in the change why the outputs moved.  The same circuits, not
optimized, also pin simulate's output bytes (SIMULATE_SHA256).
"""

import hashlib
import json
import math
import pathlib

import numpy as np

from cartanopt.circuit import OpticalCircuit, OpticalElement, optimize, serialize
from cartanopt.linalg import DEFAULT_TOL, ToleranceConfig, dump_matrix
from cartanopt.simulate import simulate

CORPUS = pathlib.Path(__file__).parent / "data" / "optimize_corpus.json"

SEED = 6
NUM_CIRCUITS = 2000
TOLERANCES = {
    "default": DEFAULT_TOL,
    "a1e-6": ToleranceConfig(angle_tol=1e-6),
    "a1e-3": ToleranceConfig(unitarity_tol=1e-6, equivalence_tol=1e-6, angle_tol=1e-3),
}
# offsets from k*pi/8: around the default angle_tol, then around the looser ones
OFFSETS = (0.0, 1e-13, 1e-12, 2e-12, 1e-9, 3e-9, 5e-7, 1e-6, 2e-6, 5e-4, 1e-3, 2e-3)
# SHA-256 over dump_matrix(simulate(c)) of the corpus circuits in order: pins
# the plate matrices and the simulator to the bit, signed zeros included
SIMULATE_SHA256 = "dfeb76ac4b2e38e3c01211b82e238b13fe175980abb5fdb382e2d7de3516cc75"


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


def _digests():
    out = {}
    for i, circuit in enumerate(_circuits()):
        for tag, tol in TOLERANCES.items():
            text = serialize(optimize(circuit, tol))
            out[f"c{i:04d}_{tag}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_optimize_outputs_are_byte_identical():
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    current = _digests()
    assert sorted(current) == sorted(recorded)
    moved = [name for name in current if current[name] != recorded[name]]
    assert not moved, f"{len(moved)} cases moved, first: {moved[:10]}"


def test_corpus_circuits_simulate_to_the_same_bytes():
    h = hashlib.sha256()
    for circuit in _circuits():
        h.update(dump_matrix(simulate(circuit)).encode())
    assert h.hexdigest() == SIMULATE_SHA256


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(_digests(), indent=0) + "\n", encoding="utf-8")
