"""Golden corpus: the serialized circuits of a seeded input set never move.

Every case compiles a fixed matrix and compares the circuit JSON text,
metadata included, byte for byte against tests/data/golden_circuits.json.
A change that is meant to leave the emitted circuits alone (a faster
simulator, a cheaper optimizer scan, a leaner CSD call) must pass this
test unchanged.  The recorded angles are the bits this code produces on
one CPU kernel set: numpy's version, the SIMD loops it dispatches to on
the CPU, and the OpenBLAS core under its products, SVD and QR
(RECORDED_KERNELS, see tests/kernels.py).  A kernel that fuses multiply
and add rounds otherwise, so on another set these pins fail with no
fault in the code; each failure names the recorded and the running set.
After a deliberate change to the circuits, or to record on another
kernel set, re-record with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why the circuits moved.  The re-record prints each
moved case with its old and new element count and its plain (global
phase included) distance to the input; it writes nothing and exits 1
when a moved case got longer or misses plain equality by more than
PLAIN_TOL.  SIMULATE_SHA256 pins what the design check computes on
these circuits: simulate's output bytes and verify's distance and phase.
STRUCTURE_SHA256 pins what holds on every kernel set tried: each case's
element kinds and modes, checked together with plain equality to
PLAIN_TOL.  A re-record prints both digests and the running kernel set.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from cartanopt.circuit import serialize
from cartanopt.compiler import CompileOptions, builtin_target, compile, compile_m4
from cartanopt.linalg import dump_matrix, haar_random_unitary
from cartanopt.simulate import simulate, verify
from kernels import fingerprint, pin_message

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_circuits.json"

HAAR4_SEEDS = (0, 1, 2, 3, 4)
HAAR8_SEEDS = (0, 1, 2)
# a re-recorded circuit must equal its input entry by entry to this
PLAIN_TOL = 1e-12
# SHA-256 over dump_matrix(simulate(c)) and repr of verify's distance and
# global_phase, for the compiled circuits of the corpus in order: pins the
# simulator and the phase-aware distance to the bit
SIMULATE_SHA256 = "3d4fcb0fbaa43718ddf44da5f35b6dcdb4772772a23183cc39650f80ba0a0484"
# the kernel set the corpus and SIMULATE_SHA256 were recorded on
RECORDED_KERNELS = "numpy 2.4.6, X86_V3 on, OpenBLAS SkylakeX"
# SHA-256 over the element kinds and modes of the compiled circuits of the
# corpus in order, with no angle: the same under the default kernels,
# OPENBLAS_CORETYPE=Haswell, Nehalem, SandyBridge and Zen, and with numpy's
# X86_V3 and X86_V4 loops off
STRUCTURE_SHA256 = "90919c9983598a4c9ceb2237f369219da0b22d1815bd46d3099131619638a27f"


def _path_block(g1, g2, convention):
    # polarization gate g1 on mode a1 and g2 on mode a2, the compiler's local form
    idx = ((0, 1), (2, 3)) if convention == "sp" else ((0, 2), (1, 3))
    M = np.zeros((4, 4), dtype=complex)
    M[np.ix_(idx[0], idx[0])] = g1
    M[np.ix_(idx[1], idx[1])] = g2
    return M


def _cases():
    """(name, matrix, convention, optimize) for every corpus entry."""
    cases = []
    for conv in ("ps", "sp"):
        for opt in (False, True):
            for seed in HAAR4_SEEDS:
                cases.append((f"haar4_{conv}_opt{int(opt)}_s{seed}",
                              haar_random_unitary(4, seed), conv, opt))
            for name in ("walk", "qft"):
                cases.append((f"{name}_{conv}_opt{int(opt)}",
                              builtin_target(name, conv), conv, opt))
    for opt in (False, True):
        for seed in HAAR8_SEEDS:
            cases.append((f"haar8_sp_opt{int(opt)}_s{seed}",
                          haar_random_unitary(8, seed), "sp", opt))
    # inputs that take the local short-cut (optimize on): no central layer
    phases = np.exp(1j * np.array([0.3, -1.2, 2.5, 0.9]))
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    for conv in ("ps", "sp"):
        cases.append((f"diag_phase_{conv}", np.diag(phases), conv, True))
        cases.append((f"block_perm_{conv}",
                      _path_block(flip, np.eye(2), conv), conv, True))
    # spatially block-diagonal 8x8: two independent 4x4 problems
    block8 = np.zeros((8, 8), dtype=complex)
    block8[:4, :4] = haar_random_unitary(4, 5)
    block8[4:, 4:] = haar_random_unitary(4, 6)
    cases.append(("block8_sp", block8, "sp", True))
    return cases


def _compile(U, convention, optimize):
    return compile(U, CompileOptions(convention=convention, optimize=optimize))


def _compile_json(U, convention, optimize):
    circuit, report = _compile(U, convention, optimize)
    assert report.passed
    return serialize(circuit)


CASES = _cases()
CASES8 = [c for c in CASES if len(c[1]) == 8]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_names_match(golden):
    assert sorted(golden) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize("name,U,convention,optimize", CASES, ids=[c[0] for c in CASES])
def test_circuit_json_is_byte_identical(golden, name, U, convention, optimize):
    assert _compile_json(U, convention, optimize) == golden[name], pin_message(RECORDED_KERNELS)


def _simulate_sha256() -> str:
    h = hashlib.sha256()
    for _, U, conv, opt in CASES:
        circuit, _ = _compile(U, conv, opt)
        report = verify(circuit, U)
        h.update(dump_matrix(simulate(circuit)).encode())
        h.update(f"{report.distance!r} {report.global_phase!r}".encode())
    return h.hexdigest()


def test_compiled_circuits_simulate_and_verify_to_the_same_bits():
    assert _simulate_sha256() == SIMULATE_SHA256, pin_message(RECORDED_KERNELS)


def _structure_sha256(circuits) -> str:
    h = hashlib.sha256()
    for c in circuits:
        h.update(" ".join(f"{e.kind}{list(e.modes)}" for e in c.elements).encode() + b"\n")
    return h.hexdigest()


def test_structure_and_plain_equality_hold_on_every_kernel_set():
    circuits = []
    for name, U, conv, opt in CASES:
        circuit, _ = _compile(U, conv, opt)
        assert np.abs(simulate(circuit) - U).max() <= PLAIN_TOL, name
        circuits.append(circuit)
    assert _structure_sha256(circuits) == STRUCTURE_SHA256


@pytest.mark.parametrize("name,U,convention,optimize", CASES8, ids=[c[0] for c in CASES8])
def test_compile_m4_equals_compile_on_8x8(name, U, convention, optimize):
    opts = CompileOptions(convention=convention, optimize=optimize)
    assert serialize(compile_m4(U, opts)[0]) == _compile_json(U, convention, optimize)


def test_local_cases_skip_the_central_layer(golden):
    for name in ("diag_phase_ps", "diag_phase_sp", "block_perm_ps", "block_perm_sp"):
        kinds = {e["kind"] for e in json.loads(golden[name])["elements"]}
        assert "pbs" not in kinds, name


def _rerecord() -> int:
    """Write the corpus anew unless a moved case grew or lost plain equality."""
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    corpus, circuits, refused = {}, [], []
    for name, U, conv, opt in CASES:
        circuit, _ = _compile(U, conv, opt)
        circuits.append(circuit)
        corpus[name] = text = serialize(circuit)
        if old.get(name) == text:
            continue
        before = len(json.loads(old[name])["elements"]) if name in old else None
        distance = float(np.abs(simulate(circuit) - U).max())
        print(f"{name}: {before} -> {len(circuit.elements)} elements, "
              f"plain distance {distance:.2e}")
        if (before is not None and len(circuit.elements) > before) or distance > PLAIN_TOL:
            refused.append(name)
    if refused:
        print(f"nothing written: {', '.join(refused)} grew or miss plain equality",
              file=sys.stderr)
        return 1
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"SIMULATE_SHA256 = {_simulate_sha256()!r}")
    print(f"STRUCTURE_SHA256 = {_structure_sha256(circuits)!r}")
    print(f"RECORDED_KERNELS = {fingerprint()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(_rerecord())
