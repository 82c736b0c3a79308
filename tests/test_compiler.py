"""Full pipeline: matrix in, verified optical circuit out."""

import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from cartanopt import compiler as compiler_module
from cartanopt.cartan import central_a
from cartanopt.circuit import (
    OpticalElement,
    _rewrite_cancel_pbs,
    _rewrite_drop_zero_ps,
    _rewrite_merge_ps,
    _rewrite_resynthesize_run,
    deserialize,
    element_count,
    optimize,
    serialize,
)
from cartanopt.compiler import (
    HAND_COUNTS,
    CompileOptions,
    _elements,
    builtin_target,
    compile,
    compile_m4,
    reference_decompositions,
)
from cartanopt.dof import DofConvention
from cartanopt.linalg import (
    DEFAULT_TOL,
    dump_matrix,
    haar_random_unitary,
    is_unitary,
    phase_distance,
)
from cartanopt.simulate import simulate, verify

WALK = 0.5 * np.array(
    [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=complex
)
QFT = 0.5 * np.array(
    [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]], dtype=complex
)


def _opts(conv, **kw):
    return CompileOptions(convention=conv, **kw)


def _plate_runs(circuit):
    """Lengths of maximal same-mode plate runs, split at PBS boundaries."""
    open_runs = {}
    out = []
    for e in circuit.elements:
        if e.kind == "pbs":
            for mode in e.modes:
                if open_runs.get(mode, 0):
                    out.append(open_runs.pop(mode))
        else:
            mode = e.modes[0]
            open_runs[mode] = open_runs.get(mode, 0) + 1
    out.extend(n for n in open_runs.values() if n)
    return out


def test_builtin_targets():
    np.testing.assert_array_equal(builtin_target("walk", "ps"), WALK)
    np.testing.assert_array_equal(builtin_target("qft", "sp"), QFT)
    for name in ("walk", "qft"):
        assert is_unitary(builtin_target(name, "ps"))
    with pytest.raises(ValueError):
        builtin_target("grover", "ps")
    with pytest.raises(ValueError):
        builtin_target("walk", "xy")


def test_hand_counts_table():
    assert HAND_COUNTS == {
        ("walk", "ps"): 11,
        ("qft", "ps"): 12,
        ("walk", "sp"): 12,
        ("qft", "sp"): 19,
    }


def test_walk_ps_layout():
    circuit, rep = compile(WALK, _opts("ps"))
    assert rep.passed
    assert rep.distance <= 1e-9
    counts = element_count(circuit)
    assert counts.total == 20
    assert rep.element_total == 20
    # central layer: one half-wave plate per arm between the two PBSs
    assert [e.kind for e in circuit.elements[8:12]] == ["pbs", "hwp", "hwp", "pbs"]
    assert circuit.elements[9].modes == (0,)
    assert abs(circuit.elements[9].angle_rad - math.pi / 4) < 1e-12
    assert circuit.elements[10].modes == (1,)
    assert abs(circuit.elements[10].angle_rad) < 1e-12


def test_qft_sp_central_angles():
    circuit, rep = compile(QFT, _opts("sp"))
    assert rep.passed
    assert abs(circuit.elements[9].angle_rad - math.pi / 16) < 1e-12
    assert abs(circuit.elements[10].angle_rad - 3 * math.pi / 16) < 1e-12


def test_four_targets_verify_tightly():
    for name in ("walk", "qft"):
        for conv in ("ps", "sp"):
            U = builtin_target(name, conv)
            circuit, rep = compile(U, _opts(conv))
            assert rep.passed, (name, conv)
            assert rep.distance < 1e-12, (name, conv)
            assert element_count(circuit).total <= 20


def test_identity_optimizes_to_nothing():
    for conv in ("ps", "sp"):
        circuit, rep = compile(np.eye(4, dtype=complex), _opts(conv, optimize=True))
        assert element_count(circuit).total == 0
        assert rep.passed
        assert rep.distance == 0.0


def test_haar_batch_within_budget():
    for conv in ("ps", "sp"):
        for seed in range(200):
            U = haar_random_unitary(4, seed=seed)
            circuit, rep = compile(U, _opts(conv))
            assert element_count(circuit).total == 20
            assert rep.passed
            assert rep.distance <= 1e-9, (conv, seed, rep.distance)


def test_haar_batch_optimized():
    # the phase sweep leaves one PS before the central layer and one per
    # mode after it, and the central layer's gauge puts one chain on the
    # QWP-HWP form: 20 -> 18
    for conv in ("ps", "sp"):
        for seed in range(50):
            U = haar_random_unitary(4, seed=seed + 1000)
            circuit, rep = compile(U, _opts(conv, optimize=True))
            count = element_count(circuit)
            assert count.total == 18, (conv, seed)
            assert count.by_kind == {"pbs": 2, "hwp": 6, "qwp": 7, "ps": 3}, (conv, seed)
            assert rep.distance <= 1e-9


def test_central_factor_chains_collapse():
    # compiling the central factor alone must leave at most two plates
    # per arm segment after optimization
    for conv in ("ps", "sp"):
        A = central_a(0.9, 0.4, conv)
        circuit, rep = compile(A, _opts(conv, optimize=True))
        assert rep.passed
        runs = _plate_runs(circuit)
        assert runs and max(runs) <= 2, (conv, runs)


def test_metadata_records_source_and_angles():
    circuit, _ = compile(WALK, _opts("ps"))
    md = circuit.metadata
    assert md["source_sha256"] == hashlib.sha256(dump_matrix(WALK).encode()).hexdigest()
    assert abs(float(md["theta1_rad"]) - math.pi / 2) < 1e-12
    assert abs(float(md["theta2_rad"])) < 1e-12
    # the circuit equals its target exactly, so no global phase is recorded
    assert "global_phase_rad" not in md
    assert md["compiler_version"]


def test_older_documents_with_global_phase_still_load():
    # circuits written before the metadata lost its always-zero
    # global_phase_rad entry still deserialize and verify; metadata is
    # free-form str -> str
    circuit, _ = compile(WALK, _opts("ps"))
    doc = json.loads(serialize(circuit))
    doc["metadata"]["global_phase_rad"] = "0"
    old = deserialize(json.dumps(doc))
    assert old.metadata["global_phase_rad"] == "0"
    assert old.elements == circuit.elements
    assert verify(old, WALK).passed


def test_compile_deterministic():
    U = haar_random_unitary(4, seed=77)
    a = serialize(compile(U, _opts("sp", optimize=True))[0])
    b = serialize(compile(U, _opts("sp", optimize=True))[0])
    assert a == b


def test_emit_global_phase_is_plain_equality():
    # the pipeline hits the target on the nose, global phase included, so
    # no phase shifter is ever needed to correct it
    for conv in ("ps", "sp"):
        U = haar_random_unitary(4, seed=3)
        circuit, rep = compile(U, _opts(conv))
        assert rep.passed
        assert element_count(circuit).total == 20
        assert np.abs(simulate(circuit) - U).max() <= 1e-9


def test_compile_rejects_bad_input():
    for n in (2, 16):
        with pytest.raises(ValueError, match="4x4 or 8x8"):
            compile(np.eye(n, dtype=complex), _opts("sp"))
    with pytest.raises(ValueError, match="SP convention only"):
        compile(np.eye(8, dtype=complex), _opts("ps"))
    for n in (4, 8):
        with pytest.raises(ValueError, match="compile requires a unitary input"):
            compile(np.ones((n, n), dtype=complex), _opts("sp"))


@pytest.mark.parametrize(
    "field,value", [("optimize", "no"), ("optimize", 1), ("optimize", None), ("tolerances", 1e-9)]
)
def test_compile_options_reject_bad_values(field, value):
    # "no" would switch the optimizer on and a float would fail deep in the
    # compile; both are refused where the options are built
    with pytest.raises(ValueError, match=field):
        CompileOptions(convention="sp", **{field: value})


def test_compile_options_take_numpy_bools():
    circuit, _ = compile(WALK, _opts("sp", optimize=np.bool_(True)))
    assert circuit == compile(WALK, _opts("sp", optimize=True))[0]


def test_m4_counts_and_verification():
    for seed in range(50):
        U = haar_random_unitary(8, seed=seed)
        circuit, rep = compile_m4(U, _opts("sp"))
        assert element_count(circuit).total == 88
        assert rep.passed
        assert rep.distance <= 1e-9, (seed, rep.distance)


def test_m4_unoptimized_kind_breakdown():
    U = haar_random_unitary(8, seed=5)
    circuit, _ = compile_m4(U, _opts("sp"))
    assert element_count(circuit).by_kind == {"pbs": 12, "hwp": 28, "qwp": 32, "ps": 16}


def test_m4_optimized_kind_breakdown():
    # the phase sweep takes the 16 chain phase shifters down to 10, the
    # gauge of each 4x4 level's central layer drops one QWP per level, and
    # the gauge of each of the 4+4 level's two gadgets drops one more
    for seed in range(10):
        U = haar_random_unitary(8, seed=seed)
        circuit, rep = compile_m4(U, _opts("sp", optimize=True))
        count = element_count(circuit)
        assert count.total == 76, seed
        assert count.by_kind == {"pbs": 12, "hwp": 28, "qwp": 26, "ps": 10}, seed
        assert np.abs(simulate(circuit) - U).max() <= 1e-12, seed


def test_m4_identity_optimizes_to_nothing():
    circuit, rep = compile_m4(np.eye(8, dtype=complex), _opts("sp", optimize=True))
    assert element_count(circuit).total == 0
    assert rep.passed


def test_m4_block_diagonal_shortcut():
    import scipy.linalg

    U = scipy.linalg.block_diag(
        haar_random_unitary(4, seed=11), haar_random_unitary(4, seed=12)
    )
    circuit, rep = compile_m4(U, _opts("sp", optimize=True))
    assert rep.passed
    assert element_count(circuit).total <= 40


def test_m4_metadata_thetas():
    U = haar_random_unitary(8, seed=9)
    circuit, _ = compile_m4(U, _opts("sp"))
    thetas = [float(x) for x in circuit.metadata["thetas_rad"].split(",")]
    assert len(thetas) == 4
    assert all(0.0 <= t <= math.pi / 2 + 1e-12 for t in thetas)
    assert thetas == sorted(thetas, reverse=True)


def test_m4_rejects_bad_input():
    with pytest.raises(ValueError, match="SP convention only"):
        compile_m4(np.eye(8, dtype=complex), _opts("ps"))
    with pytest.raises(ValueError, match="8x8"):
        compile_m4(np.eye(4, dtype=complex), _opts("sp"))
    bad = np.eye(8, dtype=complex)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError, match="residual"):
        compile_m4(bad, _opts("sp"))


def test_reference_decompositions_multiply_out():
    refs = reference_decompositions()
    assert set(refs) == {"walk_ps", "qft_ps", "walk_sp", "qft_sp"}
    targets = {"walk": WALK, "qft": QFT}
    for name, factors in refs.items():
        prod = np.linalg.multi_dot(factors)
        target = targets[name.split("_")[0]]
        assert np.abs(prod - target).max() <= 1e-12, name


def test_optimized_builtin_counts_at_most_canonical():
    # the walk has trivial arms on one side, so the peephole pass beats
    # the canonical budget; the Fourier circuits stay at or under it
    for name in ("walk", "qft"):
        for conv in ("ps", "sp"):
            U = builtin_target(name, conv)
            circuit, rep = compile(U, _opts(conv, optimize=True))
            assert rep.passed
            assert element_count(circuit).total <= 20
    walk_ps, _ = compile(WALK, _opts("ps", optimize=True))
    assert element_count(walk_ps).total <= 14
    # the phase sweep and the two-plate chains bring the Fourier circuit in
    # sp below its hand-drawn 19
    qft_sp, _ = compile(QFT, _opts("sp", optimize=True))
    assert element_count(qft_sp).total == 17
    assert element_count(qft_sp).total <= HAND_COUNTS[("qft", "sp")]


def _emission_inputs():
    """(U, convention) for the built-in targets and seeded short-form, product and Haar inputs."""
    rng = np.random.default_rng(25)
    cases = [(builtin_target(n, conv), conv) for n in ("walk", "qft") for conv in ("ps", "sp")]
    perms4 = list(itertools.permutations(range(4)))
    for conv in ("ps", "sp"):
        for k in range(60):
            P = np.eye(4, dtype=complex)[list(perms4[k % 24])]
            phase = np.exp(2j * math.pi * rng.random()) if k % 2 else 1.0
            cases.append((phase * P * rng.choice((-1.0, 1.0), size=4), conv))
        for k in range(30):
            # every third one at multiples of pi/4
            angles = rng.integers(-8, 9, 4) * (math.pi / 4) if k % 3 == 0 else rng.random(4) * 7.0
            cases.append((np.diag(np.exp(1j * angles)), conv))
        cases += [(haar_random_unitary(4, 300 + s), conv) for s in range(40)]
    for k in range(60):
        perm = rng.permutation(8)
        if k % 3 < 2:
            # each half into one half: zero off-diagonal or zero diagonal CSD blocks
            top, bottom = rng.permutation(4), 4 + rng.permutation(4)
            perm = np.concatenate((top, bottom) if k % 3 == 0 else (bottom, top))
        cases.append((np.eye(8, dtype=complex)[perm] * rng.choice((-1.0, 1.0), size=8), "sp"))
    for k in range(30):
        cases.append((np.diag(np.exp(2j * math.pi * rng.random(8))), "sp"))
    for s in range(40):
        a, b = haar_random_unitary(2, 400 + 2 * s), haar_random_unitary(4, 401 + 2 * s)
        cases += [(np.kron(b, a), "sp"), (np.kron(a, b), "sp")]
    cases += [(haar_random_unitary(8, 500 + s), "sp") for s in range(20)]
    # levels that spend their CSD's free basis: the built-ins times a phase
    # (degenerate angles) and path-polarization products (equal angles)
    rng = np.random.default_rng(26)
    for conv in ("ps", "sp"):
        for k in range(20):
            phase = np.exp(2j * math.pi * rng.random())
            cases.append((phase * builtin_target(("walk", "qft")[k % 2], conv), conv))
            a, b = haar_random_unitary(2, 600 + 2 * k), haar_random_unitary(2, 601 + 2 * k)
            cases.append((phase * np.kron(a, b), conv))
    return cases


def test_the_signed_zero_rule_keeps_three_8x8_permutations_short():
    # a signed permutation's folds can leave a gate's determinant at -1 with
    # a -0.0 imaginary part; _su2 takes its phase with that made +0.0, and
    # without it these three of the 8x8 emission inputs take 48, 53 and 40
    # elements
    dim8 = [U for U, _ in _emission_inputs() if len(U) == 8]
    counts = {i: len(compile(dim8[i], _opts("sp", optimize=True))[0].elements) for i in (34, 40, 59)}
    assert counts == {34: 49, 40: 47, 59: 37}


def test_no_rule_fires_on_the_optimized_emission():
    # with optimize on, every level emits each gate's shortest chain, so
    # the peephole rules have nothing to do before the first phase sweep
    rules = {
        "drop_zero_ps": lambda els: _rewrite_drop_zero_ps(els, DEFAULT_TOL.angle_tol),
        "merge_ps": _rewrite_merge_ps,
        "resynthesize_run": lambda els: _rewrite_resynthesize_run(els, DEFAULT_TOL),
        "cancel_pbs": _rewrite_cancel_pbs,
    }
    for i, (U, conv) in enumerate(_emission_inputs()):
        els = _elements(U, DofConvention(conv), DEFAULT_TOL, True)[0]
        for name, rule in rules.items():
            assert not rule(list(els)), (i, conv, name)


def test_optimize_has_nothing_left_on_a_haar_compile(monkeypatch):
    # compile sweeps its emission's phases, so with optimize on a Haar input
    # comes out of compile final: skipping the peephole pass moves no byte.
    # Structured inputs are left out: a few rare ones, such as 3 of the
    # benchmark's 1800 structured inputs at seed 41 (signed permutations),
    # still shrink by resynthesis after the sweep
    inputs = [(haar_random_unitary(4, 700 + s), conv) for conv in ("ps", "sp") for s in range(36)]
    inputs += [(haar_random_unitary(8, 800 + s), "sp") for s in range(36)]
    full = [serialize(compile(U, _opts(conv, optimize=True))[0]) for U, conv in inputs]
    monkeypatch.setattr(compiler_module, "optimize", lambda circuit, tol: circuit)
    for (U, conv), want in zip(inputs, full):
        assert serialize(compile(U, _opts(conv, optimize=True))[0]) == want, conv


def test_optimize_builds_no_element_on_a_haar_compile(monkeypatch):
    # optimize keeps nothing on a Haar compile, and its phase sweep is not
    # kept, so it builds no element: the sweep decides that it is strictly
    # shorter before it builds a phase shifter
    inputs = [(haar_random_unitary(4, 900 + s), conv) for conv in ("ps", "sp") for s in range(8)]
    inputs += [(haar_random_unitary(8, 950 + s), "sp") for s in range(8)]
    compiled = [compile(U, _opts(conv, optimize=True))[0] for U, conv in inputs]
    built = []
    init = OpticalElement.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OpticalElement, "__init__", counting)
    for c in compiled:
        assert optimize(c, DEFAULT_TOL) == c
    assert built == []


def test_compile_runs_without_scipy():
    # scipy is a test-only dependency: a fresh interpreter compiles dim-4
    # (both conventions) and dim-8 inputs without loading any of it
    code = textwrap.dedent("""
        import sys
        from cartanopt.compiler import CompileOptions, compile, compile_m4
        from cartanopt.linalg import haar_random_unitary

        for conv in ("ps", "sp"):
            assert compile(haar_random_unitary(4, 1), CompileOptions(convention=conv))[1].passed
        assert compile_m4(haar_random_unitary(8, 1), CompileOptions(convention="sp"))[1].passed
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
