"""The optimizer's phase sweep, checked by plain equality.

verify and the benchmark's reference check compare circuits only up to a
global phase, so a sweep that lost the phase it carries to the end of
the circuit would pass both.  These properties compare simulate's
matrices entry by entry instead, on hand-built circuits rich in PBSs and
phase shifters (2 and 4 modes, both conventions) and on the unoptimized
compiles of Haar, walk/QFT and signed-permutation inputs.  optimize must
never lengthen a circuit, must be idempotent, and must keep the simulated
matrix to 1e-12, global phase included, and neither phase-shifter rule
may fire on a sweep's output.  A hand-built circuit may also
hold phases within angle_tol of zero, which the optimizer drops as
identities: one per input PS, and the sweep one per PBS and one per mode,
each moving the matrix by at most angle_tol.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cartanopt import circuit as circuit_module
from cartanopt.circuit import (
    OpticalCircuit,
    OpticalElement,
    _rewrite_drop_zero_ps,
    _rewrite_merge_ps,
    _sweep_phases,
    element_count,
    optimize,
    pbs,
    ps,
)
from cartanopt.compiler import CompileOptions, builtin_target, compile, compile_m4
from cartanopt.linalg import DEFAULT_TOL, haar_random_unitary
from cartanopt.simulate import simulate
from test_golden import CASES as GOLDEN_CASES
from test_optimize_corpus import OFFSETS, _circuits, _swept_circuits

DRIFT = 1e-12

_angles = st.one_of(
    st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False),
    st.builds(
        lambda k, sign, offset: k * math.pi / 8 + sign * offset,
        st.integers(-16, 16), st.sampled_from((-1.0, 1.0)), st.sampled_from(OFFSETS),
    ),
)


@st.composite
def _hand_built(draw):
    m = draw(st.sampled_from((2, 4)))
    mode = st.integers(0, m - 1)
    elems = []
    for _ in range(draw(st.integers(0, 16))):
        # one PBS and one PS in three elements: phases meet many PBSs
        kind = draw(st.sampled_from(("pbs", "pbs", "ps", "ps", "hwp", "qwp")))
        if kind == "pbs":
            i, j = draw(st.lists(mode, min_size=2, max_size=2, unique=True))
            elems.append(pbs(i, j))
        else:
            elems.append(OpticalElement(kind, (draw(mode),), draw(_angles)))
    convention = draw(st.sampled_from(("ps", "sp")))
    return OpticalCircuit(convention=convention, num_spatial_modes=m, elements=elems)


def _signed_permutation(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    P = np.eye(4, dtype=complex)[rng.permutation(4)]
    return P * rng.choice((1.0, -1.0), size=4)


@st.composite
def _compiled(draw):
    # an unoptimized compile: the circuit optimize=True starts from
    family = draw(st.sampled_from(("haar4", "haar8", "builtin", "signed_perm")))
    seed = draw(st.integers(0, 10**6))
    convention = "sp" if family == "haar8" else draw(st.sampled_from(("ps", "sp")))
    if family == "haar8":
        return compile_m4(haar_random_unitary(8, seed), CompileOptions(convention="sp"))[0]
    if family == "haar4":
        U = haar_random_unitary(4, seed)
    elif family == "builtin":
        phase = np.exp(1j * draw(st.floats(-math.pi, math.pi)))
        U = phase * builtin_target(draw(st.sampled_from(("walk", "qft"))), convention)
    else:
        U = _signed_permutation(seed)
    return compile(U, CompileOptions(convention=convention))[0]


def _check(circuit, drift=DRIFT):
    once = optimize(circuit)
    assert len(once.elements) <= len(circuit.elements)
    assert optimize(once) == once
    # optimize sweeps again only after another rule fired: a sweep's
    # output must sweep to itself
    swept = _sweep_phases(list(circuit.elements), DEFAULT_TOL.angle_tol)
    assert _sweep_phases(swept, DEFAULT_TOL.angle_tol) == swept
    # neither phase rule fires on a sweep's output, so the rule pass after
    # a kept sweep starts at resynthesis
    assert not _phase_rule_fires(swept)
    assert np.abs(simulate(once) - simulate(circuit)).max() <= drift


def _phase_rule_fires(elems) -> bool:
    # each rule on its own copy: a rule that fires edits the list
    a_tol = DEFAULT_TOL.angle_tol
    return _rewrite_drop_zero_ps(list(elems), a_tol) or _rewrite_merge_ps(list(elems))


def _droppable(circuit) -> int:
    # phases the optimizer may drop: one per PS, one per PBS, one per mode
    return sum(e.kind in ("ps", "pbs") for e in circuit.elements) + circuit.num_spatial_modes


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_hand_built())
def test_sweep_on_hand_built_circuits(circuit):
    _check(circuit, DRIFT + _droppable(circuit) * DEFAULT_TOL.angle_tol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_compiled())
def test_sweep_on_compiled_circuits(circuit):
    _check(circuit)


def test_sweep_leaves_three_phase_shifters_at_dim4():
    # the difference of the two first-side phases stays on mode 0, the
    # common part passes both PBSs and comes out on each last-side chain;
    # every PS leads its chain, as in the unoptimized circuit
    for conv in ("ps", "sp"):
        U = haar_random_unitary(4, seed=8)
        c, _ = compile(U, CompileOptions(convention=conv, optimize=True))
        kinds = [e.kind for e in c.elements]
        assert element_count(c).by_kind["ps"] == 3
        assert kinds.index("ps") == 0 and c.elements[0].modes == (0,)
        last_pbs = len(kinds) - 1 - kinds[::-1].index("pbs")
        assert kinds[last_pbs + 1] == kinds[last_pbs + 5] == "ps"
        assert np.abs(simulate(c) - U).max() <= DRIFT


def test_sweep_is_kept_only_when_shorter():
    # the sweep would emit a PS before the PBS and one on each mode after
    # it, four elements for two, so the fixpoint's circuit comes back
    c = OpticalCircuit(convention="sp", num_spatial_modes=2, elements=(ps(1, 0.7), pbs(0, 1)))
    assert optimize(c) == c


def test_no_phase_rule_fires_on_a_kept_sweep(monkeypatch):
    # optimize skips drop_zero_ps and merge_ps in the pass right after a
    # kept sweep, and compile hands optimize a swept emission.  Neither
    # rule may fire on any sweep that optimize runs on the optimizer corpus
    # or that compile and optimize run on the golden inputs compiled with
    # optimize on; both reach _sweep_phases through _sweep_if_shorter, so
    # patching it records each.  The corpus's first family keeps none of
    # its sweeps (its phase rules and resynthesis leave nothing for one to
    # merge), so every sweep output is checked, kept or not; the swept
    # family keeps at least one per circuit and the golden compiles keep
    # some, each of them in compile
    swept_out, kept = [], []

    def recording(elems, a_tol):
        swept = _sweep_phases(elems, a_tol)
        swept_out.append(swept)
        if len(swept) < len(elems):
            kept.append(swept)
        return swept

    monkeypatch.setattr(circuit_module, "_sweep_phases", recording)
    for circuit in _circuits():
        optimize(circuit)
    family = _swept_circuits()
    for circuit in family:
        optimize(circuit)
    assert len(kept) >= len(family)
    for _, U, convention, _ in GOLDEN_CASES:
        compile(U, CompileOptions(convention=convention, optimize=True))
    assert len(kept) >= len(family) + 10
    for swept in swept_out:
        assert not _phase_rule_fires(swept), swept
