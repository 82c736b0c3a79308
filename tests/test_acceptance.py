"""Acceptance gate: the eight shipping claims, at full sample sizes.

Each test prints a single summary line with the measured numbers and
then asserts the claim verbatim.  Claims that the implementation does
not reach fail here with the achieved figures in the message; they are
deliberately not weakened.
"""

import itertools
import math
from collections import Counter

import numpy as np

from cartanopt.cartan import decompose
from cartanopt.circuit import element_count, optimize
from cartanopt.compiler import (
    HAND_COUNTS,
    CompileOptions,
    builtin_target,
    compile,
    compile_m4,
    reference_decompositions,
)
from cartanopt.lie import check_cartan_conditions, lie_span
from cartanopt.linalg import haar_random_unitary
from cartanopt.simulate import simulate
from cartanopt.waveplates import chain_matrix, hwp_matrix, qwp_matrix, synthesize_u2

WALK = builtin_target("walk", "ps")
QFT = builtin_target("qft", "sp")


def test_element_budget_dim4():
    worst_count, worst_dist = 0, 0.0
    for conv in ("ps", "sp"):
        opts = CompileOptions(convention=conv)
        for seed in range(1000):
            U = haar_random_unitary(4, seed=seed)
            circuit, rep = compile(U, opts)
            worst_count = max(worst_count, rep.element_total)
            worst_dist = max(worst_dist, rep.distance)
    print(
        f"dim-4 budget over 1000 unitaries per convention: "
        f"{'PASS' if worst_count <= 20 and worst_dist <= 1e-9 else 'FAIL'} "
        f"(worst count {worst_count} of 20, worst distance {worst_dist:.2e})"
    )
    assert worst_count <= 20
    assert worst_dist <= 1e-9


def test_element_budget_dim8():
    worst_count, worst_dist = 0, 0.0
    opts = CompileOptions(convention="sp")
    for seed in range(200):
        U = haar_random_unitary(8, seed=seed)
        circuit, rep = compile_m4(U, opts)
        worst_count = max(worst_count, rep.element_total)
        worst_dist = max(worst_dist, rep.distance)
    print(
        f"dim-8 budget over 200 unitaries: "
        f"{'PASS' if worst_count <= 48 and worst_dist <= 1e-9 else 'FAIL'} "
        f"(worst count {worst_count} of 48, worst distance {worst_dist:.2e})"
    )
    assert worst_dist <= 1e-9
    assert worst_count <= 48, (
        f"compiled four-mode circuits use {worst_count} elements; the "
        f"48-element claim is out of reach for this construction (one "
        f"cosine-sine level plus four dim-4 blocks costs 4*20+8)"
    )


def test_baseline_deltas():
    opts4 = CompileOptions(convention="ps")
    c_ps, _ = compile(haar_random_unitary(4, seed=0), opts4)
    ps_counts = element_count(c_ps)
    c_sp, _ = compile(haar_random_unitary(4, seed=0), CompileOptions(convention="sp"))
    sp_counts = element_count(c_sp)
    c_m4, _ = compile_m4(haar_random_unitary(8, seed=0), CompileOptions(convention="sp"))
    m4_counts = element_count(c_m4)
    line_ok = (
        ps_counts.total == 20
        and ps_counts.baseline_comparisons == {"ps_csd_swap": 5}
        and sp_counts.total == 20
        and sp_counts.baseline_comparisons == {"sp_csd": 1}
        and m4_counts.total <= 48
    )
    print(
        f"baseline deltas: {'PASS' if line_ok else 'FAIL'} "
        f"(ps {ps_counts.total} vs 25, sp {sp_counts.total} vs 21, "
        f"m4 {m4_counts.total} vs 74)"
    )
    assert ps_counts.total == 20
    assert ps_counts.baseline_comparisons == {"ps_csd_swap": 5}
    assert sp_counts.total == 20
    assert sp_counts.baseline_comparisons == {"sp_csd": 1}
    assert m4_counts.baseline_comparisons == {"m4_csd": 74 - m4_counts.total}
    assert m4_counts.total <= 48, (
        f"four-mode count is {m4_counts.total}, so the reported delta is "
        f"{74 - m4_counts.total:+d} rather than the claimed >= +26"
    )


def test_worked_example_angles():
    walk = decompose(WALK, "ps")
    qft = decompose(QFT, "sp")
    walk_err = max(
        abs(a - b)
        for a, b in zip(sorted([walk.theta1, walk.theta2]), [0.0, math.pi / 2])
    )
    qft_err = max(
        abs(a - b)
        for a, b in zip(
            sorted([qft.theta1, qft.theta2]), [math.pi / 8, 3 * math.pi / 8]
        )
    )
    ok = walk_err <= 1e-9 and qft_err <= 1e-9
    print(
        f"worked-example angles: {'PASS' if ok else 'FAIL'} "
        f"(walk {{pi/2, 0}} err {walk_err:.2e}, qft {{3pi/8, pi/8}} err {qft_err:.2e})"
    )
    assert walk_err <= 1e-9
    assert qft_err <= 1e-9


def test_transcription_fixtures():
    targets = {"walk": WALK, "qft": QFT}
    worst = 0.0
    for name, factors in reference_decompositions().items():
        err = np.abs(np.linalg.multi_dot(factors) - targets[name.split("_")[0]]).max()
        worst = max(worst, err)
    print(
        f"hand-written factorizations: {'PASS' if worst <= 1e-12 else 'FAIL'} "
        f"(worst product error {worst:.2e})"
    )
    assert worst <= 1e-12


def test_lie_structure_flags():
    failures = []
    for conv in ("ps", "sp"):
        for n in (1, 2, 3):
            rep = check_cartan_conditions(lie_span(n, conv))
            flags = (rep.ll_in_l, rep.lp_in_p, rep.pp_in_l, rep.h_abelian, rep.h_maximal)
            if not all(flags):
                failures.append((conv, n, flags))
            assert rep.all_passed == all(flags)
    print(
        f"algebra split checks (both conventions, n=1..3): "
        f"{'PASS' if not failures else 'FAIL'} (failures: {failures or 'none'})"
    )
    assert not failures


def test_waveplate_synthesis_contract():
    worst = 0.0
    for seed in range(1000):
        U = haar_random_unitary(2, seed=seed)
        chain = synthesize_u2(U)
        worst = max(worst, np.abs(chain_matrix(chain) - U).max())
        kinds = Counter(kind for kind, _ in chain)
        assert kinds["qwp"] <= 2 and kinds["hwp"] <= 1 and kinds["ps"] <= 1, kinds
    rng = np.random.default_rng(0)
    worst_id = 0.0
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=100):
        q = qwp_matrix(theta)
        h = hwp_matrix(theta)
        worst_id = max(worst_id, np.abs(q @ q - h).max())
        worst_id = max(worst_id, np.abs(h @ h + np.eye(2)).max())
    ok = worst <= 1e-10 and worst_id <= 1e-12
    print(
        f"plate synthesis round-trip (1000 inputs): {'PASS' if ok else 'FAIL'} "
        f"(worst exact-equality error {worst:.2e}, worst plate identity {worst_id:.2e})"
    )
    assert worst <= 1e-10
    assert worst_id <= 1e-12


def _signed_permutations():
    # the 24 permutations of four basis states, each with its own sign pattern
    for k, perm in enumerate(itertools.permutations(range(4))):
        signs = [(-1.0) ** ((k >> b) & 1) for b in range(4)]
        yield np.eye(4, dtype=complex)[list(perm)] * signs


def test_optimizer_safety():
    # optimize promises the same unitary exactly, global phase included,
    # so drift is the plain max-entry difference
    worst_drift, grew, shrunk = 0.0, [], 0
    cases = [(conv, f"haar{seed}", haar_random_unitary(4, seed=seed))
             for conv in ("ps", "sp") for seed in range(250)]
    for conv in ("ps", "sp"):
        cases += [(conv, name, builtin_target(name, conv)) for name in ("walk", "qft")]
        cases += [(conv, f"perm{k}", P) for k, P in enumerate(_signed_permutations())]
    for conv, name, U in cases:
        before, _ = compile(U, CompileOptions(convention=conv))
        after = optimize(before)
        n0, n1 = element_count(before).total, element_count(after).total
        if n1 > n0:
            grew.append((conv, name, n0, n1))
        shrunk += n1 < n0
        worst_drift = max(worst_drift, float(np.abs(simulate(after) - simulate(before)).max()))
    achieved = {}
    for name in ("walk", "qft"):
        for conv in ("ps", "sp"):
            circuit, _ = compile(
                builtin_target(name, conv),
                CompileOptions(convention=conv, optimize=True),
            )
            achieved[(name, conv)] = element_count(circuit).total
    hand_vs = ", ".join(
        f"{name}/{conv} {achieved[(name, conv)]} (hand {HAND_COUNTS[(name, conv)]})"
        for name in ("walk", "qft")
        for conv in ("ps", "sp")
    )
    ok = not grew and worst_drift <= 1e-9
    print(
        f"optimizer safety ({len(cases)} compiled circuits, {shrunk} shrunk): "
        f"{'PASS' if ok else 'FAIL'} "
        f"(worst plain drift {worst_drift:.2e}, count regressions {grew or 'none'}); "
        f"achieved vs hand-drawn: {hand_vs}"
    )
    assert not grew
    assert worst_drift <= 1e-9
