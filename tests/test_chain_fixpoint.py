"""optimize leaves no same-mode run that the chain table would shorten.

The optimizer resynthesizes whole runs only, and stops when no run's
synthesize_u2 chain is shorter than the run.  A chain that synthesize_u2
emits sits up to angle_tol from its target, so it can itself
resynthesize shorter (ROADMAP item 17); the optimizer must therefore
try rewritten runs again.  At optimize's fixpoint every maximal
same-mode run (a PBS on the mode ends one, elements on other modes do
not) must be at least as long as the table's chain for its product: on
the optimizer corpus and on optimized structured dim-4 compiles.
"""

from hypothesis import given, settings, strategies as st

from cartanopt.circuit import hwp, pbs, ps, qwp
from cartanopt.compiler import CompileOptions, compile
from cartanopt.waveplates import chain_matrix, synthesize_u2
from test_compile_properties import _clustered4, _targets
from test_optimize_corpus import _outputs


def _maximal_runs(elements) -> list:
    """(kind, angle) lists of the maximal same-mode plate and PS runs."""
    runs, open_runs = [], {}
    for e in elements:
        if e.kind == "pbs":
            for m in e.modes:
                open_runs.pop(m, None)
            continue
        m = e.modes[0]
        if m not in open_runs:
            open_runs[m] = len(runs)
            runs.append([])
        runs[open_runs[m]].append((e.kind, e.angle_rad))
    return runs


def _assert_no_run_shrinks(circuit):
    for run in _maximal_runs(circuit.elements):
        chain = synthesize_u2(chain_matrix(run))
        assert len(chain) >= len(run), (run, chain)


def test_runs_example():
    els = [qwp(0, 0.1), ps(1, 0.2), hwp(0, 0.3), pbs(0, 1), hwp(1, 0.4), hwp(0, 0.5)]
    assert _maximal_runs(els) == [
        [("qwp", 0.1), ("hwp", 0.3)], [("ps", 0.2)], [("hwp", 0.4)], [("hwp", 0.5)],
    ]


def test_optimize_corpus_leaves_no_shorter_run():
    for _, _, out in _outputs():
        _assert_no_run_shrinks(out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(
    st.tuples(_targets(4), st.sampled_from(("ps", "sp"))),
    _clustered4(),
))
def test_structured_compiles_leave_no_shorter_run(target):
    U, convention = target
    circuit, report = compile(U, CompileOptions(convention=convention, optimize=True))
    assert report.passed
    _assert_no_run_shrinks(circuit)
