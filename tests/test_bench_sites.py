"""The benchmark tracer still finds and reaches every site it measures.

bench/tracer.py wraps compiler functions by the names they are looked
up under; a refactor that renames, inlines or stops calling one of them
would leave a per-layer span reading zero.  This runs the first inputs
of each workload through the benchmark's own operation under the
tracer and fails on any site that is gone or never called.
"""

import sys
from pathlib import Path

import pytest

import cartanopt  # noqa: F401  (registers the submodules the tracer patches)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from inputs import WORKLOADS, make_inputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import make_op  # noqa: E402

# every run of 12 consecutive structured inputs holds each family once
# per convention
INPUTS = 12


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_reaches_every_site(name):
    w = WORKLOADS[name]
    op = make_op(
        sys.modules["cartanopt.linalg"],
        sys.modules["cartanopt.compiler"],
        sys.modules["cartanopt.circuit"],
    )
    tracer = Tracer()
    tracer.install()
    try:
        for i, x in enumerate(make_inputs(w, 41, 0, INPUTS)):
            tracer.begin_op(i)
            _, passed = op(x.text, x.convention, w.optimize)
            assert passed
    finally:
        tracer.uninstall()
    tracer.check_seen(name)
