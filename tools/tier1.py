"""Run the tier-1 test command and check that only the designed-red tests fail.

Usage, from anywhere:

    python tools/tier1.py [extra pytest arguments]

It runs ROADMAP.md's tier-1 command (pytest -q --continue-on-collection-errors
with src on PYTHONPATH) from the repository root and exits 0 only when the
tests that fail or error are exactly DESIGNED_RED.  Any other failure, a
collection error, a strict xfail that passes, or a designed-red test that
does not fail exits 1.  It first prints the CPU kernel set numpy and
OpenBLAS run on (tests/kernels.py), which the byte pins depend on.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from kernels import fingerprint  # noqa: E402

# The dim-8 48-element claims, red by design: no template with 12 PBSs
# reaches every U(8) with fewer than 64 angles (ROADMAP item 8).  Keyed as
# the JUnit report names a test: (classname, name).
DESIGNED_RED = {
    ("tests.test_acceptance", "test_element_budget_dim8"),
    ("tests.test_acceptance", "test_baseline_deltas"),
}


def _failed(report: pathlib.Path) -> set[tuple[str, str]]:
    """(classname, name) of each failed or errored test case in a JUnit XML report."""
    return {
        (case.get("classname", ""), case.get("name", ""))
        for case in ET.parse(report).iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }


def main(argv: list[str]) -> int:
    print(f"tier1: kernel set {fingerprint()}", flush=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "tier1.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               f"--junitxml={report}", *argv]
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        if code not in (0, 1) or not report.exists():
            print(f"tier1: pytest exited {code}", file=sys.stderr)
            return 1
        failed = _failed(report)
    unexpected = sorted(failed - DESIGNED_RED)
    turned_green = sorted(DESIGNED_RED - failed)
    for cls, name in unexpected:
        print(f"tier1: unexpected failure {cls}::{name}", file=sys.stderr)
    for cls, name in turned_green:
        print(f"tier1: designed-red test did not fail {cls}::{name}", file=sys.stderr)
    if unexpected or turned_green:
        return 1
    print(f"tier1: ok, only the {len(DESIGNED_RED)} designed-red tests failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
