"""Compile one fixed, seeded input set on a base revision and on the working tree, and compare.

Usage, from anywhere:

    python tools/probe.py --base REV [--cores SkylakeX,Haswell,...] [--identical]

The input set is built once from the tests' own helpers:
tests/test_gauge.py's _dim8_inputs() (168), _perm_inputs() (120) and
_signed_perms(default_rng(99), 300); tests/test_compiler.py's
_emission_inputs() (534); 200 Haar 4x4 seeds in each convention and 100
Haar 8x8, 1622 in all.  The base revision's src/ is exported with
`git archive` into a temporary directory; the working tree is never
checked out over.  For each kernel set named in --cores, one subprocess
runs with OPENBLAS_CORETYPE set to it in its own environment only (with
no --cores, one runs on the inherited kernel set).  It draws the inputs
there, as the tests do under that set (a Haar draw's bits follow the
OpenBLAS core), loads the base tree's cartanopt beside the working
tree's, and compiles every input with both, optimize on.

Printed per kernel set and family: the element totals on base and tree,
the inputs that grew, shrank or whose serialized circuit moved by a
byte, and each tree's worst plain max|simulate(circuit) - U|.  Exit
status 1 if any residual exceeds 1e-12, or, with --identical, if any
input's bytes moved.  Growers are reported, not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESIDUAL_MAX = 1e-12

# The family of each _emission_inputs() case, in the order its recipe
# draws them: (count, family) runs
_EMISSION_RUNS = (
    [(4, "builtin")]
    + [(60, "perm4"), (30, "diag4"), (40, "haar4")] * 2
    + [(60, "perm8"), (30, "diag8")]
    + [(1, "kron42"), (1, "kron24")] * 40
    + [(20, "haar8")]
    + [(1, "builtin_phase"), (1, "kron22")] * 40
)


def _inputs() -> list:
    """(source, family, convention, U) for every input, drawn with the working tree."""
    import numpy as np
    from test_compiler import _emission_inputs
    from test_gauge import _dim8_inputs, _perm_inputs, _signed_perms

    from cartanopt.linalg import haar_random_unitary

    cases = [("dim8", fam, "sp", U) for fam, U in _dim8_inputs()]
    cases += [("perm_rng7", fam, "sp", U) for fam, U in _perm_inputs()]
    rng99 = _signed_perms(np.random.default_rng(99), 300)
    cases += [("perm_rng99", fam, "sp", U) for fam, U in rng99]
    emission = _emission_inputs()
    families = [fam for n, fam in _EMISSION_RUNS for _ in range(n)]
    if len(families) != len(emission):
        raise SystemExit("probe: _emission_inputs() changed; update _EMISSION_RUNS")
    cases += [("emission", fam, conv, U) for fam, (U, conv) in zip(families, emission)]
    for conv in ("ps", "sp"):
        cases += [("haar", "haar4", conv, haar_random_unitary(4, 5000 + s)) for s in range(200)]
    cases += [("haar", "haar8", "sp", haar_random_unitary(8, 6000 + s)) for s in range(100)]
    return cases


def _load(name: str, package: pathlib.Path):
    """The cartanopt package at `package`, imported under `name`."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _worker(base_src: str) -> None:
    """Draw the inputs, compile each with both trees and write one JSON document to stdout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    from kernels import fingerprint

    import cartanopt

    cases = _inputs()
    out = {"kernels": fingerprint(), "cases": [case[:3] for case in cases]}
    base = _load("cartanopt_base", pathlib.Path(base_src) / "cartanopt")
    for side, pkg in (("base", base), ("tree", cartanopt)):
        rows = []
        for _, _, conv, U in cases:
            circuit = pkg.compile(U, pkg.CompileOptions(convention=conv, optimize=True))[0]
            digest = hashlib.sha256(pkg.serialize(circuit).encode()).hexdigest()
            residual = float(np.abs(pkg.simulate(circuit) - U).max())
            rows.append((len(circuit.elements), digest, residual))
        out[side] = rows
    json.dump(out, sys.stdout)


def _export(rev: str, dest: pathlib.Path) -> str:
    """Write rev's src/ under dest and return rev's short hash."""
    short = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return short


def _report(result: dict, label: str) -> tuple[list, int]:
    """Print one kernel set's table; return (families over the residual bound, inputs moved)."""
    print(f"\n{label}: {result['kernels']}, {len(result['cases'])} inputs")
    fmt = "{:<11} {:<14} {:<4} {:>6} {:>6} {:>6} {:>5} {:>6} {:>5} {:>10} {:>10}"
    print(fmt.format("source", "family", "conv", "inputs", "base", "tree", "grown", "shrunk",
                     "moved", "worst base", "worst tree"))
    rows = {}
    for key, base, tree in zip(result["cases"], result["base"], result["tree"]):
        rows.setdefault(tuple(key), []).append((base, tree))
    rows["total", "", ""] = [pair for pairs in list(rows.values()) for pair in pairs]
    bad = []
    for key, pairs in rows.items():
        counts = [
            len(pairs),
            sum(b[0] for b, _ in pairs),
            sum(t[0] for _, t in pairs),
            sum(t[0] > b[0] for b, t in pairs),
            sum(t[0] < b[0] for b, t in pairs),
            sum(t[1] != b[1] for b, t in pairs),
        ]
        worst = max(b[2] for b, _ in pairs), max(t[2] for _, t in pairs)
        print(fmt.format(*key, *counts, *(f"{w:.1e}" for w in worst)))
        if key[0] != "total" and max(worst) > RESIDUAL_MAX:
            bad.append("/".join(key))
    # the total row comes last
    return bad, counts[5]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare the working tree against")
    parser.add_argument("--cores", default="", help="comma-separated OPENBLAS_CORETYPE values")
    parser.add_argument("--identical", action="store_true", help="fail if any input's bytes moved")
    parser.add_argument("--worker", metavar="BASE_SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0
    if not args.base:
        parser.error("--base is required")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        short = _export(args.base, tmp)
        print(f"probe: base {short} against the working tree, optimize on")
        for core in [c for c in args.cores.split(",") if c] or [None]:
            env = dict(os.environ)
            if core:
                env["OPENBLAS_CORETYPE"] = core
            cmd = [sys.executable, __file__, "--worker", str(tmp / "src")]
            run = subprocess.run(cmd, env=env, capture_output=True, text=True)
            label = core or "inherited kernel set"
            if run.returncode:
                sys.stderr.write(run.stderr)
                print(f"probe: worker on {label} exited {run.returncode}", file=sys.stderr)
                return 1
            bad, moved = _report(json.loads(run.stdout), label)
            for name in bad:
                print(f"probe: residual above {RESIDUAL_MAX:g} in {name}", file=sys.stderr)
            if args.identical and moved:
                print(f"probe: {moved} inputs moved", file=sys.stderr)
            failed |= bool(bad) or (args.identical and moved > 0)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
