"""Dim-4 circuit bytes do not depend on the CPU kernel set.

Every 2x2 product and multiply of a 4x4 Cartan level runs on Python
complex (see the kernel note in cartanopt/linalg.py), so a fixed dim-4
input compiles to the same bytes with numpy's X86_V3/X86_V4 loops off
and on OpenBLAS's Haswell core as on the running set.  The inputs are
committed wire text, tests/data/kernel_inputs.json: every fourth dim-4
input of test_compiler._emission_inputs() (built-ins, signed
permutations, diagonals, Haar draws, the built-ins times a phase and
2x2 (x) 2x2 products), drawn once, so no draw goes through LAPACK here.
Each compiles in both conventions with optimize on and off, in a
subprocess whose environment picks the kernel set.

KERNEL_DEPENDENT names the compiles that may still move, and why; none
does today.  What is left on numpy along the dim-4 path decides no byte
of these circuits: is_unitary compares a residual with a tolerance far
from it, and the optimizer's run products (waveplates._chain_products,
zgemm) decide only whether a run shrinks, which no input here straddles.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from cartanopt.circuit import serialize
from cartanopt.compiler import CompileOptions, compile
from cartanopt.linalg import matrix_from_json

HERE = pathlib.Path(__file__).resolve().parent
INPUTS = HERE / "data" / "kernel_inputs.json"

KERNEL_SETS = {
    "simd_off": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}
# (input index, convention, optimize) -> why its bytes may follow the kernel set
KERNEL_DEPENDENT = {}


def _circuits() -> dict:
    """Serialized circuit of each (input index, convention, optimize)."""
    out = {}
    for i, obj in enumerate(json.loads(INPUTS.read_text(encoding="utf-8"))):
        U = matrix_from_json(obj)
        for conv in ("ps", "sp"):
            for opt in (False, True):
                out[f"{i} {conv} {int(opt)}"] = serialize(compile(U, CompileOptions(conv, opt))[0])
    return out


@pytest.fixture(scope="module")
def here():
    return _circuits()


@pytest.mark.parametrize("kernels", sorted(KERNEL_SETS))
def test_dim4_bytes_equal_the_running_kernel_sets(here, kernels):
    env = dict(os.environ, **KERNEL_SETS[kernels])
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, str(HERE), env.get("PYTHONPATH")) if p)
    code = "import json, test_kernel_independence as t; print(json.dumps(t._circuits()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    there = json.loads(run.stdout)
    assert sorted(there) == sorted(here)
    moved = sorted(k for k in here if here[k] != there[k] and k not in KERNEL_DEPENDENT)
    assert moved == [], f"{len(moved)} of {len(here)} compiles moved under {kernels}"
