"""Near-unitary inputs on either side of ToleranceConfig.unitarity_tol.

B (I + eps H), with B Haar and H Hermitian, has a unitarity residual of
about 2 eps max|H|; eps is tuned so the residual sits just below or just
above unitarity_tol.  Below the edge compile accepts the input and the
circuit verifies within equivalence_tol; above it compile raises
ValueError and the CLI's compile exits 2.  Both conventions, optimize on
and off, under the default tolerances and one looser setting.  Dim 8
below the edge still raises: that known fault is pinned as a strict xfail.
"""

import numpy as np
import pytest

from cartanopt.cli import EXIT_INVALID_INPUT, EXIT_OK, main
from cartanopt.compiler import CompileOptions, compile, compile_m4
from cartanopt.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    dump_matrix,
    haar_random_unitary,
    unitarity_residual,
)

TOLERANCES = (
    DEFAULT_TOL,
    # a non-unitary input is about its residual away from every circuit,
    # so equivalence_tol must leave room above unitarity_tol
    ToleranceConfig(unitarity_tol=1e-7, equivalence_tol=1e-6),
)
BELOW, ABOVE = 0.9, 1.1
SEEDS = range(6)


def _near_unitary(seed: int, residual: float, dim: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = (H + H.conj().T) / 2
    B = haar_random_unitary(dim, seed)
    eps = residual
    # the residual is linear in eps up to eps^2: a few rescalings land it
    for _ in range(3):
        eps *= residual / unitarity_residual(B @ (np.eye(dim) + eps * H))
    U = B @ (np.eye(dim) + eps * H)
    assert abs(unitarity_residual(U) / residual - 1.0) < 0.02
    return U


@pytest.mark.parametrize("tol", TOLERANCES, ids=("default", "loose"))
@pytest.mark.parametrize("convention", ("ps", "sp"))
@pytest.mark.parametrize("optimize", (False, True))
def test_compile_at_the_unitarity_edge(tol, convention, optimize):
    opts = CompileOptions(convention=convention, optimize=optimize, tolerances=tol)
    for seed in SEEDS:
        _, report = compile(_near_unitary(seed, BELOW * tol.unitarity_tol), opts)
        assert report.passed, (seed, report.distance)
        with pytest.raises(ValueError, match="unitary"):
            compile(_near_unitary(seed, ABOVE * tol.unitarity_tol), opts)


# Known fault: compile_m4 accepts these inputs, then cartan.decompose
# re-checks each 4x4 CSD block, whose residual comes out larger than the
# input's (1.34e-10 for seed 0).  Checking unitarity once, at the input,
# fixes it and turns this pin into a failure until the mark is removed.
@pytest.mark.xfail(strict=True, raises=ValueError, reason="4x4 blocks are re-checked")
def test_compile_m4_below_the_unitarity_edge():
    for seed in (0, 3, 4):
        U = _near_unitary(seed, BELOW * DEFAULT_TOL.unitarity_tol, dim=8)
        _, report = compile_m4(U, CompileOptions(convention="sp"))
        assert report.passed, (seed, report.distance)


@pytest.mark.parametrize("convention", ("ps", "sp"))
@pytest.mark.parametrize("flags", ([], ["--optimize"]))
def test_cli_compile_at_the_unitarity_edge(capsys, tmp_path, convention, flags):
    for side, code in ((BELOW, EXIT_OK), (ABOVE, EXIT_INVALID_INPUT)):
        path = tmp_path / "u.json"
        path.write_text(dump_matrix(_near_unitary(1, side * DEFAULT_TOL.unitarity_tol)))
        argv = ["compile", "--matrix", str(path), "--convention", convention, *flags]
        assert main(argv) == code, side
        out, err = capsys.readouterr()
        if code == EXIT_INVALID_INPUT:
            assert out == "" and "unitary" in err
