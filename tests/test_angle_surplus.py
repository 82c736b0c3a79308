"""The angle surplus of optimized compiles: angles minus the Jacobian rank.

simulate maps a circuit's plate and PS angles to a unitary.  The rank of
its Jacobian (central differences, SVD) counts the independent
directions the angles reach: at most 16 for U(4) and 64 for U(8), with
the global phase kept.  Every angle beyond the rank is redundant.
Optimized Haar compiles carried 17 angles at dim 4 and 70 at dim 8, one
and six surplus, until each 4x4 level moved its central layer's gauge
into its gates (compiler._steer), which left 16 and 66.  The two angles
left at dim 8 were the gauge directions of the 4+4 level's two gadgets,
each of which reaches into two 4x4 sub-levels; the 4+4 level now moves
those too (compiler._steer_levels), so a dim-8 compile carries 64 angles
and neither size has a surplus.
"""

import numpy as np
import pytest

from cartanopt.circuit import OpticalCircuit, OpticalElement
from cartanopt.compiler import CompileOptions, compile, compile_m4
from cartanopt.linalg import haar_random_unitary
from cartanopt.simulate import simulate


def jacobian_rank(circuit: OpticalCircuit, step: float = 1e-6) -> tuple[int, int]:
    """(rank, angles) of d simulate / d angles at the circuit's angles."""
    idx = [i for i, e in enumerate(circuit.elements) if e.kind != "pbs"]

    def at(i, shift):
        els = list(circuit.elements)
        e = els[i]
        els[i] = OpticalElement(e.kind, e.modes, e.angle_rad + shift)
        return simulate(OpticalCircuit(circuit.convention, circuit.num_spatial_modes, els))

    cols = []
    for i in idx:
        d = (at(i, step) - at(i, -step)) / (2 * step)
        cols.append(np.concatenate([d.real.ravel(), d.imag.ravel()]))
    sv = np.linalg.svd(np.array(cols).T, compute_uv=False)
    # the reached directions have singular values of order one; the null
    # ones are central-difference error, about step^2
    return int((sv > 1e-6 * sv[0]).sum()), len(idx)


@pytest.mark.parametrize("convention", ["ps", "sp"])
@pytest.mark.parametrize("seed", [1, 2])
def test_dim4_surplus_is_zero(convention, seed):
    U = haar_random_unitary(4, seed)
    circuit, _ = compile(U, CompileOptions(convention=convention, optimize=True))
    rank, angles = jacobian_rank(circuit)
    assert (rank, angles - rank) == (16, 0)


def test_dim8_surplus_is_zero():
    circuit, _ = compile_m4(haar_random_unitary(8, 3), CompileOptions(convention="sp", optimize=True))
    rank, angles = jacobian_rank(circuit)
    assert (rank, angles - rank) == (64, 0)
