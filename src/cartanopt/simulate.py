"""Element-level circuit simulation on the single-photon state space.

The circuit's unitary on the full 2m-dimensional space (m spatial
modes, 2 polarizations) is built by row updates in spatial-major index
order, where mode k owns rows 2k (H) and 2k+1 (V): a PBS swaps the H
rows of its two modes and leaves every V row alone; a plate or phase
shifter left-multiplies its mode's two rows by its 2x2 matrix.  A
polarization-major circuit is permuted once at the end.
element_unitary gives one element's dense embedding in either
convention, the reference the row updates must agree with.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .circuit import OpticalCircuit, OpticalElement, element_count
from .dof import DofConvention, ps_to_sp_indices
from .linalg import DEFAULT_TOL, ToleranceConfig, _as_square, phase_distance
from .waveplates import PLATE_MATRIX


def element_unitary(e: OpticalElement, convention, m: int) -> np.ndarray:
    """Full-space unitary of one element, in the convention's basis order."""
    conv = DofConvention(convention)
    if max(e.modes) >= m:
        raise ValueError(f"element on modes {e.modes} needs more than {m} spatial modes")
    M = np.eye(2 * m, dtype=complex)
    if e.kind == "pbs":
        i, j = 2 * e.modes[0], 2 * e.modes[1]
        M[i, i] = M[j, j] = 0.0
        M[i, j] = M[j, i] = 1.0
    else:
        k = 2 * e.modes[0]
        M[k : k + 2, k : k + 2] = PLATE_MATRIX[e.kind](e.angle_rad)
    if conv is DofConvention.PS:
        perm = ps_to_sp_indices(m)
        M = M[np.ix_(perm, perm)]
    return M


def simulate(circuit: OpticalCircuit) -> np.ndarray:
    """Product of the element unitaries, first element applied first."""
    m = circuit.num_spatial_modes
    M = np.eye(2 * m, dtype=complex)
    for e in circuit.elements:
        if e.kind == "pbs":
            i, j = 2 * e.modes[0], 2 * e.modes[1]
            M[[i, j]] = M[[j, i]]
        else:
            k = 2 * e.modes[0]
            M[k : k + 2] = PLATE_MATRIX[e.kind](e.angle_rad) @ M[k : k + 2]
    if circuit.convention is DofConvention.PS:
        perm = ps_to_sp_indices(m)
        M = M[np.ix_(perm, perm)]
    return M


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Phase-aware distance between a circuit and its target matrix."""

    distance: float
    global_phase: float
    passed: bool
    element_total: int


def verify(
    circuit: OpticalCircuit, target, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Compare simulate(circuit) against target up to a global phase."""
    target = _as_square(target)
    m = circuit.num_spatial_modes
    if target.shape != (2 * m, 2 * m):
        raise ValueError(
            f"target is {target.shape}, circuit acts on dimension {2 * m}"
        )
    distance, phase = phase_distance(simulate(circuit), target)
    return VerificationReport(
        distance=distance,
        global_phase=phase,
        passed=distance <= tol.equivalence_tol,
        element_total=element_count(circuit).total,
    )
