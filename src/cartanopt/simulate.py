"""Element-level circuit simulation on the single-photon state space.

The circuit's unitary on the full 2m-dimensional space (m spatial
modes, 2 polarizations) is built by row updates in spatial-major index
order, where mode k owns rows 2k (H) and 2k+1 (V): a PBS swaps the H
rows of its two modes and leaves every V row alone; a plate or phase
shifter left-multiplies its mode's two rows by its 2x2 matrix.  A
polarization-major circuit is permuted once at the end (dof.PS_TO_SP_IX).
Each mode's two rows are their own 2 x 2m array, which a plate replaces
by P.dot(rows), every P from one _plate_stack call fed by the same walk
over the elements that lists the ops, and a PBS swaps H rows through one
row copy: no per-call dispatch of @ or of fancy indexing, and the bits
of the @ version (see the note in linalg).
element_unitary gives one element's dense embedding in either
convention, the reference the row updates must agree with.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .circuit import OpticalCircuit, OpticalElement
from .dof import PS_TO_SP_IX, DofConvention
from .linalg import DEFAULT_TOL, ToleranceConfig, _as_square, phase_distance
from .waveplates import PLATE_MATRIX, _plate_stack


def element_unitary(e: OpticalElement, convention, m: int) -> np.ndarray:
    """Full-space unitary of one element on m (2 or 4) modes, in the convention's order."""
    conv = DofConvention(convention)
    if m not in PS_TO_SP_IX:
        raise ValueError(f"m must be 2 or 4 spatial modes, got {m}")
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
        M = M[PS_TO_SP_IX[m]]
    return M


def simulate(circuit: OpticalCircuit) -> np.ndarray:
    """Product of the element unitaries, first element applied first."""
    m = circuit.num_spatial_modes
    # each element's op: a plate's mode, or a PBS's mode pair
    ops, plates = [], []
    for e in circuit.elements:
        if e.kind == "pbs":
            ops.append(e.modes)
        else:
            ops.append(e.modes[0])
            plates.append((e.kind, e.angle_rad))
    stack = iter(_plate_stack(plates))
    # rows[k] holds mode k's (H, V) rows of the product so far
    rows = list(np.eye(2 * m, dtype=complex).reshape(m, 2, 2 * m))
    for op in ops:
        if op.__class__ is int:
            rows[op] = next(stack).dot(rows[op])
        else:
            a, b = rows[op[0]], rows[op[1]]
            h = a[0].copy()
            a[0] = b[0]
            b[0] = h
    M = np.concatenate(rows)
    if circuit.convention is DofConvention.PS:
        M = M[PS_TO_SP_IX[m]]
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
        element_total=len(circuit.elements),
    )
