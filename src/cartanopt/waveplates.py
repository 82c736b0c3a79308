"""Closed-form wave-plate matrices and exact single-qubit chain synthesis.

Any 2x2 unitary splits as a global phase times an SU(2) element, and the
SU(2) part factors through two quarter-wave plates around one half-wave
plate.  The synthesis here is closed form: writing V = w I + i(x sx +
y sy + z sz), the product e^{i d} Q(q1) H(h) Q(q2) has quaternion
components

    w = -cos M cos N,   y =  sin M cos N,
    x =  cos K sin N,   z = -sin K sin N,

with M = q1 - q2, K = q1 + q2, N = 2h - K (all in doubled-angle units),
which inverts by two arctangents.  Shorter chains are emitted whenever
the target is a phase, a single half-wave plate, or a single
quarter-wave plate times a phase.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, is_unitary, unitarity_residual

_TWO_PI = 2.0 * math.pi
# |w| of a single quarter-wave plate's quaternion
_QWP_W = 1.0 / math.sqrt(2.0)
# how far a closed-form bound must clear each threshold beyond angle_tol: far
# above the ~1e-15 gap between a 2x2 product of at most four plates formed in
# another order and chain_matrix's
_BOUND_MARGIN = 1e-9


def _plate_entries(kind: str, angle: float) -> tuple[complex, complex, complex, complex]:
    """Entries (a, b, c, d) of the plate [[a, b], [c, d]] as Python complex numbers.

    The one table of plate matrices: the *_matrix functions wrap it as
    arrays, and a short loop can multiply the scalars directly.
    """
    if kind == "ps":
        # e^{i angle} on both polarizations
        p = cmath.exp(1j * angle)
        return p, 0j, 0j, p
    c, s = math.cos(2 * angle), math.sin(2 * angle)
    if kind == "hwp":
        # i [[c, s], [s, -c]]
        return 1j * c, 1j * s, 1j * s, -1j * c
    # (I + i [[c, s], [s, -c]]) / sqrt 2
    c, s = c * _QWP_W, s * _QWP_W
    return complex(_QWP_W, c), 1j * s, 1j * s, complex(_QWP_W, -c)


def ps_matrix(theta: float) -> np.ndarray:
    """Phase shifter: e^{i theta} on both polarizations of one path."""
    return np.array(_plate_entries("ps", theta)).reshape(2, 2)


def hwp_matrix(theta: float) -> np.ndarray:
    """Half-wave plate at fast-axis angle theta."""
    return np.array(_plate_entries("hwp", theta)).reshape(2, 2)


def qwp_matrix(theta: float) -> np.ndarray:
    """Quarter-wave plate at fast-axis angle theta."""
    return np.array(_plate_entries("qwp", theta)).reshape(2, 2)


# 2x2 matrix of each single-mode element kind as a function of its angle
PLATE_MATRIX = {"ps": ps_matrix, "hwp": hwp_matrix, "qwp": qwp_matrix}


def chain_matrix(plates) -> np.ndarray:
    """Ordered product of (kind, angle) plates; the empty chain is identity."""
    M = np.eye(2, dtype=complex)
    for kind, angle in plates:
        M = PLATE_MATRIX[kind](angle) @ M
    return M


def _canon_plate(angle: float) -> float:
    """Wave-plate action is pi-periodic in the fast-axis angle."""
    a = math.fmod(angle, math.pi)
    return a + math.pi if a < 0 else a + 0.0


def _canon_phase(angle: float) -> float:
    a = math.fmod(angle, _TWO_PI)
    return a + _TWO_PI if a < 0 else a + 0.0


def _su2(U: np.ndarray) -> tuple[float, float, float, float, float]:
    """(delta, w, x, y, z) with U = e^{i delta} (w I + i(x sx + y sy + z sz)), in SU(2)."""
    det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    delta = math.atan2(det.imag, det.real) / 2.0
    V = U * np.exp(-1j * delta)
    return delta, V[0, 0].real, V[0, 1].imag, V[0, 1].real, V[0, 0].imag


def _chain_params(U: np.ndarray) -> tuple[float, float, float, float]:
    """Full four-plate parameterization of a 2x2 unitary.

    Returns (delta, q_first, h, q_last) with

        U = e^{i delta} . Q(q_last) . H(h) . Q(q_first)

    as a matrix product, i.e. Q(q_first) acts first.  Total and
    numerically self-stabilizing: near-degenerate inputs make one of the
    intermediate arctangents ill-conditioned in a direction the
    reconstruction does not depend on.
    """
    delta, w, x, y, z = _su2(U)
    # hypot(x, z) rather than sqrt(1 - r*r): the latter loses half the
    # significant digits whenever the gate is close to a pure y-rotation.
    r = math.hypot(w, y)
    s = math.hypot(x, z)
    M = math.atan2(-y, w)
    K = math.atan2(-z, x) if s > 0.0 else 0.0
    N = math.atan2(s, -r)
    a_h = N + K
    a_last = K + M
    a_first = K - M
    return delta, a_first / 2.0, a_h / 2.0, a_last / 2.0


def _branch_gaps(w: float, x: float, y: float, z: float) -> tuple[float, float, float]:
    """Distances of a quaternion from the short branches of synthesize_u2.

    In order: a scalar (phase only), a single half-wave plate, a single
    quarter-wave plate.  A branch is taken when its gap is <= angle_tol.
    The gaps are invariant under flipping the quaternion's sign.
    """
    return (
        math.sqrt(x * x + y * y + z * z),
        math.hypot(w, y),
        max(abs(y), abs(abs(w) - _QWP_W)),
    )


def _imag_gap(a: complex, b: complex, c: complex, d: complex) -> float:
    """Largest imaginary part of [[a, b], [c, d]]; the rotation pair needs it <= angle_tol."""
    return max(abs(a.imag), abs(b.imag), abs(c.imag), abs(d.imag))


def synthesize_u2(U, tol: ToleranceConfig = DEFAULT_TOL) -> list[tuple[str, float]]:
    """Shortest wave-plate chain realizing U exactly (not just up to phase).

    Returns (kind, angle) pairs in application order: an optional PS
    carrying the determinant phase, then at most QWP, HWP, QWP; plates
    that a shorter realization does not need are omitted.  The identity
    yields the empty chain.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (2, 2):
        raise ValueError(f"synthesize_u2 expects a 2x2 matrix, got {U.shape}")
    if not is_unitary(U, tol):
        raise ValueError(
            f"synthesize_u2 requires a unitary input (residual {unitarity_residual(U):.3e})"
        )
    a_tol = tol.angle_tol
    delta, w, x, y, z = _su2(U)

    scalar_gap, hwp_gap, qwp_gap = _branch_gaps(w, x, y, z)
    if scalar_gap <= a_tol:
        # scalar: all of U is a phase
        if w < 0.0:
            delta += math.pi
        return _phase_then(delta, a_tol)
    if hwp_gap <= a_tol:
        # i times a reflection in the x-z plane: a single half-wave plate
        return _phase_then(delta, a_tol, ("hwp", _canon_plate(math.atan2(x, z) / 2.0)))
    if qwp_gap <= a_tol:
        # a single quarter-wave plate times a phase; the SU(2) factor is
        # only fixed up to sign, so flip into the +w representative
        if w < 0.0:
            delta += math.pi
            x, z = -x, -z
        return _phase_then(delta, a_tol, ("qwp", _canon_plate(math.atan2(x, z) / 2.0)))
    (_, phase), *plates = _full_chain(*_chain_params(U))
    return _phase_then(phase, a_tol, *plates)


def _full_chain(delta: float, q_first: float, h: float, q_last: float) -> list[tuple[str, float]]:
    """PS, QWP, HWP, QWP for _chain_params output, angles canonical, none left out."""
    plates = [("qwp", q_first), ("hwp", h), ("qwp", q_last)]
    return [("ps", _canon_phase(delta))] + [(k, _canon_plate(a)) for k, a in plates]


def _phase_then(delta: float, a_tol: float, *plates) -> list[tuple[str, float]]:
    """A PS of angle delta, unless it is the identity, followed by the plates."""
    a = _elide_phase(delta, a_tol)
    return list(plates) if a is None else [("ps", a), *plates]


def _elide_phase(angle: float, a_tol: float) -> float | None:
    a = _canon_phase(angle)
    if min(a, _TWO_PI - a) <= a_tol:
        return None
    return a


def _rotation_pair(M: np.ndarray, a_tol: float):
    """Two half-wave plates for a real rotation M, or None.

    H(a)H(0) equals the rotation by 2a - pi, a form the PS-QWP-HWP-QWP
    chain needs three plates for.
    """
    if _imag_gap(*M.flat) > a_tol:
        return None
    if (M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]).real < 0.0:
        return None
    phi = math.atan2(M[1, 0].real, M[0, 0].real)
    return [("hwp", 0.0), ("hwp", _canon_plate((phi + math.pi) / 2.0))]


def _suffixes_may_shrink(plates, a_tol: float, whole: bool = False) -> list[bool]:
    """For each proper suffix plates[j:], whether it may have a shorter exact chain.

    The exact chain is synthesize_u2 of the product, replaced by
    _rotation_pair when both the suffix and that chain exceed two plates.
    Entry j (j >= 1) is False only when that chain surely has at least
    len(plates) - j plates: the product's quaternion clears every short
    branch, for three or more plates the product is clearly not real,
    and for four its determinant phase clearly keeps the PS.  Each test
    clears its threshold by angle_tol + _BOUND_MARGIN, so a product near
    a threshold reads True and goes to the exact path.  Entry 0, the
    whole sequence, is True unless whole is set, when it is tested like
    the rest; any suffix of five or more plates always shrinks and reads
    True.  One backward pass forms the product of every suffix it tests.
    """
    bound = a_tol + _BOUND_MARGIN
    may = [True] * len(plates)
    a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j
    last = -1 if whole else 0
    for j in range(len(plates) - 1, max(len(plates) - 5, last), -1):
        p, q, r, s = _plate_entries(*plates[j])
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        n = len(plates) - j
        if n == 1:
            # a single plate is never a candidate
            continue
        if n >= 3 and _imag_gap(a, b, c, d) <= bound:
            continue
        det = a * d - b * c
        delta = math.atan2(det.imag, det.real) / 2.0
        if n == 4 and abs(delta) <= bound:
            continue
        e = cmath.exp(-1j * delta)
        va, vb = a * e, b * e
        may[j] = min(_branch_gaps(va.real, vb.imag, vb.real, va.imag)) <= bound
    return may
