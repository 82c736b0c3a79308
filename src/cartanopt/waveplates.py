"""Closed-form wave-plate matrices and exact single-qubit chain synthesis.

Any 2x2 unitary splits as a global phase times an SU(2) element, and the
SU(2) part factors through two quarter-wave plates around one half-wave
plate.  The synthesis here is closed form: writing V = w I + i(x sx +
y sy + z sz), the product e^{i d} Q(q1) H(h) Q(q2) has quaternion
components

    w = -cos M cos N,   y =  sin M cos N,
    x =  cos K sin N,   z = -sin K sin N,

with M = q1 - q2, K = q1 + q2, N = 2h - K (all in doubled-angle units),
which inverts by two arctangents.  synthesize_u2 is the one place that
decides a chain's length: it emits a shorter chain whenever the target
is a phase, one plate times a phase, or two plates times a phase, each
recognized by a closed-form gap of the quaternion (_branch_gaps), and
the optimizer's whole-run screen (_may_shrink) reads the same gaps.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, _mul2, _not_unitary, is_unitary

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


def _plate_stack(plates) -> np.ndarray:
    """The 2x2 matrices of (kind, angle) plates as one (n, 2, 2) array.

    Entry for entry PLATE_MATRIX[kind](angle), built in one np.array call.
    """
    entries = [_plate_entries(kind, angle) for kind, angle in plates]
    return np.array(entries, dtype=complex).reshape(-1, 2, 2)


_I2 = np.eye(2, dtype=complex)
_I2.flags.writeable = False


def chain_matrix(plates) -> np.ndarray:
    """Ordered product of (kind, angle) plates, first plate applied first.

    The empty chain is the identity.  The plates come from one
    _plate_stack and fold onto the identity by left .dot products, the
    same zgemm calls and bits as multiplying PLATE_MATRIX entries with @.
    """
    M = _I2
    for P in _plate_stack(plates):
        M = P.dot(M)
    return M.copy() if M is _I2 else M


def _canon_plate(angle: float) -> float:
    """Wave-plate action is pi-periodic in the fast-axis angle."""
    a = math.fmod(angle, math.pi)
    return a + math.pi if a < 0 else a + 0.0


def _canon_phase(angle: float) -> float:
    a = math.fmod(angle, _TWO_PI)
    return a + _TWO_PI if a < 0 else a + 0.0


def _su2(U: np.ndarray) -> tuple[float, float, float, float, float]:
    """(delta, w, x, y, z) with U = e^{i delta} (w I + i(x sx + y sy + z sz)), in SU(2).

    The determinant is formed on Python complex, which rounds as numpy's
    scalar product does; V = U e^{-i delta} stays one numpy multiply,
    whose SIMD loop may fuse multiply and add and so round otherwise.
    """
    (a, b), (c, d) = U.tolist()
    det = a * d - b * c
    delta = math.atan2(det.imag, det.real) / 2.0
    (va, vb), _ = (U * np.exp(-1j * delta)).tolist()
    return delta, va.real, vb.imag, vb.real, va.imag


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


# plates of each short form of synthesize_u2, in its order: a scalar, HWP,
# QWP, then in application order HWP-HWP, QWP-HWP and QWP-QWP
_FORM_PLATES = (0, 1, 1, 2, 2, 2)


def _branch_gaps(w: float, x: float, y: float, z: float) -> tuple[float, ...]:
    """Distances of a quaternion from the short forms of synthesize_u2.

    One gap per entry of _FORM_PLATES; a form is taken when its gap is
    <= angle_tol.  With r = hypot(w, y), a product of two plates in
    application order satisfies
        HWP-HWP:  r = 1 (x = z = 0, a rotation about y)
        QWP-HWP:  r = 1/sqrt 2 (as does every HWP-QWP product)
        QWP-QWP:  w = r^2 with w >= 0: (w, y) on the circle of radius 1/2
                  about (1/2, 0)
    The QWP-QWP entry is the distance of (w, y) from that circle, a lower
    bound: _qq_fit measures the distance itself.  Each gap is Euclidean in
    the components its form fixes and invariant under flipping the
    quaternion's sign.  The QWP and QWP-HWP forms also tie hypot(x, z) to
    1/sqrt 2, which their gaps leave out, so a chain taken at one of those
    thresholds can miss U by up to sqrt 2 times angle_tol.  _may_shrink
    reads the same gaps.
    """
    r = math.hypot(w, y)
    return (
        math.sqrt(x * x + y * y + z * z),
        r,
        math.hypot(y, abs(w) - _QWP_W),
        math.hypot(x, z),
        abs(r - _QWP_W),
        abs(math.hypot(abs(w) - 0.5, y) - 0.5),
    )


def _qq_fit(w: float, x: float, y: float, z: float) -> tuple[float, float, float]:
    """(distance, d, k) of the nearest QWP-QWP product to this sign of a quaternion.

    Q(b) Q(a), with d = b - a and k = a + b, has (w, y) = sin d (sin d,
    cos d) and (x, z) = cos d (sin k, cos k).  Writing (w, y) = cos g
    (cos t, sin t) and hypot(x, z) = sin g, the products are the points
    with |t| = g, a surface with a cone point at the identity.  The fit
    moves t and g to one value, nearest in the metric dg^2 + cos^2 g dt^2
    of the sphere, and the distance is measured to the product it lands
    on, so it bounds the error of the chain it gives.
    """
    r = math.hypot(w, y)
    t = math.atan2(y, w)
    g = math.atan2(math.hypot(x, z), r)
    g = (g + r * r * abs(t)) / (1.0 + r * r)
    d = math.copysign(math.pi / 2.0 - g, t)
    k = math.atan2(x, z)
    sd, cd = math.sin(d), math.cos(d)
    gap = math.sqrt(
        (w - sd * sd) ** 2 + (y - sd * cd) ** 2
        + (x - cd * math.sin(k)) ** 2 + (z - cd * math.cos(k)) ** 2
    )
    return gap, d, k


def synthesize_u2(U, tol: ToleranceConfig = DEFAULT_TOL) -> list[tuple[str, float]]:
    """Shortest wave-plate chain realizing U exactly (not just up to phase).

    Returns (kind, angle) pairs in application order: an optional PS
    carrying the determinant phase, then the fewest plates.  The table,
    tried in order, is the identity (the empty chain), a phase, one HWP,
    one QWP, two plates (HWP-HWP, QWP-HWP or QWP-QWP, see _branch_gaps),
    and QWP-HWP-QWP, which is universal for SU(2) (R. Simon and N.
    Mukunda, Phys. Lett. A 143, 165 (1990)).  A two-plate form is taken
    only when its chain, PS counted, is shorter than the three-plate one:
    when only the quaternion's negative is a QWP-QWP product, the PS of
    pi it needs ties with QWP-HWP-QWP whose determinant phase is elided.
    HWP-QWP products are emitted as QWP-HWP, which realizes every one of
    them.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (2, 2):
        raise ValueError(f"synthesize_u2 expects a 2x2 matrix, got {U.shape}")
    if not is_unitary(U, tol):
        raise _not_unitary("synthesize_u2", U)
    a_tol = tol.angle_tol
    delta, w, x, y, z = _su2(U)

    scalar_gap, hwp_gap, qwp_gap, hh_gap, qh_gap, qq_gap = _branch_gaps(w, x, y, z)
    if scalar_gap <= a_tol:
        # scalar: all of U is a phase
        if w < 0.0:
            delta += math.pi
        return _phase_then(delta, a_tol)
    # the PS in front of plates goes when leaving it off moves no entry by
    # more than angle_tol
    p_tol = a_tol / _largest_entry(w, x, y, z)
    if hwp_gap <= a_tol:
        # i times a reflection in the x-z plane: a single half-wave plate
        return _phase_then(delta, p_tol, ("hwp", _canon_plate(math.atan2(x, z) / 2.0)))
    if qwp_gap <= a_tol:
        # a single quarter-wave plate times a phase; the SU(2) factor is
        # only fixed up to sign, so flip into the +w representative
        if w < 0.0:
            delta += math.pi
            x, z = -x, -z
        return _phase_then(delta, p_tol, ("qwp", _canon_plate(math.atan2(x, z) / 2.0)))
    pair = None
    if hh_gap <= a_tol:
        # H(b) H(0) is the rotation by 2b - pi about y
        b = (math.atan2(-y, w) + math.pi) / 2.0
        pair = _phase_then(delta, p_tol, ("hwp", 0.0), ("hwp", _canon_plate(b)))
    elif qh_gap <= a_tol:
        # H(b) Q(a): the HWP sets (x, z), and 2(b - a) is the angle of (-w, y)
        b = math.atan2(x, z) / 2.0
        a = b - math.atan2(y, -w) / 2.0
        pair = _phase_then(delta, p_tol, ("qwp", _canon_plate(a)), ("hwp", _canon_plate(b)))
    elif qq_gap <= a_tol:
        # Q(b) Q(a) on this sign of the quaternion, else with a PS of pi on
        # the other
        for sign, turn in ((1.0, 0.0), (-1.0, math.pi)):
            gap, d, k = _qq_fit(sign * w, sign * x, sign * y, sign * z)
            if gap <= a_tol:
                a, b = (k - d) / 2.0, (k + d) / 2.0
                pair = _phase_then(
                    delta + turn, p_tol, ("qwp", _canon_plate(a)), ("qwp", _canon_plate(b))
                )
                break
    if pair is not None and len(pair) < 3 + (_elide_phase(delta, p_tol) is not None):
        return pair
    (_, phase), *plates = _full_chain(*_chain_params(U))
    return _phase_then(phase, p_tol, *plates)


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


def _largest_entry(w: float, x: float, y: float, z: float) -> float:
    """Largest entry modulus of w I + i(x sx + y sy + z sz).

    Leaving a phase e^{i delta} off moves an entry by at most |delta|
    times this, at least 1/sqrt 2 and at most 1.
    """
    return max(math.hypot(w, z), math.hypot(x, y))


def _may_shrink(plates, a_tol: float) -> bool:
    """Whether a run of plates may have an exact chain shorter than itself.

    The exact chain is synthesize_u2 of the product.  False only when
    that chain surely has at least len(plates) elements: the fewest
    plates of a form within reach (three if none is), plus one when the
    determinant phase surely keeps its PS.  Both read synthesize_u2's own
    tests with each threshold widened to angle_tol + _BOUND_MARGIN, so a
    product near a threshold reads True and goes to the exact path.  A
    form that moves the quaternion's sign into the PS can keep a PS of pi
    that this count leaves out, which only lets more runs through.  A run
    of five or more plates always shrinks and reads True.
    """
    n = len(plates)
    if n > 4:
        return True
    bound = a_tol + _BOUND_MARGIN
    a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j
    for plate in plates:
        a, b, c, d = _mul2(_plate_entries(*plate), (a, b, c, d))
    det = a * d - b * c
    delta = math.atan2(det.imag, det.real) / 2.0
    e = cmath.exp(-1j * delta)
    va, vb = a * e, b * e
    w, x, y, z = va.real, vb.imag, vb.real, va.imag
    # _FORM_PLATES ascends, so the first form within reach has the fewest
    gaps = _branch_gaps(w, x, y, z)
    fewest = next((k for k, gap in zip(_FORM_PLATES, gaps) if gap <= bound), 3)
    # fewest plates behind the PS tie with n elements unless the PS goes
    return fewest < n - 1 or (
        fewest == n - 1 and abs(delta) * _largest_entry(w, x, y, z) <= bound
    )
