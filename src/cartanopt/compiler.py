"""End-to-end pipeline from a unitary matrix to an optical circuit.

One loop over 4x4 cosine-sine (CSD) levels does the work for both
sizes (_elements).  A 4x4 input is one such Cartan level: local gates
around a central layer of two PBSs enclosing one HWP per arm.  An 8x8
input first takes one CSD level at the 4+4 spatial split, whose central
layer is two PBS-HWP-HWP-PBS gadgets across mode pairs (a1,a3) and
(a2,a4), and whose four 4x4 blocks are the loop's levels.  Each level folds
the fixed unit gates that complete its central layer into its halves;
2x2 halves become PS-QWP-HWP-QWP chains.  The budget is therefore 4 x 4
+ 4 = 20 elements for dim 4 and 4 x 20 + 8 = 88 for dim 8.  When every
central angle of a level vanishes and local collapsing is on, the level
emits no central layer and each half is the product of its two gates.
With local collapsing on, a 4x4 level also uses its central layer's
gauge: the gadget commutes with e^{phi X}, X = i(sz (+) -sz), so a
closed-form phi moved from the level's left gates into its right gates
puts one gate on a two-plate chain (_steer).  The 4+4 level's two
gadgets commute likewise with a rotation on their own two modes, which
reaches into the inner gates of all four 4x4 sub-levels, so an 8x8 level
factors its sub-levels before it emits any of them, and one gauge pass
steers each level once and then moves both rotations (_steer_levels): two
more gates take two-plate chains.  A level where no phi pays keeps its
gates and emits each one's shortest chain, so it carries no zero-angle
plate for the peephole pass to drop.  Where a level's CSD angles are
special, more of its factors are free, and with local collapsing on the
level spends that too: equal angles free a whole basis, which makes one
right block the identity (_equal_angles; a 2x2 product takes 15 elements,
not 17, and a 2x4 product drops a sub-level), and at a 4x4 level an angle
at 0 or pi/2 frees one phase per angle between two gates (_free_phases;
the built-in walk and Fourier targets take 10 and 11 elements in ps).
Haar inputs have no such level.  Last, the emission's phases are swept
through its plates and PBSs (circuit._sweep_if_shorter), so on a Haar
input the peephole pass has nothing left to remove.  Optimized, a generic
input then takes 18 elements at dim 4 and 76 at dim 8.

Also ships the built-in walk and Fourier targets and their hand-drawn
factorizations as transcription fixtures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from . import __version__
from .cartan import _D_SX, decompose, decompose_m4
from .circuit import OpticalCircuit, _sweep_if_shorter, chain_elements, hwp, optimize, pbs
from .dof import DofConvention
from .lie import SX, SY, SZ
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _as_square,
    _identity,
    _not_unitary,
    dump_matrix,
    is_unitary,
)
from .simulate import VerificationReport, verify
from .waveplates import (
    _chain_params,
    _fewest_plates,
    _full_chain,
    _su2,
    _synthesize,
    _three_plates,
    synthesize_u2,
)

# Element counts of the hand-drawn reference circuits for the built-in
# targets, keyed by (target name, convention tag).  The optimized compile
# is at or below each (walk/ps 10, qft/ps 11, walk/sp 10, qft/sp 17,
# pinned in tests/test_degenerate_levels.py); the CLI prints them beside it.
HAND_COUNTS = {
    ("walk", "ps"): 11,
    ("qft", "ps"): 12,
    ("walk", "sp"): 12,
    ("qft", "sp"): 19,
}


@dataclasses.dataclass(frozen=True)
class CompileOptions:
    """Knobs for the compile entry points.

    optimize lets a CSD level whose central angles all vanish skip its
    central layer, lets every other level spend the basis its CSD leaves
    free at equal angles, and a 4x4 level at degenerate angles too, lets
    each 4x4 level move its central layer's gauge between its gates to
    shorten one chain, or else emit each gate's shortest chain, lets the
    4+4 level move its two gadgets' gauges into the 4x4 levels' gates,
    sweeps the emitted phases when that is shorter, and runs the peephole
    pass on the result, which removes nothing from a Haar compile.  With
    optimize off none of these runs, and the circuit is the full 20- or
    88-element template, every plate kept even at angle zero.
    The verification report is always computed; whether a failed one is
    an error is the caller's decision.  optimize must be a bool (Python
    or numpy) and tolerances a ToleranceConfig; anything else, such as
    the string "no" or a bare float, is a ValueError.
    """

    convention: object
    optimize: bool = False
    tolerances: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "convention", DofConvention(self.convention))
        if not isinstance(self.optimize, (bool, np.bool_)):
            raise ValueError(f"optimize must be a bool, got {self.optimize!r}")
        if not isinstance(self.tolerances, ToleranceConfig):
            raise ValueError(f"tolerances must be a ToleranceConfig, got {self.tolerances!r}")


# Fixed unit gates completing the central-layer identity, folded into
# the adjacent single-qubit gates.  PS convention: the central block
# equals (bL1, bL2-embedded) . PBS . HWPs . PBS . (bR1, bR2-embedded);
# SP convention has the same shape with both left corrections equal and
# no right correction.
_PS_BOOKEND_L = (1j * SX, SZ.astype(complex))
_PS_BOOKEND_R = (-1j * SY, -1j * np.eye(2))
_SP_BOOKEND_L = np.diag([-1j, 1j])

# Corrections folding the 8x8 cosine-sine central factor into the two
# pair gadgets: CS = Xswap . diag(dL) . G . diag(dR) . Xswap, with the
# outer factors absorbed into the neighboring 4x4 blocks.
_SXSX = np.kron(np.eye(2), SX).astype(complex)
_M4_DL_TOP = np.diag([-1j, 1j, -1j, 1j])
_M4_DR_BOT_SXSX = np.diag([-1.0 + 0j, 1.0, -1.0, 1.0]).dot(_SXSX)


def _gadget(i: int, j: int, a: float, b: float) -> list:
    """PBS-HWP-HWP-PBS across modes i and j realizing mixing angles a and b."""
    return [pbs(i, j), hwp(i, a / 2.0), hwp(j, b / 2.0), pbs(i, j)]


# The central gadget on modes (m, m+1) commutes with X = i(sz (+) -sz) for
# every pair of HWP angles, so a 4x4 level may move e^{phi X} from its left
# gates into its right gates: L_k -> L_k e^{i s_k phi sz} and R_k ->
# e^{-i s_k phi sz} R_k, with s_k = +1 on mode m and -1 on mode m+1.  Per
# gate in the order R0, R1, L0, L1: the sign of phi in the angle t of its
# factor e^{i t sz}, and whether that factor multiplies on the right.
_GAUGE = ((-1.0, False), (1.0, False), (1.0, True), (-1.0, True))


def _rotate_z(q: tuple, c: float, s: float, on_right: bool) -> tuple:
    """Quaternion of V e^{i t sz} if on_right, else of e^{i t sz} V, for c, s = cos t, sin t."""
    w, x, y, z = q
    if on_right:
        return w * c - z * s, x * c - y * s, y * c + x * s, z * c + w * s
    return w * c - z * s, x * c + y * s, y * c - x * s, z * c + w * s


def _qwp_hwp_root(q: tuple, on_right: bool) -> float:
    """A t at which _rotate_z(q, cos t, sin t, on_right) is a QWP-HWP product.

    That form is hypot(w', y') = 1/sqrt 2 (waveplates._branch_gaps), and
    hypot(w', y')^2 = 1/2 + A cos 2t - B sin 2t with A = (w^2 + y^2 - x^2 -
    z^2) / 2 and B = wz -+ xy (- when the factor multiplies on the right).
    Its mean over t is 1/2, so the roots 2t = atan2(A, B) and that plus pi
    are real; this returns the first, the one _steer tries (t + pi/2, the
    second, was never the one taken on any level tried).
    """
    w, x, y, z = q
    b = w * z - x * y if on_right else w * z + x * y
    return 0.5 * math.atan2(0.5 * (w * w + y * y - x * x - z * z), b)


# The order in which _steer's gates propose their phi: a 4x4 level alone,
# and a right sub-level of a dim-8 compile, tries R0 and R1 first; a left
# sub-level tries L0 and L1 first, the gates that the 4+4 gauge leaves alone.
_RIGHT_FIRST = (0, 1, 2, 3)
_LEFT_FIRST = (2, 3, 0, 1)


def _steer(
    splits: list, a_tol: float, order: tuple = _RIGHT_FIRST, base: list | None = None
) -> tuple:
    """(splits, plates) of four gates, after a gauge rotation where one pays.

    Takes the _su2 splits of gates that a gauge moves with the signs and
    sides of _GAUGE: a level's R0, R1, L0, L1, or the four gates of a 4+4
    gadget (_steer_levels).  A gate's plates are those of its first short
    form within angle_tol, 3 if none is; `base` gives them where the
    caller has them.  Each gate with 3 plates in turn, in `order`,
    proposes the phi of its first _qwp_hwp_root; the first phi that gives
    the four rotated gates strictly fewer plates than the unrotated ones
    is taken; where none is, the gates come back as they were, with the
    plates counted.  A gate that already has a short form proposes nothing:
    the QWP-HWP form it would be moved onto has two plates, so its phi
    could pay only through a coincidence in the other gates, and a level
    of short gates, such as a permutation's, would try every candidate in
    vain.  A rotation has determinant 1, so each delta stays.
    """
    quats = [sp[1:] for sp in splits]
    if base is None:
        base = [_fewest_plates(*q, a_tol) for q in quats]
    fewest = sum(base)
    for i in order:
        if base[i] < 3:
            continue
        sign, on_right = _GAUGE[i]
        phi = sign * _qwp_hwp_root(quats[i], on_right)
        c, s = math.cos(phi), math.sin(phi)
        rotated = [_rotate_z(q, c, g * s, r) for q, (g, r) in zip(quats, _GAUGE)]
        plates = [_fewest_plates(*q, a_tol) for q in rotated]
        if sum(plates) < fewest:
            return [(sp[0], *q) for sp, q in zip(splits, rotated)], plates
    return list(splits), base


def _chains(splits: list, plates: list, a_tol: float) -> list:
    """Each gate's shortest chain, from its split and its plates as _steer counted them.

    A gate counted at 3 plates has no short form, so it goes straight to
    the full chain without its gaps being taken again.
    """
    return [
        _three_plates(_chain_params(*sp), *sp[1:], a_tol) if k == 3 else _synthesize(*sp, a_tol)
        for sp, k in zip(splits, plates)
    ]


def _steer_levels(levels: list, a_tol: float) -> list:
    """(splits, plates) of each _level4 level after its gauges, None for a collapsed level.

    A 4x4 level alone, and each level of a collapsed 8x8 level, steers its
    own gauge (_steer), R0 and R1 first.  Otherwise the levels are the four
    4x4 sub-levels, right-top, right-bottom, left-top, left-bottom.  The
    4+4 level's gadget on modes (a1, a3) commutes with e^{phi X} on those
    two modes, as a 4x4 level's gadget does on its own, and the gadget on
    (a2, a4) with e^{psi X}.  Moving e^{phi X} from the left blocks into
    the right ones multiplies L0 of each right sub-level on the left and
    R0 of each left sub-level on the right, with the signs and sides of
    _GAUGE taken in the sub-level order above; psi does the same through
    L1 and R1.  So where none of the four collapsed, each sub-level first
    steers its own gauge onto a gate that the 4+4 gauge leaves alone
    (_RIGHT_FIRST, _LEFT_FIRST), and then _steer picks each gadget's phi
    from its four gates, the left sub-levels' first, with the plates their
    sub-levels' steering counted.  Each level steers once.  On a Haar input
    the left-top R0 and R1 propose first, and their phi and psi are taken.
    """
    gauge = len(levels) == 4 and all(lv[2] is not None for lv in levels)
    states = [
        None if c is None else _steer(sp, a_tol, _LEFT_FIRST if gauge and i > 1 else _RIGHT_FIRST)
        for i, (_, sp, c) in enumerate(levels)
    ]
    if gauge:
        for k in (0, 1):
            gates = (2 + k, 2 + k, k, k)
            splits = [st[0][i] for st, i in zip(states, gates)]
            plates = [st[1][i] for st, i in zip(states, gates)]
            for st, i, sp, p in zip(states, gates, *_steer(splits, a_tol, _LEFT_FIRST, plates)):
                st[0][i], st[1][i] = sp, p
    return states


# Where a level's CSD angles are special, the CSD pins more than it must:
# K A K' is not unique (N. Khaneja and S. J. Glaser, Chem. Phys. 267, 11
# (2001)).  With optimize on, _elements spends that freedom on its gates'
# chains: _equal_angles when a level's angles are equal, _free_phases
# where a 4x4 level's angle has a vanishing sine or cosine.  Either
# replaces the level's CSD short-cut in linalg.ToleranceConfig's budget: a
# level that takes the short-cut has no angle left to snap or phase to choose.


def _equal_angles(left, right, angles: tuple, fold, a_tol: float):
    """A CSD level's blocks and angles with its first right block moved into its left blocks.

    The blocks are a 4x4 level's gates or the 4+4 level's 4x4 blocks.  When
    all the angles lie within angle_tol of each other and strictly inside
    (0, pi/2), C and S are multiples of I, so blkdiag(Q, Q) commutes with
    the central factor for every unitary Q: V_k -> V_k Q, W_k -> Q^dag W_k,
    and Q = W1 makes W1 the identity.  Through a fold F of the second blocks
    (cartan.decompose) Q_1 = F Q F^dag takes the place of Q: fold is None
    for F = I (the 4+4 level, and PS) and cartan._D_SX in SP.  Each of the n
    angles becomes their mean, a move of at most (n - 1) / n angle_tol.  Any
    other level comes back as it was.  (An angle at 0 or pi/2 is left to
    _free_phases: there, taking Q = W1 lengthens some permutations.)
    """
    lo, hi = min(angles), max(angles)
    # the smallest angle has the smallest sine and the largest the smallest cosine
    if hi - lo > a_tol or math.sin(lo) <= a_tol or math.cos(hi) <= a_tol:
        return left, right, angles
    Q = right[0]
    Q1 = Q if fold is None else fold.dot(Q).dot(fold.T)
    mean = sum(angles) / len(angles)
    left = (left[0].dot(Q), left[1].dot(Q1))
    return left, (_identity(len(Q)), Q1.conj().T.dot(right[1])), (mean,) * len(angles)


def _phase_rotated(split: tuple, u: float, t: float, on_right: bool) -> tuple:
    """The _su2 split of e^{iu} V e^{i t sz} if on_right, else of e^{iu} e^{i t sz} V.

    Takes V's split.  The phase is brought back into _su2's range [-pi/2,
    pi/2], the quaternion changing sign when the phase moves by an odd
    multiple of pi, so _synthesize gets the split that _su2 of the product
    would give: a phase of pi there would be a PS that a plate's sign
    carries for free.
    """
    d, *q = split
    q = _rotate_z(q, math.cos(t), math.sin(t), on_right)
    d += u
    delta = math.remainder(d, math.pi)
    if round((d - delta) / math.pi) % 2:
        q = tuple(-v for v in q)
    return (delta, *q)


def _free_phases(splits: list, angles, conv: DofConvention, a_tol: float) -> list:
    """The _su2 splits of R0, R1, L0, L1 once the level's degenerate angles take their free phase.

    Where the sine of CSD angle i is within angle_tol, the V2 column and
    the W2 row of index i have a free relative phase; where its cosine is,
    the V2 column and the W1 row (linalg._cosine_sine pins it only below
    rounding).  Through the convention's folds and bookends that column is
    L1's column c, c = i in PS and 1 - i in SP, and the row is R1's row c
    (sine) or R0's row 1 - c (cosine).  Moving the phase e^{2iu} between
    them multiplies L1 on the right and that R gate on the left by
    e^{+-iu} e^{+-iu sz}: a rotation of _rotate_z, as _steer's gauge, plus a
    phase u moved from one gate to the other.  Each free phase is taken in
    closed form, as the one of 0 and the four rotations that zero one
    component of the R gate's quaternion that leaves that gate the fewest
    plates, 0 on a tie.  The choices stand only when the four gates then
    have strictly fewer plates.  A choice moves the product by at most
    twice the sine or cosine, at most 2 angle_tol.
    """
    moved, fewer = list(splits), 0
    for i, angle in enumerate(angles):
        sine = math.sin(angle) <= a_tol
        if not sine and math.cos(angle) > a_tol:
            continue
        c = i if conv is DofConvention.PS else 1 - i
        k, r = (1, c) if sine else (0, 1 - c)
        q = moved[k][1:]
        w, x, y, z = q
        # R_k's left factor is e^{-iu} e^{i t sz} with t = (2r - 1) u; these
        # t zero w, z, x and y in turn, and a dict counts each t once
        roots = (0.0, math.atan2(w, z), math.atan2(-z, w), math.atan2(-x, y), math.atan2(y, x))
        plates = {
            t: _fewest_plates(*_rotate_z(q, math.cos(t), math.sin(t), False), a_tol) for t in roots
        }
        t = min(plates, key=plates.get)
        if t:
            fewer += plates[0.0] - plates[t]
            u = (2 * r - 1) * t
            moved[k] = _phase_rotated(moved[k], -u, t, False)
            # and L1's right factor e^{iu} e^{i t sz} with t = (1 - 2c) u
            moved[3] = _phase_rotated(moved[3], u, (1 - 2 * c) * u, True)
    if not fewer:
        return splits
    # L0 never moves, and R0 and R1 have `fewer` plates fewer than before
    grown = _fewest_plates(*moved[3][1:], a_tol) - _fewest_plates(*splits[3][1:], a_tol)
    return moved if fewer > grown else splits


def _level4(U: np.ndarray, conv: DofConvention, tol: ToleranceConfig, collapse: bool):
    """A 4x4 level factored and not yet emitted: (f, gates, central).

    gates are the _su2 splits of R0, R1, L0, L1 after the bookend folds,
    and central the angles of the level's gadget.  With collapse set, the
    level has first spent what its CSD leaves free at equal or degenerate
    angles (_equal_angles, _free_phases).  When collapse is set and the
    level skipped its CSD split (cartan._csd_level found it block-diagonal,
    so both angles are zero), central is None and gates are the shortest
    chains of L0 R0 and L1 R1.
    """
    f = decompose(U, conv, tol)
    left, right, angles = f.left_gates, f.right_gates, (f.theta1, f.theta2)
    if collapse and not any(angles):
        return f, [synthesize_u2(left[k].dot(right[k]), tol) for k in (0, 1)], None
    if collapse:
        fold = None if conv is DofConvention.PS else _D_SX
        left, right, angles = _equal_angles(left, right, angles, fold, tol.angle_tol)
    if conv is DofConvention.PS:
        left = (left[0].dot(_PS_BOOKEND_L[0]), left[1].dot(_PS_BOOKEND_L[1]))
        right = (_PS_BOOKEND_R[0].dot(right[0]), _PS_BOOKEND_R[1].dot(right[1]))
        central = (angles[0], angles[1])
    else:
        left = (left[0].dot(_SP_BOOKEND_L), left[1].dot(_SP_BOOKEND_L))
        central = (angles[1], angles[0])
    splits = [_su2(g) for g in (*right, *left)]
    if collapse:
        splits = _free_phases(splits, angles, conv, tol.angle_tol)
    return f, splits, central


def _elements(U: np.ndarray, conv: DofConvention, tol: ToleranceConfig, collapse: bool):
    """Element list realizing an n x n unitary (n = 4 or 8), and its top factorization.

    One loop over a list of 4x4 levels serves both sizes: a 4x4 input is a
    list of one level and no central layer; an 8x8 input takes one CSD
    level first, and its list is the four folded 4x4 blocks, right-top,
    right-bottom, left-top, left-bottom, with the 4+4 level's two gadgets
    emitted before the third; with collapse set, equal 4+4 angles make
    the first the identity (_equal_angles).  When collapse is set and the
    8x8 level skipped its CSD split, the list is the two products of each
    half's left and right blocks, and there is no 4+4 central layer.  Each
    level is factored (_level4) before any is emitted, so that with
    collapse set one gauge pass (_steer_levels) can move each 4x4 level's
    own central layer's gauge between its gates where that shortens their
    chains, and the 4+4 level's gauge across the gates of four sub-levels
    at once; each gate then takes its shortest chain from the plates that
    pass counted (_chains).  With collapse off every 2x2 gate is a full
    PS-QWP-HWP-QWP chain, every plate kept even at angle zero.  Level i is
    emitted as R0, R1, its gadget, L0, L1 on modes 2 (i mod 2) and the
    next; a collapsed level emits its two products.
    """
    a_tol = tol.angle_tol
    f, central = None, []
    if U.shape[0] == 4:
        blocks = [U]
    else:
        f = decompose_m4(U, tol)
        left, right, angles = f.left_blocks, f.right_blocks, f.angles
        if collapse:
            left, right, angles = _equal_angles(left, right, angles, None, a_tol)
        if collapse and not any(angles):
            blocks = [left[0].dot(right[0]), left[1].dot(right[1])]
        else:
            blocks = [right[0], _M4_DR_BOT_SXSX.dot(right[1])]
            blocks += [left[0].dot(_M4_DL_TOP), 1j * left[1].dot(_SXSX)]
            t1, t2, t3, t4 = angles
            central = _gadget(0, 2, t2, t1) + _gadget(1, 3, t4, t3)
    levels = [_level4(b, conv, tol, collapse) for b in blocks]
    states = _steer_levels(levels, a_tol) if collapse else None
    els = []
    for i, (_, gates, sub_central) in enumerate(levels):
        if i == 2:
            els += central
        if sub_central is None:
            chains = gates
        elif not collapse:
            chains = [_full_chain(*_chain_params(*sp)) for sp in gates]
        else:
            chains = _chains(*states[i], a_tol)
        m = 2 * (i % 2)
        els += chain_elements(chains[0], m) + chain_elements(chains[1], m + 1)
        if sub_central is not None:
            els += _gadget(m, m + 1, *sub_central)
            els += chain_elements(chains[2], m) + chain_elements(chains[3], m + 1)
    return els, levels[0][0] if f is None else f


def _compile(U, opts: CompileOptions) -> tuple[OpticalCircuit, VerificationReport]:
    """Validate a 4x4 or 8x8 unitary, compile it, sweep and optimize if asked, and verify."""
    U = _as_square(U)
    n = U.shape[0]
    if n not in (4, 8):
        raise ValueError(f"compile expects a 4x4 or 8x8 matrix, got shape {U.shape}")
    if n == 8 and opts.convention is not DofConvention.SP:
        raise ValueError("four-mode compilation supports the SP convention only")
    tol = opts.tolerances
    if not is_unitary(U, tol):
        raise _not_unitary("compile", U)
    els, f = _elements(U, opts.convention, tol, opts.optimize)
    if opts.optimize:
        # no peephole rule fires on an optimized emission before its sweep,
        # so sweeping here leaves optimize's output unchanged
        swept = _sweep_if_shorter(els, tol.angle_tol)
        els = els if swept is None else swept
    if n == 4:
        angles = {"theta1_rad": f"{f.theta1:.17g}", "theta2_rad": f"{f.theta2:.17g}"}
    else:
        angles = {"thetas_rad": ",".join(f"{t:.17g}" for t in f.angles)}
    circuit = OpticalCircuit(
        convention=opts.convention,
        num_spatial_modes=n // 2,
        elements=tuple(els),
        metadata={
            "source_sha256": hashlib.sha256(dump_matrix(U).encode()).hexdigest(),
            **angles,
            "compiler_version": __version__,
        },
    )
    if opts.optimize:
        # nothing left to remove on a Haar input, where optimize returns the
        # circuit it was given, but it stays: it still shortens a few
        # structured inputs by resynthesis after the sweep, and the
        # benchmark's per-layer tracer requires its calls
        circuit = optimize(circuit, tol)
    return circuit, verify(circuit, U, tol)


def compile(U, opts: CompileOptions) -> tuple[OpticalCircuit, VerificationReport]:
    """Compile a 4x4 unitary (<= 20 elements) or an 8x8 one in SP (<= 88) to a circuit."""
    return _compile(U, opts)


def compile_m4(U, opts: CompileOptions) -> tuple[OpticalCircuit, VerificationReport]:
    """compile, for 8x8 input only."""
    if np.shape(U) != (8, 8):
        raise ValueError(f"compile_m4 expects 8x8 input, got shape {np.shape(U)}")
    return _compile(U, opts)


_WALK = 0.5 * np.array(
    [
        [-1, 1, 1, 1],
        [1, -1, 1, 1],
        [1, 1, -1, 1],
        [1, 1, 1, -1],
    ],
    dtype=complex,
)

_QFT = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, 1j, -1, -1j],
        [1, -1, 1, -1],
        [1, -1j, -1, 1j],
    ]
)


def builtin_target(name: str, convention) -> np.ndarray:
    """The built-in walk and Fourier matrices.

    The convention tags the basis labeling only; the entries are the
    same either way.
    """
    DofConvention(convention)
    if name == "walk":
        return _WALK.copy()
    if name == "qft":
        return _QFT.copy()
    raise ValueError(f"unknown target {name!r} (expected 'walk' or 'qft')")


def reference_decompositions() -> dict:
    """Hand-written factor lists for the four worked examples, as data.

    Each value multiplies out left-to-right to its target matrix; these
    are transcription fixtures for validating matrix conventions, not
    computed decompositions.  Central factors appear in their expanded
    five-element form (bookend, PBS, plates, PBS) where the source
    writes them that way.
    """
    s8, c8 = math.sin(math.pi / 8), math.cos(math.pi / 8)
    s38, c38 = math.sin(3 * math.pi / 8), math.cos(3 * math.pi / 8)
    rt2 = math.sqrt(2.0)
    pbs_ps = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    pbs_sp = np.array(
        [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    f23 = np.array(
        [[0, 0, 1j, 0], [0, 1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, -1j]]
    )
    f40 = np.array(
        [[0, 1j, 0, 0], [1j, 0, 0, 0], [0, 0, 1j, 0], [0, 0, 0, -1j]]
    )
    f42 = np.zeros((4, 4), dtype=complex)
    f42[:2, :2] = [[1j * c8, 1j * s8], [1j * s8, -1j * c8]]
    f42[2:, 2:] = [[1j * c38, 1j * s38], [1j * s38, -1j * c38]]
    g1 = np.diag([-1j, 1j, -1j, 1j])
    m22a = np.array(
        [[-1, 0, -1, 0], [0, -1, 0, -1], [1, 0, -1, 0], [0, -1, 0, 1]], dtype=complex
    )
    m22c = np.array(
        [[-1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, -1]], dtype=complex
    )
    m26a = np.array(
        [[-1, 0, -1, 0], [0, -1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1]], dtype=complex
    )
    m26c = np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, -1j, 0, 1j]]
    )
    m39a = np.array(
        [[-1, -1, 0, 0], [1, -1, 0, 0], [0, 0, -1, -1], [0, 0, -1, 1]], dtype=complex
    )
    m39c = np.array(
        [[1, -1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]], dtype=complex
    )
    b = np.zeros((4, 4), dtype=complex)
    b[:2, :2] = [[1j * s8 - c8, -s8 - 1j * c8], [c8 + 1j * s8, s8 - 1j * c8]]
    b[2:, 2:] = [[c8 - 1j * s8, -s8 - 1j * c8], [-c8 - 1j * s8, s8 - 1j * c8]]
    m41c = np.array(
        [
            [-1j, (1j - 1) / rt2, 0, 0],
            [1j, (1j - 1) / rt2, 0, 0],
            [0, 0, 1, -(1j + 1) / rt2],
            [0, 0, -1, -(1j + 1) / rt2],
        ]
    )
    return {
        "walk_ps": [m22a, pbs_ps, f23, pbs_ps, 0.5j * m22c],
        "qft_ps": [m26a, pbs_ps, f23, pbs_ps, 0.5j * m26c],
        "walk_sp": [m39a, g1, pbs_sp, f40, pbs_sp, 0.5 * m39c],
        "qft_sp": [b, g1, pbs_sp, f42, pbs_sp, 0.5 * m41c],
    }
