"""End-to-end pipeline from a unitary matrix to an optical circuit.

One recursion over cosine-sine (CSD) levels does the work for both
sizes.  A 4x4 input takes one Cartan level: local gates around a
central layer of two PBSs enclosing one HWP per arm.  An 8x8 input
takes one CSD level at the 4+4 spatial split, whose central layer is
two PBS-HWP-HWP-PBS gadgets across mode pairs (a1,a3) and (a2,a4), and
whose four 4x4 halves recurse through the 4x4 level.  Each level folds
the fixed unit gates that complete its central layer into its halves;
2x2 halves become PS-QWP-HWP-QWP chains.  The budget is therefore 4 x 4
+ 4 = 20 elements for dim 4 and 4 x 20 + 8 = 88 for dim 8.  When every
central angle of a level vanishes and local collapsing is on, the level
emits no central layer and each half is the product of its two gates.
With local collapsing on, a 4x4 level also uses its central layer's
gauge: the gadget commutes with e^{phi X}, X = i(sz (+) -sz), so a
closed-form phi moved from the level's left gates into its right gates
puts one gate on a two-plate chain (_steer).  A level where no phi pays
emits each gate's shortest chain, so it carries no zero-angle plate for
the peephole pass to drop.  Last, the emission's phases are swept through
its plates and PBSs (circuit._sweep_if_shorter), so on a Haar input the
peephole pass has nothing left to remove.  Optimized, a generic input then
takes 18 elements at dim 4 and 78 at dim 8.

Also ships the built-in walk and Fourier targets and their hand-drawn
factorizations as transcription fixtures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from . import __version__
from .cartan import decompose, decompose_m4
from .circuit import OpticalCircuit, _sweep_if_shorter, chain_elements, hwp, optimize, pbs
from .dof import DofConvention
from .lie import SX, SY, SZ
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _as_square,
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
    synthesize_u2,
)

# Element counts of the hand-drawn reference circuits for the built-in
# targets, keyed by (target name, convention tag).  Informational only:
# those circuits were optimized by hand beyond the peephole rules.
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
    central layer, lets every other 4x4 level move its central layer's
    gauge between its gates to shorten one chain, or else emit each
    gate's shortest chain, sweeps the emitted phases when that is shorter,
    and runs the peephole pass on the result, which removes nothing from
    a Haar compile.  With optimize off none of these runs, and the
    circuit is the full 20- or 88-element template, every plate kept even
    at angle zero.
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


def _steer(splits: list, a_tol: float) -> list | None:
    """Chains of a level's gates R0, R1, L0, L1 after the gauge rotation, or None.

    Takes the gates' _su2 splits.  A gate's plates are those of its
    first short form within angle_tol, 3 if none is.  Each gate with 3
    plates in turn proposes the phi of its first _qwp_hwp_root; the first
    phi that gives the four rotated gates strictly fewer plates than the
    unrotated ones is taken, and None means that none does.  A gate that
    already has a short form proposes nothing: the QWP-HWP form it would
    be moved onto has two plates, so its phi could pay only through a
    coincidence in the other gates, and a level of short gates, such as a
    permutation's, would try every candidate in vain.  A rotation has
    determinant 1, so each delta stays; a gate that reaches a short form
    takes synthesize_u2's chain, the rest the full chain.
    """
    quats = [sp[1:] for sp in splits]
    base = [_fewest_plates(*q, a_tol) for q in quats]
    fewest = sum(base)
    for q0, k0, (sign, on_right) in zip(quats, base, _GAUGE):
        if k0 < 3:
            continue
        phi = sign * _qwp_hwp_root(q0, on_right)
        c, s = math.cos(phi), math.sin(phi)
        rotated = [_rotate_z(q, c, g * s, r) for q, (g, r) in zip(quats, _GAUGE)]
        plates = [_fewest_plates(*q, a_tol) for q in rotated]
        if sum(plates) < fewest:
            return [
                _synthesize(sp[0], *q, a_tol) if k < 3
                else _full_chain(*_chain_params(sp[0], *q))
                for sp, q, k in zip(splits, rotated, plates)
            ]
    return None


def _elements(
    U: np.ndarray, conv: DofConvention, tol: ToleranceConfig, collapse: bool, mode: int
):
    """Element list realizing an n x n unitary (n = 4 or 8) from spatial mode `mode` on.

    Does one CSD level and returns (elements, factors).  The two halves
    of each side act on modes `mode` and `mode + n/4`: 2x2 halves become
    plate chains, 4x4 halves recurse.  When collapse is set and the level
    skipped its CSD split (cartan._csd_level found it block-diagonal, so
    every central angle is zero), the level emits no central layer and
    each half is its left gate times its right gate, a 2x2 one taking the
    shortest chain.  Otherwise, when collapse is set, a 4x4 level moves
    its central layer's gauge between its gates when that shortens their
    chains (_steer), and when it does not, each gate takes its shortest
    chain.  With collapse off every 2x2 gate is a full PS-QWP-HWP-QWP
    chain, every plate kept even at angle zero.
    """
    n = U.shape[0]
    if n == 4:
        f = decompose(U, conv, tol)
        left, right, angles = f.left_gates, f.right_gates, (f.theta1, f.theta2)
    else:
        f = decompose_m4(U, tol)
        left, right, angles = f.left_blocks, f.right_blocks, f.angles
    modes = (mode, mode + n // 4)

    def halves(gates) -> list:
        # 4x4 halves recurse; for 2x2 halves the gates are their plate chains
        els = []
        for g, m in zip(gates, modes):
            els += _elements(g, conv, tol, collapse, m)[0] if n == 8 else chain_elements(g, m)
        return els

    if collapse and not any(angles):
        gates = [left[0].dot(right[0]), left[1].dot(right[1])]
        return halves(gates if n == 8 else [synthesize_u2(g, tol) for g in gates]), f
    if n == 8:
        left = (left[0].dot(_M4_DL_TOP), 1j * left[1].dot(_SXSX))
        right = (right[0], _M4_DR_BOT_SXSX.dot(right[1]))
        t1, t2, t3, t4 = angles
        central = _gadget(mode, mode + 2, t2, t1) + _gadget(mode + 1, mode + 3, t4, t3)
        return halves(right) + central + halves(left), f
    if conv is DofConvention.PS:
        left = (left[0].dot(_PS_BOOKEND_L[0]), left[1].dot(_PS_BOOKEND_L[1]))
        right = (_PS_BOOKEND_R[0].dot(right[0]), _PS_BOOKEND_R[1].dot(right[1]))
        central = _gadget(mode, mode + 1, angles[0], angles[1])
    else:
        left = (left[0].dot(_SP_BOOKEND_L), left[1].dot(_SP_BOOKEND_L))
        central = _gadget(mode, mode + 1, angles[1], angles[0])
    splits = [_su2(g) for g in (*right, *left)]
    if collapse:
        chains = _steer(splits, tol.angle_tol) or [
            _synthesize(*sp, tol.angle_tol) for sp in splits
        ]
    else:
        # every plate, even at angle zero: the template keeps its 20 elements
        chains = [_full_chain(*_chain_params(*sp)) for sp in splits]
    return halves(chains[:2]) + central + halves(chains[2:]), f


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
    els, f = _elements(U, opts.convention, tol, opts.optimize, 0)
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
        # nothing left to remove on a Haar input, but optimize stays: it
        # still shortens a few structured inputs by resynthesis after the
        # sweep, and the benchmark's per-layer tracer requires its calls
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
