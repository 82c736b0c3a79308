"""Cartan factorization of 4x4 and 8x8 unitaries on polarization + path.

A two-qubit unitary splits as U = K1 . A . K2 where K1, K2 are local
(one 2x2 gate per degree-of-freedom slot) and A is generated by the
Cartan subalgebra.  Both labeling conventions reduce to one cosine-sine
decomposition after a basis permutation; the fixed unit factors that
turn the CSD central block into the convention's canonical central form
are absorbed into the returned gates, so the central angles are all
that remains of A.  The 8x8 entry point performs one CSD level at the
4+4 spatial split and leaves its 4x4 blocks for recursive treatment.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .dof import PS_TO_SP_IX, DofConvention
from .linalg import (
    _EYE2,
    DEFAULT_TOL,
    ToleranceConfig,
    _as_square,
    _cosine_sine,
    _not_unitary,
    is_unitary,
)

# Both basis permutations are np.ix_ indices, built once, that permute
# the rows and columns of a 4x4 in one indexing.
# PS basis order is polarization-major; rewriting it as spatial-major
# makes the K-factors block-diagonal.
_PS_TO_BLOCK = PS_TO_SP_IX[2]
# SP basis order is already spatial-major; swapping the second mode's
# polarization pair aligns the central coupling with the CSD layout.
_SP_TO_BLOCK = np.ix_([0, 1, 3, 2], [0, 1, 3, 2])

# D . SX with D = diag(-1, 1), the left factor of SP's right fold, as a
# row-major 4-tuple (compiler._equal_angles folds by it)
_D_SX = (0j, -1 + 0j, 1 + 0j, 0j)


@dataclasses.dataclass(frozen=True)
class CartanFactors:
    """U = (L1, L2 embedded) . A(alpha, beta) . (R1, R2 embedded), exactly."""

    convention: DofConvention
    left_gates: tuple[np.ndarray, np.ndarray]
    right_gates: tuple[np.ndarray, np.ndarray]
    alpha: float
    beta: float

    @property
    def theta1(self) -> float:
        return self.alpha + self.beta

    @property
    def theta2(self) -> float:
        return self.alpha - self.beta


@dataclasses.dataclass(frozen=True)
class RecursiveFactors:
    """One CSD level of an 8x8 unitary at the 4+4 spatial partition.

    U = blkdiag(left_blocks) . CS(angles) . blkdiag(right_blocks)

    with CS(angles) = [[C, S], [-S, C]], C = diag(cos), S = diag(sin).
    Angle k couples basis position k with position k+4, i.e. the same
    polarization component of the paired spatial modes.
    """

    left_blocks: tuple[np.ndarray, np.ndarray]
    right_blocks: tuple[np.ndarray, np.ndarray]
    angles: tuple[float, float, float, float]


def central_a(alpha: float, beta: float, convention) -> np.ndarray:
    """Closed-form central factor A for the given convention's basis order.

    Both conventions: theta1 = alpha + beta, theta2 = alpha - beta.
    PS couples the two spatial amplitudes within each polarization;
    SP couples opposite polarizations across the two spatial modes.
    """
    conv = DofConvention(convention)
    t1, t2 = alpha + beta, alpha - beta
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    if conv is DofConvention.PS:
        return np.array(
            [
                [c1, 1j * s1, 0, 0],
                [1j * s1, c1, 0, 0],
                [0, 0, c2, 1j * s2],
                [0, 0, 1j * s2, c2],
            ]
        )
    return np.array(
        [
            [c1, 0, 0, s1],
            [0, c2, -s2, 0],
            [0, s2, c2, 0],
            [-s1, 0, 0, c1],
        ],
        dtype=complex,
    )


def _embed_pair(g1: np.ndarray, g2: np.ndarray, conv: DofConvention) -> np.ndarray:
    """Two 2x2 gates as a 4x4 in the convention's basis order.

    In SP order the gates are literal diagonal blocks; PS order permutes
    that block-diagonal matrix.
    """
    M = np.zeros((4, 4), dtype=complex)
    M[:2, :2] = g1
    M[2:, 2:] = g2
    if conv is DofConvention.PS:
        M = M[_PS_TO_BLOCK]
    return M


def _csd_level(U, n: int, name: str, tol: ToleranceConfig, perm=None):
    """Check an n x n unitary, permute its basis by perm, and split it at n/2 + n/2.

    perm is an np.ix_ index or None.  Returns (Uq, csd): the permuted
    matrix, and _cosine_sine's output or None when Uq is block-diagonal
    within angle_tol.  An error reports the residual of the input as given.
    """
    U = _as_square(U)
    if U.shape != (n, n):
        raise ValueError(f"{name} expects {n}x{n} input, got shape {U.shape}")
    if not is_unitary(U, tol):
        raise _not_unitary(name, U)
    if perm is not None:
        U = U[perm]
    # the off-diagonal blocks' moduli on Python complex: no numpy call, and
    # the first entry above angle_tol, on a Haar input the first one, ends it
    k, a_tol, rows = n // 2, tol.angle_tol, U.tolist()
    if all(abs(x) <= a_tol for r in rows[:k] for x in r[k:]) and all(
        abs(x) <= a_tol for r in rows[k:] for x in r[:k]
    ):
        return U, None
    return U, _cosine_sine(U, k)


def decompose(U, convention, tol: ToleranceConfig = DEFAULT_TOL) -> CartanFactors:
    """Cartan factorization of a 4x4 unitary.

    Deterministic: the CSD gauge is pinned, so identical inputs give
    identical factors.  Central angles satisfy theta1 >= theta2 >= 0.
    The gates are formed on flat row-major 2x2s of Python complex, as the
    CSD gives its factors (see linalg's kernel note), and become arrays
    in one np.array call.  The convention's folds are signed
    permutations, applied as index shuffles, which round nothing.
    """
    conv = DofConvention(convention)
    sp = conv is DofConvention.SP
    Uq, csd = _csd_level(U, 4, "decompose", tol, _SP_TO_BLOCK if sp else _PS_TO_BLOCK)
    if csd is None:
        # already local: both central angles vanish and the gates can be
        # read off directly, with identity right gates; SP's second gate
        # is SX . g2 . SX
        r0, r1, r2, r3 = Uq.tolist()
        g2 = (r3[3], r3[2], r2[3], r2[2]) if sp else (r2[2], r2[3], r3[2], r3[3])
        left, right = ((r0[0], r0[1], r1[0], r1[1]), g2), (_EYE2, _EYE2)
        t1 = t2 = 0.0
    else:
        V1, V2, (t1, t2), W1, W2 = csd
        if sp:
            # SX . V2 . SX . D and (D . SX) . W2 . SX, with D = diag(-1, 1)
            a, b, c, d = V2
            left = (V1, (-d, c, -b, a))
            a, b, c, d = W2
            right = (W1, (-d, -c, b, a))
        else:
            left = (V1, tuple(1j * v for v in V2))
            right = (W1, tuple(-1j * w for w in W2))
    gates = np.array((*left, *right), dtype=complex).reshape(4, 2, 2)
    return CartanFactors(
        convention=conv,
        left_gates=(gates[0], gates[1]),
        right_gates=(gates[2], gates[3]),
        alpha=(t1 + t2) / 2.0,
        beta=(t1 - t2) / 2.0,
    )


def reassemble(f: CartanFactors) -> np.ndarray:
    """Multiply the factors back out in the convention's basis order."""
    conv = DofConvention(f.convention)
    K1 = _embed_pair(f.left_gates[0], f.left_gates[1], conv)
    K2 = _embed_pair(f.right_gates[0], f.right_gates[1], conv)
    A = central_a(f.alpha, f.beta, conv)
    return K1 @ A @ K2


def decompose_m4(U, tol: ToleranceConfig = DEFAULT_TOL) -> RecursiveFactors:
    """One CSD level of an 8x8 unitary at the spatial 4+4 partition.

    Basis order is spatial-major: (a1H, a1V, a2H, a2V, a3H, a3V, a4H,
    a4V).  Angle k couples position k with k+4.  The 4x4 blocks are
    returned in the plain CSD frame; the unit corrections that express
    the central factor through physical elements belong to the compile
    stage, which folds them into the blocks it recurses on.  The CSD
    gives them as row-major lists of Python complex, in the gauge it
    pins at every half (linalg._cosine_sine), and they become arrays in
    one np.array call, as decompose's gates do.
    """
    U, csd = _csd_level(U, 8, "decompose_m4", tol)
    if csd is None:
        return RecursiveFactors(
            left_blocks=(U[:4, :4].copy(), U[4:, 4:].copy()),
            right_blocks=(np.eye(4, dtype=complex), np.eye(4, dtype=complex)),
            angles=(0.0, 0.0, 0.0, 0.0),
        )
    V1, V2, thetas, W1, W2 = csd
    blocks = np.array((V1, V2, W1, W2), dtype=complex).reshape(4, 4, 4)
    return RecursiveFactors(
        left_blocks=(blocks[0], blocks[1]),
        right_blocks=(blocks[2], blocks[3]),
        angles=thetas,
    )


def central_cs_m4(angles) -> np.ndarray:
    """The 8x8 cosine-sine central factor [[C, S], [-S, C]]."""
    t = np.asarray(angles, dtype=float)
    if t.shape != (4,):
        raise ValueError("central_cs_m4 expects four angles")
    C = np.diag(np.cos(t)).astype(complex)
    S = np.diag(np.sin(t)).astype(complex)
    return np.block([[C, S], [-S, C]])


def reassemble_m4(f: RecursiveFactors) -> np.ndarray:
    """Multiply one CSD level back out."""
    L = np.zeros((8, 8), dtype=complex)
    R = np.zeros((8, 8), dtype=complex)
    L[:4, :4], L[4:, 4:] = f.left_blocks
    R[:4, :4], R[4:, 4:] = f.right_blocks
    return L @ central_cs_m4(f.angles) @ R
