"""Dense complex linear algebra shared by every stage of the compiler.

Holds the tolerance configuration, unitarity and phase-aware distance
checks, the cosine-sine decomposition that drives both factorization
routes, Haar-random sampling for tests, and the matrix JSON wire format.
numpy is the only dependency: the CSD is Stewart's split on numpy's SVD
and QR, run on Python scalars for 2+2 blocks, with a fixed gauge.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import json
import math

import numpy as np


# K of the rule angle_tol * K <= equivalence_tol, derived in ToleranceConfig
_K = 196


@dataclasses.dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used across the pipeline, all dimensionless.

    The one place that relates them: unitarity_tol, which decides which
    inputs are accepted, defaults to min(1e-10, equivalence_tol), and
    angle_tol is derived, never set: min(1e-12, equivalence_tol / K), so
    angle_tol * K <= equivalence_tol holds for every config.  A given
    tolerance must be a Python or numpy int or float (a bool, str, None
    or complex one is a ValueError) and is stored as a float.

    K = 196 is twice the 98 elision sites of an optimized dim-8 compile,
    the largest.  A site changes one factor by at most 2 angle_tol in
    spectral norm (a 2x2 change of largest entry angle_tol at most that, a
    short form or a PS left off at its threshold at most sqrt 2 angle_tol),
    which bounds the move of the product's max entry, and the errors of
    successive sites add at most linearly (M. A. Nielsen and I. L. Chuang,
    Quantum Computation and Quantum Information, sec. 4.5.3).  The sites:
    6 for the CSD short-cut or collapse of the 5 levels, the 4+4 one twice
    because its dropped blocks are 4x4.  A 4x4 level that takes neither
    may spend its free basis instead (compiler._equal_angles,
    compiler._free_phases), at most one of the two, since one needs both
    angles inside (0, pi/2) and the other one at an end.  Snapping its equal
    angles to their mean moves the central factor by at most angle_tol / 2.
    Choosing its degenerate angles' phases moves it by at most 2 angle_tol,
    both together too, since they change disjoint rows and columns of the
    cosine-sine factor.  So each takes its level's short-cut site.  The 4+4
    level snaps four equal angles (compiler._equal_angles), one by up to
    3/4 angle_tol, and takes its two short-cut sites.  So K
    stays.  The gauge rotations of a 4x4 level and of the 4+4 level
    (compiler._steer, compiler._steer_levels) move an exact factor e^{i t sz}
    across a central gadget that commutes with it, which leaves the
    product as it was, so they add no site: a gate they move onto a short
    form takes it at its chain's site.  Then 32 for the short form and
    the PS of the 16 chains, left off at emission, by the zero-PS drop or
    at the first resynthesis; 16 for the phase sweep, one per PBS (12) and
    per mode end (4); 44 for the resyntheses after it, the PS of each of the
    28 same-mode runs (16 chains, 12 central HWPs) and the short form of
    each chain.  The sweep is counted once: a second kept sweep needs a
    resynthesis to bring some phase within angle_tol of another mode's.
    """

    unitarity_tol: float | None = None
    equivalence_tol: float = 1e-9
    angle_tol: float = dataclasses.field(init=False)

    def __post_init__(self):
        eq = _real_tol("equivalence_tol", self.equivalence_tol)
        ut = self.unitarity_tol
        ut = min(1e-10, eq) if ut is None else _real_tol("unitarity_tol", ut)
        # NaN fails every comparison and inf passes every one, so either
        # would silently disable the check it sets
        if not (math.isfinite(ut) and math.isfinite(eq)):
            raise ValueError("tolerances must be finite")
        if min(ut, eq) <= 0:
            raise ValueError("tolerances must be strictly positive")
        if eq < ut:
            raise ValueError("equivalence_tol must be >= unitarity_tol")
        object.__setattr__(self, "unitarity_tol", ut)
        object.__setattr__(self, "equivalence_tol", eq)
        object.__setattr__(self, "angle_tol", min(1e-12, eq / _K))


def _real_tol(name: str, value) -> float:
    """A tolerance as a float: a Python or numpy real number, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("tolerances must be finite") from None


DEFAULT_TOL = ToleranceConfig()

# The CSD gauge pins the phase of each V1 column's first entry above this
# floor: far above rounding noise, whose phase is arbitrary, and far below
# the largest entry of a unit column (>= 0.5).  A gauge, not a tolerance, so
# the same input gets the same factors under every ToleranceConfig.
_GAUGE_FLOOR = 1e-8

# A sine (cosine) at most this leaves the relative phase of a V2 column and
# its W2 (W1) row to rounding noise.  Re-phasing that pair moves the product
# by at most twice this, a few units of rounding, so the CSD gauge pins it:
# exactly degenerate inputs then get factors that do not hang on the noise.
_FREE_PHASE_FLOOR = 1e-15


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


# Small products on the per-element and per-gate paths (2x2 to 8x8) are
# written A.dot(B), not A @ B: both call the same BLAS zgemm and give the
# same bits, and .dot skips the ufunc dispatch of @ (timeit, 2x2 by 2x8
# product: 1.4 against 2.1 us on a 2-core Xeon VM).  Those bits are
# pinned: the golden and optimizer corpora hash simulate's output
# (SIMULATE_SHA256) and every circuit's angles.  They are the bits of one
# CPU kernel set, the OpenBLAS core under zgemm and the SIMD loops numpy
# dispatches to (tests/kernels.py names it).  Those kernels fuse multiply
# and add, so products and array arithmetic stay in numpy: the same
# products on Python complex round otherwise in the last bit, and only
# bookkeeping (indexing, allocation, formatting) moves out of it.
# _cosine_sine's test of its angles' order is such bookkeeping: it runs on
# Python floats and decides only whether the factors are permuted, never
# how a product rounds.  A transcendental of one Python number may move to
# cmath where a bit test shows numpy's loop rounds as libm does on every
# kernel set: e^{i phase} does (on glibc numpy's complex exp takes libm's
# sin and cos), atan2 does not (numpy's X86_V4 arctan2 loop differs from
# libm's in the last bit on about 1 in 13 Gaussian points), so
# phase_distance takes its phase from np.arctan2.


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    # read-only, so no caller can change the cached copy
    eye = np.eye(n, dtype=complex)
    eye.flags.writeable = False
    return eye


def _residual(M: np.ndarray) -> float:
    G = M.conj().T.dot(M)
    # subtracting an exact 0 leaves every off-diagonal entry's bits as
    # they are, so this is the diagonal subtraction in one ufunc call
    G -= _identity(M.shape[0])
    return float(np.abs(G).max())


def unitarity_residual(M) -> float:
    """Max-entry norm of M^dag M - I."""
    return _residual(_as_square(M))


def is_unitary(M, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    return _residual(M) <= tol.unitarity_tol


def _not_unitary(name: str, M) -> ValueError:
    # what each entry point raises when is_unitary refuses its input
    return ValueError(f"{name} requires a unitary input (residual {unitarity_residual(M):.3e})")


def phase_distance(A, B) -> tuple[float, float]:
    """Max-entry distance between A and B after optimal global phase.

    Returns (distance, phase) where phase = arg tr(A^dag B) and distance
    is ||A e^{i phase} - B||_max.  The phase choice maximizes alignment,
    so the distance is invariant under multiplying either argument by a
    unit scalar as long as tr(A^dag B) does not vanish.
    """
    A = _as_square(A)
    B = _as_square(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    t = A.conj().T.dot(B).trace()
    # np.angle's arctan2 without np.angle's wrapper (see the note above)
    phase = float(np.arctan2(t.imag, t.real)) if abs(t) > 0 else 0.0
    distance = float(np.abs(A * cmath.exp(1j * phase) - B).max())
    return distance, phase


# -- cosine-sine decomposition ----------------------------------------------
#
# Stewart's split (G. W. Stewart, Numer. Math. 40, 297 (1982); B. D. Sutton,
# Numer. Algorithms 50, 33 (2009)): the SVD of the cosine block U11 fixes V1,
# W1 and the cosines.  An angle whose cosine is at most sqrt(1/2) takes its
# V2 column from a QR of the sine block -U21 W1^H and its W2 row from
# V1^H U12, both divided by a sine >= sqrt(1/2).  The other angles take W1,
# V2 and their sines from the SVD of the sine block on the complement of
# those V2 columns; V1 and the cosines are then rebuilt from U11 and W2 from
# U22, divided by a cosine > sqrt(1/2).  No step divides by less than
# sqrt(1/2), so the product is exact to rounding even where the cosine
# block's singular vectors are not (near block-diagonal inputs).
_SPLIT = math.sqrt(0.5)


def cossin(U: np.ndarray, half: int):
    """Cosine-sine decomposition of a 2k x 2k unitary at the k+k partition.

    Returns (V1, V2, theta, W1, W2) with

        U = blkdiag(V1, V2) @ [[C, S], [-S, C]] @ blkdiag(W1, W2),

    C = diag(cos theta), S = diag(sin theta), theta in [0, pi/2] and
    descending but for rounding between nearly equal angles.  U is not
    checked.  The factors are unitary to rounding and separate
    contiguous arrays; their gauge is whatever the split leaves
    (_cosine_sine pins it).
    """
    if half == 2:
        return _cossin_2x2(U)
    k = half
    U11, U12, U21, U22 = U[:k, :k], U[:k, k:], U[k:, :k], U[k:, k:]
    V1, c, W1 = np.linalg.svd(U11)
    V1, c, W1 = V1[:, ::-1], c[::-1], W1[::-1]  # cosines ascending: large angles first
    n = int(np.count_nonzero(c <= _SPLIT))
    Q, R = np.linalg.qr(-U21 @ W1.conj().T)  # = V2 S on the first n columns
    d = R.diagonal()[:n]
    s = np.empty(k)
    s[:n] = np.abs(d)
    V2 = Q.copy()
    V2[:, :n] *= d / s[:n]
    W2 = np.empty((k, k), dtype=complex)
    W2[:n] = (V1[:, :n].conj().T @ U12) / s[:n, None]
    if n < k:
        A, s[n:], B = np.linalg.svd(R[n:, n:])
        V2[:, n:] = Q[:, n:] @ A
        W1[n:] = B @ W1[n:]
        Y = U11 @ W1[n:].conj().T  # = V1 C on the small-angle columns
        c[n:] = np.linalg.norm(Y, axis=0)
        V1[:, n:] = Y / c[n:]
        W2[n:] = (V2[:, n:].conj().T @ U22) / c[n:, None]
    # V1 and W1 are reversed views: copies, so that a caller's @ reaches zgemm
    return np.ascontiguousarray(V1), V2, np.arctan2(s, c), np.ascontiguousarray(W1), W2


# 2x2 matrices as row-major 4-tuples of Python scalars: at half=2 numpy's
# per-call cost is several times the arithmetic, so cossin runs the same
# split on scalars there.


def _mul2(A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _adj2(A):
    a, b, c, d = A
    return (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate())


def _unit2(x, y):
    """(x, y) / |(x, y)| and the norm; (1, 0) for the zero vector."""
    n = math.hypot(abs(x), abs(y))
    return (x / n, y / n, n) if n else (1.0, 0.0, 0.0)


def _svd2(M):
    """M = u diag(s1, s2) vh with s1 >= s2 >= 0, for a 2x2 4-tuple M.

    v's first column is the top eigenvector of M^H M and u's is M v / s1.
    Their second columns complete v to determinant 1 and u to determinant
    det M / |det M|, which leaves s2 = |det M| / s1, capped at s1 where
    rounding lifts it above (equal singular values).  The rotation angle
    depends only on ratios of M's entries (until their squares underflow),
    so every output is accurate to rounding relative to |M|, small or not.
    """
    a, b, c, d = M
    q = a.conjugate() * b + c.conjugate() * d
    t = 0.5 * math.atan2(2.0 * abs(q), abs(a) ** 2 + abs(c) ** 2 - abs(b) ** 2 - abs(d) ** 2)
    v0 = math.cos(t)
    v1 = math.sin(t) * (q.conjugate() / abs(q) if q else 1.0)
    u0, u1, s1 = _unit2(a * v0 + b * v1, c * v0 + d * v1)
    det = a * d - b * c
    z = det / abs(det) if det else 1.0
    u = (u0, -u1.conjugate() * z, u1, u0.conjugate() * z)
    return u, s1, min(abs(det) / s1, s1) if s1 else 0.0, (v0, v1.conjugate(), -v1, v0)


def _cossin_2x2(U):
    """cossin at half=2, on Python complex scalars."""
    r0, r1, r2, r3 = U.tolist()
    U11, U12 = (r0[0], r0[1], r1[0], r1[1]), (r0[2], r0[3], r1[2], r1[3])
    U21, U22 = (r2[0], r2[1], r3[0], r3[1]), (r2[2], r2[3], r3[2], r3[3])
    u, c1, c0, w = _svd2(U11)
    V1, W1 = [u[1], u[0], u[3], u[2]], (w[2], w[3], w[0], w[1])  # c0 <= c1
    X = tuple(-x for x in _mul2(U21, _adj2(W1)))  # = V2 S
    if c0 > _SPLIT:  # both angles small
        V2, s0, s1, B = _svd2(X)
        W1 = _mul2(B, W1)
    else:  # QR of X: angle 0 is large, angle 1 fills the complement
        q0, q1, s0 = _unit2(X[0], X[2])
        r = q0 * X[3] - q1 * X[1]
        s1 = abs(r)
        z = r / s1 if s1 else 1.0
        V2 = (q0, -q1.conjugate() * z, q1, q0.conjugate() * z)
    Y = _mul2(U11, _adj2(W1))  # = V1 C
    SW2 = _mul2(_adj2(V1), U12)
    CW2 = _mul2(_adj2(V2), U22)
    cs, ss, W2 = [c0, c1], (s0, s1), [0.0] * 4
    for t in (0, 1):
        if cs[t] > _SPLIT:  # rebuilt from the diagonal blocks
            V1[t], V1[2 + t], cs[t] = _unit2(Y[t], Y[2 + t])
            W2[2 * t], W2[2 * t + 1] = CW2[2 * t] / cs[t], CW2[2 * t + 1] / cs[t]
        else:
            W2[2 * t], W2[2 * t + 1] = SW2[2 * t] / ss[t], SW2[2 * t + 1] / ss[t]
    theta = np.array([math.atan2(s0, cs[0]), math.atan2(s1, cs[1])])
    V1, V2, W1, W2 = np.array((V1, V2, W1, W2), dtype=complex).reshape(4, 2, 2)
    return V1, V2, theta, W1, W2


def _lead_phases(M: np.ndarray) -> np.ndarray:
    """Unit phase of each column's first entry above _GAUGE_FLOOR."""
    firsts = [next(x for x in col if abs(x) > _GAUGE_FLOOR) for col in M.T.tolist()]
    return np.array([x / abs(x) for x in firsts])


def _cosine_sine(U: np.ndarray, half: int):
    """Cosine-sine decomposition of a 2k x 2k unitary at the k+k partition.

    Returns (V1, V2, thetas, W1, W2) with

        U = blkdiag(V1, V2) @ [[C, S], [-S, C]] @ blkdiag(W1, W2),

    thetas descending in [0, pi/2], from cossin's Stewart split.  cossin
    already returns its angles descending, large angles first; only where
    rounding swaps two nearly equal ones does a stable sort reorder the
    angles and the factors.  A fixed gauge makes the factors
    deterministic.  For each index the common phase of (V1 col, V2 col,
    W1 row, W2 row) is chosen so the first non-negligible entry of the V1
    column is real and positive.  Where sin theta is at most
    _FREE_PHASE_FLOOR the V2 column and W2 row have a free relative
    phase, and where cos theta is, the V2 column and W1 row do; that
    phase is chosen so the first non-negligible entry of the V2 column is
    real and positive.
    """
    V1, V2, thetas, W1, W2 = cossin(U, half)
    ts = thetas.tolist()
    if any(a < b for a, b in zip(ts, ts[1:])):
        order = np.argsort(-thetas, kind="stable")
        thetas = thetas[order]
        V1, V2, W1, W2 = V1[:, order], V2[:, order], W1[order], W2[order]
        ts = thetas.tolist()
    ph = _lead_phases(V1)
    phc, phr = ph.conj(), ph[:, None]
    V1 *= phc
    V2 *= phc
    W1 *= phr
    W2 *= phr
    for i, t in enumerate(ts):
        sin_free = math.sin(t) <= _FREE_PHASE_FLOOR
        if sin_free or math.cos(t) <= _FREE_PHASE_FLOOR:
            ph = _lead_phases(V2[:, i:i + 1])[0]
            V2[:, i] *= ph.conjugate()
            (W2 if sin_free else W1)[i] *= ph
    return V1, V2, thetas, W1, W2


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic per seed.

    QR orthonormalization of a seeded complex Gaussian matrix with the
    R diagonal's phases folded back into Q.  The seed is an int or a
    numpy integer: None would draw fresh entropy, and a bool or a float
    is not a seed.
    """
    if not isinstance(dim, (int, np.integer)) or dim not in (2, 4, 8):
        raise ValueError(f"dim must be 2, 4, or 8, got {dim}")
    if type(seed) is bool or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# -- matrix JSON wire format -------------------------------------------------
#
# {"dim": n, "entries": [[[re, im], ...] x n] x n}, row-major.


def matrix_to_json(M) -> dict:
    M = _as_square(M)
    return {
        "dim": M.shape[0],
        "entries": [[[z.real, z.imag] for z in row] for row in M.tolist()],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    dim = obj.get("dim")
    entries = obj.get("entries")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("matrix JSON needs a positive integer 'dim'")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ValueError(f"'entries' must be a list of {dim} rows")
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"row {i} length != dim ({dim})")
    # the rows above bound dim by the input's length before anything is built
    rows = []
    for i, row in enumerate(entries):
        values = []
        for j, cell in enumerate(row):
            if not isinstance(cell, (list, tuple)) or len(cell) != 2:
                raise ValueError(f"entry ({i},{j}) must be a [re, im] pair of numbers")
            re, im = cell
            # exact floats, as json.loads gives most cells, are numbers
            # already stored as they would be converted
            if type(re) is not float or type(im) is not float:
                if (not isinstance(re, (int, float)) or isinstance(re, bool)
                        or not isinstance(im, (int, float)) or isinstance(im, bool)):
                    raise ValueError(f"entry ({i},{j}) must be a [re, im] pair of numbers")
                try:
                    re, im = float(re), float(im)
                except OverflowError:
                    re = im = math.inf
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"entry ({i},{j}) is not finite")
            values.append(complex(re, im))
        rows.append(values)
    return np.array(rows, dtype=complex)


def dump_matrix(M) -> str:
    return json.dumps(matrix_to_json(M))


def _parse_json(text: str, what: str):
    """json.loads, raising ValueError on a malformed document."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack
        raise ValueError(f"malformed {what} JSON: {exc}") from exc


def load_matrix(text: str) -> np.ndarray:
    return matrix_from_json(_parse_json(text, "matrix"))
