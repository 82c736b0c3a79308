"""Dense complex linear algebra shared by every stage of the compiler.

Holds the tolerance configuration, unitarity and phase-aware distance
checks, the cosine-sine decomposition that drives both factorization
routes, Haar-random sampling for tests, and the matrix JSON wire format.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
from scipy.linalg import cossin


@dataclasses.dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used across the pipeline, all dimensionless."""

    unitarity_tol: float = 1e-10
    equivalence_tol: float = 1e-9
    angle_tol: float = 1e-12

    def __post_init__(self):
        values = (self.unitarity_tol, self.equivalence_tol, self.angle_tol)
        # NaN fails every comparison and inf passes every one, so either
        # would silently disable the check it sets
        if not all(math.isfinite(v) for v in values):
            raise ValueError("tolerances must be finite")
        if min(values) <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.equivalence_tol < self.unitarity_tol:
            raise ValueError("equivalence_tol must be >= unitarity_tol")


DEFAULT_TOL = ToleranceConfig()

# The CSD gauge pins the phase of each V1 column's first entry above this
# floor: far above rounding noise, whose phase is arbitrary, and far below
# the largest entry of a unit column (>= 0.5).  A gauge, not a tolerance, so
# the same input gets the same factors under every ToleranceConfig.
_GAUGE_FLOOR = 1e-8


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def unitarity_residual(M) -> float:
    """Max-entry norm of M^dag M - I."""
    M = _as_square(M)
    G = M.conj().T @ M
    G.flat[:: M.shape[0] + 1] -= 1.0
    return float(np.abs(G).max())


def is_unitary(M, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    return unitarity_residual(M) <= tol.unitarity_tol


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
    t = np.trace(A.conj().T @ B)
    phase = float(np.angle(t)) if abs(t) > 0 else 0.0
    distance = float(np.abs(A * np.exp(1j * phase) - B).max())
    return distance, phase


def _cosine_sine(U: np.ndarray, half: int):
    """Cosine-sine decomposition of a 2k x 2k unitary at the k+k partition.

    Returns (V1, V2, thetas, W1, W2) with

        U = blkdiag(V1, V2) @ [[C, S], [-S, C]] @ blkdiag(W1, W2),

    thetas descending in [0, pi/2].  The result is made deterministic by
    a fixed gauge: for each index the common phase of (V1 col, V2 col,
    W1 row, W2 row) is chosen so the first non-negligible component of
    the V1 column is real and positive.
    """
    (V1, u2), theta, (W1, v2h) = cossin(U, p=half, q=half, separate=True)
    # LAPACK's central factor is [[C, -S], [S, C]]; conjugating by
    # diag(I, -I) converts to [[C, S], [-S, C]] at the cost of a sign
    # on the second left and right blocks.
    V2 = -u2
    W2 = -v2h
    c = np.clip(np.cos(theta), 0.0, 1.0)
    s = np.clip(np.sin(theta), 0.0, 1.0)
    thetas = np.arctan2(s, c)
    order = np.argsort(-thetas, kind="stable")
    thetas = thetas[order]
    V1 = V1[:, order]
    V2 = V2[:, order]
    W1 = W1[order, :]
    W2 = W2[order, :]
    for i in range(half):
        col = V1[:, i]
        j = int(np.argmax(np.abs(col) > _GAUGE_FLOOR))
        ph = col[j] / abs(col[j])
        V1[:, i] = V1[:, i] * ph.conjugate()
        V2[:, i] = V2[:, i] * ph.conjugate()
        W1[i, :] = W1[i, :] * ph
        W2[i, :] = W2[i, :] * ph
    return V1, V2, thetas, W1, W2


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic per seed.

    QR orthonormalization of a seeded complex Gaussian matrix with the
    R diagonal's phases folded back into Q.
    """
    if dim not in (2, 4, 8):
        raise ValueError(f"dim must be 2, 4, or 8, got {dim}")
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
    n = M.shape[0]
    return {
        "dim": n,
        "entries": [[[float(M[i, j].real), float(M[i, j].imag)] for j in range(n)]
                    for i in range(n)],
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
    # allocated only now: the rows above bound dim by the input's length
    M = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        for j, cell in enumerate(row):
            if (not isinstance(cell, (list, tuple)) or len(cell) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               for v in cell)):
                raise ValueError(f"entry ({i},{j}) must be a [re, im] pair of numbers")
            try:
                re, im = float(cell[0]), float(cell[1])
            except OverflowError:
                re = im = math.inf
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"entry ({i},{j}) is not finite")
            M[i, j] = complex(re, im)
    return M


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
