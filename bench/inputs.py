"""Seeded input generator for the compile benchmark.

Every input is a (convention, matrix, matrix JSON text, family) record.
Input i of a workload is drawn from its own generator, seeded by
(seed, workload index, i), so any slice of the stream can be produced
on its own and the same seed always yields byte-identical text.  Only
numpy is used: the generator shares no code with the compiler.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    optimize: bool
    # Inputs 0..fixed-1 are always compiled, whatever the time budget, so
    # the circuit-size metrics, the error rate and the digest repeat
    # exactly per seed; 1000 or more also puts at least ten latency
    # samples beyond the 99th percentile.
    fixed: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("haar4", False, 1200),
        Workload("haar8_opt", True, 1000),
        Workload("structured4_opt", True, 1800),
    )
}

FAMILIES = ("builtin", "kron", "signed_perm", "diag_phase", "local_cz_local", "near_local")

# Built-in targets of the compiler, restated here so the program only
# ever sees generated text: a four-vertex walk step and the 4-point
# Fourier transform.
_WALK = 0.5 * np.array(
    [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=complex
)
_QFT = 0.5 * np.array(
    [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_PERMS = list(itertools.permutations(range(4)))


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary: QR of a complex Gaussian with R's diagonal phases restored."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def tensor(path_gate: np.ndarray, pol_gate: np.ndarray, convention: str) -> np.ndarray:
    """Path (x) polarization product in the convention's basis order.

    sp orders states mode-major (a1H, a1V, a2H, a2V); ps orders them
    polarization-major (Ha1, Ha2, Va1, Va2).
    """
    if convention == "sp":
        return np.kron(path_gate, pol_gate)
    return np.kron(pol_gate, path_gate)


def path_block(g1: np.ndarray, g2: np.ndarray, convention: str) -> np.ndarray:
    """Polarization gate g1 on mode a1 and g2 on mode a2: the compiler's local form."""
    idx = ((0, 1), (2, 3)) if convention == "sp" else ((0, 2), (1, 3))
    M = np.zeros((4, 4), dtype=complex)
    M[np.ix_(idx[0], idx[0])] = g1
    M[np.ix_(idx[1], idx[1])] = g2
    return M


def _expi_hermitian(rng: np.random.Generator, eps: float) -> np.ndarray:
    """exp(i eps H) for a random Hermitian H of spectral norm 1."""
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, v = np.linalg.eigh(a + a.conj().T)
    w = w / np.abs(w).max()
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def _structured(rng: np.random.Generator, family: str, convention: str, k: int) -> np.ndarray:
    """Input of one family; k counts the family's earlier inputs in this convention.

    The discrete choices (walk or QFT, which permutation, which decade of
    eps) cycle with k rather than being drawn, so circuit-size means vary
    little from seed to seed.
    """
    phase = np.exp(2j * math.pi * rng.random())
    if family == "builtin":
        return phase * (_WALK, _QFT)[k % 2]
    if family == "kron":
        return tensor(haar(rng, 2), haar(rng, 2), convention)
    if family == "signed_perm":
        P = np.eye(4, dtype=complex)[list(_PERMS[k % len(_PERMS)])]
        return phase * P * rng.choice((-1.0, 1.0), size=4)
    if family == "diag_phase":
        return np.diag(np.exp(2j * math.pi * rng.random(4)))
    if family == "local_cz_local":
        left = tensor(haar(rng, 2), haar(rng, 2), convention)
        right = tensor(haar(rng, 2), haar(rng, 2), convention)
        return left @ _CZ @ right
    if family == "near_local":
        # eps log-uniform in 1e-16..1e-6, one decade per k, straddles the
        # compiler's default angle_tol of 1e-12, so both sides of the
        # local short-cut run
        eps = 10.0 ** (-16.0 + k % 10 + rng.random())
        return path_block(haar(rng, 2), haar(rng, 2), convention) @ _expi_hermitian(rng, eps)
    raise ValueError(f"unknown family {family!r}")


def matrix_text(M: np.ndarray) -> str:
    """The compiler's matrix wire format: {"dim": n, "entries": [[[re, im], ...]]}."""
    n = M.shape[0]
    return json.dumps(
        {
            "dim": n,
            "entries": [
                [[float(M[i, j].real), float(M[i, j].imag)] for j in range(n)]
                for i in range(n)
            ],
        }
    )


@dataclasses.dataclass(frozen=True)
class Input:
    convention: str
    matrix: np.ndarray
    text: str
    family: str


def make_input(workload: Workload, seed: int, i: int) -> Input:
    wid = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([seed, wid, i])
    if workload.name == "haar4":
        conv, family, M = ("ps", "sp")[i % 2], "haar", haar(rng, 4)
    elif workload.name == "haar8_opt":
        conv, family, M = "sp", "haar", haar(rng, 8)
    else:
        # stratified: every run of 12 consecutive inputs holds each
        # family once per convention
        conv, family = ("ps", "sp")[i % 2], FAMILIES[(i // 2) % len(FAMILIES)]
        M = _structured(rng, family, conv, i // (2 * len(FAMILIES)))
    return Input(conv, M, matrix_text(M), family)


def make_inputs(workload: Workload, seed: int, start: int, count: int) -> list[Input]:
    return [make_input(workload, seed, i) for i in range(start, start + count)]


def self_test(workload: Workload, seed: int) -> list[str]:
    """Generator checks; returns the list of failures (empty when all pass)."""
    n = 48
    first = [x.text for x in make_inputs(workload, seed, 0, n)]
    again = [x.text for x in make_inputs(workload, seed, 0, n)]
    other = [x.text for x in make_inputs(workload, seed + 1, 0, n)]
    errors = []
    if first != again:
        errors.append("the same seed gave different input text")
    if any(a == b for a, b in zip(first, other)):
        errors.append("seeds differing by one gave an identical input")
    if len(set(first)) != n:
        errors.append("inputs within a run repeat")
    if workload.name == "structured4_opt":
        seen = {(x.family, x.convention) for x in make_inputs(workload, seed, 0, 12)}
        missing = {(f, c) for f in FAMILIES for c in ("ps", "sp")} - seen
        if missing:
            errors.append(f"structured families missing: {sorted(missing)}")
    return errors
