"""The central layer's gauge: what the compiler may move across it, and what it gains.

Each PBS-HWP(a)-HWP(b)-PBS gadget on modes (m, m+1) commutes with
e^{phi X}, X = i(sz (+) -sz), for every a and b.  With optimize on, a 4x4
level moves that rotation from its left gates into its right gates where
it puts one gate on the QWP-HWP form (compiler._steer), working on the
gates' _su2 quaternions rather than on their matrices.
"""

import math

import numpy as np
import pytest

from cartanopt import compiler
from cartanopt.circuit import OpticalCircuit
from cartanopt.compiler import (
    CompileOptions,
    _elements,
    _gadget,
    _qwp_hwp_root,
    _rotate_z,
    _steer,
    compile,
)
from cartanopt.dof import PS_TO_SP_IX, DofConvention
from cartanopt.linalg import DEFAULT_TOL, haar_random_unitary
from cartanopt.simulate import simulate
from cartanopt.waveplates import _QWP_W, _su2, qwp_matrix

SPECIAL = (0.0, math.pi / 4, math.pi / 2)


def _rz(t: float) -> np.ndarray:
    """e^{i t sz}."""
    return np.diag([np.exp(1j * t), np.exp(-1j * t)])


def _gauge(phi: float, convention: str) -> np.ndarray:
    """e^{phi X} on two spatial modes, in the convention's basis order."""
    G = np.zeros((4, 4), dtype=complex)
    G[:2, :2], G[2:, 2:] = _rz(phi), _rz(-phi)
    return G[PS_TO_SP_IX[2]] if convention == "ps" else G


def _angle_pairs():
    rng = np.random.default_rng(20)
    pairs = [(a, b) for a in SPECIAL for b in SPECIAL]
    pairs += [(a, a) for a in rng.uniform(-math.pi, math.pi, 5)]
    pairs += [tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(10)]
    return pairs


@pytest.mark.parametrize("convention", ["ps", "sp"])
def test_every_gadget_commutes_with_the_gauge(convention):
    phis = np.random.default_rng(21).uniform(-math.pi, math.pi, 5)
    for a, b in _angle_pairs():
        M = simulate(OpticalCircuit(convention, 2, _gadget(0, 1, a, b)))
        for phi in phis:
            G = _gauge(phi, convention)
            assert np.abs(M.dot(G) - G.dot(M)).max() <= 1e-15, (a, b, phi)


def _quaternions(n: int, seed: int):
    for U in np.random.default_rng(seed).standard_normal((n, 4)):
        yield tuple(U / np.linalg.norm(U))


@pytest.mark.parametrize("on_right", [False, True])
def test_the_root_puts_a_gate_on_the_qwp_hwp_form(on_right):
    for q in _quaternions(500, 22):
        t0 = _qwp_hwp_root(q, on_right)
        for t in (t0, t0 + math.pi / 2):
            w, _, y, _ = _rotate_z(q, math.cos(t), math.sin(t), on_right)
            assert abs(math.hypot(w, y) - _QWP_W) <= 1e-15, (q, t)


@pytest.mark.parametrize("on_right", [False, True])
def test_the_scalar_rotation_is_the_matrix_product(on_right):
    rng = np.random.default_rng(23)
    for seed in range(200):
        U = haar_random_unitary(2, seed)
        t = float(rng.uniform(-math.pi, math.pi))
        delta, *q = _su2(U)
        want_delta, *want = _su2(U.dot(_rz(t)) if on_right else _rz(t).dot(U))
        got = np.array(_rotate_z(tuple(q), math.cos(t), math.sin(t), on_right))
        # det e^{i t sz} = 1 keeps delta up to the quaternion's sign
        sign = 1.0 if np.dot(got, want) > 0 else -1.0
        assert np.abs(sign * got - want).max() <= 1e-14, (seed, t)
        assert abs(math.remainder(want_delta - delta, math.pi)) <= 1e-14, (seed, t)


def _unsteered(monkeypatch):
    monkeypatch.setattr(compiler, "_steer", lambda splits, a_tol: None)


def _level_inputs():
    """(U, convention) for Haar levels at both sizes and two structured families."""
    cases = [(haar_random_unitary(4, s), conv) for s in range(40) for conv in ("ps", "sp")]
    cases += [(haar_random_unitary(8, s), "sp") for s in range(10)]
    rng = np.random.default_rng(24)
    for s in range(40):
        conv = ("ps", "sp")[s % 2]
        # a path-polarization product in front of a Haar unitary
        A, B = haar_random_unitary(2, 2 * s), haar_random_unitary(2, 2 * s + 1)
        local = np.kron(A, B) if conv == "ps" else np.kron(B, A)
        cases.append((local.dot(haar_random_unitary(4, 100 + s)), conv))
        # QWP on one path: that gate starts on a short form
        Q = np.eye(4, dtype=complex)
        idx = [0, 1] if conv == "sp" else [0, 2]
        Q[np.ix_(idx, idx)] = qwp_matrix(float(rng.uniform(0, math.pi)))
        cases.append((Q.dot(haar_random_unitary(4, 200 + s)), conv))
    return cases


def test_a_steered_level_keeps_its_product(monkeypatch):
    steered = []
    for U, conv in _level_inputs():
        els, _ = _elements(U, DofConvention(conv), DEFAULT_TOL, True, 0)
        steered.append(OpticalCircuit(conv, len(U) // 2, els))
    _unsteered(monkeypatch)
    for (U, conv), circuit in zip(_level_inputs(), steered):
        els, _ = _elements(U, DofConvention(conv), DEFAULT_TOL, True, 0)
        before = simulate(OpticalCircuit(conv, len(U) // 2, els))
        assert np.abs(simulate(circuit) - before).max() <= 1e-14


def _plates(circuit) -> int:
    return sum(e.kind in ("qwp", "hwp") for e in circuit.elements)


def test_steering_never_adds_plates(monkeypatch):
    opts = [CompileOptions(convention=conv, optimize=True) for conv in ("ps", "sp")]
    compiled = {}
    for i, (U, conv) in enumerate(_level_inputs()):
        compiled[i] = compile(U, opts[conv == "sp"])[0]
    _unsteered(monkeypatch)
    fewer = 0
    for i, (U, conv) in enumerate(_level_inputs()):
        before = compile(U, opts[conv == "sp"])[0]
        after = compiled[i]
        assert _plates(after) <= _plates(before), i
        assert len(after.elements) <= len(before.elements), i
        fewer += _plates(after) < _plates(before)
    # every Haar level gains a plate
    assert fewer >= 90


def test_steer_takes_the_first_gate_that_shortens():
    for seed in range(20):
        f = compiler.decompose(haar_random_unitary(4, seed), DofConvention.SP, DEFAULT_TOL)
        splits = [_su2(g) for g in (*f.right_gates, *f.left_gates)]
        chains = _steer(splits, DEFAULT_TOL.angle_tol)
        plates = [sum(k != "ps" for k, _ in c) for c in chains]
        # R0, tried first, takes the QWP-HWP form; the other three stay whole
        assert plates == [2, 3, 3, 3], seed
