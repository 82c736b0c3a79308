"""The free basis of a 4x4 level whose CSD angles are equal or degenerate.

Equal angles leave a whole 2x2 basis free, which compiler._equal_angles
spends to make one right gate the identity: a path-polarization product
takes 15 elements.  An angle at 0 or pi/2 leaves one phase free between
two gates, which compiler._free_phases chooses in closed form: the walk
and Fourier targets, and signed permutations, sit at (pi/2, 0).  Haar
inputs have neither, so their circuits keep every byte.
"""

import itertools
import math

import numpy as np
import pytest

from cartanopt import compiler
from cartanopt.circuit import serialize
from cartanopt.compiler import (
    HAND_COUNTS,
    CompileOptions,
    _phase_rotated,
    builtin_target,
    compile,
)
from cartanopt.lie import SZ
from cartanopt.linalg import _entries2, haar_random_unitary
from cartanopt.simulate import simulate
from cartanopt.waveplates import _su2

# the optimized counts of the built-in targets, each at or below its
# hand-drawn count in HAND_COUNTS
BUILTIN_COUNTS = {("walk", "ps"): 10, ("qft", "ps"): 11, ("walk", "sp"): 10, ("qft", "sp"): 17}
KRON_SEEDS = range(48)


def _opts(conv: str) -> CompileOptions:
    return CompileOptions(convention=conv, optimize=True)


def _phase(rng) -> complex:
    return np.exp(2j * math.pi * rng.random())


def _kron(seed: int, conv: str) -> np.ndarray:
    """A path gate times a polarization gate, in the convention's basis order, times a phase."""
    path, pol = haar_random_unitary(2, 2 * seed), haar_random_unitary(2, 2 * seed + 1)
    U = np.kron(path, pol) if conv == "sp" else np.kron(pol, path)
    return _phase(np.random.default_rng(seed)) * U


def _signed_perms(conv: str) -> list:
    """Every permutation of the four basis states with every sign pattern, times a phase."""
    rng = np.random.default_rng(31 + (conv == "sp"))
    cases = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1.0, -1.0), repeat=4):
            cases.append(_phase(rng) * np.eye(4, dtype=complex)[list(perm)] * signs)
    return cases


def _builtins(conv: str) -> list:
    rng = np.random.default_rng(33 + (conv == "sp"))
    cases = []
    for name in ("walk", "qft"):
        U = builtin_target(name, conv)
        cases += [U, -U, 1j * U] + [_phase(rng) * U for _ in range(12)]
    return cases


def _inputs() -> list:
    """(family, convention, U) for every structured input of this file."""
    cases = []
    for conv in ("ps", "sp"):
        cases += [("kron", conv, _kron(s, conv)) for s in KRON_SEEDS]
        cases += [("signed_perm", conv, U) for U in _signed_perms(conv)]
        cases += [("builtin", conv, U) for U in _builtins(conv)]
    return cases


def _free_basis_off(monkeypatch):
    monkeypatch.setattr(
        compiler, "_equal_angles", lambda left, right, angles, fold, a_tol: (left, right, angles)
    )
    monkeypatch.setattr(compiler, "_free_phases", lambda splits, angles, conv, a_tol: splits)


@pytest.fixture(scope="module")
def compiled():
    return [compile(U, _opts(conv))[0] for _, conv, U in _inputs()]


def test_every_circuit_equals_its_input_entry_by_entry(compiled):
    # plain equality, global phase included, not only up to a phase
    for (family, conv, U), circuit in zip(_inputs(), compiled):
        assert np.abs(simulate(circuit) - U).max() <= 1e-12, (family, conv)


def test_no_input_grows_against_the_rule_switched_off(compiled, monkeypatch):
    _free_basis_off(monkeypatch)
    shrank = {}
    for (family, conv, U), circuit in zip(_inputs(), compiled):
        before = len(compile(U, _opts(conv))[0].elements)
        assert len(circuit.elements) <= before, (family, conv)
        shrank[family] = shrank.get(family, 0) + (len(circuit.elements) < before)
    # and each family gains: all but one product here (it takes 15
    # elements either way), every ps built-in and over a third of the
    # signed permutations
    assert shrank["kron"] >= 2 * len(KRON_SEEDS) - 1
    assert shrank["builtin"] >= 30
    assert shrank["signed_perm"] >= 250


def test_a_path_polarization_product_takes_15_elements(compiled):
    for (family, conv, _), circuit in zip(_inputs(), compiled):
        if family == "kron":
            assert len(circuit.elements) <= 15, conv


@pytest.mark.parametrize("name,conv", sorted(BUILTIN_COUNTS))
def test_builtin_counts(name, conv):
    circuit, report = compile(builtin_target(name, conv), _opts(conv))
    assert report.passed
    assert len(circuit.elements) == BUILTIN_COUNTS[(name, conv)]
    assert len(circuit.elements) <= HAND_COUNTS[(name, conv)]


def test_haar_circuits_keep_every_byte(monkeypatch):
    inputs = [(haar_random_unitary(4, 1000 + s), conv) for s in range(24) for conv in ("ps", "sp")]
    inputs += [(haar_random_unitary(8, 1100 + s), "sp") for s in range(8)]
    want = [serialize(compile(U, _opts(conv))[0]) for U, conv in inputs]
    _free_basis_off(monkeypatch)
    for (U, conv), text in zip(inputs, want):
        assert serialize(compile(U, _opts(conv))[0]) == text, conv


def test_optimize_off_never_spends_the_free_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("free basis spent with optimize off")

    monkeypatch.setattr(compiler, "_equal_angles", refuse)
    monkeypatch.setattr(compiler, "_free_phases", refuse)
    for family, conv, U in _inputs()[::7]:
        circuit, report = compile(U, CompileOptions(convention=conv))
        assert report.passed and len(circuit.elements) == 20, family


@pytest.mark.parametrize("on_right", [False, True])
def test_phase_rotated_is_the_split_of_the_product(on_right):
    rng = np.random.default_rng(35)
    for seed in range(200):
        V = haar_random_unitary(2, 1200 + seed)
        u, t = rng.uniform(-2 * math.pi, 2 * math.pi, 2)
        R = np.diag(np.exp(1j * t * np.diag(SZ)))
        want = _su2(_entries2(np.exp(1j * u) * (V.dot(R) if on_right else R.dot(V))))
        got = _phase_rotated(_su2(_entries2(V)), u, t, on_right)
        assert abs(got[0]) <= math.pi / 2
        # the same split, phase and quaternion sign included, away from
        # the phase pi/2 where either sign is the split
        if abs(abs(want[0]) - math.pi / 2) > 1e-9:
            assert np.abs(np.subtract(got, want)).max() <= 1e-14, seed
