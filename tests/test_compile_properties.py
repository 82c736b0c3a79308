"""Compile properties on adversarial structured inputs, optimize on and off.

Signed permutations (8x8 ones with a zero CSD block among them), diagonal
phases, Kronecker products, Cartan products of plate-alphabet gates with
central angles at multiples of pi/8, and each of those times expm(eps X)
for a small anti-Hermitian X.  Clustered angles (cos = sin) come from the
walk and QFT targets times a global phase and local plate-alphabet gates,
and from 8x8 products with four equal central angles.  Every compile must
pass verification within the 20/88 budget, equal its target by plain
max-entry distance with the global phase included, never grow under
optimize, survive the wire format, and give the same JSON twice.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import block_diag, expm

from cartanopt.cartan import _embed_pair, central_a, central_cs_m4
from cartanopt.circuit import deserialize, serialize
from cartanopt.compiler import CompileOptions, builtin_target, compile
from cartanopt.dof import DofConvention
from cartanopt.linalg import ToleranceConfig, haar_random_unitary
from cartanopt.simulate import simulate
from cartanopt.waveplates import chain_matrix

BUDGET = {4: 20, 8: 88}
# exponents of eps in B . expm(eps X); None leaves B as it is
_EPS_EXPONENTS = (None, -16, -15, -14, -13, -12, -11, -10, -9, -8, -7, -6)


def _signed_permutation(n: int, perm, signs) -> np.ndarray:
    P = np.zeros((n, n), dtype=complex)
    P[np.arange(n), perm] = signs
    return P


@st.composite
def _signed_permutations(draw, n: int):
    signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n, max_size=n))
    if n == 4:
        return _signed_permutation(4, draw(st.permutations(range(4))), signs)
    # each half maps into one half: block-diagonal (zero off-diagonal CSD
    # blocks, all angles 0) or anti-block-diagonal (zero diagonal blocks,
    # all angles pi/2); or any permutation at all
    shape = draw(st.sampled_from(("block", "anti", "any")))
    if shape == "any":
        return _signed_permutation(8, draw(st.permutations(range(8))), signs)
    top, bottom = draw(st.permutations(range(4))), draw(st.permutations(range(4, 8)))
    perm = list(top) + list(bottom) if shape == "block" else list(bottom) + list(top)
    return _signed_permutation(8, perm, signs)


@st.composite
def _diagonal_phases(draw, n: int):
    angle = st.one_of(
        st.integers(-8, 8).map(lambda k: k * np.pi / 4),
        st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False),
    )
    return np.diag(np.exp(1j * np.array(draw(st.lists(angle, min_size=n, max_size=n)))))


@st.composite
def _kron_products(draw, n: int):
    seed = draw(st.integers(0, 10**6))
    a = haar_random_unitary(2, seed)
    b = haar_random_unitary(n // 2, seed + 1)
    return np.kron(a, b) if draw(st.booleans()) else np.kron(b, a)


_eighths = st.integers(-8, 8).map(lambda k: k * np.pi / 8)
# short plate chains at multiples of pi/8: gates on synthesize_u2's short branches
_special_gates = st.lists(
    st.tuples(st.sampled_from(("ps", "hwp", "qwp")), _eighths), min_size=1, max_size=3
).map(chain_matrix)


@st.composite
def _cartan_products(draw, n: int):
    # special gates around a central factor whose angles are multiples of
    # pi/8, often equal or zero; dim 8 nests dim-4 ones around the 8x8 CSD core
    if n == 4:
        left = block_diag(draw(_special_gates), draw(_special_gates))
        right = block_diag(draw(_special_gates), draw(_special_gates))
        return left @ central_a(draw(_eighths), draw(_eighths), "sp") @ right
    left = block_diag(draw(_cartan_products(4)), draw(_cartan_products(4)))
    right = block_diag(draw(_cartan_products(4)), draw(_cartan_products(4)))
    angles = draw(st.lists(_eighths, min_size=4, max_size=4))
    return left @ central_cs_m4(angles) @ right


@st.composite
def _targets(draw, n: int):
    B = draw(st.one_of(
        _signed_permutations(n), _diagonal_phases(n), _kron_products(n), _cartan_products(n)
    ))
    exponent = draw(st.sampled_from(_EPS_EXPONENTS))
    if exponent is None:
        return B
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (H + H.conj().T) / 2
    return B @ expm(1j * 10.0**exponent * H / np.abs(H).max())


@st.composite
def _phased_builtins(draw, convention):
    # the walk and the QFT have all their central angles at pi/4 (cos = sin)
    target = builtin_target(draw(st.sampled_from(("walk", "qft"))), convention)
    return np.exp(1j * draw(st.floats(-np.pi, np.pi))) * target


@st.composite
def _clustered4(draw):
    convention = draw(st.sampled_from(("ps", "sp")))
    conv = DofConvention(convention)
    left = _embed_pair(draw(_special_gates), draw(_special_gates), conv)
    right = _embed_pair(draw(_special_gates), draw(_special_gates), conv)
    return left @ draw(_phased_builtins(convention)) @ right, convention


@st.composite
def _clustered8(draw):
    # blkdiag(A, B) CS(t, t, t, t) blkdiag(C, D): one four-fold angle cluster
    block = st.one_of(
        st.integers(0, 10**6).map(lambda seed: haar_random_unitary(4, seed)),
        _cartan_products(4),
        _phased_builtins("sp"),
    )
    left = block_diag(draw(block), draw(block))
    right = block_diag(draw(block), draw(block))
    return left @ central_cs_m4([draw(_eighths)] * 4) @ right


def _check(U, convention):
    n = U.shape[0]
    lengths = []
    for optimize in (False, True):
        opts = CompileOptions(convention=convention, optimize=optimize)
        c, report = compile(U, opts)
        again, _ = compile(U, opts)
        text = serialize(c)
        assert report.passed
        assert len(c.elements) <= BUDGET[n]
        assert np.abs(simulate(c) - U).max() <= 1e-9
        assert serialize(again) == text
        assert deserialize(text) == c
        lengths.append(len(c.elements))
    unoptimized, optimized = lengths
    assert optimized <= unoptimized


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_targets(4), st.sampled_from(("ps", "sp")))
def test_dim4_structured_inputs_compile_exactly(U, convention):
    _check(U, convention)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_targets(8))
def test_dim8_structured_inputs_compile_exactly(U):
    _check(U, "sp")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_clustered4())
def test_dim4_clustered_angles_compile_exactly(target):
    _check(*target)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_clustered8())
def test_dim8_clustered_angles_compile_exactly(U):
    _check(U, "sp")


def _decades(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _tolerance_configs(draw):
    """Configs that ToleranceConfig accepts, minus the re-checks of ROADMAP item 2.

    decompose re-checks each CSD block and synthesize_u2 each 2x2 gate
    against unitarity_tol.  unitarity_tol >= 1e-13 keeps out the rounding
    of plate products (about 1e-15), which has its own strict pin.
    8 angle_tol^2 <= unitarity_tol keeps out the blocks that the CSD
    short-cut reads off: it drops entries of up to angle_tol, so they miss
    unitarity by up to 6 angle_tol^2 (CHANGES.md FOUND).
    """
    kwargs = {"equivalence_tol": draw(_decades(-13, 0))}
    if draw(st.booleans()):
        kwargs["unitarity_tol"] = draw(_decades(-13, -6))
    if draw(st.booleans()):
        kwargs["angle_tol"] = draw(_decades(-16, -3))
    try:
        tol = ToleranceConfig(**kwargs)
    except ValueError:
        assume(False)
    assume(8 * tol.angle_tol**2 <= tol.unitarity_tol)
    return tol


def _near_local(rng, n: int, eps: float, convention: str) -> np.ndarray:
    """Local gates on every spatial mode times expm(eps X), X anti-Hermitian."""
    gates = [haar_random_unitary(2, int(rng.integers(10**6))) for _ in range(n // 2)]
    B = _embed_pair(*gates, DofConvention(convention)) if n == 4 else block_diag(*gates)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = X - X.conj().T
    return B @ expm(eps * X / np.abs(X).max())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_tolerance_configs(), st.integers(0, 10**6))
def test_every_accepted_tolerance_config_verifies(tol, seed):
    # near-local inputs straddle angle_tol, where the CSD short-cut decides
    rng = np.random.default_rng(seed)
    eps = tol.angle_tol * 10.0 ** rng.uniform(-1.0, 1.0)
    cases = [(haar_random_unitary(4, seed), c) for c in ("ps", "sp")]
    cases += [(_near_local(rng, 4, eps, c), c) for c in ("ps", "sp")]
    cases += [(haar_random_unitary(8, seed), "sp"), (_near_local(rng, 8, eps, "sp"), "sp")]
    for U, convention in cases:
        for optimize in (False, True):
            opts = CompileOptions(convention=convention, optimize=optimize, tolerances=tol)
            assert compile(U, opts)[1].passed
