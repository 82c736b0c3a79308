"""Tolerances, phase-aware distance, the cosine-sine split, and matrix I/O."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cartanopt.linalg import (
    _FREE_PHASE_FLOOR,
    _GAUGE_FLOOR,
    _K,
    DEFAULT_TOL,
    ToleranceConfig,
    _cosine_sine,
    _residual,
    dump_matrix,
    haar_random_unitary,
    is_unitary,
    load_matrix,
    phase_distance,
    unitarity_residual,
)

WALK = 0.5 * np.array(
    [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=complex
)


def test_default_tolerances():
    assert DEFAULT_TOL.unitarity_tol == 1e-10
    assert DEFAULT_TOL.equivalence_tol == 1e-9
    assert DEFAULT_TOL.angle_tol == 1e-12


@pytest.mark.parametrize("field", ["unitarity_tol", "equivalence_tol"])
def test_tolerance_rejects_nonpositive(field):
    with pytest.raises(ValueError):
        ToleranceConfig(**{field: 0.0})
    with pytest.raises(ValueError):
        ToleranceConfig(**{field: -1e-9})
    # NaN compares false and inf true against every residual
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ToleranceConfig(**{field: value})


@pytest.mark.parametrize("field", ["unitarity_tol", "equivalence_tol"])
@pytest.mark.parametrize(
    "value", [True, False, np.True_, "1e-9", b"1e-9", 1e-9 + 0j, np.complex128(1e-9), [1e-9]],
    ids=["true", "false", "np_true", "str", "bytes", "complex", "np_complex", "list"],
)
def test_tolerance_rejects_a_value_that_is_not_real(field, value):
    with pytest.raises(ValueError, match=field):
        ToleranceConfig(**{field: value})


def test_tolerance_rejects_none_and_huge_ints():
    # None stands for "derive" only for unitarity_tol
    with pytest.raises(ValueError, match="equivalence_tol"):
        ToleranceConfig(equivalence_tol=None)
    assert ToleranceConfig(unitarity_tol=None) == DEFAULT_TOL
    with pytest.raises(ValueError, match="finite"):
        ToleranceConfig(equivalence_tol=10**400)


def test_tolerances_are_stored_as_floats():
    for ut, eq in ((1, 2), (np.int64(1), np.float32(2.0)), (np.float64(1e-10), 1e-9)):
        tol = ToleranceConfig(unitarity_tol=ut, equivalence_tol=eq)
        assert (tol.unitarity_tol, tol.equivalence_tol) == (float(ut), float(eq))
        assert type(tol.unitarity_tol) is float and type(tol.equivalence_tol) is float
    # a derived unitarity_tol follows a converted equivalence_tol
    assert type(ToleranceConfig(equivalence_tol=np.float32(1e-3)).unitarity_tol) is float
    assert ToleranceConfig(equivalence_tol=1) == ToleranceConfig(equivalence_tol=1.0)


def test_tolerances_derive_from_equivalence_tol():
    # unitarity_tol, when not given, and angle_tol, always, follow
    # equivalence_tol down; angle_tol never exceeds equivalence_tol / K,
    # the bound of the elision budget angle_tol * K <= equivalence_tol
    for t in np.geomspace(1e-13, 10.0, 200):
        t = float(t)
        tol = ToleranceConfig(equivalence_tol=t)
        assert (tol.unitarity_tol, tol.equivalence_tol) == (min(1e-10, t), t)
        assert tol.angle_tol == min(1e-12, t / _K)
        assert tol.angle_tol <= t / _K
    settable = [f.name for f in dataclasses.fields(ToleranceConfig) if f.init]
    assert settable == ["unitarity_tol", "equivalence_tol"]
    # a given unitarity_tol is kept and moves nothing else
    given = ToleranceConfig(unitarity_tol=1e-12)
    assert given == ToleranceConfig(1e-12, 1e-9)
    assert given.angle_tol == DEFAULT_TOL.angle_tol


def test_tolerance_rejects_an_inconsistent_config():
    with pytest.raises(ValueError, match="unitarity_tol"):
        ToleranceConfig(unitarity_tol=1e-8)
    # angle_tol is derived, so no config can break its budget: the configs
    # that failed compile's own verification (1e-6, 1e-6, 1e-3) or raised
    # in it on near-local inputs (1e-10, 1.0, 1e-3) cannot be built
    with pytest.raises(TypeError, match="angle_tol"):
        ToleranceConfig(unitarity_tol=1e-6, equivalence_tol=1e-6, angle_tol=1e-3)
    with pytest.raises(TypeError, match="angle_tol"):
        ToleranceConfig(unitarity_tol=1e-10, equivalence_tol=1.0, angle_tol=1e-3)
    with pytest.raises(TypeError):
        ToleranceConfig(1e-10, 1.0, 1e-3)


def test_is_unitary_identity_and_walk():
    assert is_unitary(np.eye(4, dtype=complex))
    assert is_unitary(WALK)


def test_is_unitary_rejects_half_ones():
    # M^H M has unit diagonal but off-diagonal entries equal to 1
    M = np.full((4, 4), 0.5, dtype=complex)
    assert not is_unitary(M)
    assert unitarity_residual(M) > 0.9


def test_non_square_matrix_is_not_unitary():
    M = np.eye(4, 2, dtype=complex)
    assert not is_unitary(M)
    with pytest.raises(ValueError, match="square"):
        unitarity_residual(M)


def test_unitarity_residual_zero_for_identity():
    assert unitarity_residual(np.eye(4, dtype=complex)) == 0.0


def _old_residual(M):
    """_residual as it read with the diagonal subtracted through .flat."""
    G = M.conj().T.dot(M)
    G.flat[:: M.shape[0] + 1] -= 1.0
    return float(np.abs(G).max())


@pytest.mark.parametrize("dim", [2, 4, 8, 1, 3, 16])
def test_residual_keeps_the_bits_of_the_flat_version(dim):
    # unitaries from a stacked QR, half of them moved off unitarity, some
    # read through a transposed or reversed view; the pipeline's sizes and
    # others, which take their identity from the same cache
    rng = np.random.default_rng([21, dim])
    n = 7_000  # matrices per size
    shape = (n, dim, dim)
    Q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    eps = 10.0 ** rng.integers(-16, 0, n)
    for i, U in enumerate(Q):
        if i % 2:
            U = U + eps[i] * rng.standard_normal(U.shape)
        U = (U, U.T, U[::-1])[i % 3]
        assert _residual(U).hex() == _old_residual(U).hex(), i


def test_phase_distance_pure_phase():
    d, ph = phase_distance(np.eye(4, dtype=complex), 1j * np.eye(4))
    assert d < 1e-12
    assert abs(ph - np.pi / 2) < 1e-12


def test_phase_distance_self():
    d, _ = phase_distance(WALK, WALK)
    assert d < 1e-12


def test_phase_distance_detects_relative_phase_pattern():
    d, _ = phase_distance(np.eye(4, dtype=complex), np.diag([1, 1, 1, -1]).astype(complex))
    assert d > 0.5


def test_phase_distance_invariant_under_global_phase():
    rng = np.random.default_rng(0)
    A = haar_random_unitary(4, seed=3)
    for _ in range(100):
        phi = rng.uniform(0, 2 * np.pi)
        d, _ = phase_distance(A, np.exp(1j * phi) * A)
        assert d < 1e-12


def test_phase_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        phase_distance(np.eye(4, dtype=complex), np.eye(2, dtype=complex))


def test_phase_distance_of_a_zero_trace_pair():
    # tr(A^dag B) = 0 leaves the phase undefined: it is taken as 0
    d, ph = phase_distance(np.eye(4, dtype=complex), np.diag([1, -1, 1, -1]))
    assert (d.hex(), ph.hex()) == ((2.0).hex(), (0.0).hex())


def _numpy_scalar_phase_distance(A, B):
    """phase_distance as it read on numpy 0-d calls: np.trace, np.angle, np.exp."""
    t = np.trace(A.conj().T.dot(B))
    phase = float(np.angle(t)) if abs(t) > 0 else 0.0
    distance = float(np.abs(A * np.exp(1j * phase) - B).max())
    return distance, phase


@pytest.mark.parametrize("dim", [4, 8])
def test_phase_distance_keeps_the_bits_of_the_numpy_scalar_version(dim):
    # Haar pairs, globally phased copies, near-equal pairs and a zero-trace
    # pair.  numpy's arctan2 loop differs from libm's atan2 in the last bit
    # on some kernel sets, so a phase taken by cmath.phase fails here
    rng = np.random.default_rng([22, dim])
    n = 2_000  # pairs of each kind
    shape = (2 * n, dim, dim)
    Q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    eps = 10.0 ** rng.integers(-16, -6, n)
    pairs = [(np.eye(dim, dtype=complex), np.diag(np.tile([1.0, -1.0], dim // 2)))]
    for i in range(n):
        A, B = Q[i], Q[n + i]
        pairs += [(A, B), (A, A * phases[i]), (A, (A + eps[i] * B) * phases[i])]
    for i, (A, B) in enumerate(pairs):
        got, want = phase_distance(A, B), _numpy_scalar_phase_distance(A, B)
        assert [type(v) for v in got] == [float, float], i
        assert [v.hex() for v in got] == [v.hex() for v in want], i


def _block_csd(U):
    V1, V2, thetas, W1, W2 = _cosine_sine(U, 2)
    return (V1, V2), tuple(float(t) for t in thetas), (W1, W2)


def test_block_csd_identity():
    # block signs are a gauge choice; only angles and the product are pinned
    left, angles, right = _block_csd(np.eye(4, dtype=complex))
    assert angles == (0.0, 0.0)
    np.testing.assert_allclose(_reassemble(left, angles, right), np.eye(4), atol=1e-14)
    for B in left + right:
        np.testing.assert_allclose(B @ B.conj().T, np.eye(2), atol=1e-14)


def test_block_csd_known_angles():
    # central factor of the Fourier-target factorization: mixing angles
    # 3pi/8 and pi/8 at the natural 2+2 partition
    c1, s1 = np.cos(3 * np.pi / 8), np.sin(3 * np.pi / 8)
    c2, s2 = np.cos(np.pi / 8), np.sin(np.pi / 8)
    F = np.array(
        [[c1, 0, 0, s1], [0, c2, -s2, 0], [0, s2, c2, 0], [-s1, 0, 0, c1]],
        dtype=complex,
    )
    _, angles, _ = _block_csd(F)
    np.testing.assert_allclose(angles, (3 * np.pi / 8, np.pi / 8), atol=1e-12)


def _reassemble(left, angles, right):
    L = np.zeros((4, 4), dtype=complex)
    R = np.zeros((4, 4), dtype=complex)
    L[:2, :2], L[2:, 2:] = left
    R[:2, :2], R[2:, 2:] = right
    C = np.diag(np.cos(angles))
    S = np.diag(np.sin(angles))
    CS = np.block([[C, S], [-S, C]])
    return L @ CS @ R


@pytest.mark.parametrize("seed", range(25))
def test_block_csd_round_trip(seed):
    U = haar_random_unitary(4, seed=seed)
    left, angles, right = _block_csd(U)
    assert np.abs(_reassemble(left, angles, right) - U).max() < 1e-9
    a, b = angles
    assert 0.0 <= b <= a <= np.pi / 2 + 1e-15


def test_block_csd_round_trip_bulk():
    worst = 0.0
    for seed in range(300):
        U = haar_random_unitary(4, seed=seed)
        worst = max(worst, np.abs(_reassemble(*_block_csd(U)) - U).max())
    assert worst < 1e-9


def test_block_csd_deterministic():
    U = haar_random_unitary(4, seed=99)
    (l1, a1, r1), (l2, a2, r2) = _block_csd(U), _block_csd(U)
    assert a1 == a2
    for A, B in zip(l1 + r1, l2 + r2):
        assert A.tobytes() == B.tobytes()


def _signed_permutation(n, perm, signs):
    P = np.zeros((n, n), dtype=complex)
    P[np.arange(n), perm] = signs
    return P


def _near(B, eps, rng):
    """B expm(i eps H) for a random Hermitian H of unit max-entry norm."""
    n = B.shape[0]
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (H + H.conj().T) / 2
    return B @ scipy.linalg.expm(1j * eps * H / np.abs(H).max())


def _fourier_like(n, name):
    # the walk is 2J/n - I; the QFT is the n-point DFT
    if name == "walk":
        return np.full((n, n), 2.0 / n, dtype=complex) - np.eye(n)
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)


def _cs(angles):
    C, S = np.diag(np.cos(angles)), np.diag(np.sin(angles))
    return np.block([[C, S], [-S, C]]).astype(complex)


@st.composite
def _csd_inputs(draw, n):
    k = n // 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def haar(d):
        return haar_random_unitary(d, int(rng.integers(2**31)))

    family = draw(st.sampled_from(
        ("haar", "near_block", "near_anti", "signed_perm", "fourier", "cluster")))
    if family == "haar":
        return haar(n)
    if family in ("near_block", "near_anti"):
        B = scipy.linalg.block_diag(haar(k), haar(k))
        if family == "near_anti":
            B = B[:, np.r_[k:n, 0:k]]
        return _near(B, 10.0 ** draw(st.integers(-16, -6)), rng)
    if family == "signed_perm":
        signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n, max_size=n))
        return _signed_permutation(n, draw(st.permutations(range(n))), signs)
    if family == "fourier":
        phase = np.exp(1j * draw(st.floats(-np.pi, np.pi)))
        return phase * _fourier_like(n, draw(st.sampled_from(("walk", "qft"))))
    # exact clusters of equal angles, pi/4 (cos = sin), 0 and pi/2 among them
    angles = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    left = scipy.linalg.block_diag(haar(k), haar(k))
    right = scipy.linalg.block_diag(haar(k), haar(k))
    return left @ _cs(np.array(angles) * np.pi / 8) @ right


def _check_csd(U):
    k = U.shape[0] // 2
    V1, V2, thetas, W1, W2 = _cosine_sine(U, k)
    left = scipy.linalg.block_diag(V1, V2)
    right = scipy.linalg.block_diag(W1, W2)
    assert np.abs(left @ _cs(thetas) @ right - U).max() <= 1e-13
    for F in (V1, V2, W1, W2):
        assert np.abs(F @ F.conj().T - np.eye(k)).max() <= 1e-13
    assert np.all(np.diff(thetas) <= 0)
    assert thetas[-1] >= 0.0 and thetas[0] <= np.pi / 2
    oracle = scipy.linalg.cossin(U, p=k, q=k, separate=True)[1]
    assert np.abs(np.sort(oracle)[::-1] - thetas).max() <= 1e-12
    for i, t in enumerate(thetas):
        pinned = [V1[:, i]]
        if min(math.sin(t), math.cos(t)) <= _FREE_PHASE_FLOOR:
            pinned.append(V2[:, i])
        for col in pinned:
            lead = col[np.abs(col) > _GAUGE_FLOOR][0]
            assert lead.real > 0 and abs(lead.imag) <= 1e-15
    again = _cosine_sine(U, k)
    for A, B in zip((V1, V2, thetas, W1, W2), again):
        assert A.tobytes() == B.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_csd_inputs(4))
def test_csd_property_2x2_blocks(U):
    _check_csd(U)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_csd_inputs(8))
def test_csd_property_4x4_blocks(U):
    _check_csd(U)


@pytest.mark.parametrize("half", [2, 4])
def test_csd_equal_angles_at_the_split(half):
    # every angle pi/4 puts every cosine on the split point sqrt(1/2), where
    # rounding may leave equal cosines on both sides of it, in either order
    rng = np.random.default_rng(0)
    for _ in range(200):
        L1, L2, R1, R2 = (haar_random_unitary(half, int(rng.integers(2**31))) for _ in range(4))
        U = scipy.linalg.block_diag(L1, L2) @ _cs(np.full(half, np.pi / 4))
        _check_csd(U @ scipy.linalg.block_diag(R1, R2))


def test_haar_deterministic_per_seed():
    A = haar_random_unitary(4, seed=7)
    B = haar_random_unitary(4, seed=np.int64(7))
    assert A.tobytes() == B.tobytes()


def test_haar_seeds_differ():
    d, _ = phase_distance(haar_random_unitary(4, seed=7), haar_random_unitary(4, seed=8))
    assert d > 0.1


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_haar_unitary(dim):
    for seed in (0, 1, 2):
        assert is_unitary(haar_random_unitary(dim, seed=seed))


def test_haar_rejects_unsupported_dim():
    # a float size equal to a supported one is refused as well, with the
    # same error, not numpy's TypeError; numpy integers are sizes
    for dim in (3, 4.0, np.float64(8.0)):
        with pytest.raises(ValueError, match="dim"):
            haar_random_unitary(dim, seed=0)
    assert haar_random_unitary(np.int64(4), seed=0).shape == (4, 4)


@pytest.mark.parametrize("seed", [True, np.bool_(False), None, 1.0, np.float64(2.0), "1"])
def test_haar_rejects_a_seed_that_is_not_an_integer(seed):
    # None would draw a fresh matrix on each call and True would read as
    # seed 1
    with pytest.raises(ValueError, match="seed"):
        haar_random_unitary(4, seed)


def test_matrix_json_round_trip():
    U = haar_random_unitary(8, seed=5)
    V = load_matrix(dump_matrix(U))
    assert np.array_equal(U, V)


def test_matrix_json_schema():
    doc = json.loads(dump_matrix(WALK))
    assert doc["dim"] == 4
    assert len(doc["entries"]) == 4
    assert doc["entries"][0][0] == [-0.5, 0.0]


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"dim": 4}',
        '{"dim": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]}',
        '{"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], "x"]]}',
        pytest.param('{"dim": 1, "entries": [[[1' + "0" * 400 + ', 0]]]}',
                     id="integer_too_large_for_float"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested_too_deeply"),
        pytest.param('{"dim": 100000, "entries": [' + ", ".join(["[]"] * 100_000) + "]}",
                     id="dim_larger_than_rows"),
    ],
)
def test_load_matrix_rejects_malformed(text):
    with pytest.raises(ValueError):
        load_matrix(text)
