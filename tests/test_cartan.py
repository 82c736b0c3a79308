"""Two-block factorization of 4x4 unitaries and the recursive 8x8 split."""

import numpy as np
import pytest
import scipy.linalg

from cartanopt.cartan import (
    CartanFactors,
    central_a,
    central_cs_m4,
    decompose,
    decompose_m4,
    reassemble,
    reassemble_m4,
)
from cartanopt.linalg import haar_random_unitary, is_unitary, phase_distance

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

WALK = 0.5 * np.array(
    [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=complex
)
QFT = 0.5 * np.array(
    [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]], dtype=complex
)


def test_central_a_zero_is_identity():
    for conv in ("ps", "sp"):
        assert np.array_equal(central_a(0.0, 0.0, conv), np.eye(4, dtype=complex))


def test_central_a_quarter_angles_ps():
    # alpha = beta = pi/4 puts the full pi/2 mixing on the first block
    expected = scipy.linalg.block_diag(1j * SX, I2)
    np.testing.assert_allclose(central_a(np.pi / 4, np.pi / 4, "ps"), expected, atol=1e-15)


@pytest.mark.parametrize("conv,generators", [
    ("ps", (np.kron(I2, SX), np.kron(SZ, SX))),
    ("sp", (np.kron(SX, SY), np.kron(SY, SX))),
])
def test_central_a_matches_matrix_exponential(conv, generators):
    Ga, Gb = generators
    rng = np.random.default_rng(4)
    for _ in range(25):
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        expected = scipy.linalg.expm(1j * (a * Ga + b * Gb))
        np.testing.assert_allclose(central_a(a, b, conv), expected, atol=1e-12)


def test_central_a_unitary():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b = rng.uniform(-4, 4, size=2)
        assert is_unitary(central_a(a, b, "ps"))
        assert is_unitary(central_a(a, b, "sp"))


def test_walk_angles():
    for conv in ("ps", "sp"):
        f = decompose(WALK, conv)
        assert sorted([f.theta1, f.theta2]) == pytest.approx([0.0, np.pi / 2], abs=1e-9)


def test_qft_angles_sp():
    f = decompose(QFT, "sp")
    assert sorted([f.theta1, f.theta2]) == pytest.approx(
        [np.pi / 8, 3 * np.pi / 8], abs=1e-9
    )


def test_identity_decomposes_to_scalar_gates():
    for conv in ("ps", "sp"):
        f = decompose(np.eye(4, dtype=complex), conv)
        assert f.theta1 == pytest.approx(0.0, abs=1e-12)
        assert f.theta2 == pytest.approx(0.0, abs=1e-12)
        for g in f.left_gates + f.right_gates:
            scalar = g[0, 0]
            assert abs(abs(scalar) - 1.0) < 1e-12
            assert np.abs(g - scalar * I2).max() < 1e-12


def test_theta_properties():
    f = decompose(haar_random_unitary(4, seed=0), "ps")
    assert f.theta1 == pytest.approx(f.alpha + f.beta)
    assert f.theta2 == pytest.approx(f.alpha - f.beta)
    assert 0.0 <= f.theta2 <= f.theta1 <= np.pi + 1e-12


@pytest.mark.parametrize("conv", ["ps", "sp"])
def test_round_trip_haar(conv):
    worst = 0.0
    for seed in range(300):
        U = haar_random_unitary(4, seed=seed)
        f = decompose(U, conv)
        for g in f.left_gates + f.right_gates:
            assert is_unitary(g)
        d, _ = phase_distance(reassemble(f), U)
        worst = max(worst, d)
    assert worst < 1e-9


def test_round_trip_qft_sp_tight():
    f = decompose(QFT, "sp")
    # exact equality, global phase included: the factors carry no phase
    assert np.abs(reassemble(f) - QFT).max() < 1e-12


def test_reassemble_trivial_factors():
    f = CartanFactors(
        convention="ps",
        left_gates=(I2.copy(), I2.copy()),
        right_gates=(I2.copy(), I2.copy()),
        alpha=0.0,
        beta=0.0,
    )
    np.testing.assert_allclose(reassemble(f), np.eye(4), atol=1e-15)


def test_decompose_deterministic():
    U = haar_random_unitary(4, seed=11)
    f1, f2 = decompose(U, "sp"), decompose(U, "sp")
    assert (f1.alpha, f1.beta) == (f2.alpha, f2.beta)
    for A, B in zip(f1.left_gates + f1.right_gates, f2.left_gates + f2.right_gates):
        assert A.tobytes() == B.tobytes()


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose(np.ones((4, 4), dtype=complex), "ps")
    with pytest.raises(ValueError):
        decompose(np.eye(2, dtype=complex), "ps")


def test_m4_identity():
    f = decompose_m4(np.eye(8, dtype=complex))
    assert f.angles == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-12)
    for B in f.left_blocks + f.right_blocks:
        assert np.abs(B - np.eye(4)).max() < 1e-12


def test_m4_spatial_swap_is_maximal_mixing():
    # swapping path pairs (1,3) and (2,4) is exactly the central cos-sin
    # factor at a quarter turn on every coupled pair
    P = np.zeros((4, 4))
    P[0, 2] = P[1, 3] = P[2, 0] = P[3, 1] = 1.0
    U = np.kron(P, I2).astype(complex)
    f = decompose_m4(U)
    assert f.angles == pytest.approx((np.pi / 2,) * 4, abs=1e-9)
    d, _ = phase_distance(reassemble_m4(f), U)
    assert d < 1e-9


def test_m4_round_trip_haar():
    worst = 0.0
    for seed in range(100):
        U = haar_random_unitary(8, seed=seed)
        f = decompose_m4(U)
        a = np.asarray(f.angles)
        assert np.all(a >= -1e-15) and np.all(a <= np.pi / 2 + 1e-12)
        d, _ = phase_distance(reassemble_m4(f), U)
        worst = max(worst, d)
    assert worst < 1e-9


def test_m4_block_diagonal_has_zero_angles():
    A = haar_random_unitary(4, seed=41)
    B = haar_random_unitary(4, seed=42)
    f = decompose_m4(scipy.linalg.block_diag(A, B))
    assert f.angles == pytest.approx((0.0,) * 4, abs=1e-12)


def test_m4_deterministic():
    U = haar_random_unitary(8, seed=23)
    f1, f2 = decompose_m4(U), decompose_m4(U)
    assert f1.angles == f2.angles
    for A, B in zip(f1.left_blocks + f1.right_blocks, f2.left_blocks + f2.right_blocks):
        assert A.tobytes() == B.tobytes()



def _assert_separate_contiguous(blocks):
    # @ reaches zgemm only for an operand contiguous in one order; a strided
    # view goes through numpy's own loop, which rounds otherwise
    for i, A in enumerate(blocks):
        assert A.flags.c_contiguous or A.flags.f_contiguous, i
        for B in blocks[i + 1:]:
            assert not np.shares_memory(A, B), i


def test_factors_are_separate_contiguous_arrays():
    for seed in range(6):
        f = decompose_m4(haar_random_unitary(8, seed=seed))
        _assert_separate_contiguous(f.left_blocks + f.right_blocks)
        for conv in ("ps", "sp"):
            g = decompose(haar_random_unitary(4, seed=seed), conv)
            _assert_separate_contiguous(g.left_gates + g.right_gates)

def test_m4_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose_m4(np.ones((8, 8), dtype=complex))
    with pytest.raises(ValueError):
        decompose_m4(np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="four angles"):
        central_cs_m4([0.1, 0.2, 0.3])
