"""Element embeddings on the 2m-dimensional state space and circuit products."""

import numpy as np
import pytest

from cartanopt.circuit import KINDS, OpticalCircuit, OpticalElement, hwp, pbs, ps, qwp
from cartanopt.dof import ps_to_sp_indices
from cartanopt.simulate import element_unitary, simulate, verify
from cartanopt.linalg import ToleranceConfig, haar_random_unitary, is_unitary
from cartanopt.waveplates import PLATE_MATRIX, hwp_matrix, qwp_matrix

WALK = 0.5 * np.array(
    [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=complex
)
QFT = 0.5 * np.array(
    [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]], dtype=complex
)


def _circ(elements, conv="sp", m=2):
    return OpticalCircuit(convention=conv, num_spatial_modes=m, elements=tuple(elements))


def test_pbs_ps_basis():
    # polarization-major order: swaps the two H components, fixes both V
    expected = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(element_unitary(pbs(0, 1), "ps", 2), expected)


def test_pbs_sp_basis():
    # mode-major order: H components sit at even indices
    expected = np.array(
        [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(element_unitary(pbs(0, 1), "sp", 2), expected)


def test_hwp_embedding_ps_basis():
    theta1 = 0.7
    M = element_unitary(hwp(0, theta1 / 2), "ps", 2)
    c, s = np.cos(theta1), np.sin(theta1)
    expected = np.array(
        [
            [1j * c, 0, 1j * s, 0],
            [0, 1, 0, 0],
            [1j * s, 0, -1j * c, 0],
            [0, 0, 0, 1],
        ]
    )
    np.testing.assert_allclose(M, expected, atol=1e-15)


def test_hwp_embedding_sp_basis():
    M = element_unitary(hwp(1, 0.3), "sp", 2)
    expected = np.eye(4, dtype=complex)
    expected[2:, 2:] = hwp_matrix(0.3)
    np.testing.assert_allclose(M, expected, atol=1e-15)


def test_ps_embedding_acts_on_one_path():
    phi = 1.1
    M = element_unitary(ps(1, phi), "ps", 2)
    np.testing.assert_allclose(
        M, np.diag([1, np.exp(1j * phi), 1, np.exp(1j * phi)]), atol=1e-15
    )
    M = element_unitary(ps(1, phi), "sp", 2)
    np.testing.assert_allclose(
        M, np.diag([1, 1, np.exp(1j * phi), np.exp(1j * phi)]), atol=1e-15
    )


def test_four_mode_embeddings():
    M = element_unitary(pbs(1, 3), "sp", 4)
    expected = np.eye(8, dtype=complex)
    expected[[2, 6], [2, 6]] = 0
    expected[2, 6] = expected[6, 2] = 1
    assert np.array_equal(M, expected)

    M = element_unitary(qwp(2, 0.4), "sp", 4)
    expected = np.eye(8, dtype=complex)
    expected[4:6, 4:6] = qwp_matrix(0.4)
    np.testing.assert_allclose(M, expected, atol=1e-15)


def test_embeddings_unitary():
    rng = np.random.default_rng(2)
    for conv in ("ps", "sp"):
        for m in (2, 4):
            elems = [pbs(0, m - 1)]
            for kind in (hwp, qwp, ps):
                elems.append(kind(int(rng.integers(0, m)), float(rng.uniform(0, 6))))
            for e in elems:
                assert is_unitary(element_unitary(e, conv, m))


def test_pbs_squares_to_identity():
    for conv in ("ps", "sp"):
        P = element_unitary(pbs(0, 1), conv, 2)
        assert np.array_equal(P @ P, np.eye(4, dtype=complex))


def test_element_unitary_rejects_out_of_range_mode():
    with pytest.raises(ValueError):
        element_unitary(hwp(2, 0.1), "sp", 2)
    with pytest.raises(ValueError, match="2 or 4"):
        element_unitary(hwp(0, 0.1), "ps", 3)


def test_simulate_empty_is_identity():
    assert np.array_equal(simulate(_circ([])), np.eye(4, dtype=complex))


def test_simulate_applies_first_element_rightmost():
    c = _circ([ps(0, np.pi / 2), pbs(0, 1)], conv="sp")
    first = element_unitary(ps(0, np.pi / 2), "sp", 2)
    second = element_unitary(pbs(0, 1), "sp", 2)
    np.testing.assert_allclose(simulate(c), second @ first, atol=1e-15)


def test_simulate_central_block_sequence():
    # PBS, a half-turn plate on each arm, PBS: equals the hand product of
    # the three written factors in polarization-major order
    c = _circ([pbs(0, 1), hwp(0, np.pi / 4), hwp(1, 0.0), pbs(0, 1)], conv="ps")
    P = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex)
    arm0 = np.array(
        [[0, 0, 1j, 0], [0, 1, 0, 0], [1j, 0, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    arm1 = np.diag([1, 1j, 1, -1j]).astype(complex)
    np.testing.assert_allclose(simulate(c), P @ arm1 @ arm0 @ P, atol=1e-14)


def test_composition_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.choice([2, 4]))
        conv = str(rng.choice(["ps", "sp"]))
        elems = []
        for _ in range(10):
            k = rng.integers(0, 4)
            if k == 0:
                a, b = rng.choice(m, size=2, replace=False)
                elems.append(pbs(int(a), int(b)))
            else:
                factory = (hwp, qwp, ps)[k - 1]
                elems.append(factory(int(rng.integers(0, m)), float(rng.uniform(0, 6))))
        cut = int(rng.integers(0, 10))
        whole = simulate(_circ(elems, conv=conv, m=m))
        head = simulate(_circ(elems[:cut], conv=conv, m=m))
        tail = simulate(_circ(elems[cut:], conv=conv, m=m))
        assert np.abs(whole - tail @ head).max() < 1e-12


def test_disjoint_elements_commute():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = 4
        elems = [
            hwp(int(rng.integers(0, m)), float(rng.uniform(0, 6))),
            qwp(int(rng.integers(0, m)), float(rng.uniform(0, 6))),
            ps(int(rng.integers(0, m)), float(rng.uniform(0, 6))),
        ]
        i = int(rng.integers(0, 2))
        if set(elems[i].modes) & set(elems[i + 1].modes):
            continue
        swapped = list(elems)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        A = simulate(_circ(elems, m=m))
        B = simulate(_circ(swapped, m=m))
        assert np.abs(A - B).max() < 1e-12


def test_verify_empty_against_identity():
    rep = verify(_circ([]), np.eye(4, dtype=complex))
    assert rep.passed
    assert rep.distance == 0.0
    assert rep.element_total == 0


def test_verify_reports_failure():
    c = _circ([pbs(0, 1)])
    rep = verify(c, WALK)
    assert not rep.passed
    assert rep.distance > 0.3


def test_verify_passed_tracks_tolerance():
    c = _circ([ps(0, 1e-10)])
    strict = verify(
        c, np.eye(4, dtype=complex), ToleranceConfig(unitarity_tol=1e-14, equivalence_tol=1e-13)
    )
    assert strict.distance <= 1e-10
    assert not strict.passed
    loose = verify(c, np.eye(4, dtype=complex))
    assert loose.passed


def test_verify_dimension_mismatch():
    with pytest.raises(ValueError):
        verify(_circ([]), np.eye(8, dtype=complex))


def test_walk_and_qft_distinct():
    from cartanopt.linalg import phase_distance

    d, _ = phase_distance(WALK, QFT)
    assert d > 0.3


def _random_circuit(rng, conv, m, n):
    """n random elements of every kind; PBS pairs include non-adjacent modes."""
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    elements = []
    for k in range(n):
        kind = KINDS[k % len(KINDS)] if k < len(KINDS) else KINDS[rng.integers(len(KINDS))]
        if kind == "pbs":
            i, j = pairs[rng.integers(len(pairs))]
            elements.append(pbs(i, j))
        else:
            mode = int(rng.integers(m))
            elements.append(OpticalElement(kind, (mode,), rng.uniform(-7.0, 7.0)))
    if m == 4:
        for i, j in ((0, 2), (1, 3), (3, 1), (2, 0)):
            elements.insert(int(rng.integers(len(elements) + 1)), pbs(i, j))
    return _circ(elements, conv, m)


def _element_product(c):
    m = c.num_spatial_modes
    M = np.eye(2 * m, dtype=complex)
    for e in c.elements:
        M = element_unitary(e, c.convention, m) @ M
    return M


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("conv", ["ps", "sp"])
def test_simulate_matches_element_product(conv, m, seed):
    # row updates against the dense per-element embedding; the bound is
    # set for a complex128 product of about 100 unitary factors
    rng = np.random.default_rng([seed, m, conv == "ps"])
    c = _random_circuit(rng, conv, m, 100)
    assert {e.kind for e in c.elements} == set(KINDS)
    assert np.abs(simulate(c) - _element_product(c)).max() <= 1e-13


@pytest.mark.parametrize("conv", ["ps", "sp"])
def test_simulate_pbs_network_is_exact(conv):
    # a PBS-only circuit is a permutation: no rounding at all
    c = _circ([pbs(0, 2), pbs(1, 3), pbs(2, 1), pbs(3, 0), pbs(0, 1)], conv, 4)
    assert np.array_equal(simulate(c), _element_product(c))


def _matmul_rows(c):
    """The row-update simulator written with @, fancy-index swaps and np.ix_."""
    m = c.num_spatial_modes
    M = np.eye(2 * m, dtype=complex)
    for e in c.elements:
        if e.kind == "pbs":
            i, j = 2 * e.modes[0], 2 * e.modes[1]
            M[[i, j]] = M[[j, i]]
        else:
            k = 2 * e.modes[0]
            M[k : k + 2] = PLATE_MATRIX[e.kind](e.angle_rad) @ M[k : k + 2]
    if c.convention.tag == "ps":
        perm = ps_to_sp_indices(m)
        M = M[np.ix_(perm, perm)]
    return M


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("conv", ["ps", "sp"])
def test_simulate_keeps_the_bits_of_the_matmul_rows(conv, m, seed):
    # .dot and @ reach the same zgemm, and a row copy moves no bit, so
    # simulate equals the @ version byte for byte on every CPU kernel set,
    # though the bytes themselves differ between sets
    rng = np.random.default_rng([seed, m, conv == "ps", 1])
    c = _random_circuit(rng, conv, m, 100)
    assert simulate(c).tobytes() == _matmul_rows(c).tobytes()


@pytest.mark.parametrize("conv", ["ps", "sp"])
def test_simulate_keeps_the_bits_on_empty_and_pbs_only_circuits(conv):
    for c in (
        _circ([], conv, 2),
        _circ([], conv, 4),
        _circ([pbs(0, 1), pbs(1, 0), pbs(0, 1)], conv, 2),
        _circ([pbs(0, 2), pbs(1, 3), pbs(2, 1), pbs(3, 0), pbs(0, 1)], conv, 4),
    ):
        assert simulate(c).tobytes() == _matmul_rows(c).tobytes()
