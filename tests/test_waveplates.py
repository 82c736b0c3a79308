"""Closed-form plate matrices and shortest-chain synthesis of 2x2 unitaries."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartanopt import waveplates
from cartanopt.linalg import DEFAULT_TOL, _entries2, haar_random_unitary
from cartanopt.waveplates import (
    PLATE_MATRIX,
    _su2,
    chain_matrix,
    hwp_matrix,
    ps_matrix,
    qwp_matrix,
    synthesize_u2,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_ps_matrix_values():
    np.testing.assert_allclose(ps_matrix(0.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(ps_matrix(np.pi), -np.eye(2), atol=1e-15)
    np.testing.assert_allclose(ps_matrix(np.pi / 2), 1j * np.eye(2), atol=1e-15)


def test_hwp_matrix_values():
    np.testing.assert_allclose(hwp_matrix(0.0), 1j * np.diag([1, -1]), atol=1e-15)
    np.testing.assert_allclose(hwp_matrix(np.pi / 4), 1j * SX, atol=1e-15)
    np.testing.assert_allclose(hwp_matrix(np.pi / 8), 1j * HADAMARD, atol=1e-15)


def test_qwp_matrix_values():
    np.testing.assert_allclose(
        qwp_matrix(0.0), np.diag([1 + 1j, 1 - 1j]) / np.sqrt(2), atol=1e-15
    )
    np.testing.assert_allclose(
        qwp_matrix(np.pi / 4), np.array([[1, 1j], [1j, 1]]) / np.sqrt(2), atol=1e-15
    )


def test_plate_identities():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(0, 2 * np.pi, size=100):
        Q = qwp_matrix(theta)
        H = hwp_matrix(theta)
        assert np.abs(Q @ Q - H).max() < 1e-12
        assert np.abs(H @ H + np.eye(2)).max() < 1e-12


def test_chain_matrix_empty_is_identity():
    assert np.array_equal(chain_matrix([]), np.eye(2, dtype=complex))


def test_chain_matrix_of_the_empty_chain_is_a_fresh_array():
    # the fold starts from a shared read-only identity, which the empty
    # chain must not hand out
    M = chain_matrix([])
    M[0, 0] = 5.0
    assert np.array_equal(chain_matrix([]), np.eye(2, dtype=complex))


def _matmul_chain(plates):
    M = np.eye(2, dtype=complex)
    for kind, angle in plates:
        M = PLATE_MATRIX[kind](angle) @ M
    return M


@pytest.mark.parametrize("n", range(7))
def test_chain_matrix_keeps_the_bits_of_the_matmul_fold(n):
    # the batched plates folded with .dot reach the same zgemm calls as
    # the @ fold, so the bytes agree on every CPU kernel set, though the
    # bytes themselves differ between sets
    rng = np.random.default_rng([n, 7])
    for _ in range(200):
        plates = [
            (str(rng.choice(("ps", "hwp", "qwp"))), float(rng.uniform(-7.0, 7.0)))
            for _ in range(n)
        ]
        assert chain_matrix(plates).tobytes() == _matmul_chain(plates).tobytes()


@pytest.mark.parametrize("order", ["shuffled", "longest first", "shortest first"])
def test_each_chain_product_keeps_the_bits_of_the_matmul_fold(order):
    # ragged batches of 1 to 20 chains of 0 to 6 plates: each product has
    # the bytes of its own @ fold, wherever its chain sits in the batch.
    # One chain in three is PS only, a product of plates whose
    # off-diagonal entries are exact zeros
    rng = np.random.default_rng([len(order), 7])
    for _ in range(100):
        chains = []
        for _ in range(int(rng.integers(1, 21))):
            kinds = ("ps",) if rng.random() < 1 / 3 else ("ps", "hwp", "qwp")
            chains.append([
                (str(rng.choice(kinds)), float(rng.uniform(-7.0, 7.0)))
                for _ in range(int(rng.integers(0, 7)))
            ])
        if order != "shuffled":
            chains.sort(key=len, reverse=order == "longest first")
        products = waveplates._chain_products(chains)
        assert len(products) == len(chains)
        for chain, P in zip(chains, products):
            assert P.tobytes() == _matmul_chain(chain).tobytes(), chain


def _written_out_su2(U):
    """_su2 on floats, each complex product written out as CPython forms it.

    cmath.exp(z) for a z of real part +-0 is exactly (cos z.imag, sin z.imag),
    and -1j * delta has imaginary part -delta.
    """
    (ar, ai), (br, bi), (cr, ci), (dr, di) = [(z.real, z.imag) for z in U]
    det_r = (ar * dr - ai * di) - (br * cr - bi * ci)
    det_i = (ar * di + ai * dr) - (br * ci + bi * cr)
    delta = math.atan2(det_i + 0.0, det_r) / 2.0
    er, ei = math.cos(-delta), math.sin(-delta)
    va_r, va_i = ar * er - ai * ei, ar * ei + ai * er
    vb_r, vb_i = br * er - bi * ei, br * ei + bi * er
    return delta, va_r, vb_i, vb_r, va_i


def _seeded_2x2(rng, n):
    """n Gaussian complex 2x2 matrices, then n unitary ones, each its own array."""
    G = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    a, b = G[:, 0, 0], G[:, 0, 1]
    norm = np.hypot(np.abs(a), np.abs(b))
    a, b = a / norm, b / norm
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    W = np.stack([np.stack([a, b], -1), np.stack([-b.conj() * phase, a.conj() * phase], -1)], 1)
    return [M.copy() for M in G] + [M.copy() for M in W]


def test_su2_keeps_the_bits_of_the_written_out_products():
    # _su2 runs on Python complex, whose product is the textbook formula
    # with no fused multiply-add: the same float operations written out in
    # Python give the same bits on every kernel set
    for U in _seeded_2x2(np.random.default_rng(20), 10_000):
        U = _entries2(U)
        got, want = _su2(U), _written_out_su2(U)
        assert [v.hex() for v in got] == [v.hex() for v in want], U


def test_su2_splits_a_zero_imaginary_determinant_alike_for_either_sign():
    # diag(-1, 1) with its first entry's imaginary part -0.0 or +0.0 has
    # determinant -1 - 0j or -1 + 0j, which atan2 puts at -pi and pi; the
    # +0.0 of _su2's rule gives both delta = pi/2 and one split
    minus, plus = (complex(-1.0, -0.0), 0j, 0j, 1 + 0j), (complex(-1.0, 0.0), 0j, 0j, 1 + 0j)
    dets = [a * d - b * c for a, b, c, d in (minus, plus)]
    assert [z.imag.hex() for z in dets] == [(-0.0).hex(), (0.0).hex()]
    assert [v.hex() for v in _su2(minus)] == [v.hex() for v in _su2(plus)]
    assert _su2(plus)[0] == math.pi / 2


def test_chain_matrix_phase_only():
    ch = [("ps", np.pi / 2)]
    np.testing.assert_allclose(chain_matrix(ch), 1j * np.eye(2), atol=1e-15)


def test_double_qwp_equals_hwp():
    for theta in (0.0, 0.3, 1.2, 2.9):
        ch = [("qwp", theta), ("qwp", theta)]
        np.testing.assert_allclose(chain_matrix(ch), hwp_matrix(theta), atol=1e-14)


def test_plates_listed_in_application_order():
    # the first plate acts first: the product is Q(0.4) H(0.3) Q(0.2) PS(0.1)
    ch = [("ps", 0.1), ("qwp", 0.2), ("hwp", 0.3), ("qwp", 0.4)]
    expected = qwp_matrix(0.4) @ hwp_matrix(0.3) @ qwp_matrix(0.2) @ ps_matrix(0.1)
    np.testing.assert_allclose(chain_matrix(ch), expected, atol=1e-15)
    full = synthesize_u2(haar_random_unitary(2, seed=3))
    assert [k for k, _ in full] == ["ps", "qwp", "hwp", "qwp"]


def test_synthesize_identity_is_empty():
    assert synthesize_u2(np.eye(2, dtype=complex)) == []


def test_synthesize_single_hwp():
    ch = synthesize_u2(1j * SX)
    assert ch == [("hwp", pytest.approx(np.pi / 4))]


def test_synthesize_phase_only():
    ch = synthesize_u2(np.exp(0.7j) * np.eye(2))
    assert ch == [("ps", pytest.approx(0.7))]


def test_synthesize_reflection_with_phase():
    # sx = e^{i pi/2} times a pure half-wave reflection
    ch = synthesize_u2(SX.astype(complex))
    kinds = [k for k, _ in ch]
    assert kinds == ["ps", "hwp"]
    np.testing.assert_allclose(chain_matrix(ch), SX, atol=1e-14)


def test_synthesize_hadamard_two_elements():
    ch = synthesize_u2(HADAMARD)
    assert len(ch) == 2
    np.testing.assert_allclose(chain_matrix(ch), HADAMARD, atol=1e-14)


def test_synthesize_single_qwp_preserved():
    ch = synthesize_u2(qwp_matrix(0.4))
    assert ch == [("qwp", pytest.approx(0.4))]


def test_synthesize_round_trip_haar():
    worst = 0.0
    for seed in range(1000):
        U = haar_random_unitary(2, seed=seed)
        ch = synthesize_u2(U)
        assert len(ch) <= 4
        worst = max(worst, np.abs(chain_matrix(ch) - U).max())
    assert worst < 1e-10


def test_synthesize_round_trip_near_real_rotations():
    # nearly real rotations sit at the edge of the generic branch; the
    # angle extraction must not lose half the digits there
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        m = rng.normal() * np.pi
        eps = 10.0 ** rng.uniform(-18, -6)
        V = np.array(
            [[np.cos(m), -np.sin(m)], [np.sin(m), np.cos(m)]], dtype=complex
        )
        P = np.array(
            [
                [np.cos(eps) + 1j * np.sin(eps) * np.cos(0.3),
                 1j * np.sin(eps) * np.sin(0.3)],
                [1j * np.sin(eps) * np.sin(0.3),
                 np.cos(eps) - 1j * np.sin(eps) * np.cos(0.3)],
            ]
        )
        U = V @ P
        worst = max(worst, np.abs(chain_matrix(synthesize_u2(U)) - U).max())
    assert worst < 1e-12


def test_synthesize_canonical_angle_ranges():
    for seed in range(50):
        ch = synthesize_u2(haar_random_unitary(2, seed=seed))
        for kind, angle in ch:
            if kind == "ps":
                assert 0.0 <= angle < 2 * np.pi
            else:
                assert 0.0 <= angle < np.pi


def test_synthesize_rejects_non_unitary():
    with pytest.raises(ValueError):
        synthesize_u2(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError, match="2x2"):
        synthesize_u2(np.eye(3, dtype=complex))


@pytest.mark.parametrize(
    "plates, form",
    [
        ([], []),
        ([("ps", 0.7)], []),
        ([("hwp", 0.3)], ["hwp"]),
        ([("qwp", 0.4)], ["qwp"]),
        ([("hwp", 0.0), ("hwp", 0.9)], ["hwp", "hwp"]),
        ([("qwp", 0.2), ("hwp", 0.9)], ["qwp", "hwp"]),
        ([("qwp", 0.2), ("qwp", 0.9)], ["qwp", "qwp"]),
        ([("ps", 0.5), ("qwp", 0.2), ("hwp", 0.9), ("qwp", 1.4)], ["qwp", "hwp", "qwp"]),
    ],
    ids=["identity", "phase", "hwp", "qwp", "hwp-hwp", "qwp-hwp", "qwp-qwp", "full"],
)
def test_synthesize_splits_once(monkeypatch, plates, form):
    # every form, the full chain included, reads the one _su2 split of U
    calls = []

    def counted(U):
        calls.append(U)
        return _su2(U)

    monkeypatch.setattr(waveplates, "_su2", counted)
    chain = synthesize_u2(chain_matrix(plates))
    assert [k for k, _ in chain if k != "ps"] == form
    assert len(calls) == 1


def _quaternion_matrix(q) -> np.ndarray:
    """w I + i(x sx + y sy + z sz) for q = (w, x, y, z)."""
    w, x, y, z = q
    return np.array([[complex(w, z), complex(y, x)], [complex(-y, x), complex(w, -z)]])


def test_qwp_within_angle_tol_stays_one_plate():
    # Q(theta) has quaternion (1/sqrt 2, sin 2theta / sqrt 2, 0,
    # cos 2theta / sqrt 2).  Move it along the sphere by 0.999 angle_tol in
    # seeded directions: the QWP gap is at most that distance, and the QWP
    # nearest U misses it by at most that in every entry
    a_tol = DEFAULT_TOL.angle_tol
    rng = np.random.default_rng(3)
    for theta in (0.0, 0.35, 1.2):
        q0 = np.array([1.0, math.sin(2 * theta), 0.0, math.cos(2 * theta)]) / math.sqrt(2.0)
        for _ in range(50):
            d = rng.standard_normal(4)
            d -= d.dot(q0) * q0
            d /= np.linalg.norm(d)
            U = _quaternion_matrix(math.cos(0.999 * a_tol) * q0 + math.sin(0.999 * a_tol) * d)
            chain = synthesize_u2(U)
            assert [k for k, _ in chain] == ["qwp"]
            # plain equality, global phase included
            assert np.abs(chain_matrix(chain) - U).max() <= a_tol


def _moved_qwp(dw: float, dy: float) -> np.ndarray:
    """Q(0), quaternion (1/sqrt 2, 0, 0, 1/sqrt 2), with w and y moved, renormalized through z."""
    w = 1.0 / math.sqrt(2.0) + dw
    return _quaternion_matrix((w, 0.0, dy, math.sqrt(1.0 - w * w - dy * dy)))


def test_qwp_gap_is_euclidean():
    # w and y each moved by 0.999 angle_tol: the largest component move is
    # within angle_tol, the Euclidean one is not, and a lone QWP would miss
    # U by about sqrt 2 times angle_tol
    a_tol = DEFAULT_TOL.angle_tol
    chain = synthesize_u2(_moved_qwp(0.999 * a_tol, 0.999 * a_tol))
    assert [k for k, _ in chain] != ["qwp"]


# Known fault (ROADMAP item 10): the QWP and QWP-HWP forms fix |w| or
# r = hypot(w, y) at 1/sqrt 2 and with it hypot(x, z), which moves by as
# much; their gaps leave that move out.  A lone QWP with only w moved by
# 0.999 angle_tol, and the input above, which now takes QWP-HWP, each miss
# U by about 1.41 angle_tol.  Gaps that count the move of hypot(x, z) fix
# it and turn this pin into a failure until the mark is removed.
@pytest.mark.xfail(strict=True, reason="the QWP and QWP-HWP gaps leave out hypot(x, z)")
def test_chains_at_the_qwp_thresholds_stay_within_angle_tol():
    a_tol = DEFAULT_TOL.angle_tol
    for U in (_moved_qwp(0.999 * a_tol, 0.0), _moved_qwp(0.999 * a_tol, 0.999 * a_tol)):
        # plain equality, global phase included
        assert np.abs(chain_matrix(synthesize_u2(U)) - U).max() <= a_tol


# runs that synthesize_u2 shortens: each two-plate family behind H(0.1)
# H(0.1) = -I, bare and behind a PS, which the table takes to two plates
# (QWP-QWP to a PS and two, or a tie with QWP-HWP-QWP).  Then two runs that
# shrink only with their phase counted: a QWP-HWP-QWP chain behind a PS of
# pi, which the sign of its plates absorbs, and a QWP and H(0.7) H(0.7) = -I
# with the PS between them, which leave a PS and one QWP
FAMILIES = (("hwp", "hwp"), ("qwp", "hwp"), ("hwp", "qwp"), ("qwp", "qwp"))
_SHRINKING = [
    head + [(p1, 0.3), (p2, 0.7), ("hwp", 0.1), ("hwp", 0.1)]
    for p1, p2 in FAMILIES
    for head in ([], [("ps", 0.5)])
] + [
    [("ps", math.pi), ("qwp", 0.3), ("hwp", 1.1), ("qwp", 2.0)],
    [("qwp", 0.3), ("hwp", 0.7), ("ps", 0.5), ("hwp", 0.7)],
]


# plate and PS angles at exact multiples of pi/8, or anywhere
_exact_plates = st.tuples(
    st.sampled_from(("ps", "hwp", "qwp")),
    st.one_of(
        st.integers(-16, 16).map(lambda k: k * math.pi / 8),
        st.floats(-4 * math.pi, 4 * math.pi),
    ),
)


# No offsets around angle_tol here: at that edge a part of a run can drop a
# phase that moves its own entries by at most angle_tol but the whole run's
# by more, so the part shrinks while the whole run, held to its own
# entries, keeps the PS.  Whole runs are the optimizer's only candidates.
@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(_exact_plates, min_size=3, max_size=6))
def test_no_part_of_a_run_shrinks_unless_the_run_does(plates):
    if len(synthesize_u2(chain_matrix(plates))) < len(plates):
        return
    for i, j in itertools.combinations(range(len(plates) + 1), 2):
        part = plates[i:j]
        assert len(synthesize_u2(chain_matrix(part))) >= len(part), (i, j)


def test_shrinking_examples_do_shrink():
    for run in _SHRINKING:
        assert len(synthesize_u2(chain_matrix(run))) < len(run), run


# plate angles at multiples of pi/8, exactly or off by offsets around the
# default angle_tol, or anywhere
_tier_angles = st.one_of(
    st.builds(
        lambda k, sign, offset: k * math.pi / 8 + sign * offset,
        st.integers(-16, 16),
        st.sampled_from((-1.0, 1.0)),
        st.sampled_from((0.0, 1e-13, 1e-12, 2e-12, 1e-9)),
    ),
    st.floats(-4 * math.pi, 4 * math.pi),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.sampled_from(FAMILIES), _tier_angles, _tier_angles, st.none() | _tier_angles)
def test_two_plate_products_come_back_as_at_most_two_plates(family, a, b, phase):
    run = [(family[0], a), (family[1], b)]
    if phase is not None:
        run.insert(0, ("ps", phase))
    U = chain_matrix(run)
    chain = synthesize_u2(U)
    kinds = [k for k, _ in chain]
    plates = kinds[1:] if kinds[:1] == ["ps"] else kinds
    assert "ps" not in plates
    # plain equality, global phase included
    assert np.abs(chain_matrix(chain) - U).max() <= 1e-12
    if len(plates) > 2:
        # the one tie: QWP-QWP on its w < 0 representative needs a PS of
        # pi that QWP-HWP-QWP, with its own PS elided, does not
        assert family == ("qwp", "qwp") and kinds == ["qwp", "hwp", "qwp"]


def _fit_residual(shape, U, with_phase, rng, starts=8):
    """Smallest max-entry residual of plates `shape` (and a free PS) against U."""
    from scipy.optimize import least_squares

    def gap(angles):
        M = chain_matrix(list(zip(shape, angles)))
        if with_phase:
            # the best PS in front: e^{i arg tr(M^+ U)}
            t = np.trace(M.conj().T @ U)
            M = M * (t / abs(t) if abs(t) > 0 else 1.0)
        return M - U

    def residual(angles):
        g = gap(angles)
        return np.concatenate([g.real.ravel(), g.imag.ravel()])

    if not shape:
        return float(np.abs(gap([])).max())
    fits = (least_squares(residual, rng.uniform(0.0, math.pi, len(shape))) for _ in range(starts))
    return min(float(np.abs(gap(fit.x)).max()) for fit in fits)


def _brute_force_cases():
    cases = [haar_random_unitary(2, seed) for seed in range(3)]
    for p1, p2 in FAMILIES:
        cases.append(chain_matrix([(p1, 0.3), (p2, 1.1)]))
        cases.append(chain_matrix([("ps", 0.5), (p1, 0.3), (p2, 1.1)]))
    # the QWP-QWP tie, a bare three-plate chain, and a phase times one plate
    cases.append(chain_matrix([("ps", math.pi), ("qwp", 0.3), ("qwp", 1.1)]))
    cases.append(chain_matrix([("qwp", 0.3), ("hwp", 1.1), ("qwp", 2.0)]))
    cases.append(chain_matrix([("ps", 0.5), ("qwp", 0.3)]))
    return cases


@pytest.mark.parametrize("index", range(len(_brute_force_cases())))
def test_brute_force_finds_no_shorter_chain(index):
    # every chain of fewer elements than the table's, PS first (a PS
    # commutes with every plate, so its place does not matter), fitted by
    # least squares from several starts, misses U clearly
    pytest.importorskip("scipy")
    U = _brute_force_cases()[index]
    chain = synthesize_u2(U)
    n = len(chain)
    rng = np.random.default_rng(index)
    # the search finds the table's own chain
    plates = tuple(k for k, _ in chain if k != "ps")
    assert _fit_residual(plates, U, len(plates) < n, rng) < 1e-9
    for size in range(n):
        for shape in itertools.product(("hwp", "qwp"), repeat=size):
            assert _fit_residual(shape, U, False, rng) > 1e-6, shape
            if size + 1 < n:
                assert _fit_residual(shape, U, True, rng) > 1e-6, ("ps", *shape)
