"""Recursive Lie-algebra spans and brute-force commutator condition checks.

Both factorization routes rest on a splitting g = l + p with
[l,l] in l, [l,p] in p, [p,p] in l, and a maximal Abelian subalgebra
h inside p.  This module builds the generator bases explicitly for
n = 1, 2, 3 in either degree-of-freedom convention and verifies the
conditions numerically.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .dof import DofConvention

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# The one threshold of this module: _span_projector drops a generator whose
# QR diagonal entry is at most it, and check_cartan_conditions takes a
# projection residual or a commutator entry at most it as zero.  On the
# Pauli-word bases of lie_span each is at least 1 or rounding noise
# (~1e-15), so it tells structure from noise and is no ToleranceConfig.
_RANK_FLOOR = 1e-12


def _pauli_words(n: int) -> list[np.ndarray]:
    """All n-fold Kronecker products of {I, x, y, z}, identity word first."""
    words = [np.eye(1, dtype=complex)]
    for _ in range(n):
        words = [np.kron(w, P) for w in words for P in (I2, SX, SY, SZ)]
    # product order above is word-major, so the all-identity word is first
    return words


@dataclasses.dataclass(frozen=True)
class LieSpan:
    """Anti-Hermitian generator bases for one recursion level."""

    l_basis: tuple[np.ndarray, ...]
    p_basis: tuple[np.ndarray, ...]
    h_basis: tuple[np.ndarray, ...]
    level: int
    convention: DofConvention


def _h_words(n: int, convention: DofConvention) -> list[np.ndarray]:
    if n == 1:
        return [SX]
    if convention is DofConvention.POLARIZATION_SPATIAL:
        # new factors attach on the left: {I x h, sz x h}
        return [np.kron(F, h) for F in (I2, SZ) for h in _h_words(n - 1, convention)]
    if n == 2:
        return [np.kron(SX, SY), np.kron(SY, SX)]
    # mode-major route appends on the right: {h x I, h x sz}
    return [np.kron(h, F) for F in (I2, SZ) for h in _h_words(n - 1, convention)]


def lie_span(n: int, convention: DofConvention) -> LieSpan:
    """Generator bases for recursion level n in the given convention.

    Level 1 is the shared base case l = {i sz}, p = {i sx, i sy},
    h = {i sx}.  Above that, the polarization-major route splits off the
    last tensor factor and the mode-major route splits off the first.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2, or 3, got {n}")
    convention = DofConvention(convention)
    if n == 1:
        return LieSpan(
            l_basis=(1j * SZ,),
            p_basis=(1j * SX, 1j * SY),
            h_basis=(1j * SX,),
            level=1,
            convention=convention,
        )
    words = _pauli_words(n - 1)
    su_words = words[1:]           # traceless words only
    u_words = words                # with identity
    if convention is DofConvention.POLARIZATION_SPATIAL:
        l = [1j * np.kron(w, I2) for w in su_words]
        l += [1j * np.kron(w, SZ) for w in u_words]
        p = [1j * np.kron(w, SX) for w in u_words]
        p += [1j * np.kron(w, SY) for w in u_words]
    else:
        l = [1j * np.kron(I2, w) for w in su_words]
        l += [1j * np.kron(SZ, w) for w in u_words]
        p = [1j * np.kron(SX, w) for w in u_words]
        p += [1j * np.kron(SY, w) for w in u_words]
    h = [1j * w for w in _h_words(n, convention)]
    return LieSpan(tuple(l), tuple(p), tuple(h), n, convention)


@dataclasses.dataclass(frozen=True)
class CartanConditionReport:
    ll_in_l: bool
    lp_in_p: bool
    pp_in_l: bool
    h_abelian: bool
    h_maximal: bool

    @property
    def all_passed(self) -> bool:
        return (self.ll_in_l and self.lp_in_p and self.pp_in_l
                and self.h_abelian and self.h_maximal)


def _span_projector(basis) -> np.ndarray:
    """Orthonormal basis (as real columns) of the real span of the generators."""
    A = np.stack([b.ravel() for b in basis], axis=1)
    A_real = np.vstack([A.real, A.imag])
    q, r = np.linalg.qr(A_real)
    keep = np.abs(np.diag(r)) > _RANK_FLOOR
    return q[:, keep]


def _in_span(M: np.ndarray, Q: np.ndarray) -> bool:
    y = np.concatenate([M.ravel().real, M.ravel().imag])
    resid = y - Q @ (Q.T @ y)
    return bool(np.abs(resid).max() <= _RANK_FLOOR)


def _comm(X, Y):
    return X @ Y - Y @ X


def _commutes(X, Y) -> bool:
    return bool(np.abs(_comm(X, Y)).max() <= _RANK_FLOOR)


def check_cartan_conditions(span: LieSpan) -> CartanConditionReport:
    """Verify the commutator conditions by brute force over basis pairs.

    Membership is tested by least-squares projection onto the real span
    of the target basis, with max-entry residual at most the module's
    floor; a commutator vanishes when its largest entry is at most that
    floor.  h_maximal checks that every p-basis element outside span(h)
    fails to commute with at least one h generator.
    """
    Ql = _span_projector(span.l_basis)
    Qp = _span_projector(span.p_basis)
    Qh = _span_projector(span.h_basis)

    ll_in_l = all(
        _in_span(_comm(X, Y), Ql) for X, Y in itertools.combinations(span.l_basis, 2)
    )
    lp_in_p = all(_in_span(_comm(X, Y), Qp) for X in span.l_basis for Y in span.p_basis)
    pp_in_l = all(
        _in_span(_comm(X, Y), Ql) for X, Y in itertools.combinations(span.p_basis, 2)
    )
    h_abelian = all(_commutes(X, Y) for X, Y in itertools.combinations(span.h_basis, 2))
    h_maximal = all(
        _in_span(q, Qh) or not all(_commutes(h, q) for h in span.h_basis)
        for q in span.p_basis
    )
    return CartanConditionReport(ll_in_l, lp_in_p, pp_in_l, h_abelian, h_maximal)
