"""Fredholm elements, the Whitehead factorization, and the K0 index map.

The connecting map is computed by the standard recipe: factor diag(u, u^-1)
into elementary matrices over R/I, lift each parameter to R, conjugate 1+0 by
the lifted product, and read off a formal difference of idempotents that are
congruent modulo M_2(I).

Vanishing in K0(I) is decided on representatives, in two modes.  Strict
searches for an equivalence witness x congruent to pos+1_m modulo the ideal
(the unitization condition).  Relaxed is exact class equality of pos and neg
in V(R), decided by ``vmonoid.class_key``.  Both verdicts are computed and any
disagreement is logged as an event on the ``exlift`` logger, never resolved
silently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT, Guards
from .errors import GuardExceeded, NotAUnit, NotFredholm, RingMismatch
from .matrices import (ElemWord, RMatrix, apply_elem_word, congruent_mod,
                       direct_sum, evaluate_word, identity, is_idempotent,
                       mat_mul, matrix, right_op, whitehead_ops,
                       zero_matrix)
from .rings import FiniteRing, Ideal, QuotientMap, quotient_by
from . import vmonoid as _vm

log = logging.getLogger("exlift")


@dataclass(frozen=True)
class FredholmElement:
    """An element whose image in R/I is a unit."""

    ring: FiniteRing
    ideal: Ideal
    x: int

    def __post_init__(self):
        if not is_fredholm(self.ring, self.ideal, self.x):
            raise NotFredholm(f"element {self.x} is not Fredholm relative to I")


def is_fredholm(ring: FiniteRing, ideal: Ideal, x: int) -> bool:
    qmap = quotient_by(ring, ideal)
    return qmap.target.inverse(qmap.pi(x)) is not None


def fredholm_elements(ring: FiniteRing, ideal: Ideal) -> list:
    qmap = quotient_by(ring, ideal)
    units = set(qmap.target.units())
    return [x for x in ring.elements() if int(qmap.image[x]) in units]


def whitehead_factor(ring: FiniteRing, u: int) -> ElemWord:
    """Six right ops whose product is exactly diag(u, u^-1).

    The word is (1 u; 0 1)(1 0; -u^-1 1)(1 u; 0 1) followed by the inverse
    signed permutation (0 -1; 1 0) expanded into three transvections.
    """
    uinv = ring.inverse(u)
    if uinv is None:
        raise NotAUnit(f"element {u} has no two-sided inverse")
    # right ops run in product order, left ops in reverse
    w = ElemWord(2, tuple(right_op(op.i, op.j, op.r)
                          for op in reversed(whitehead_ops(ring, u, 1, 2))))
    target = matrix(ring, [[u, ring.zero], [ring.zero, uinv]])
    got = evaluate_word(ring, w)
    if got != target:
        raise AssertionError("whitehead factorization failed to replay")
    return w


@dataclass(frozen=True)
class K0Element:
    """Formal difference [pos] - [neg] of idempotent matrices over R, kept as
    tuples of direct summands so stabilized column modules stay composable."""

    ring: FiniteRing
    ideal: Ideal
    pos_parts: tuple
    neg_parts: tuple

    @property
    def pos(self) -> RMatrix:
        return _dsum(self.ring, self.pos_parts)

    @property
    def neg(self) -> RMatrix:
        return _dsum(self.ring, self.neg_parts)

    def __add__(self, other: "K0Element") -> "K0Element":
        if self.ring is not other.ring or self.ideal.members != other.ideal.members:
            raise RingMismatch("K0 elements live in different contexts")
        return K0Element(self.ring, self.ideal,
                         self.pos_parts + other.pos_parts,
                         self.neg_parts + other.neg_parts)

    def __neg__(self) -> "K0Element":
        return K0Element(self.ring, self.ideal, self.neg_parts, self.pos_parts)

    def __sub__(self, other: "K0Element") -> "K0Element":
        return self + (-other)


def _dsum(ring: FiniteRing, parts: tuple) -> RMatrix:
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum(out, p)
    return out


def connecting_delta(ring: FiniteRing, ideal: Ideal, ubar: int,
                     lift: Optional[Callable[[int], int]] = None,
                     guards: Guards = DEFAULT) -> K0Element:
    """delta([ubar]) as [p] - [1+0], with p = v (1+0) v^-1 for a lifted
    Whitehead word v.  ``lift`` overrides the least-index entry lift (used to
    exercise well-definedness)."""
    qmap = quotient_by(ring, ideal, guards)
    word_bar = whitehead_factor(qmap.target, ubar)
    if lift is None:
        lift = qmap.lift
    else:
        base = lift
        def lift(rbar, _f=base, _q=qmap):  # noqa: E731 - keep signature local
            r = _f(rbar)
            if _q.pi(r) != rbar:
                raise NotAUnit(f"lift choice {r} does not reduce to {rbar}")
            return r
    lifted = ElemWord(2, tuple(right_op(op.i, op.j, lift(op.r))
                               for op in word_bar.ops))
    v = evaluate_word(ring, lifted)
    vinv = evaluate_word(ring, lifted.inverse(ring))
    e11 = direct_sum(matrix(ring, [[ring.one]]), matrix(ring, [[ring.zero]]))
    p = mat_mul(mat_mul(v, e11), vinv)
    if not is_idempotent(p):
        raise AssertionError("conjugated idempotent is not idempotent")
    if not _congruent_mod2(p, e11, ideal):
        raise AssertionError("delta output is not congruent to 1+0 mod M_2(I)")
    return K0Element(ring, ideal, (p,), (e11,))


def _congruent_mod2(A: RMatrix, B: RMatrix, ideal: Ideal) -> bool:
    ring = A.ring
    return all(ideal.contains(ring.sub(A.entries[i][j], B.entries[i][j]))
               for i in range(A.n) for j in range(A.n))


def index(ring: FiniteRing, ideal: Ideal, x: int,
          guards: Guards = DEFAULT) -> K0Element:
    """index(x) = delta([pi(x)]); requires x Fredholm relative to I."""
    qmap = quotient_by(ring, ideal, guards)
    xbar = qmap.pi(x)
    if qmap.target.inverse(xbar) is None:
        raise NotFredholm(f"pi({x}) is not a unit of R/I")
    return connecting_delta(ring, ideal, xbar, guards=guards)


# ---------------------------------------------------------------------------
# Zero testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTestResult:
    strict: bool
    relaxed: bool
    strict_padding: Optional[int]
    relaxed_padding: Optional[int]

    @property
    def modes_agree(self) -> bool:
        return self.strict == self.relaxed

    def __bool__(self):
        return self.strict


def k0_zero_test(k: K0Element, stab: Optional[int] = None,
                 guards: Guards = DEFAULT) -> ZeroTestResult:
    """Stabilized equality of [pos] and [neg].

    For each padding m <= stab the strict mode searches for x with
    x*y = pos+1_m, y*x = neg+1_m and x congruent to pos+1_m modulo M(I).
    Relaxed mode drops the congruence: it compares class keys, and since
    V(R) of a finite ring is cancellative it needs no padding.  Strict
    success implies relaxed success, so the relaxed test only runs when
    strict fails.
    """
    if stab is None:
        stab = guards.stabilization
    ring, ideal = k.ring, k.ideal
    strict_padding = None
    for m in range(stab + 1):
        if _strict_equal(ring, ideal, k.pos_parts, k.neg_parts, m, guards):
            strict_padding = m
            break
    if strict_padding is not None:
        return ZeroTestResult(True, True, strict_padding, strict_padding)
    relaxed = (_vm.class_key(ring, *k.pos_parts, guards=guards)
               == _vm.class_key(ring, *k.neg_parts, guards=guards))
    result = ZeroTestResult(False, relaxed, None, 0 if relaxed else None)
    if not result.modes_agree:
        log.warning("K0 zero test modes disagree on %s: strict=False, "
                    "relaxed=True at padding 0", ring.describe())
    return result


def _engine(ring: FiniteRing, guards: Guards):
    got = ring._cache.get("equiv_engine")
    if got is None:
        got = _vm._Engine(ring, guards)
        ring._cache["equiv_engine"] = got
    return got


def _part_handle(eng, part: RMatrix):
    return eng.idem_from_matrix(np.array(part.entries, dtype=np.int64), part.n)


def _stabilized_handle(eng, parts: tuple, m: int):
    hs = [_part_handle(eng, p) for p in parts]
    if m:
        ring = eng.ring
        hs.append(_part_handle(eng, identity(ring, m)))
    h = hs[0]
    for nxt in hs[1:]:
        h = eng.idem_sum(h, nxt)
    return h


def _strict_equal(ring: FiniteRing, ideal: Ideal, pos_parts: tuple,
                  neg_parts: tuple, m: int, guards: Guards) -> bool:
    if ideal.is_full():
        # congruence mod R is vacuous: strict coincides with plain equivalence,
        # and the padding 1_m multiplies both keys by the same nonzero factor
        return (_vm.class_key(ring, *pos_parts, guards=guards)
                == _vm.class_key(ring, *neg_parts, guards=guards))
    from .rings import ProductSpec, build_ring
    if isinstance(ring.spec, ProductSpec):
        return _strict_equal_product(ring, ideal, pos_parts, neg_parts, m,
                                     guards)
    eng = _engine(ring, guards)
    hp = _stabilized_handle(eng, pos_parts, m)
    hq = _stabilized_handle(eng, neg_parts, m)
    if hp.col_size != hq.col_size or hp.row_size != hq.row_size:
        return False
    if hp.col_dig is None or hq.col_dig is None:
        raise GuardExceeded("stabilized column module too large to materialize")
    d = hp.d
    x0 = eng._matmul(hp.arr, hq.arr)
    if eng._is_bijective(x0, hp, hq):
        return True
    members = np.fromiter(ideal.sorted_members, dtype=np.int64)
    for eta in eng._closure_candidates(hp.arr, hq.arr, d, elements=members):
        x = eng.add[x0, eta]
        if eng._is_bijective(x, hp, hq):
            return True
    return False


def _strict_equal_product(ring, ideal, pos_parts, neg_parts, m, guards):
    from .rings import Ideal as _Ideal, build_ring
    lring = build_ring(ring.spec.left, guards)
    rring = build_ring(ring.spec.right, guards)
    nr = rring.size
    lmem, rmem = set(), set()
    for v in ideal.sorted_members:
        lmem.add(v // nr)
        rmem.add(v % nr)
    lideal = _Ideal(lring, frozenset(lmem), tuple(sorted(lmem)))
    rideal = _Ideal(rring, frozenset(rmem), tuple(sorted(rmem)))

    def split(parts, ring_side, shift):
        out = []
        for p in parts:
            ent = np.array(p.entries, dtype=np.int64)
            comp = ent // nr if shift == "l" else ent % nr
            out.append(RMatrix(ring_side, p.n,
                               tuple(tuple(int(v) for v in row) for row in comp)))
        return tuple(out)

    return (_strict_equal(lring, lideal, split(pos_parts, lring, "l"),
                          split(neg_parts, lring, "l"), m, guards)
            and _strict_equal(rring, rideal, split(pos_parts, rring, "r"),
                              split(neg_parts, rring, "r"), m, guards))
