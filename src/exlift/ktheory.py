"""Fredholm elements, the Whitehead factorization, and the K0 index map.

The connecting map is computed by the standard recipe: factor diag(u, u^-1)
into elementary matrices over R/I, lift each parameter to R, conjugate 1+0 by
the lifted product, and read off a formal difference of idempotents that are
congruent modulo M_2(I).

Vanishing in K0(I) is decided by one exact comparison: ``class_key`` of pos
against ``class_key`` of neg.  Over a finite ring K0(I) -> K0(R) is
injective, so equal classes in V(R) mean a zero class in K0(I); see
``k0_zero_test``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAUnit, NotFredholm, RingMismatch
from .matrices import (ElemWord, RMatrix, congruent_mod, direct_sum,
                       evaluate_word, is_idempotent, mat_mul, matrix,
                       right_op, whitehead_ops)
from .rings import FiniteRing, Ideal, quotient_by
from . import vmonoid as _vm


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
        return _dsum(self.pos_parts)

    @property
    def neg(self) -> RMatrix:
        return _dsum(self.neg_parts)

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


def _dsum(parts: tuple) -> RMatrix:
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum(out, p)
    return out


def connecting_delta(ring: FiniteRing, ideal: Ideal, ubar: int) -> K0Element:
    """delta([ubar]) as [p] - [1+0], with p = v (1+0) v^-1 for v the
    Whitehead word of ubar with each parameter lifted to its least-index
    preimage."""
    qmap = quotient_by(ring, ideal)
    word_bar = whitehead_factor(qmap.target, ubar)
    lifted = ElemWord(2, tuple(right_op(op.i, op.j, qmap.lift(op.r))
                               for op in word_bar.ops))
    v = evaluate_word(ring, lifted)
    vinv = evaluate_word(ring, lifted.inverse(ring))
    e11 = direct_sum(matrix(ring, [[ring.one]]), matrix(ring, [[ring.zero]]))
    p = mat_mul(mat_mul(v, e11), vinv)
    if not is_idempotent(p):
        raise AssertionError("conjugated idempotent is not idempotent")
    if not congruent_mod(p, e11, ideal):
        raise AssertionError("delta output is not congruent to 1+0 mod M_2(I)")
    return K0Element(ring, ideal, (p,), (e11,))


def index(ring: FiniteRing, ideal: Ideal, x: int) -> K0Element:
    """index(x) = delta([pi(x)]); requires x Fredholm relative to I."""
    qmap = quotient_by(ring, ideal)
    xbar = qmap.pi(x)
    if qmap.target.inverse(xbar) is None:
        raise NotFredholm(f"pi({x}) is not a unit of R/I")
    return connecting_delta(ring, ideal, xbar)


# ---------------------------------------------------------------------------
# Zero testing
# ---------------------------------------------------------------------------

def k0_zero_test(k: K0Element) -> bool:
    """Whether [pos] - [neg] vanishes in K0(I), by ``class_key(pos) ==
    class_key(neg)``.

    The key decides the class of [pos] - [neg] in K0(R): V(R) of a finite
    ring is cancellative, so no padding is needed.  That is the class in
    K0(I) as well, because K0(I) -> K0(R) is injective here: a finite ring
    has stable rank 1, so units of R/I lift (Bass), K1(R) -> K1(R/I) is
    onto, and exactness of K1(R) -> K1(R/I) -> K0(I) -> K0(R) leaves the
    last map with trivial kernel.
    """
    return (_vm.class_key(k.ring, *k.pos_parts)
            == _vm.class_key(k.ring, *k.neg_parts))
