"""Fredholm elements and the K0 index map.

The connecting map is computed by the standard recipe: factor diag(u, u^-1)
into elementary matrices over R/I, lift each parameter to R, conjugate 1+0 by
the lifted product, and read off a formal difference of idempotents that are
congruent modulo M_2(I).  The factorization is Whitehead's
diag(u, u^-1) = w(u) w(-1) (``matrices.whitehead_ops``, built from w(v)).
``test_delta_output_contracts`` asserts both properties of p for every
unit of every corpus quotient; they are not re-checked here.

Vanishing in K0(I) is decided by one exact comparison: ``class_key`` of pos
against ``class_key`` of neg.  Over a finite ring K0(I) -> K0(R) is
injective, so equal classes in V(R) mean a zero class in K0(I); see
``k0_zero_test``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAUnit, NotFredholm, RingMismatch
from .matrices import (ElemWord, direct_sum, evaluate_word, left_op, mat_mul,
                       matrix, whitehead_ops)
from .rings import FiniteRing, Ideal, quotient_by
from . import vmonoid as _vm


def is_fredholm(ring: FiniteRing, ideal: Ideal, x: int) -> bool:
    qmap = quotient_by(ring, ideal)
    return qmap.target.inverse(qmap.pi(x)) is not None


def fredholm_elements(ring: FiniteRing, ideal: Ideal) -> list:
    qmap = quotient_by(ring, ideal)
    units = set(qmap.target.units())
    return [x for x in ring.elements() if int(qmap.image[x]) in units]


@dataclass(frozen=True)
class K0Element:
    """Formal difference [pos] - [neg] of idempotent matrices over R, kept as
    tuples of direct summands so stabilized column modules stay composable."""

    ring: FiniteRing
    ideal: Ideal
    pos_parts: tuple
    neg_parts: tuple

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


def connecting_delta(ring: FiniteRing, ideal: Ideal, ubar: int) -> K0Element:
    """delta([ubar]) as [p] - [1+0], with p = v (1+0) v^-1 for v the
    Whitehead word of diag(ubar, ubar^-1) over R/I with each parameter
    lifted to its least-index preimage."""
    qmap = quotient_by(ring, ideal)
    S = qmap.target
    if S.inverse(ubar) is None:
        raise NotAUnit(f"element {ubar} has no two-sided inverse")
    lifted = ElemWord(2, tuple(left_op(op.i, op.j, qmap.lift(op.r))
                               for op in whitehead_ops(S, ubar, 1, 2)))
    v = evaluate_word(ring, lifted)
    vinv = evaluate_word(ring, lifted.inverse(ring))
    e11 = direct_sum(matrix(ring, [[ring.one]]), matrix(ring, [[ring.zero]]))
    return K0Element(ring, ideal, (mat_mul(mat_mul(v, e11), vinv),), (e11,))


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
