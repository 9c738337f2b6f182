"""Exhaustive checks and small constructions that only the tests use: the
ring and ideal axioms, corner rings eRe, von Neumann regularity witnesses,
matrices decoded from their codes, zero matrices, zero padding and matrix
addition, words from a list of ops, and equivalence of idempotent matrices
by class key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from exlift.errors import (DimensionMismatch, GuardExceeded, InvalidSpec,
                           PreconditionFailed)
from exlift.matrices import ElemOp, ElemWord, RMatrix, _same_context, direct_sum
from exlift.rings import (FiniteRing, Ideal, RingSpec, _table_dtype,
                          distinct, ideal_closure, pack, unpack)
from exlift.vmonoid import class_key


# ---------------------------------------------------------------------------
# Corner rings eRe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CornerSpec:
    """Recipe for the corner ring eRe; its elements have no descriptors."""

    base: RingSpec
    e: int

    def describe(self) -> str:
        return f"corner({self.base.describe()},{self.e})"


def corner_ring(ring: FiniteRing, e: int):
    """Materialize the corner eRe as a FiniteRing with unit e.

    Returns (corner, embed) where embed maps corner indices to ring indices.
    """
    if ring.mul(e, e) != e:
        raise PreconditionFailed(f"element {e} is not idempotent")
    row = ring.npmul[e]
    exe = distinct(ring.npmul[row, e], ring.size)
    embed = [int(x) for x in exe]
    index_of = {x: i for i, x in enumerate(embed)}
    m = len(embed)
    dt = _table_dtype(m)
    add = np.empty((m, m), dtype=dt)
    mul = np.empty((m, m), dtype=dt)
    neg = np.empty(m, dtype=dt)
    for i, x in enumerate(embed):
        neg[i] = index_of[ring.neg(x)]
        for j, y in enumerate(embed):
            add[i, j] = index_of[ring.add(x, y)]
            mul[i, j] = index_of[ring.mul(x, y)]
    corner = FiniteRing(m, add, mul, neg, index_of[ring.zero], index_of[e],
                        CornerSpec(ring.spec, e))
    return corner, tuple(embed)


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------

def regular_witness(ring: FiniteRing, x: int) -> Optional[int]:
    """Least y with x*y*x == x, or None."""
    xy = ring.npmul[x]                    # x*y over all y
    back = ring.npmul[xy, x]              # (x*y)*x
    hits = np.flatnonzero(back == x)
    return int(hits[0]) if len(hits) else None


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def encode_matrix(A: RMatrix) -> int:
    """The code of A as an element of M_n(R)."""
    return pack([x for row in A.entries for x in row], A.ring.size)


def decode_matrix(ring: FiniteRing, n: int, code: int) -> RMatrix:
    """Inverse of ``encode_matrix``."""
    flat = unpack(code, ring.size, n * n)
    return RMatrix(ring, n, tuple(tuple(flat[i * n:(i + 1) * n])
                                  for i in range(n)))


def zero_matrix(ring: FiniteRing, n: int) -> RMatrix:
    z = ring.zero
    return RMatrix(ring, n, tuple(tuple(z for _ in range(n)) for _ in range(n)))


def pad(A: RMatrix, n: int) -> RMatrix:
    """A ⊕ 0 up to dimension n."""
    if A.n == n:
        return A
    if A.n > n:
        raise DimensionMismatch(f"cannot pad {A.n} down to {n}")
    return direct_sum(A, zero_matrix(A.ring, n - A.n))


def word(n: int, ops: Iterable[ElemOp]) -> ElemWord:
    return ElemWord(n, tuple(ops))


def mat_add(A: RMatrix, B: RMatrix) -> RMatrix:
    _same_context(A, B)
    add = A.ring.add
    return RMatrix(A.ring, A.n,
                   tuple(tuple(add(A.entries[i][j], B.entries[i][j])
                               for j in range(A.n)) for i in range(A.n)))


def equivalent_idempotents(ring: FiniteRing, A: RMatrix, B: RMatrix) -> bool:
    """Murray-von Neumann equivalence after zero padding, by class key."""
    return class_key(ring, A) == class_key(ring, B)


# ---------------------------------------------------------------------------
# Axioms (exhaustive; for small rings)
# ---------------------------------------------------------------------------

def verify_ring_axioms(ring: FiniteRing, max_size: int = 512) -> None:
    """Exhaustively check the ring axioms; raises InvalidSpec on violation."""
    n = ring.size
    if n > max_size:
        raise GuardExceeded(f"axiom check on {n} elements exceeds {max_size}")
    add = ring.npadd.astype(np.int64)
    mul = ring.npmul.astype(np.int64)
    neg = ring.npneg.astype(np.int64)
    idx = np.arange(n)
    checks = [
        ("additive commutativity", np.array_equal(add, add.T)),
        ("additive identity", np.array_equal(add[ring.zero], idx)),
        ("additive inverse", np.all(add[idx, neg] == ring.zero)),
        ("left mult identity", np.array_equal(mul[ring.one], idx)),
        ("right mult identity", np.array_equal(mul[:, ring.one], idx)),
    ]
    for name, ok in checks:
        if not ok:
            raise InvalidSpec(f"{ring.describe()}: {name} fails")
    # associativity and distributivity, O(n^3) via gathers, chunked over a
    chunk = max(1, (1 << 22) // max(n * n, 1))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        a = slice(lo, hi)
        if not np.array_equal(add[add[a, :, None], idx[None, None, :]],
                              add[a][:, add]):
            raise InvalidSpec(f"{ring.describe()}: additive associativity fails")
        if not np.array_equal(mul[mul[a, :, None], idx[None, None, :]],
                              mul[a][:, mul]):
            raise InvalidSpec(
                f"{ring.describe()}: multiplicative associativity fails")
        if not np.array_equal(mul[a][:, add],
                              add[mul[a, :, None], mul[a][:, None, :]]):
            raise InvalidSpec(f"{ring.describe()}: left distributivity fails")
        if not np.array_equal(mul[add[a, :, None], idx[None, None, :]],
                              add[mul[a][:, None, :], mul[None, :, :]]):
            raise InvalidSpec(f"{ring.describe()}: right distributivity fails")


def verify_ideal(ideal: Ideal) -> None:
    """Check closure properties and that members equal the generator closure."""
    ring = ideal.ring
    mem = np.fromiter(ideal.sorted_members, dtype=np.int64)
    if not ideal.mask[ring.zero]:
        raise InvalidSpec("ideal misses zero")
    if not ideal.mask[ring.npadd[mem[:, None], mem[None, :]]].all():
        raise InvalidSpec("ideal not closed under addition")
    if not ideal.mask[ring.npneg[mem]].all():
        raise InvalidSpec("ideal not closed under negation")
    if not ideal.mask[ring.npmul[:, mem]].all():
        raise InvalidSpec("ideal not closed under left multiplication")
    if not ideal.mask[ring.npmul[mem, :]].all():
        raise InvalidSpec("ideal not closed under right multiplication")
    if ideal_closure(ring, ideal.generators).members != ideal.members:
        raise InvalidSpec("ideal members differ from generator closure")
