"""Exact square matrices over a FiniteRing and elementary-operation words.

An ElemWord is the certificate vocabulary of the whole library: a sequence of
row/column transvections 1 + r*e_ij, applied on the left or the right.  Words
replay deterministically, invert by reversing and negating, and can be tested
for membership in E_n(I) entry by entry.  Every fixed word is built from
Whitehead's w(v) = e_ij(v) e_ji(-v^-1) e_ij(v) (``whitehead_word``): the
signed swaps of the 2x2 diagonalization are w(1) and w(-1), and
diag(v, v^-1) = w(v) w(-1) moves a unit along the diagonal.

A word replays on one mutable copy of the matrix's rows: each op updates a
row or a column in place, reading the ring's list mirrors of its tables when
the ring keeps them (its scalar ops otherwise), as ``mat_mul`` does, and the
rows, whose entries are already ints, become one RMatrix after the last op.

RMatrix, ElemOp and ElemWord are tuples (``namedtuple`` subclasses): cheap
to build, immutable, and compared and hashed field by field.  RMatrix and
ElemOp check their fields in ``__new__``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

import numpy as np

from .config import DEFAULT, Guards
from .errors import (DimensionMismatch, PreconditionFailed, RingMismatch,
                     SearchExhausted)
from .rings import (FiniteRing, Ideal, MatrixSpec, QuotientMap,
                    _additive_span, build_ring, digits, member_mask, pack,
                    unpack)


class RMatrix(namedtuple("RMatrix", "ring n entries")):
    """Immutable n x n matrix; entries are carrier indices of ``ring``."""

    __slots__ = ()

    def __new__(cls, ring: FiniteRing, n: int, entries: tuple):
        # entries: tuple of row tuples; a list of the ragged rows, since a
        # comprehension costs less than any() over a generator
        if len(entries) != n or [r for r in entries if len(r) != n]:
            raise DimensionMismatch(f"entries are not {n}x{n}")
        return tuple.__new__(cls, (ring, n, entries))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def op(self) -> "RMatrix":
        """A^T over R^op.  Transposition is an anti-isomorphism
        M_n(R) -> M_n(R^op): (A*B)^T = B^T*A^T there."""
        return RMatrix(self.ring.op(), self.n, tuple(zip(*self.entries)))

    def __repr__(self):
        return f"RMatrix({self.entries})"


def matrix(ring: FiniteRing, rows) -> RMatrix:
    rows = tuple(tuple(int(x) for x in r) for r in rows)
    return RMatrix(ring, len(rows), rows)


def identity(ring: FiniteRing, n: int) -> RMatrix:
    """The n x n identity, one shared object per (ring, n)."""
    got = ring._cache.get(("identity", n))
    if got is None:
        got = ring._cache[("identity", n)] = RMatrix(ring, n, tuple(
            tuple(ring.one if i == j else ring.zero for j in range(n))
            for i in range(n)))
    return got


def _same_context(A: RMatrix, B: RMatrix) -> None:
    if A.ring is not B.ring:
        raise RingMismatch("matrices live over different rings")
    if A.n != B.n:
        raise DimensionMismatch(f"dimensions {A.n} and {B.n} differ")


def mat_mul(A: RMatrix, B: RMatrix) -> RMatrix:
    _same_context(A, B)
    ring, zero = A.ring, A.ring.zero
    add, mul, cols = ring._add, ring._mul, tuple(zip(*B.entries))
    out = []
    for ai in A.entries:
        row = []
        for bj in cols:
            acc = zero
            if add is None:             # no list mirrors: the scalar ops
                for x, y in zip(ai, bj):
                    acc = ring.add(acc, ring.mul(x, y))
            else:
                for x, y in zip(ai, bj):
                    acc = add[acc][mul[x][y]]
            row.append(acc)
        out.append(tuple(row))
    return RMatrix(ring, A.n, tuple(out))


def direct_sum(A: RMatrix, B: RMatrix) -> RMatrix:
    if A.ring is not B.ring:
        raise RingMismatch("direct sum needs a common ring")
    za, zb = (A.ring.zero,) * A.n, (A.ring.zero,) * B.n
    return RMatrix(A.ring, A.n + B.n, tuple(row + zb for row in A.entries)
                   + tuple(za + row for row in B.entries))


def map_entries(A: RMatrix, qmap: QuotientMap) -> RMatrix:
    """Entrywise image of A under a quotient map."""
    if A.ring is not qmap.source:
        raise RingMismatch("matrix is not over the map's source ring")
    return RMatrix(qmap.target, A.n,
                   tuple(tuple(qmap.pi(x) for x in row) for row in A.entries))


# ---------------------------------------------------------------------------
# Blocking: 2k x 2k over R  <->  2 x 2 over M_k(R)
# ---------------------------------------------------------------------------

def block_matrix(A: RMatrix, block_ring: FiniteRing, k: int) -> RMatrix:
    """Reinterpret a (b*k)x(b*k) matrix over R as bxb over M_k(R).

    block_ring must be build_ring(MatrixSpec(spec-of-A.ring, k)), or A.ring
    itself when k = 1 (the block of a 1x1 block is its entry).
    """
    if A.n % k:
        raise DimensionMismatch(f"dimension {A.n} is not a multiple of {k}")
    b, B, a = A.n // k, A.ring.size, A.entries
    return RMatrix(block_ring, b, tuple(
        tuple(pack([a[bi * k + i][bj * k + j]
                    for i in range(k) for j in range(k)], B)
              for bj in range(b))
        for bi in range(b)))


def unblock_matrix(A: RMatrix, base_ring: FiniteRing, k: int) -> RMatrix:
    """Inverse of block_matrix."""
    b, B = A.n, base_ring.size
    blocks = [[unpack(code, B, k * k) for code in row] for row in A.entries]
    return RMatrix(base_ring, b * k, tuple(
        tuple(blocks[r // k][c // k][(r % k) * k + c % k]
              for c in range(b * k))
        for r in range(b * k)))


def matrix_ideal(block_ring: FiniteRing, base_ring: FiniteRing, k: int,
                 ideal: Ideal) -> Ideal:
    """M_k(I) inside the materialized M_k(R)."""
    B = base_ring.size
    mask = ideal.mask[digits(np.arange(block_ring.size), B, k * k)].all(axis=1)
    # each generator g of I gives g*e11
    gens = tuple(pack([g] + [base_ring.zero] * (k * k - 1), B)
                 for g in ideal.generators)
    return Ideal(block_ring, frozenset(np.flatnonzero(mask).tolist()), gens)


def stage_ring(ring: FiniteRing, ideal: Ideal, k: int,
               guards: Guards = DEFAULT) -> tuple:
    """(M_k(R), M_k(I)): a 2k x 2k matrix over R is 2x2 over M_k(R), and
    M_k(I) is a separative exchange ideal of it whenever I is one of R.
    (R, I) itself when k = 1.

    M_k(R) keeps per-row factors, and above ``rings._LIST_MIRROR_MAX``
    elements no step of a corpus lift or verify forms its whole tables or
    computes an invariant of it from them: the class keys that order
    idempotents are read off R (V(M_k(R)) = V(R) by Morita equivalence, see
    ``lifting._class_key``), pi(a') = pi(a*u^-1) is a membership test in
    M_k(I) rather than a quotient of M_k(R), two-sided ideals are M_k(J)
    for ideals J of R (``rings.entry_ideal``), an element's inverse comes
    from one array test of its row (``FiniteRing.inverse``) and a matrix's
    over M_k(R) from elimination (``try_inverse``).  Only an elimination
    past a pivot that is no unit forms them: its row folds in
    ``_reduce_to_diag`` read the whole tables, and no corpus lift reaches
    one.  M_k(I) is memoized on M_k(R)'s cache under ("matrix_ideal", I's
    members, I's generators)."""
    if k == 1:
        return ring, ideal
    mring = build_ring(MatrixSpec(ring.spec, k), guards)
    key = ("matrix_ideal", ideal.members, ideal.generators)
    got = mring._cache.get(key)
    if got is None:
        got = mring._cache[key] = matrix_ideal(mring, ring, k, ideal)
    return mring, got


# ---------------------------------------------------------------------------
# Inverses
#
# A finite ring is Dedekind-finite, so an n x n matrix with a one-sided
# inverse is invertible and its inverse is unique: every method returns the
# same matrix, and certificates that record one do not depend on how it was
# found.  The inverse comes from the elimination of the E_n(R) section below.
# ---------------------------------------------------------------------------

def try_inverse(A: RMatrix) -> Optional[RMatrix]:
    """Two-sided inverse if A is in GL_n, else None, by elimination.

    ``_reduce_to_diag`` decides invertibility and gives left ops W with
    W*A = diag(d, 1, ..., 1), d a unit, so A^-1 = diag(d^-1, 1, ..., 1)*W:
    W with its first row multiplied by d^-1.  A two-sided inverse is
    unique, so no other method could return another matrix.
    ``test_try_inverse_two_sided`` asserts X*A = A*X = 1, and
    ``test_inverse_by_elimination_matches_grid`` compares X with a search.
    """
    red = _reduce_to_diag(A)
    if red is None:
        return None
    ops, d = red
    ring, n = A.ring, A.n
    W = apply_elem_word(identity(ring, n), ElemWord(n, tuple(ops)))
    dinv = ring.inverse(d)
    return RMatrix(ring, n, (tuple(ring.mul(dinv, x) for x in W.entries[0]),)
                   + W.entries[1:])


# ---------------------------------------------------------------------------
# Elementary words
# ---------------------------------------------------------------------------

LEFT = "left"
RIGHT = "right"


class ElemOp(namedtuple("ElemOp", "side i j r")):
    """One transvection 1 + r*e_ij (i != j, 1-based indices)."""

    __slots__ = ()

    def __new__(cls, side: str, i: int, j: int, r: int):
        if side not in (LEFT, RIGHT):
            raise ValueError(f"bad side {side!r}")
        if i == j:
            raise ValueError("elementary ops need i != j")
        return tuple.__new__(cls, (side, i, j, r))

    def inverse(self, ring: FiniteRing) -> "ElemOp":
        return ElemOp(self.side, self.i, self.j, ring.neg(self.r))


class ElemWord(namedtuple("ElemWord", "n ops")):
    """Ordered ElemOps; left ops multiply on the left in list order, right
    ops on the right in list order.  Its length is the number of ops."""

    __slots__ = ()

    def __len__(self):
        return len(self.ops)

    def inverse(self, ring: FiniteRing) -> "ElemWord":
        return ElemWord(self.n, tuple(op.inverse(ring)
                                      for op in reversed(self.ops)))

    def op(self) -> "ElemWord":
        """The word that acts on A^T over R^op as this one acts on A over R:
        (A*(1 + e_ij r))^T = (1 + r e_ji)*A^T, so the right op (i, j, r) and
        the left op (j, i, r) trade places."""
        return ElemWord(self.n, tuple(
            ElemOp(RIGHT if op.side == LEFT else LEFT, op.j, op.i, op.r)
            for op in self.ops))


def left_op(i: int, j: int, r: int) -> ElemOp:
    return ElemOp(LEFT, i, j, r)


def right_op(i: int, j: int, r: int) -> ElemOp:
    return ElemOp(RIGHT, i, j, r)


def apply_elem_word(A: RMatrix, w: ElemWord) -> RMatrix:
    ring, n = A.ring, A.n
    if w.n != n:
        raise DimensionMismatch(f"word dimension {w.n} != matrix dimension {n}")
    add, mul = ring._add, ring._mul
    rows = [list(row) for row in A.entries]
    for side, i, j, r in w.ops:
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatch(
                f"op indices ({i},{j}) outside dimension {n}")
        i, j = i - 1, j - 1
        if add is None:                 # no list mirrors: the scalar ops
            if side == LEFT:
                rows[i] = [ring.add(x, ring.mul(r, y))
                           for x, y in zip(rows[i], rows[j])]
            else:
                for row in rows:
                    row[j] = ring.add(row[j], ring.mul(row[i], r))
        elif side == LEFT:
            # row_i += r * row_j
            mr = mul[r]
            rows[i] = [add[x][mr[y]] for x, y in zip(rows[i], rows[j])]
        else:
            # col_j += col_i * r
            for row in rows:
                row[j] = add[row[j]][mul[row[i]][r]]
    return RMatrix(ring, n, tuple(map(tuple, rows)))


def evaluate_word(ring: FiniteRing, w: ElemWord) -> RMatrix:
    """The word applied to the identity (the matrix the word's action realizes
    for single-sided words)."""
    return apply_elem_word(identity(ring, w.n), w)


def word_in_ideal(w: ElemWord, ideal: Ideal) -> bool:
    return all(ideal.contains(op.r) for op in w.ops)


def whitehead_word(ring: FiniteRing, v: int, i: int = 1, j: int = 2,
                   side: str = LEFT) -> tuple:
    """Whitehead's w(v) = e_ij(v) e_ji(-v^-1) e_ij(v) for a unit v, as three
    ops on one side: the identity with its rows and columns i, j replaced
    by (0 v; -v^-1 0).  The expansion is a palindrome, so the left and the
    right word are the same product."""
    r = ring.neg(ring.inverse(v))
    return ElemOp(side, i, j, v), ElemOp(side, j, i, r), ElemOp(side, i, j, v)


# ---------------------------------------------------------------------------
# E_n(R) orbit factorization
#
# Finite rings have stable rank 1 (Bass).  So an invertible n x n matrix
# reduces by left ops to diag(d, 1, ..., 1): in each column one op from the
# row below makes the pivot a unit, after the lower entries are folded
# pairwise into that row; the rest of the column is cleared with the unit
# pivot, and Whitehead words move every diagonal unit into slot 1.  By
# Vaserstein's injective stability for stable rank 1, diag(d, 1, ..., 1) is
# in E_n(R), n >= 2, iff d lies in the subgroup W(R) generated by the units
# (1+ba)^-1 (1+ab).  W(R) is built once per ring with a fixed word for each
# member, so E_n(R)-membership and the word both come without a search of
# E_n(R).  A pivot that no op makes a unit would contradict stable rank 1,
# so it raises SearchExhausted (a bug, never a routine negative).
# ---------------------------------------------------------------------------

def whitehead_ops(ring: FiniteRing, v: int, i: int, j: int) -> tuple:
    """Left ops that multiply rows i and j by the unit v and by v^-1:
    Whitehead's diag(v, v^-1) = w(v) w(-1)."""
    return (whitehead_word(ring, ring.neg(ring.one), i, j)
            + whitehead_word(ring, v, i, j))


def w_group(ring: FiniteRing) -> dict:
    """W(R) as a map unit d -> left ops taking the identity to diag(d, 1).

    For each unit value of (1+ba)^-1 (1+ab), the least pair (a, b) gives the
    word e21(b) e12(a) e21(-b(1+ab)^-1) e12(-a(1+ba)), which reaches
    diag(1+ab, (1+ba)^-1), followed by the Whitehead word that multiplies by
    diag((1+ba)^-1, 1+ba).  Products are closed by a breadth-first search
    over the unit group.  Cached per ring.
    """
    got = ring._cache.get("w_group")
    if got is not None:
        return got
    one = ring.one
    inv = np.full(ring.size, -1, dtype=np.int64)
    for u in ring.units():
        inv[u] = ring.inverse(u)
    first = {}                     # generator value -> least pair (a, b)
    seen = np.zeros(ring.size, dtype=bool)
    seen[one] = True
    for a in range(ring.size):
        alpha = ring.npadd[one, ring.npmul[a]]       # 1 + ab over all b
        beta = ring.npadd[one, ring.npmul[:, a]]     # 1 + ba over all b
        bs = np.flatnonzero(inv[alpha] >= 0)         # 1+ab a unit iff 1+ba is
        values, pos = np.unique(ring.npmul[inv[beta[bs]], alpha[bs]],
                                return_index=True)
        fresh = ~seen[values]
        for g, p in zip(values[fresh], pos[fresh]):
            first[int(g)] = (a, int(bs[p]))
        seen[values] = True
    gens = []
    for g, (a, b) in sorted(first.items()):
        al, be = ring.add(one, ring.mul(a, b)), ring.add(one, ring.mul(b, a))
        ops = (left_op(2, 1, b), left_op(1, 2, a),
               left_op(2, 1, ring.neg(ring.mul(b, ring.inverse(al)))),
               left_op(1, 2, ring.neg(ring.mul(a, be))),
               *whitehead_ops(ring, ring.inverse(be), 1, 2))
        gens.append((g, ops))
    words = {one: ()}
    frontier = [one]
    while frontier:
        new = []
        for u in frontier:
            for g, ops in gens:
                v = ring.mul(g, u)      # diag(g, 1) diag(u, 1)
                if v not in words:
                    words[v] = words[u] + ops
                    new.append(v)
        frontier = new
    ring._cache["w_group"] = words
    return words


def _left_span(ring: FiniteRing, elems) -> np.ndarray:
    """Mask of R*e_1 + ... + R*e_k: the additive span of every r*e_i."""
    span, _ = _additive_span(ring, ring.npmul[:, elems].ravel().tolist())
    return member_mask(span, ring.size)


def _first_fit(ring: FiniteRing, ok: np.ndarray) -> int:
    """Least t with ok[t], preferring t = 0 (no op)."""
    if ok[ring.zero]:
        return ring.zero
    hits = np.flatnonzero(ok)
    if not len(hits):
        raise SearchExhausted(f"stable rank 1 fails over {ring.describe()}")
    return int(hits[0])


def _reduce_to_diag(A: RMatrix):
    """(left ops taking A to diag(d, 1, ..., 1), d), or None when A is not
    invertible."""
    ring, n = A.ring, A.n
    one, zero = ring.one, ring.zero
    ops = []

    def push(op):
        nonlocal A
        ops.append(op)
        A = apply_elem_word(A, ElemWord(n, (op,)))

    for c in range(n):
        if ring.inverse(A[c, c]) is None:
            col = [A[r, c] for r in range(c, n)]
            # the active column is left-unimodular iff A is invertible
            if not _left_span(ring, col)[one]:
                return None
            # fold row r into row r-1 so that rows c..r-1 stay unimodular;
            # at r = c+1 that makes the pivot a unit
            for r in range(n - 1, c, -1):
                head = _left_span(ring, col[:r - 1 - c])
                v = ring.npadd[A[r - 1, c], ring.npmul[:, A[r, c]]]
                # ok[t]: 1 - s*v[t] lies in the head for some s
                ok = head[ring.npadd[one, ring.npneg[ring.npmul[:, v]]]]
                t = _first_fit(ring, ok.any(axis=0))
                if t != zero:
                    push(left_op(r, r + 1, t))
        pinv = ring.inverse(A[c, c])
        if pinv is None:
            raise SearchExhausted(f"no unit pivot in column {c + 1}")
        for r in range(n):
            if r != c and A[r, c] != zero:
                push(left_op(r + 1, c + 1, ring.neg(ring.mul(A[r, c], pinv))))
    for r in range(1, n):
        if A[r, r] != one:
            for op in whitehead_ops(ring, A[r, r], 1, r + 1):
                push(op)
    return ops, A[0, 0]


def e_orbit_factor(ring: FiniteRing, n: int, A: RMatrix,
                   B: RMatrix) -> Optional[ElemWord]:
    """A word w of left ops with apply_elem_word(B, w) == A, if A is in
    E_n(R) * B; None otherwise.

    With E_A A = diag(a, 1, ...) and E_B B = diag(b, 1, ...), A is in
    E_n(R) B iff a b^-1 is in W(R); then w = E_B, word(a b^-1), E_A^-1.
    That w replays B to A is asserted by ``test_e_orbit_factor_replays``,
    and on every lift by the verifier's "pi(w1) = pi(x)+1".
    """
    if A.ring is not ring or B.ring is not ring:
        raise RingMismatch("matrices must be over the given ring")
    if A.n != n or B.n != n:
        raise DimensionMismatch("dimension mismatch in orbit query")
    if A == B:
        return ElemWord(n, ())
    red_b = _reduce_to_diag(B)
    if red_b is None:
        raise PreconditionFailed("orbit base matrix is not invertible")
    red_a = _reduce_to_diag(A)
    if red_a is None or n == 1:     # E_1 is trivial, and A != B
        return None
    (ops_a, a), (ops_b, b) = red_a, red_b
    middle = w_group(ring).get(ring.mul(a, ring.inverse(b)))
    if middle is None:
        return None
    return ElemWord(n, tuple(ops_b) + middle
                    + ElemWord(n, tuple(ops_a)).inverse(ring).ops)
