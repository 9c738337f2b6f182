"""Exact square matrices over a FiniteRing and elementary-operation words.

An ElemWord is the certificate vocabulary of the whole library: a sequence of
row/column transvections 1 + r*e_ij, applied on the left or the right.  Words
replay deterministically, invert by reversing and negating, and can be tested
for membership in E_n(I) entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional

import numpy as np

from .config import DEFAULT, Guards
from .errors import (DimensionMismatch, GuardExceeded, PreconditionFailed,
                     RingMismatch, SearchExhausted)
from .rings import FiniteRing, Ideal, QuotientMap


@dataclass(frozen=True)
class RMatrix:
    """Immutable n x n matrix; entries are carrier indices of ``ring``."""

    ring: FiniteRing
    n: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise DimensionMismatch(f"entries are not {self.n}x{self.n}")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def encode(self) -> int:
        """Mixed-radix packing, row-major big-endian."""
        code = 0
        B = self.ring.size
        for row in self.entries:
            for x in row:
                code = code * B + x
        return code

    def transpose(self) -> "RMatrix":
        return RMatrix(self.ring, self.n,
                       tuple(tuple(self.entries[j][i] for j in range(self.n))
                             for i in range(self.n)))

    def __repr__(self):
        return f"RMatrix({self.entries})"


def matrix(ring: FiniteRing, rows) -> RMatrix:
    rows = tuple(tuple(int(x) for x in r) for r in rows)
    return RMatrix(ring, len(rows), rows)


def decode_matrix(ring: FiniteRing, n: int, code: int) -> RMatrix:
    B = ring.size
    flat = []
    for _ in range(n * n):
        flat.append(code % B)
        code //= B
    flat.reverse()
    return RMatrix(ring, n, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))


def identity(ring: FiniteRing, n: int) -> RMatrix:
    z, o = ring.zero, ring.one
    return RMatrix(ring, n,
                   tuple(tuple(o if i == j else z for j in range(n))
                         for i in range(n)))


def zero_matrix(ring: FiniteRing, n: int) -> RMatrix:
    z = ring.zero
    return RMatrix(ring, n, tuple(tuple(z for _ in range(n)) for _ in range(n)))


def scalar_matrix(ring: FiniteRing, n: int, a: int) -> RMatrix:
    z = ring.zero
    return RMatrix(ring, n,
                   tuple(tuple(a if i == j else z for j in range(n))
                         for i in range(n)))


def _same_context(A: RMatrix, B: RMatrix) -> None:
    if A.ring is not B.ring:
        raise RingMismatch("matrices live over different rings")
    if A.n != B.n:
        raise DimensionMismatch(f"dimensions {A.n} and {B.n} differ")


def mat_add(A: RMatrix, B: RMatrix) -> RMatrix:
    _same_context(A, B)
    add = A.ring.add
    return RMatrix(A.ring, A.n,
                   tuple(tuple(add(A.entries[i][j], B.entries[i][j])
                               for j in range(A.n)) for i in range(A.n)))


def mat_neg(A: RMatrix) -> RMatrix:
    neg = A.ring.neg
    return RMatrix(A.ring, A.n,
                   tuple(tuple(neg(x) for x in row) for row in A.entries))


def mat_sub(A: RMatrix, B: RMatrix) -> RMatrix:
    return mat_add(A, mat_neg(B))


def mat_mul(A: RMatrix, B: RMatrix) -> RMatrix:
    _same_context(A, B)
    ring, n = A.ring, A.n
    add, mul, zero = ring.add, ring.mul, ring.zero
    a, b = A.entries, B.entries
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(n):
            acc = zero
            for l in range(n):
                acc = add(acc, mul(ai[l], b[l][j]))
            row.append(acc)
        out.append(tuple(row))
    return RMatrix(ring, n, tuple(out))


def direct_sum(A: RMatrix, B: RMatrix) -> RMatrix:
    if A.ring is not B.ring:
        raise RingMismatch("direct sum needs a common ring")
    ring, z = A.ring, A.ring.zero
    n = A.n + B.n
    rows = []
    for i in range(A.n):
        rows.append(tuple(A.entries[i]) + tuple(z for _ in range(B.n)))
    for i in range(B.n):
        rows.append(tuple(z for _ in range(A.n)) + tuple(B.entries[i]))
    return RMatrix(ring, n, tuple(rows))


def pad(A: RMatrix, n: int) -> RMatrix:
    """A ⊕ 0 up to dimension n."""
    if A.n == n:
        return A
    if A.n > n:
        raise DimensionMismatch(f"cannot pad {A.n} down to {n}")
    return direct_sum(A, zero_matrix(A.ring, n - A.n))


def is_idempotent(A: RMatrix) -> bool:
    return mat_mul(A, A) == A


def map_entries(A: RMatrix, qmap: QuotientMap) -> RMatrix:
    """Entrywise image of A under a quotient map."""
    if A.ring is not qmap.source:
        raise RingMismatch("matrix is not over the map's source ring")
    return RMatrix(qmap.target, A.n,
                   tuple(tuple(qmap.pi(x) for x in row) for row in A.entries))


def lift_entries(A: RMatrix, qmap: QuotientMap) -> RMatrix:
    """Entrywise least-preimage lift along a quotient map."""
    if A.ring is not qmap.target:
        raise RingMismatch("matrix is not over the map's target ring")
    return RMatrix(qmap.source, A.n,
                   tuple(tuple(qmap.lift(x) for x in row) for row in A.entries))


def entries_in_ideal(A: RMatrix, ideal: Ideal) -> bool:
    return all(ideal.contains(x) for row in A.entries for x in row)


def congruent_mod(A: RMatrix, B: RMatrix, ideal: Ideal) -> bool:
    """A == B entrywise modulo the ideal."""
    _same_context(A, B)
    sub = A.ring.sub
    return all(ideal.contains(sub(A.entries[i][j], B.entries[i][j]))
               for i in range(A.n) for j in range(A.n))


# ---------------------------------------------------------------------------
# Blocking: 2k x 2k over R  <->  2 x 2 over M_k(R)
# ---------------------------------------------------------------------------

def block_matrix(A: RMatrix, block_ring: FiniteRing, k: int) -> RMatrix:
    """Reinterpret a (b*k)x(b*k) matrix over R as bxb over M_k(R).

    block_ring must be build_ring(MatrixSpec(spec-of-A.ring, k)).
    """
    if A.n % k:
        raise DimensionMismatch(f"dimension {A.n} is not a multiple of {k}")
    b = A.n // k
    B = A.ring.size
    rows = []
    for bi in range(b):
        row = []
        for bj in range(b):
            code = 0
            for i in range(k):
                for j in range(k):
                    code = code * B + A.entries[bi * k + i][bj * k + j]
            row.append(code)
        rows.append(tuple(row))
    return RMatrix(block_ring, b, tuple(rows))


def unblock_matrix(A: RMatrix, base_ring: FiniteRing, k: int) -> RMatrix:
    """Inverse of block_matrix."""
    b = A.n
    B = base_ring.size
    rows = [[base_ring.zero] * (b * k) for _ in range(b * k)]
    for bi in range(b):
        for bj in range(b):
            code = A.entries[bi][bj]
            flat = []
            for _ in range(k * k):
                flat.append(code % B)
                code //= B
            flat.reverse()
            for i in range(k):
                for j in range(k):
                    rows[bi * k + i][bj * k + j] = flat[i * k + j]
    return RMatrix(base_ring, b * k, tuple(tuple(r) for r in rows))


def matrix_ideal(block_ring: FiniteRing, base_ring: FiniteRing, k: int,
                 ideal: Ideal) -> Ideal:
    """M_k(I) inside the materialized M_k(R)."""
    B = base_ring.size
    members = []
    in_i = ideal.mask
    for code in range(block_ring.size):
        ok = True
        c = code
        for _ in range(k * k):
            if not in_i[c % B]:
                ok = False
                break
            c //= B
        if ok:
            members.append(code)
    gens = []
    one_pos_weight = B ** (k * k - 1)  # entry (0,0) slot
    for g in ideal.generators:
        gens.append(g * one_pos_weight)
    return Ideal(block_ring, frozenset(members), tuple(gens))


# ---------------------------------------------------------------------------
# Inverses
# ---------------------------------------------------------------------------

def try_inverse(A: RMatrix, guards: Guards = DEFAULT) -> Optional[RMatrix]:
    """Two-sided inverse if A is in GL_n, else None.

    Solves A*X = 1 column by column over the carrier (|R|**n candidates per
    column), then verifies X*A = 1.
    """
    ring, n = A.ring, A.n
    if n == 1:
        inv = ring.inverse(A.entries[0][0])
        return None if inv is None else matrix(ring, [[inv]])
    if ring.size ** n > guards.search_candidates * 16:
        raise GuardExceeded(
            f"column solve space |R|^{n} = {ring.size ** n} is too large")
    mul, add = ring.npmul.astype(np.int64), ring.npadd.astype(np.int64)
    ent = np.array(A.entries, dtype=np.int64)
    # enumerate candidate columns once: (size^n, n) digit table
    m = ring.size ** n
    cand = np.empty((m, n), dtype=np.int64)
    tmp = np.arange(m)
    for p in reversed(range(n)):
        cand[:, p] = tmp % ring.size
        tmp //= ring.size
    # A @ cand.T in ring arithmetic: out[r, c] for each candidate c
    cols = []
    for j in range(n):
        target = np.array([ring.one if i == j else ring.zero for i in range(n)])
        ok = np.ones(m, dtype=bool)
        for i in range(n):
            acc = np.full(m, ring.zero, dtype=np.int64)
            for l in range(n):
                acc = add[acc, mul[ent[i, l], cand[:, l]]]
            ok &= acc == target[i]
            if not ok.any():
                return None
        hit = int(np.flatnonzero(ok)[0])
        cols.append([int(v) for v in cand[hit]])
    X = RMatrix(ring, n, tuple(tuple(cols[j][i] for j in range(n))
                               for i in range(n)))
    if mat_mul(X, A) != identity(ring, n):
        return None  # one-sided only; cannot happen over a finite ring
    return X


def is_invertible(A: RMatrix, guards: Guards = DEFAULT) -> bool:
    return try_inverse(A, guards) is not None


# ---------------------------------------------------------------------------
# Elementary words
# ---------------------------------------------------------------------------

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class ElemOp:
    """One transvection 1 + r*e_ij (i != j, 1-based indices)."""

    side: str
    i: int
    j: int
    r: int

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"bad side {self.side!r}")
        if self.i == self.j:
            raise ValueError("elementary ops need i != j")

    def inverse(self, ring: FiniteRing) -> "ElemOp":
        return ElemOp(self.side, self.i, self.j, ring.neg(self.r))


@dataclass(frozen=True)
class ElemWord:
    """Ordered ElemOps; left ops multiply on the left in list order, right
    ops on the right in list order."""

    n: int
    ops: tuple

    def __len__(self):
        return len(self.ops)

    def inverse(self, ring: FiniteRing) -> "ElemWord":
        return ElemWord(self.n, tuple(op.inverse(ring)
                                      for op in reversed(self.ops)))

    def params(self) -> list:
        return [op.r for op in self.ops]


def word(n: int, ops: Iterable[ElemOp]) -> ElemWord:
    return ElemWord(n, tuple(ops))


def left_op(i: int, j: int, r: int) -> ElemOp:
    return ElemOp(LEFT, i, j, r)


def right_op(i: int, j: int, r: int) -> ElemOp:
    return ElemOp(RIGHT, i, j, r)


def apply_elem_op(A: RMatrix, op: ElemOp) -> RMatrix:
    ring, n = A.ring, A.n
    if not (1 <= op.i <= n and 1 <= op.j <= n):
        raise DimensionMismatch(f"op indices ({op.i},{op.j}) outside dimension {n}")
    add, mul = ring.add, ring.mul
    rows = [list(r) for r in A.entries]
    i, j, r = op.i - 1, op.j - 1, op.r
    if op.side == LEFT:
        # row_i += r * row_j
        rows[i] = [add(rows[i][c], mul(r, rows[j][c])) for c in range(n)]
    else:
        # col_j += col_i * r
        for x in range(n):
            rows[x][j] = add(rows[x][j], mul(rows[x][i], r))
    return RMatrix(ring, n, tuple(tuple(r) for r in rows))


def apply_elem_word(A: RMatrix, w: ElemWord) -> RMatrix:
    if w.n != A.n:
        raise DimensionMismatch(f"word dimension {w.n} != matrix dimension {A.n}")
    for op in w.ops:
        A = apply_elem_op(A, op)
    return A


def evaluate_word(ring: FiniteRing, w: ElemWord) -> RMatrix:
    """The word applied to the identity (the matrix the word's action realizes
    for single-sided words)."""
    return apply_elem_word(identity(ring, w.n), w)


def word_in_ideal(w: ElemWord, ideal: Ideal) -> bool:
    return all(ideal.contains(op.r) for op in w.ops)


def sigma_word_right(ring: FiniteRing, n: int = 2) -> list:
    """The signed permutation (0 1; -1 0) as three right ops e12(1)e21(-1)e12(1)."""
    one, neg1 = ring.one, ring.neg(ring.one)
    return [right_op(1, 2, one), right_op(2, 1, neg1), right_op(1, 2, one)]


def sigma_word_left(ring: FiniteRing, n: int = 2) -> list:
    """Same matrix as a left word (the expansion is a palindrome)."""
    one, neg1 = ring.one, ring.neg(ring.one)
    return [left_op(1, 2, one), left_op(2, 1, neg1), left_op(1, 2, one)]


def sigma_inv_word_left(ring: FiniteRing, n: int = 2) -> list:
    """(0 -1; 1 0) as a left word."""
    one, neg1 = ring.one, ring.neg(ring.one)
    return [left_op(1, 2, neg1), left_op(2, 1, one), left_op(1, 2, neg1)]


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

def whitehead_ops(ring: FiniteRing, v: int, i: int, j: int) -> list:
    """Left ops that multiply rows i and j by the unit v and by v^-1:
    Whitehead's diag(v, v^-1) = w(v) w(-1), w(v) = e_ij(v) e_ji(-v^-1) e_ij(v).
    """
    one, neg1 = ring.one, ring.neg(ring.one)
    return [left_op(i, j, neg1), left_op(j, i, one), left_op(i, j, neg1),
            left_op(i, j, v), left_op(j, i, ring.neg(ring.inverse(v))),
            left_op(i, j, v)]


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
    """Membership mask of the left ideal R*e_1 + ... + R*e_k."""
    span = np.array([ring.zero])
    for e in elems:
        span = np.unique(ring.npadd[span[:, None],
                                    np.unique(ring.npmul[:, e])[None, :]])
    mask = np.zeros(ring.size, dtype=bool)
    mask[span] = True
    return mask


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
        A = apply_elem_op(A, op)

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


def e_orbit_factor(ring: FiniteRing, n: int, A: RMatrix, B: RMatrix,
                   guards: Guards = DEFAULT) -> Optional[ElemWord]:
    """A word w of left ops with apply_elem_word(B, w) == A, if A is in
    E_n(R) * B; None otherwise.

    With E_A A = diag(a, 1, ...) and E_B B = diag(b, 1, ...), A is in
    E_n(R) B iff a b^-1 is in W(R); then w = E_B, word(a b^-1), E_A^-1.
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
    w = ElemWord(n, tuple(ops_b) + middle
                 + ElemWord(n, tuple(ops_a)).inverse(ring).ops)
    if apply_elem_word(B, w) != A:
        raise AssertionError("orbit word does not replay")
    return w
