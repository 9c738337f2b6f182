"""Brute-force oracles for the table kernels of ``rings`` and ``matrices``,
and for the exchange verdicts of ``exchange``.

Each function is the plain scan or build the library's kernel or theorem
replaced: the pair solve over the whole |R| x |R| grid, the exchange
witness by a loop over idempotents (the library decides the exchange
property by theorem and finds no witness), the quotient tables by a loop
over cosets, M_k(I) by a loop over the codes of M_k(R), the M_k(R) and
T_k(R) tables by one full-size pass per free entry and per row, the units
by a loop over the carrier, the unit-regular witness by a scan of all units,
the inverse of a matrix by a search of every candidate column, the
lift's first unit y1 by an orbit query per unit, the generators of W(R)
by one row of pairs at a time, the sorted sets aR and aR + bR by ``np.unique``, and the left ideal
R*e_1 + ... + R*e_k by sums of sorted sets.
The kernels and the theorem must give exactly what these give.

The vectorized row scans (``solve_right``, the idempotent split of
``scans.split`` and the pair solve over a membership mask of dR), read off
the whole tables, are the references for the list-row kernels and for the
array forms read off the factors.  The replay of a word one op at a time,
each op building a new matrix, is the reference for the in-place replay,
and the nested loops of ``mat_mul``, ``transpose``, ``direct_sum`` and
``identity`` for the matrix values.  The generic thaw of a frozen
descriptor is the reference for ``rings._thaw_as``, which thaws by the
ring's shape.  The embedded
exchange witness and the idempotent lift by a loop over idempotents
cross-check the exchange theory on the corpus.

``is_idempotent`` and ``congruent_mod`` state the contracts of
``ktheory.connecting_delta``'s p and of the lift's w1 for the tests; the
library does not re-check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from exlift.errors import PreconditionFailed
from exlift.matrices import (LEFT, ElemWord, RMatrix, direct_sum,
                             e_orbit_factor, identity, left_op, mat_mul,
                             matrix, whitehead_ops)
from exlift.rings import (FiniteRing, Ideal, _positions, digits, distinct,
                          member_mask, pack, quotient_by)


def thaw(value):
    """A frozen element descriptor as lists, by its type alone: tuples
    become lists at every depth, whatever ring it describes."""
    if type(value) is tuple:
        return [thaw(v) for v in value]
    return value


def solve_pair_right(ring: FiniteRing, c: int, d: int,
                     target: int) -> Optional[tuple]:
    """Least (x, y) lexicographic with c*x + d*y == target, by argwhere on
    the grid of all sums."""
    sums = ring.npadd[ring.npmul[c][:, None], ring.npmul[d][None, :]]
    hits = np.argwhere(sums == target)
    if len(hits) == 0:
        return None
    x, y = hits[0]
    return int(x), int(y)


def solve_right_numpy(ring: FiniteRing, a: int, target: int) -> Optional[int]:
    """Least x with a*x == target, by flatnonzero on the table row."""
    hits = np.flatnonzero(ring.npmul[a] == target)
    return int(hits[0]) if len(hits) else None


def split_numpy(ring: FiniteRing, a: int, b: int) -> Optional[tuple]:
    """(e, t, u) with e the least idempotent that a*t = e and b*u = 1-e
    both solve, and t, u the least solutions, by the numpy solve on the
    table rows."""
    for e in ring.idempotents():
        t = solve_right_numpy(ring, a, e)
        u = solve_right_numpy(ring, b, ring.sub(ring.one, e))
        if t is not None and u is not None:
            return e, t, u
    return None


def solve_pair_right_mask(ring: FiniteRing, c: int, d: int,
                          target: int) -> Optional[tuple]:
    """Least (x, y) lexicographic with c*x + d*y == target: the least x
    with target - c*x in a membership mask of dR, then the least y."""
    dy = ring.npmul[d]
    in_dR = np.zeros(ring.size, dtype=bool)
    in_dR[dy] = True
    rest = ring.npadd[target, ring.npneg[ring.npmul[c]]]    # target - c*x
    xs = np.flatnonzero(in_dR[rest])
    if len(xs) == 0:
        return None
    x = int(xs[0])
    return x, int(np.argmax(dy == rest[x]))


def replay_per_op(A: RMatrix, w: ElemWord) -> RMatrix:
    """w applied to A one op at a time, each op through scalar ring calls
    into a new matrix."""
    ring, n = A.ring, A.n
    for op in w.ops:
        rows = [list(r) for r in A.entries]
        i, j, r = op.i - 1, op.j - 1, op.r
        if op.side == LEFT:
            rows[i] = [ring.add(rows[i][c], ring.mul(r, rows[j][c]))
                       for c in range(n)]
        else:
            for x in range(n):
                rows[x][j] = ring.add(rows[x][j], ring.mul(rows[x][i], r))
        A = RMatrix(ring, n, tuple(tuple(r) for r in rows))
    return A


def mat_mul_loops(A: RMatrix, B: RMatrix) -> RMatrix:
    """A*B by the loop over (i, j, l), through the scalar ring calls."""
    ring, n = A.ring, A.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for l in range(n):
                acc = ring.add(acc, ring.mul(A[i, l], B[l, j]))
            row.append(acc)
        rows.append(tuple(row))
    return RMatrix(ring, n, tuple(rows))


def transpose_loops(A: RMatrix) -> RMatrix:
    """A^T entry by entry."""
    return RMatrix(A.ring, A.n, tuple(tuple(A[j, i] for j in range(A.n))
                                      for i in range(A.n)))


def direct_sum_loops(A: RMatrix, B: RMatrix) -> RMatrix:
    """diag(A, B) entry by entry, zero off the two blocks."""
    a, n = A.n, A.n + B.n

    def entry(i, j):
        if i < a and j < a:
            return A[i, j]
        if i >= a and j >= a:
            return B[i - a, j - a]
        return A.ring.zero
    return RMatrix(A.ring, n, tuple(tuple(entry(i, j) for j in range(n))
                                    for i in range(n)))


def identity_loops(ring: FiniteRing, n: int) -> RMatrix:
    """The n x n identity entry by entry."""
    return RMatrix(ring, n, tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n))
        for i in range(n)))


@dataclass(frozen=True)
class ExchangeWitness:
    """Idempotent e plus the auxiliary solutions of the defining equations."""

    e: int
    r: int
    s: int


def exchange_witness_unital(ring: FiniteRing,
                            a: int) -> Optional[ExchangeWitness]:
    """Least (e, r, s) with e = a*r idempotent and 1 - e = (1-a)*s, trying
    the idempotents in ascending order."""
    one_minus_a = ring.sub(ring.one, a)
    row_a = ring.npmul[a]
    row_c = ring.npmul[one_minus_a]
    for e in ring.idempotents():
        rs = np.flatnonzero(row_a == e)
        if not len(rs):
            continue
        ss = np.flatnonzero(row_c == ring.sub(ring.one, e))
        if not len(ss):
            continue
        return ExchangeWitness(e, int(rs[0]), int(ss[0]))
    return None


def exchange_witness_ideal(ring: FiniteRing, ideal: Ideal,
                           x: int) -> Optional[ExchangeWitness]:
    """Least (e, r, s) in I^3 with e = x*r = x + s - x*s, e idempotent,
    trying the idempotents of I in ascending order."""
    if not ideal.contains(x):
        raise PreconditionFailed(f"element {x} is not in the ideal")
    members = np.fromiter(ideal.sorted_members, dtype=np.int64)
    row_x = ring.npmul[x][members]                      # x*r over r in I
    rhs = ring.npadd[ring.npadd[x][members], ring.npneg[row_x]]
    for e in ring.idempotents():
        if not ideal.contains(e):
            continue
        rs = np.flatnonzero(row_x == e)
        if not len(rs):
            continue
        ss = np.flatnonzero(rhs == e)
        if not len(ss):
            continue
        return ExchangeWitness(e, int(members[rs[0]]), int(members[ss[0]]))
    return None


def embedded_exchange_witness(ring: FiniteRing, ideal: Ideal,
                              x: int) -> Optional[tuple]:
    """Embedded-form witness: idempotent e in x*I with 1 - e in (1-x)*R.

    The equivalence with the intrinsic form is a cited theorem; this exists so
    the corpus can cross-check it rather than assume it.
    """
    if not ideal.contains(x):
        raise PreconditionFailed(f"element {x} is not in the ideal")
    members = np.fromiter(ideal.sorted_members, dtype=np.int64)
    row_x = ring.npmul[x][members]                      # x*i over i in I
    one_minus_x = ring.sub(ring.one, x)
    row_c = ring.npmul[one_minus_x]
    for e in ring.idempotents():
        ts = np.flatnonzero(row_x == e)
        if not len(ts):
            continue
        target = ring.sub(ring.one, e)
        ss = np.flatnonzero(row_c == target)
        if not len(ss):
            continue
        return e, int(members[ts[0]]), int(ss[0])
    return None


def lift_idempotent(ring: FiniteRing, ideal: Ideal,
                    ebar: int) -> Optional[int]:
    """Least idempotent e of R with pi(e) == ebar; ebar must be idempotent
    in R/I."""
    qmap = quotient_by(ring, ideal)
    q = qmap.target
    if q.mul(ebar, ebar) != ebar:
        raise PreconditionFailed(f"{ebar} is not idempotent in the quotient")
    for e in ring.idempotents():
        if qmap.pi(e) == ebar:
            return e
    return None


def quotient_tables(ring: FiniteRing, ideal: Ideal):
    """(image, section, add, mul, neg) of R/I: cosets named by their least
    member, numbered in ascending order of that member, with the tables
    filled one coset row at a time."""
    members = np.fromiter(ideal.sorted_members, dtype=np.int64)
    rep = ring.npadd.astype(np.int64)[:, members].min(axis=1)
    reps = np.unique(rep)
    index_of = {int(r): i for i, r in enumerate(reps)}
    image = np.array([index_of[int(rep[a])] for a in range(ring.size)],
                     dtype=np.int64)
    q = len(reps)
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for i, ri in enumerate(reps):
        add[i] = image[ring.npadd[ri, reps]]
        mul[i] = image[ring.npmul[ri, reps]]
    neg = image[ring.npneg[reps]]
    return image, reps, add, mul, neg


def matrix_ideal_members(block_ring: FiniteRing, base_ring: FiniteRing,
                         k: int, ideal: Ideal) -> list:
    """The codes of M_k(R) whose k*k base-|R| digits all lie in I, one code
    at a time."""
    B = base_ring.size
    members = []
    for code in range(block_ring.size):
        c = code
        for _ in range(k * k):
            if not ideal.contains(c % B):
                break
            c //= B
        else:
            members.append(code)
    return members


def _on_axes(table: np.ndarray, axes, ndim: int) -> np.ndarray:
    """table reshaped to broadcast along the given ascending axes of an
    ndim-dimensional array."""
    shape = [1] * ndim
    for axis, n in zip(axes, table.shape):
        shape[axis] = n
    return table.reshape(shape)


def matrix_like_tables(base: FiniteRing, k: int, triangular: bool):
    """(add, mul, neg, one) of M_k(base) or T_k(base) on the carrier grid:
    one weighted base table broadcast per free position for add and neg,
    and one row table U_r[row code of A, C] broadcast per row for mul, each
    added into a full-size table."""
    pos = _positions(k, triangular)
    nfree = len(pos)
    B = base.size
    size = B ** nfree
    dt = np.min_scalar_type(max(size - 1, 0))
    weights = [B ** (nfree - 1 - p) for p in range(nfree)]
    add = np.zeros((B,) * (2 * nfree), dtype=dt)
    neg = np.zeros((B,) * nfree, dtype=dt)
    for p, w in enumerate(weights):
        add += _on_axes((base.npadd.astype(np.int64) * w).astype(dt),
                        (p, nfree + p), 2 * nfree)
        neg += _on_axes((base.npneg.astype(np.int64) * w).astype(dt),
                        (p,), nfree)
    badd, bmul = base.npadd, base.npmul
    entry = digits(np.arange(size), B, nfree).T     # entry[p][C]
    full = np.full((k, k, size), base.zero, dtype=np.intp)  # full[l, j][C]
    for p, (i, j) in enumerate(pos):
        full[i, j] = entry[p]
    rows = [[p for p, (i, _) in enumerate(pos) if i == r] for r in range(k)]
    mul = np.zeros([B ** len(ps) for ps in rows] + [size], dtype=dt)
    for r, ps in enumerate(rows):
        nr = len(ps)
        row = np.full((k, B ** nr), base.zero, dtype=np.intp)  # row[l][code]
        row[[pos[p][1] for p in ps]] = digits(np.arange(B ** nr), B, nr).T
        U = np.zeros((B ** nr, size), dtype=np.int64)
        for p in ps:
            j = pos[p][1]
            acc = bmul[row[0][:, None], full[0, j][None, :]]
            for l in range(1, k):
                acc = badd[acc, bmul[row[l][:, None], full[l, j][None, :]]]
            U += acc.astype(np.int64) * weights[p]
        mul += _on_axes(U.astype(dt), (r, k), k + 1)
    one = pack((base.one if i == j else base.zero for i, j in pos), B)
    return (add.reshape(size, size), mul.reshape(size, size),
            neg.reshape(size), one)


def units_and_inverses(ring: FiniteRing):
    """(units ascending, {unit: inverse}): for each u, the candidates v with
    u*v = 1 in ascending order, the first with v*u = 1 taken."""
    inverse = {}
    for u in range(ring.size):
        for v in np.flatnonzero(ring.npmul[u] == ring.one):
            if ring.mul(int(v), u) == ring.one:
                inverse[u] = int(v)
                break
    return tuple(inverse), inverse


def unit_regular_scan_full(ring: FiniteRing, d: int, units: tuple,
                           inverse: dict) -> Optional[tuple]:
    """(f, u) from the least unit w with d*w*d = d, f = d*w and u = w^-1,
    by a test of every unit: the scan ``scans.unit_regular_scan`` replaced.
    units and inverse are ``units_and_inverses(ring)``."""
    ws = np.array(units, dtype=np.intp)
    hits = np.flatnonzero(ring.npmul[ring.npmul[d, ws], d] == d)
    if not len(hits):
        return None
    w = int(ws[hits[0]])
    return int(ring.npmul[d, w]), inverse[w]


def find_w1_per_candidate(ring: FiniteRing, qmap, x: int,
                          m: int) -> Optional[tuple]:
    """(y1, z_word) of ``lifting._find_w1`` by an orbit query per unit:
    for each unit u of R, ascending, both matrices pi(x) + 1_{m-1} and
    pi(u) + 1_{m-1} built and reduced by ``e_orbit_factor``, the first
    word found lifted entry by entry.  The W(R/I) lookup replaced."""
    S = qmap.target
    target = direct_sum(matrix(S, [[qmap.pi(x)]]), identity(S, m - 1))
    for u in ring.units():
        base = direct_sum(matrix(S, [[qmap.pi(u)]]), identity(S, m - 1))
        wbar = e_orbit_factor(S, m, target, base)
        if wbar is not None:
            return u, ElemWord(m, tuple(left_op(op.i, op.j, qmap.lift(op.r))
                                        for op in wbar.ops))
    return None


def w_group_per_row(ring: FiniteRing) -> dict:
    """``matrices.w_group`` with its generators found one row a at a time:
    for each a, the values (1+ba)^-1 (1+ab) over every b with 1+ab a unit,
    a value's pair the first (a, b) that gives it; then the same words and
    the same breadth-first closure, in the same insertion order, uncached.
    The blocked build of ``w_group`` replaced this loop."""
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
    return words


def grid_inverse(A: RMatrix) -> Optional[RMatrix]:
    """Two-sided inverse if A is in GL_n, else None, by solving A*X = 1
    column by column over all |R|**n candidate columns: the cells of an
    (|R|,)*n grid, on which row i of A*x is the sum of the rows mul[A[i, l]]
    broadcast along axis l.  Each column of X is the least candidate code
    that solves its equation; X*A = 1 is then checked."""
    ring, n = A.ring, A.n
    if n == 1:
        inv = ring.inverse(A.entries[0][0])
        return None if inv is None else matrix(ring, [[inv]])
    mul, add = ring.npmul, ring.npadd
    grid = (ring.size,) * n

    def along(l, a):                      # a*x_l over the grid, on axis l
        shape = [1] * n
        shape[l] = ring.size
        return mul[a].reshape(shape)

    rows = []                             # rows[i] = (A*x)_i on the grid
    for i in range(n):
        acc = along(0, A[i, 0])
        for l in range(1, n):
            acc = add[acc, along(l, A[i, l])]
        rows.append(acc)
    cols = []
    for j in range(n):
        ok = np.ones(grid, dtype=bool)
        for i in range(n):
            ok &= rows[i] == (ring.one if i == j else ring.zero)
            if not ok.any():
                return None
        cols.append(np.unravel_index(int(np.argmax(ok)), grid))
    X = RMatrix(ring, n, tuple(tuple(int(cols[j][i]) for j in range(n))
                               for i in range(n)))
    if mat_mul(X, A) != identity(ring, n):
        return None
    return X


def unique_right_multiples(ring: FiniteRing, a: int) -> tuple:
    """Sorted aR by np.unique."""
    return tuple(np.unique(ring.npmul[a]).tolist())


def unique_right_span(ring: FiniteRing, a: int, b: int) -> tuple:
    """Sorted aR + bR by np.unique."""
    return tuple(np.unique(
        ring.npadd[np.unique(ring.npmul[a])[:, None],
                   np.unique(ring.npmul[b])[None, :]]).tolist())


def right_span_numpy(ring: FiniteRing, a: int, b: int) -> tuple:
    """Sorted aR + bR by a mask over aR and bR, then over the |aR| x |bR|
    grid of their sums."""
    aR, bR = (distinct(ring.npmul[x], ring.size) for x in (a, b))
    return tuple(distinct(ring.npadd[aR[:, None], bR[None, :]],
                          ring.size).tolist())


def left_span_numpy(ring: FiniteRing, elems) -> np.ndarray:
    """Membership mask of R*e_1 + ... + R*e_k, by summing the sorted set
    R*e_i into the span one generator at a time."""
    span = np.array([ring.zero])
    for e in elems:
        Re = distinct(ring.npmul[:, e], ring.size)
        span = distinct(ring.npadd[span[:, None], Re[None, :]], ring.size)
    return member_mask(span, ring.size)


def is_idempotent(A: RMatrix) -> bool:
    return mat_mul(A, A) == A


def congruent_mod(A: RMatrix, B: RMatrix, ideal: Ideal) -> bool:
    """A == B entrywise modulo the ideal."""
    assert A.ring is B.ring and A.n == B.n
    return all(ideal.contains(A.ring.sub(x, y))
               for ra, rb in zip(A.entries, B.entries)
               for x, y in zip(ra, rb))
