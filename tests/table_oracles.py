"""Brute-force oracles for the table kernels of ``rings``, ``exchange`` and
``matrices``.

Each function is the plain scan the library's kernel replaced: the pair
solve over the whole |R| x |R| grid, the exchange witness by a loop over
idempotents, the quotient tables by a loop over cosets, and M_k(I) by a
loop over the codes of M_k(R).  The kernels must return exactly what these
return.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from exlift.exchange import ExchangeWitness
from exlift.rings import FiniteRing, Ideal


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
