"""Deterministic first-hit scans shared by the constructions and the
certificate verifier.

Every search here returns the first hit of an ascending scan over the
carrier (the pair solve scans x alone, testing target - c*x against the set
dR, instead of scanning all pairs), so a verifier can re-derive each
recorded witness and reject any transcript that did not come from the
canonical search order.  The scans read rows of the multiplication table as
Python lists (``FiniteRing.mul_row``) on rings with list mirrors, and as
numpy rows with membership masks and first hits on rings without them.
``split`` is the one scan that decomposes R, for the row passes, the
corner step and the direct sum R = c'R + d'R of a reduced row.

Each scan is right-handed (ideals aR, equations a*x = b).  Its left-handed
form is the same scan over ``ring.op()``: Ra is a*R^op, and x*a = b in R is
a*x = b in R^op.  The column reduction and the left idempotent generator of
``lifting`` run the scans that way.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .rings import (FiniteRing, first_hit, member_mask, solve_pair_right,
                    solve_right)


def split(ring: FiniteRing, a: int, b: int) -> Optional[tuple]:
    """(e, t, u): the least idempotent e with e in aR and 1-e in bR, with
    the least t, u solving a*t = e and b*u = 1-e (``solve_right`` on the
    rows of a and b, read once; without list mirrors, masks of aR, bR)."""
    if ring._mul is None:
        row_a, row_b = ring._mul_array(a), ring._mul_array(b)
        in_a, in_b = (member_mask(row, ring.size) for row in (row_a, row_b))
        for e in ring.idempotents():
            if in_a[e] and in_b[f := ring.sub(ring.one, e)]:
                return e, first_hit(row_a == e), first_hit(row_b == f)
        return None
    row_a, row_b = ring.mul_row(a), ring.mul_row(b)
    for e in ring.idempotents():
        try:
            return e, row_a.index(e), row_b.index(ring.sub(ring.one, e))
        except ValueError:
            continue
    return None


def row_pass_witnesses(ring: FiniteRing, c: int, d: int) -> Optional[tuple]:
    """(x, y, e, r, s) for the unimodular row (c, d): c*x + d*y = 1, the least
    idempotent e with e in (c*x)R and 1-e in dR, and the normalized r, s with
    e = c*r, r*e = r, 1-e = d*s, s*(1-e) = s."""
    sol = solve_pair_right(ring, c, d, ring.one)
    if sol is None:
        return None
    x, y = sol
    got = split(ring, ring.mul(c, x), d)
    if got is None:
        return None
    e, t, s0 = got
    return (x, y, e, ring.mul(ring.mul(x, t), e),
            ring.mul(s0, ring.sub(ring.one, e)))


def corner_witnesses_right(ring: FiniteRing, e: int, w: int) -> Optional[tuple]:
    """(f, w1, w2) with f = e*w*w1 idempotent, w1*f = w1, and
    1-f = (1-e)*w*w2, w2*(1-f) = w2; least f first."""
    got = split(ring, ring.mul(e, w), ring.mul(ring.sub(ring.one, e), w))
    if got is None:
        return None
    f, w10, w20 = got
    return f, ring.mul(w10, f), ring.mul(w20, ring.sub(ring.one, f))


def idempotent_generator_right(ring: FiniteRing, d: int) -> Optional[int]:
    """Least idempotent e with eR = dR (e in dR and e*d = d)."""
    for e in ring.right_multiples(d):
        if ring.mul(e, e) == e and ring.mul(e, d) == d:
            return e
    return None


def unit_regular_scan(ring: FiniteRing, d: int) -> Optional[tuple]:
    """(f, u) from the least unit w with d*w*d = d: f = d*w, u = w^-1, the
    first unit among the w that d's row and column (R^op's row) admit."""
    if ring._mul is None:
        dw = ring._mul_array(d)
        ws = map(int, np.flatnonzero(ring.op()._mul_array(d)[dw] == d))
    else:
        dw, col = ring.mul_row(d), ring.op().mul_row(d)
        ws = (w for w, f in enumerate(dw) if col[f] == d)
    for w in ws:
        u = ring.inverse(w)
        if u is not None:
            return int(dw[w]), u
    return None


def pseudoinverse_scan(ring: FiniteRing, lhs: int, target: int) -> Optional[int]:
    """Least v0 with lhs*v0 = target, normalized to v = v0*target."""
    v0 = solve_right(ring, lhs, target)
    if v0 is None:
        return None
    return ring.mul(v0, target)
