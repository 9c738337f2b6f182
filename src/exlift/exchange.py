"""Exchange-ring and exchange-ideal predicates with replayable witnesses.

A witness is the least (e, r, s): smallest idempotent e, then r, then s, in
carrier index, so witnesses are reproducible and certificates deterministic.
One batched table kernel finds the least e for many elements at once; the
predicates run it over the whole ring or ideal, and the witness functions
over one element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotIdempotent
from .rings import FiniteRing, Ideal, quotient_by

# the kernel works in blocks of rows whose tables hold at most this many
# entries
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class ExchangeWitness:
    """Idempotent e plus the auxiliary solutions of the defining equations."""

    e: int
    r: int
    s: int


def _form(ring: FiniteRing, ideal: Optional[Ideal] = None):
    """(tables, idem, carrier) of the unital form (ideal None) or of the
    intrinsic form over I.

    carrier holds the candidates for r and s (R, or the members of I) and
    idem the candidates for e, ascending.  tables(rows) gives two tables with
    one row per element x of rows and one column per candidate: e is a
    witness idempotent for x iff it appears in both rows.  Unital:
    x*r and 1 - (1-x)*s.  Intrinsic: x*r and x + s - x*s."""
    npadd, npneg, npmul = ring.npadd, ring.npneg, ring.npmul
    idem = np.array(ring.idempotents(), dtype=np.intp)
    if ideal is None:
        def tables(rows):
            one_minus = npadd[ring.one, npneg[rows]]
            return npmul[rows], npadd[ring.one, npneg[npmul[one_minus]]]
        return tables, idem, np.arange(ring.size)

    members = np.fromiter(ideal.sorted_members, dtype=np.intp)

    def tables(rows):
        cross = np.ix_(rows, members)
        xm = npmul[cross]
        return xm, npadd[npadd[cross], npneg[xm]]
    return tables, idem[ideal.mask[idem]], members


def _least_idempotents(ring: FiniteRing, rows: np.ndarray, tables,
                       idem: np.ndarray) -> np.ndarray:
    """Per element of rows, the position in idem of its least witness
    idempotent, or -1.

    Each table row is scattered into a boolean row over idem (one spare
    column takes the other values); blocks of rows keep every temporary
    within _BLOCK_ENTRIES entries."""
    col_of = np.full(ring.size, len(idem), dtype=np.intp)
    col_of[idem] = np.arange(len(idem))
    out = np.empty(len(rows), dtype=np.intp)
    step = max(1, _BLOCK_ENTRIES // ring.size)
    for lo in range(0, len(rows), step):
        left, right = tables(rows[lo:lo + step])
        at = np.arange(len(left))[:, None]
        both = np.zeros((len(left), len(idem) + 1), dtype=bool)
        both[at, col_of[left]] = True
        in_right = np.zeros_like(both)
        in_right[at, col_of[right]] = True
        both = (both & in_right)[:, :-1]
        out[lo:lo + step] = np.where(both.any(axis=1), both.argmax(axis=1), -1)
    return out


def _witness(ring: FiniteRing, x: int,
             ideal: Optional[Ideal] = None) -> Optional[ExchangeWitness]:
    """The least (e, r, s) for x: e from the kernel, then the least r and s
    of the carrier whose table entries equal e."""
    tables, idem, carrier = _form(ring, ideal)
    rows = np.array([x], dtype=np.intp)
    p = _least_idempotents(ring, rows, tables, idem)[0]
    if p < 0:
        return None
    e = idem[p]
    left, right = tables(rows)
    return ExchangeWitness(int(e), int(carrier[np.argmax(left[0] == e)]),
                           int(carrier[np.argmax(right[0] == e)]))


def _every_element_has_witness(ring: FiniteRing,
                               ideal: Optional[Ideal] = None) -> bool:
    tables, idem, carrier = _form(ring, ideal)
    return bool((_least_idempotents(ring, carrier, tables, idem) >= 0).all())


def exchange_witness_unital(ring: FiniteRing, a: int) -> Optional[ExchangeWitness]:
    """Least (e, r, s) with e = a*r idempotent and 1 - e = (1-a)*s."""
    return _witness(ring, a)


def exchange_witness_ideal(ring: FiniteRing, ideal: Ideal,
                           x: int) -> Optional[ExchangeWitness]:
    """Least (e, r, s) in I^3 with e = x*r = x + s - x*s, e idempotent."""
    ideal.require(x)
    return _witness(ring, x, ideal)


def is_exchange_ring(ring: FiniteRing) -> bool:
    """Every element admits a unital exchange witness."""
    key = "is_exchange_ring"
    got = ring._cache.get(key)
    if got is None:
        got = ring._cache[key] = _every_element_has_witness(ring)
    return got


def is_exchange_ideal(ring: FiniteRing, ideal: Ideal) -> bool:
    """Every x in I admits a witness in the intrinsic non-unital sense."""
    key = ("is_exchange_ideal", ideal.members)
    got = ring._cache.get(key)
    if got is None:
        got = ring._cache[key] = _every_element_has_witness(ring, ideal)
    return got


def embedded_exchange_witness(ring: FiniteRing, ideal: Ideal,
                              x: int) -> Optional[tuple]:
    """Embedded-form witness: idempotent e in x*I with 1 - e in (1-x)*R.

    The equivalence with the intrinsic form is a cited theorem; this exists so
    the corpus can cross-check it rather than assume it.
    """
    ideal.require(x)
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
        raise NotIdempotent(f"{ebar} is not idempotent in the quotient")
    for e in ring.idempotents():
        if qmap.pi(e) == ebar:
            return e
    return None
