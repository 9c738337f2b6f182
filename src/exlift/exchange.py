"""Exchange-ring and exchange-ideal predicates.

An element has an exchange witness (e, r, s) when e is an idempotent
solving the exchange equations with r and s.  One batched table kernel
finds the least such e for many elements at once, and the predicates run it
over the whole ring or ideal.  The witnesses themselves, least e, then r,
then s, are computed by the test oracles.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .rings import FiniteRing, Ideal

# the kernel works in blocks of rows whose tables hold at most this many
# entries
_BLOCK_ENTRIES = 1 << 18


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


def _every_element_has_witness(ring: FiniteRing,
                               ideal: Optional[Ideal] = None) -> bool:
    tables, idem, carrier = _form(ring, ideal)
    return bool((_least_idempotents(ring, carrier, tables, idem) >= 0).all())


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
