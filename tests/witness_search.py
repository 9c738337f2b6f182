"""Witness search for Murray-von Neumann equivalence: the test oracle for
``vmonoid.class_key`` and ``ktheory.k0_zero_test``.

The library decides classes and K0 zero tests by class key alone.  This
module keeps the search those verdicts are checked against: some x in e*M*f
mapping f*R^d bijectively onto e*R^d, drawn from the full additive closure
of e*M*f so that exhaustion refutes equivalence without any structure
theory.  ``strict_zero_padding`` is the strict K0 zero test: a witness for
pos + 1_m ~ neg + 1_m congruent to pos + 1_m modulo M(I).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from exlift.config import DEFAULT, Guards
from exlift.errors import GuardExceeded
from exlift.ktheory import K0Element
from exlift.matrices import RMatrix, identity
from exlift.rings import FiniteRing, Ideal, digits
from exlift.vmonoid import ENUMERATION

# Largest candidate set the search materializes: column modules of a direct
# sum, and the additive closure of a corner e*M*f.
SEARCH_CANDIDATES = 200_000


# ---------------------------------------------------------------------------
# Equivalence engine
# ---------------------------------------------------------------------------

@dataclass
class _Idem:
    """An idempotent matrix with its (lazily materialized) column module."""

    arr: np.ndarray          # (d, d) entries
    d: int
    col_size: int
    row_size: int
    col_enc: Optional[np.ndarray] = None  # sorted encodings of {e*v}
    col_dig: Optional[np.ndarray] = None  # (m, d) digits, None when too large


class _Engine:
    """Witness search: some x in e*M*f mapping f*R^d bijectively onto e*R^d."""

    def __init__(self, ring: FiniteRing, guards: Guards):
        self.ring = ring
        self.guards = guards
        self.mul = ring.npmul.astype(np.int64)
        self.add = ring.npadd.astype(np.int64)
        self._vec_cache: dict = {}

    # -- vector spaces ------------------------------------------------------
    def _vectors(self, d: int) -> np.ndarray:
        got = self._vec_cache.get(d)
        if got is None:
            n = self.ring.size ** d
            if n > ENUMERATION:
                raise GuardExceeded(
                    f"|R|^{d} = {n} vectors exceed the enumeration guard")
            got = self._vec_cache[d] = digits(np.arange(n), self.ring.size, d)
        return got

    def _encode_rows(self, rows: np.ndarray) -> np.ndarray:
        enc = np.zeros(len(rows), dtype=np.int64)
        for p in range(rows.shape[1]):
            enc = enc * self.ring.size + rows[:, p]
        return enc

    def _matvec(self, E: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Ring product E @ v for every row v of V."""
        d = E.shape[0]
        out = np.empty((len(V), d), dtype=np.int64)
        for i in range(d):
            acc = np.full(len(V), self.ring.zero, dtype=np.int64)
            for l in range(d):
                acc = self.add[acc, self.mul[E[i, l], V[:, l]]]
            out[:, i] = acc
        return out

    def _vecmat(self, V: np.ndarray, E: np.ndarray) -> np.ndarray:
        d = E.shape[0]
        out = np.empty((len(V), d), dtype=np.int64)
        for j in range(d):
            acc = np.full(len(V), self.ring.zero, dtype=np.int64)
            for l in range(d):
                acc = self.add[acc, self.mul[V[:, l], E[l, j]]]
            out[:, j] = acc
        return out

    def _matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        d = A.shape[0]
        out = np.empty((d, d), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                acc = self.ring.zero
                for l in range(d):
                    acc = self.add[acc, self.mul[A[i, l], B[l, j]]]
                out[i, j] = acc
        return out

    # -- idempotent handles ---------------------------------------------------
    def idem_from_matrix(self, arr: np.ndarray, d: int) -> _Idem:
        V = self._vectors(d)
        col = np.unique(self._encode_rows(self._matvec(arr, V)))
        row = len(np.unique(self._encode_rows(self._vecmat(V, arr))))
        return _Idem(arr, d, len(col), row, col, digits(col, self.ring.size, d))

    def ensure_cols(self, h: _Idem) -> None:
        if h.col_dig is not None:
            return
        V = self._vectors(h.d)
        h.col_enc = np.unique(self._encode_rows(self._matvec(h.arr, V)))
        h.col_dig = digits(h.col_enc, self.ring.size, h.d)

    def idem_pad(self, h: _Idem, d: int) -> _Idem:
        if h.d == d:
            return h
        arr = np.full((d, d), self.ring.zero, dtype=np.int64)
        arr[:h.d, :h.d] = h.arr
        if h.col_dig is not None:
            dig = np.hstack([h.col_dig,
                             np.full((len(h.col_dig), d - h.d), self.ring.zero,
                                     dtype=np.int64)])
            enc = np.sort(self._encode_rows(dig))
        else:
            dig, enc = None, None
        return _Idem(arr, d, h.col_size, h.row_size, enc, dig)

    def idem_sum(self, h1: _Idem, h2: _Idem) -> _Idem:
        d = h1.d + h2.d
        arr = np.full((d, d), self.ring.zero, dtype=np.int64)
        arr[:h1.d, :h1.d] = h1.arr
        arr[h1.d:, h1.d:] = h2.arr
        size = h1.col_size * h2.col_size
        if (h1.col_dig is not None and h2.col_dig is not None
                and size <= SEARCH_CANDIDATES):
            dig = np.hstack([np.repeat(h1.col_dig, len(h2.col_dig), axis=0),
                             np.tile(h2.col_dig, (len(h1.col_dig), 1))])
            enc = np.sort(self._encode_rows(dig))
        else:
            dig, enc = None, None
        return _Idem(arr, d, size, h1.row_size * h2.row_size, enc, dig)

    # -- witnesses ------------------------------------------------------------
    def _witness_x(self, a: _Idem, b: _Idem) -> Optional[np.ndarray]:
        """Some x in a*M*b acting bijectively on column modules, or None."""
        if a.col_size != b.col_size or a.row_size != b.row_size:
            return None
        self.ensure_cols(a)
        self.ensure_cols(b)
        tried = set()
        for x in self._candidates(a.arr, b.arr, a.d):
            code = int(self._encode_rows(x.reshape(1, -1))[0])
            if code in tried:
                continue
            tried.add(code)
            if self._is_bijective(x, a, b):
                return x
        return None

    def find_witness(self, a: _Idem, b: _Idem) -> Optional[tuple]:
        """(x, y) with x*y = a, y*x = b, x in a*M*b; None if none exists."""
        x = self._witness_x(a, b)
        if x is None:
            return None
        return x, self._invert_on_modules(x, a, b)

    def _is_bijective(self, x: np.ndarray, a: _Idem, b: _Idem) -> bool:
        img = self._matvec(x, b.col_dig)
        enc = self._encode_rows(img)
        uniq = np.unique(enc)
        return len(uniq) == len(enc) and np.array_equal(uniq, a.col_enc)

    def _invert_on_modules(self, x: np.ndarray, a: _Idem,
                           b: _Idem) -> np.ndarray:
        """Matrix y implementing the inverse of v -> x*v on column modules
        (columns solve x*y_j = a*u_j); requires _is_bijective(x, a, b)."""
        img = self._matvec(x, b.col_dig)
        enc = self._encode_rows(img)
        back = {int(e): vec for e, vec in zip(enc, b.col_dig)}
        d = a.d
        y = np.empty((d, d), dtype=np.int64)
        for j in range(d):
            target = a.arr[:, j]  # a * u_j
            code = 0
            for p in range(d):
                code = code * self.ring.size + int(target[p])
            y[:, j] = back[code]
        return y

    def _candidates(self, A: np.ndarray, B: np.ndarray, d: int):
        yield self._matmul(A, B)
        if d <= 6:
            one, zero = self.ring.one, self.ring.zero
            for perm in itertools.permutations(range(d)):
                P = np.full((d, d), zero, dtype=np.int64)
                for i, j in enumerate(perm):
                    P[i, j] = one
                yield self._matmul(self._matmul(A, P), B)
        yield from self._closure_candidates(A, B, d)

    def _closure_candidates(self, A: np.ndarray, B: np.ndarray, d: int,
                            elements: Optional[np.ndarray] = None):
        """Additive closure of A*M_d(E)*B (E the whole carrier by default):
        the complete candidate space for witnesses through A..B corners.

        Yields generators first (ascending encodings), then each BFS level in
        ascending order, so exhaustion soundly refutes equivalence and the
        order is deterministic.
        """
        size = self.ring.size
        weights = np.array([size ** (d * d - 1 - p) for p in range(d * d)],
                           dtype=np.int64)
        parts = []
        for aa in range(d):
            La = self.mul[A[:, aa], :]          # (d, size): A[i,aa] * r
            if elements is not None:
                La = La[:, elements]
            for bb in range(d):
                Rb = B[bb, :]
                # [r, i, j] = (A[i,aa] * r) * B[bb,j]
                parts.append(self.mul[La.T[:, :, None], Rb[None, None, :]])
        gens = np.concatenate(parts, axis=0)
        codes = gens.reshape(len(gens), -1) @ weights
        uniq, idx = np.unique(codes, return_index=True)
        gens = gens[idx]
        zero_code = self.ring.zero * int(weights.sum())
        seen = {zero_code}
        seen.update(int(c) for c in uniq)
        for g in gens:
            yield g
        frontier = gens
        while len(frontier):
            chunk = max(1, (1 << 20) // max(len(gens) * d * d, 1))
            level_mats = []
            for lo in range(0, len(frontier), chunk):
                sub = frontier[lo:lo + chunk]
                sums = self.add[sub[:, None, :, :], gens[None, :, :, :]]
                sums = sums.reshape(-1, d, d)
                codes = sums.reshape(len(sums), -1) @ weights
                uniq, idx = np.unique(codes, return_index=True)
                for c, i in zip(uniq, idx):
                    c = int(c)
                    if c not in seen:
                        seen.add(c)
                        level_mats.append((c, sums[i]))
            if len(seen) > SEARCH_CANDIDATES:
                raise GuardExceeded(
                    f"additive closure of corner exceeds "
                    f"{SEARCH_CANDIDATES} candidates")
            level_mats.sort(key=lambda t: t[0])
            for _, m in level_mats:
                yield m
            frontier = np.array([m for _, m in level_mats],
                                dtype=np.int64).reshape(-1, d, d)


def equivalence_witness(ring: FiniteRing, A: RMatrix, B: RMatrix,
                        guards: Guards = DEFAULT) -> Optional[tuple]:
    """(x, y) RMatrix pair with x*y = A-padded, y*x = B-padded, or None.

    Runs the witness search, whose exhaustion refutes equivalence without
    any structure theory, so it is the test oracle for ``class_key``.
    """
    eng = _Engine(ring, guards)
    d = max(A.n, B.n)
    ha = eng.idem_pad(eng.idem_from_matrix(np.array(A.entries, np.int64), A.n), d)
    hb = eng.idem_pad(eng.idem_from_matrix(np.array(B.entries, np.int64), B.n), d)
    got = eng.find_witness(ha, hb)
    if got is None:
        return None
    x, y = got
    to_m = lambda m: RMatrix(ring, d, tuple(tuple(int(v) for v in row) for row in m))
    return to_m(x), to_m(y)


# ---------------------------------------------------------------------------
# Strict K0 zero test
# ---------------------------------------------------------------------------

def _engine(ring: FiniteRing, guards: Guards):
    got = ring._cache.get("equiv_engine")
    if got is None:
        got = _Engine(ring, guards)
        ring._cache["equiv_engine"] = got
    return got


def _part_handle(eng, part: RMatrix):
    return eng.idem_from_matrix(np.array(part.entries, dtype=np.int64), part.n)


def _stabilized_handle(eng, parts: tuple, m: int):
    hs = [_part_handle(eng, p) for p in parts]
    if m:
        ring = eng.ring
        hs.append(_part_handle(eng, identity(ring, m)))
    h = hs[0]
    for nxt in hs[1:]:
        h = eng.idem_sum(h, nxt)
    return h


def _strict_equal(ring: FiniteRing, ideal: Ideal, pos_parts: tuple,
                  neg_parts: tuple, m: int, guards: Guards) -> bool:
    if ideal.is_full():
        # congruence mod M(R) is vacuous: strict is plain equivalence of
        # pos + 1_m and neg + 1_m, which the witness search decides alone
        eng = _engine(ring, guards)
        hp = _stabilized_handle(eng, pos_parts, m)
        hq = _stabilized_handle(eng, neg_parts, m)
        d = max(hp.d, hq.d)
        return eng.find_witness(eng.idem_pad(hp, d),
                                eng.idem_pad(hq, d)) is not None
    from exlift.rings import ProductSpec, build_ring
    if isinstance(ring.spec, ProductSpec):
        return _strict_equal_product(ring, ideal, pos_parts, neg_parts, m,
                                     guards)
    eng = _engine(ring, guards)
    hp = _stabilized_handle(eng, pos_parts, m)
    hq = _stabilized_handle(eng, neg_parts, m)
    if hp.col_size != hq.col_size or hp.row_size != hq.row_size:
        return False
    if hp.col_dig is None or hq.col_dig is None:
        raise GuardExceeded("stabilized column module too large to materialize")
    d = hp.d
    x0 = eng._matmul(hp.arr, hq.arr)
    if eng._is_bijective(x0, hp, hq):
        return True
    members = np.fromiter(ideal.sorted_members, dtype=np.int64)
    for eta in eng._closure_candidates(hp.arr, hq.arr, d, elements=members):
        x = eng.add[x0, eta]
        if eng._is_bijective(x, hp, hq):
            return True
    return False


def _strict_equal_product(ring, ideal, pos_parts, neg_parts, m, guards):
    from exlift.rings import Ideal as _Ideal, build_ring
    lring = build_ring(ring.spec.left, guards)
    rring = build_ring(ring.spec.right, guards)
    nr = rring.size
    lmem, rmem = set(), set()
    for v in ideal.sorted_members:
        lmem.add(v // nr)
        rmem.add(v % nr)
    lideal = _Ideal(lring, frozenset(lmem), tuple(sorted(lmem)))
    rideal = _Ideal(rring, frozenset(rmem), tuple(sorted(rmem)))

    def split(parts, ring_side, shift):
        out = []
        for p in parts:
            ent = np.array(p.entries, dtype=np.int64)
            comp = ent // nr if shift == "l" else ent % nr
            out.append(RMatrix(ring_side, p.n,
                               tuple(tuple(int(v) for v in row) for row in comp)))
        return tuple(out)

    return (_strict_equal(lring, lideal, split(pos_parts, lring, "l"),
                          split(neg_parts, lring, "l"), m, guards)
            and _strict_equal(rring, rideal, split(pos_parts, rring, "r"),
                              split(neg_parts, rring, "r"), m, guards))


def strict_zero_padding(k: K0Element, stab: int = 2,
                        guards: Guards = DEFAULT) -> Optional[int]:
    """Least padding m <= stab with x*y = pos+1_m, y*x = neg+1_m and x
    congruent to pos+1_m modulo M(I), or None when the search exhausts."""
    for m in range(stab + 1):
        if _strict_equal(k.ring, k.ideal, k.pos_parts, k.neg_parts, m, guards):
            return m
    return None
