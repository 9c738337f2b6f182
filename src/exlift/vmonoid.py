"""Monoids of idempotent-matrix classes, truncated at a dimension bound.

``build_v_monoid(R, K)`` enumerates every idempotent in M_k(R) for k <= K,
partitions them into Murray-von Neumann equivalence classes (x*y = e,
y*x = f with x in e*M*f), and returns the resulting commutative monoid under
block direct sum.  Sums whose class has no representative within the
truncation map to a distinguished absorbing overflow element, which all
checkers exclude from their quantifier ranges: every verdict is relative to
the K-ball and says nothing beyond it.

This is the only module that decides classes, and it does so with one exact
invariant, ``class_key``: the sizes of the column module of E over
R/J(R), one per simple component.  The witness search (some x in e*M*f
mapping f*R^d bijectively onto e*R^d, drawn from the full additive closure of
e*M*f so that exhaustion refutes equivalence) stays for building explicit
witnesses; ``equivalence_witness`` exposes it and the tests use it as the
oracle for the key.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT, Guards
from .errors import (GuardExceeded, HypothesisFailed, InvalidSpec,
                     NotDownwardClosed)
from .matrices import RMatrix, decode_matrix
from .rings import FiniteRing, Ideal, quotient_by


# ---------------------------------------------------------------------------
# Outcome type shared by the checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckOutcome:
    holds: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.holds


# ---------------------------------------------------------------------------
# Finite commutative monoids
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FinMonoid:
    """Commutative monoid by table; ``overflow`` marks the truncation sink."""

    size: int
    table: tuple  # tuple of row tuples
    zero: int
    labels: tuple
    overflow: Optional[int] = None

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def proper(self) -> list:
        """Element range with the overflow sink excluded."""
        return [i for i in range(self.size) if i != self.overflow]

    def le_matrix(self) -> list:
        """Algebraic order: le[x][y] iff x + z == y for some z."""
        got = getattr(self, "_le", None)
        if got is None:
            got = [[False] * self.size for _ in range(self.size)]
            for x in range(self.size):
                for z in range(self.size):
                    got[x][self.table[x][z]] = True
            self._le = got
        return got

    def __repr__(self):
        return f"FinMonoid(size={self.size}, zero={self.zero}, overflow={self.overflow})"


def validate_fin_monoid(m: FinMonoid) -> None:
    """Exhaustive commutativity, associativity and identity checks."""
    n = m.size
    if len(m.table) != n or any(len(r) != n for r in m.table):
        raise InvalidSpec("op table is not size x size")
    if len(m.labels) != n:
        raise InvalidSpec("labels length differs from size")
    t = m.table
    for a in range(n):
        if t[m.zero][a] != a or t[a][m.zero] != a:
            raise InvalidSpec(f"identity law fails at {a}")
    for a in range(n):
        for b in range(n):
            if t[a][b] != t[b][a]:
                raise InvalidSpec(f"commutativity fails at ({a},{b})")
    for a in range(n):
        for b in range(n):
            tab = t[a][b]
            for c in range(n):
                if t[tab][c] != t[a][t[b][c]]:
                    raise InvalidSpec(f"associativity fails at ({a},{b},{c})")
    if m.overflow is not None:
        o = m.overflow
        for a in range(n):
            if t[o][a] != o:
                raise InvalidSpec("overflow element is not absorbing")


def monoid_to_obj(m: FinMonoid) -> dict:
    obj = {
        "size": m.size,
        "zero": m.zero,
        "op_table": [int(x) for row in m.table for x in row],
        "labels": list(m.labels),
    }
    if m.overflow is not None:
        obj["overflow"] = m.overflow
    return obj


def parse_monoid_obj(obj) -> FinMonoid:
    if not isinstance(obj, dict):
        raise InvalidSpec("monoid table must be an object")
    allowed = {"size", "zero", "op_table", "labels", "overflow"}
    extra = set(obj) - allowed
    if extra:
        raise InvalidSpec(f"unknown fields in monoid table: {sorted(extra)}")
    size = obj.get("size")
    zero = obj.get("zero")
    flat = obj.get("op_table")
    if not isinstance(size, int) or size < 1:
        raise InvalidSpec("monoid size must be a positive integer")
    if not isinstance(zero, int) or not (0 <= zero < size):
        raise InvalidSpec("zero index outside range")
    if (not isinstance(flat, list) or len(flat) != size * size
            or any(not isinstance(x, int) or not (0 <= x < size) for x in flat)):
        raise InvalidSpec("op_table must be a flat list of size*size indices")
    labels = obj.get("labels")
    if labels is None:
        labels = [str(i) for i in range(size)]
    elif (not isinstance(labels, list) or len(labels) != size
          or any(not isinstance(s, str) for s in labels)):
        raise InvalidSpec("labels must be a list of size strings")
    overflow = obj.get("overflow")
    if overflow is not None and (not isinstance(overflow, int)
                                 or not (0 <= overflow < size)):
        raise InvalidSpec("overflow index outside range")
    table = tuple(tuple(flat[i * size + j] for j in range(size))
                  for i in range(size))
    m = FinMonoid(size, table, zero, tuple(labels), overflow)
    validate_fin_monoid(m)
    return m


@dataclass(frozen=True)
class OrderIdeal:
    member_set: frozenset

    def __contains__(self, x: int) -> bool:
        return x in self.member_set


def validate_order_ideal(m: FinMonoid, s: OrderIdeal) -> None:
    """Downward closure and op closure, within the K-ball."""
    if m.zero not in s.member_set:
        raise NotDownwardClosed("order ideal misses the monoid identity")
    le = m.le_matrix()
    proper = m.proper()
    for y in s.member_set:
        if y == m.overflow:
            raise NotDownwardClosed("overflow cannot belong to an order ideal")
        for x in proper:
            if le[x][y] and x not in s.member_set:
                raise NotDownwardClosed(
                    f"{x} <= {y} in S but {x} not in S")
    for a in s.member_set:
        for b in s.member_set:
            c = m.op(a, b)
            if c != m.overflow and c not in s.member_set:
                raise NotDownwardClosed(f"S not closed: {a}+{b} = {c} outside S")


# ---------------------------------------------------------------------------
# The class key
#
# Finite rings are semiperfect, so idempotent matrices over R are equivalent
# iff their images over S = R/J(R) are (projective covers).  S is semisimple:
# one simple component c_i*S per primitive central idempotent c_i, and a
# projective S-module P is determined up to isomorphism by the sizes of its
# components c_i*P.  So (|c_i * Ebar * S^d|)_i is a complete invariant of the
# idempotent E in M_d(R), and the key of E (+) F is the componentwise product.
# ---------------------------------------------------------------------------

_CHUNK = 1 << 20  # entries per numpy temporary in the chunked scans


def _digits(codes: np.ndarray, base: int, width: int) -> np.ndarray:
    """(n, width) base-``base`` digits of codes, most significant first."""
    out = np.empty((len(codes), width), dtype=np.int64)
    tmp = np.array(codes, dtype=np.int64)
    for p in reversed(range(width)):
        out[:, p] = tmp % base
        tmp //= base
    return out


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """J(R) = {x : 1 - r*x is a unit for every r}, cached on the ring.

    Scans rows r in chunks against the columns x that have survived so far,
    so no |R| x |R| temporary is ever built.
    """
    got = ring._cache.get("radical")
    if got is None:
        unit = np.zeros(ring.size, dtype=bool)
        unit[list(ring.units())] = True
        one_minus = ring.npadd[ring.one][ring.npneg]   # y -> 1 - y
        cand = np.arange(ring.size)
        lo = 0
        while lo < ring.size and len(cand) > 1:
            hi = min(ring.size, lo + max(1, _CHUNK // len(cand)))
            cand = cand[unit[one_minus[ring.npmul[lo:hi][:, cand]]].all(axis=0)]
            lo = hi
        members = tuple(int(x) for x in cand)
        # generated by all its members, so R/J's spec is a faithful recipe
        got = ring._cache["radical"] = Ideal(ring, frozenset(members), members)
    return got


def _semisimple_quotient(ring: FiniteRing) -> tuple:
    """(R -> S = R/J(R) as a QuotientMap, primitive central idempotents of S)."""
    got = ring._cache.get("semisimple")
    if got is None:
        qmap = quotient_by(ring, jacobson_radical(ring))
        S = qmap.target
        central = [e for e in S.idempotents()
                   if np.array_equal(S.npmul[e], S.npmul[:, e])]
        primitive = tuple(c for c in central if c != S.zero and all(
            S.mul(c, e) in (S.zero, c) for e in central))
        got = ring._cache["semisimple"] = (qmap, primitive)
    return got


def _class_keys(ring: FiniteRing, ent: np.ndarray, guards: Guards) -> list:
    """Class keys of the idempotents in an (n, d, d) array of entries of R."""
    qmap, comps = _semisimple_quotient(ring)
    S = qmap.target
    n, d = ent.shape[0], ent.shape[1]
    nv = S.size ** d
    if nv > guards.enumeration:
        raise GuardExceeded(
            f"|R/J|^{d} = {nv} vectors exceed the enumeration guard")
    V = _digits(np.arange(nv), S.size, d)
    weights = S.size ** np.arange(d - 1, -1, -1, dtype=np.int64)
    ent = qmap.image[ent]
    out = []
    step = max(1, _CHUNK // (nv * d))
    for lo in range(0, n, step):
        E = ent[lo:lo + step]
        # W[m, v] = Ebar_m * v for every vector v of S^d
        W = np.full((len(E), nv, d), S.zero, dtype=np.int64)
        for i in range(d):
            for l in range(d):
                W[:, :, i] = S.npadd[W[:, :, i],
                                     S.npmul[E[:, i, l][:, None], V[None, :, l]]]
        sizes = []
        for c in comps:
            enc = S.npmul[c][W] @ weights
            enc.sort(axis=1)
            sizes.append((np.diff(enc, axis=1) != 0).sum(axis=1) + 1)
        out.extend(tuple(int(v) for v in row) for row in zip(*sizes))
    return out


def _key_sum(a: tuple, b: tuple) -> tuple:
    """Key of a direct sum."""
    return tuple(x * y for x, y in zip(a, b))


def class_key(ring: FiniteRing, *parts: RMatrix,
              guards: Guards = DEFAULT) -> tuple:
    """Complete Murray-von Neumann invariant of the direct sum of the given
    idempotent matrices, computed part by part."""
    keys = [_class_keys(ring, np.array(A.entries, dtype=np.int64)[None],
                        guards)[0] for A in parts]
    return functools.reduce(_key_sum, keys)


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
            if n > self.guards.enumeration:
                raise GuardExceeded(
                    f"|R|^{d} = {n} vectors exceed the enumeration guard")
            got = self._vec_cache[d] = _digits(np.arange(n), self.ring.size, d)
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
        return _Idem(arr, d, len(col), row, col, _digits(col, self.ring.size, d))

    def ensure_cols(self, h: _Idem) -> None:
        if h.col_dig is not None:
            return
        V = self._vectors(h.d)
        h.col_enc = np.unique(self._encode_rows(self._matvec(h.arr, V)))
        h.col_dig = _digits(h.col_enc, self.ring.size, h.d)

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
                and size <= self.guards.search_candidates):
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
            if len(seen) > self.guards.search_candidates:
                raise GuardExceeded(
                    f"additive closure of corner exceeds "
                    f"{self.guards.search_candidates} candidates")
            level_mats.sort(key=lambda t: t[0])
            for _, m in level_mats:
                yield m
            frontier = np.array([m for _, m in level_mats],
                                dtype=np.int64).reshape(-1, d, d)


def equivalent_idempotents(ring: FiniteRing, A: RMatrix, B: RMatrix,
                           guards: Guards = DEFAULT) -> bool:
    """Murray-von Neumann equivalence after zero padding, by class key."""
    return class_key(ring, A, guards=guards) == class_key(ring, B, guards=guards)


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
# V-monoid construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VClass:
    representative: RMatrix
    monoid_index: int


@dataclass(eq=False)
class VMonoid:
    ring: FiniteRing
    truncation: int
    monoid: FinMonoid
    classes: list
    class_of: dict          # (dim, code) -> class index
    members: list           # class index -> list of (dim, code)
    overflow_index: Optional[int]
    keys: list              # class index -> class key

    def classify(self, A: RMatrix) -> Optional[int]:
        """Class index of an idempotent matrix; None means overflow."""
        hit = self.class_of.get((A.n, A.encode()))
        if hit is not None:
            return hit
        key = class_key(self.ring, A)
        return self.keys.index(key) if key in self.keys else None

    def label(self, index: Optional[int]) -> str:
        if index is None:
            index = self.overflow_index
        return self.monoid.labels[index]


def _enumerate_idempotents(ring: FiniteRing, k: int,
                           guards: Guards) -> np.ndarray:
    """Codes of all idempotents in M_k(R), ascending."""
    total = ring.size ** (k * k)
    if total > guards.enumeration:
        raise GuardExceeded(
            f"|M_{k}({ring.describe()})| = {total} exceeds enumeration guard")
    mul = ring.npmul.astype(np.int64)
    add = ring.npadd.astype(np.int64)
    weights = np.array([ring.size ** (k * k - 1 - p) for p in range(k * k)],
                       dtype=np.int64)
    hits = []
    chunk = 1 << 18
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        codes = np.arange(lo, hi, dtype=np.int64)
        ent = _digits(codes, ring.size, k * k).reshape(-1, k, k)
        sq = np.empty_like(ent)
        for i in range(k):
            for j in range(k):
                acc = np.full(hi - lo, ring.zero, dtype=np.int64)
                for l in range(k):
                    acc = add[acc, mul[ent[:, i, l], ent[:, l, j]]]
                sq[:, i, j] = acc
        sq_codes = sq.reshape(-1, k * k) @ weights
        hits.append(codes[sq_codes == codes])
    return np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)


def build_v_monoid(ring: FiniteRing, K: int, guards: Guards = DEFAULT) -> VMonoid:
    """Classes of idempotents in M_k(R) for k <= K, with truncated direct sum.

    Every idempotent is enumerated and classified by its ``class_key``; class
    indices follow first appearance in ascending (dimension, code) order.
    [i] + [j] is the class whose key is the product of their keys, or the
    overflow element when no enumerated idempotent has that key.
    """
    if K < 1:
        raise InvalidSpec("truncation must be at least 1")
    cache_key = ("vmonoid", K)
    got = ring._cache.get(cache_key)
    if got is not None:
        return got

    keys = []           # class index -> key
    members = []        # class index -> [(dim, code)], representative first
    index_of: dict = {}
    class_of: dict = {}
    for k in range(1, K + 1):
        codes = _enumerate_idempotents(ring, k, guards)
        ent = _digits(codes, ring.size, k * k).reshape(-1, k, k)
        for code, key in zip(codes.tolist(), _class_keys(ring, ent, guards)):
            ci = index_of.setdefault(key, len(keys))
            if ci == len(keys):
                keys.append(key)
                members.append([])
            class_of[(k, code)] = ci
            members[ci].append((k, code))

    m = len(keys)
    sums = [[index_of.get(_key_sum(keys[i], keys[j])) for j in range(m)]
            for i in range(m)]
    ovf = m if any(t is None for row in sums for t in row) else None
    size = m if ovf is None else m + 1
    table = tuple(tuple(ovf if i == ovf or j == ovf or sums[i][j] is None
                        else sums[i][j] for j in range(size))
                  for i in range(size))
    zero_class = class_of[(1, ring.zero)]
    labels = ["0" if i == zero_class else f"c{i}" for i in range(m)]
    if ovf is not None:
        labels.append("T")

    monoid = FinMonoid(size, table, zero_class, tuple(labels), ovf)
    classes = [VClass(decode_matrix(ring, *mem[0]), i)
               for i, mem in enumerate(members)]
    vm = VMonoid(ring, K, monoid, classes, class_of, members, ovf, keys)
    ring._cache[cache_key] = vm
    return vm


def _decode_arr(ring: FiniteRing, k: int, code: int) -> np.ndarray:
    return _digits(np.array([code]), ring.size, k * k).reshape(k, k)


def v_order_ideal(vm: VMonoid, ideal: Ideal) -> OrderIdeal:
    """Classes with an enumerated representative having all entries in I."""
    if ideal.ring is not vm.ring:
        raise InvalidSpec("ideal belongs to a different ring")
    mask = ideal.mask
    member_set = set()
    for ci, mem in enumerate(vm.members):
        for (dim, code) in mem:
            arr = _decode_arr(vm.ring, dim, code)
            if mask[arr].all():
                member_set.add(ci)
                break
    s = OrderIdeal(frozenset(member_set))
    validate_order_ideal(vm.monoid, s)
    return s


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def has_refinement_wrt(m: FinMonoid, s: OrderIdeal) -> CheckOutcome:
    """Every x1+x2 = y1+y2 with a term in S refines into a 2x2 array with
    matching row and column sums.  Overflow is excluded from all ranges."""
    proper = m.proper()
    t = m.table
    by_sum: dict = {}
    for u in proper:
        for v in proper:
            w = t[u][v]
            if w != m.overflow:
                by_sum.setdefault(w, []).append((u, v))
    solve = {a: {} for a in proper}
    for a in proper:
        for c in proper:
            solve[a].setdefault(t[a][c], []).append(c)
    for total, pairs in by_sum.items():
        for (x1, x2) in pairs:
            for (y1, y2) in pairs:
                if not (x1 in s or x2 in s or y1 in s or y2 in s):
                    continue
                if _refines(m, solve, x1, x2, y1, y2):
                    continue
                return CheckOutcome(False, (x1, x2, y1, y2))
    return CheckOutcome(True, None)


def _refines(m: FinMonoid, solve, x1, x2, y1, y2) -> bool:
    t = m.table
    for z11 in m.proper():
        for z12 in solve[z11].get(x1, ()):
            for z21 in solve[z11].get(y1, ()):
                for z22 in solve[z21].get(x2, ()):
                    if t[z12][z22] == y2:
                        return True
    return False


def is_separative(m: FinMonoid, subset: Optional[frozenset] = None) -> CheckOutcome:
    """a+a = a+b = b+b implies a = b (within the K-ball; optional subset)."""
    rng = m.proper() if subset is None else [x for x in subset
                                             if x != m.overflow]
    t = m.table
    for a in rng:
        aa = t[a][a]
        if aa == m.overflow:
            continue
        for b in rng:
            if a == b:
                continue
            if t[a][b] == aa and t[b][b] == aa:
                return CheckOutcome(False, (a, b))
    return CheckOutcome(True, None)


def lemma13_check(m: FinMonoid, s: OrderIdeal) -> CheckOutcome:
    """a+e = b+e with e in S, e <= n*a and e <= n*b for some n <= |M|,
    forces a = b.  Hypotheses (S separative, refinement wrt S) are gates."""
    validate_order_ideal(m, s)
    sep = is_separative(m, s.member_set)
    if not sep:
        raise HypothesisFailed(f"order ideal not separative, witness {sep.witness}")
    ref = has_refinement_wrt(m, s)
    if not ref:
        raise HypothesisFailed(f"no refinement wrt S, witness {ref.witness}")
    le = m.le_matrix()
    t = m.table
    proper = m.proper()

    def bounded_multiples(a):
        out = []
        cur = a
        for _ in range(m.size):
            if cur == m.overflow:
                break
            out.append(cur)
            cur = t[cur][a]
        return out

    mults = {a: bounded_multiples(a) for a in proper}
    for a in proper:
        for b in proper:
            if a == b:
                continue
            for e in s.member_set:
                if t[a][e] == m.overflow or t[a][e] != t[b][e]:
                    continue
                if (any(le[e][na] for na in mults[a])
                        and any(le[e][nb] for nb in mults[b])):
                    return CheckOutcome(False, (a, b, e))
    return CheckOutcome(True, None)
