"""V(R) of a finite ring, exactly and as a truncated monoid table.

A finite ring is semiperfect and R/J(R) = prod M_{n_i}(F_{q_i})
(Wedderburn-Artin), so the Murray-von Neumann class of an idempotent matrix
(x*y = e, y*x = f with x in e*M*f) is its rank vector over the simple
components (``rank_vector``), block direct sum adds rank vectors, V(R) =
N^t and V(I) = N^(``ideal_components``).  ``build_v_monoid(R, K)`` cuts
N^t to the box prod [0, K*n_i]; sums outside it map to an absorbing
overflow element, which all checkers exclude from their quantifier ranges:
every box verdict is relative to the K-ball and says nothing beyond it.

This is the only module that decides classes, and it does so with one exact
invariant, ``class_key``: the sizes of the column module of E over
R/J(R), one per simple component.  No equivalence witness is searched for;
the tests check the key against an exhaustive witness search.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT, Guards
from .errors import (GuardExceeded, HypothesisFailed, InvalidSpec,
                     NotDownwardClosed, SearchExhausted)
from .matrices import RMatrix, direct_sum, matrix
from .rings import (_CHUNK, FiniteRing, Ideal, digits, distinct,
                    member_mask, quotient_by)


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

# Largest vector space enumerated: the |R/J|**d vectors behind a class key.
ENUMERATION = 2**25


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """J(R) = {x : 1 - r*x is a unit for every r}, cached on the ring.

    Scans rows r in chunks against the columns x that have survived so far,
    so no |R| x |R| temporary is ever built.
    """
    got = ring._cache.get("radical")
    if got is None:
        unit = member_mask(list(ring.units()), ring.size)
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


def _class_keys(ring: FiniteRing, ent: np.ndarray) -> list:
    """Class keys of the idempotents in an (n, d, d) array of entries of R."""
    qmap, comps = _semisimple_quotient(ring)
    S = qmap.target
    n, d = ent.shape[0], ent.shape[1]
    nv = S.size ** d
    if nv > ENUMERATION:
        raise GuardExceeded(
            f"|R/J|^{d} = {nv} vectors exceed the enumeration guard")
    V = digits(np.arange(nv), S.size, d)
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
        out.extend(tuple(int(v[m]) for v in sizes) for m in range(len(E)))
    return out


def _key_sum(a: tuple, b: tuple) -> tuple:
    """Key of a direct sum."""
    return tuple(x * y for x, y in zip(a, b))


def class_key(ring: FiniteRing, *parts: RMatrix) -> tuple:
    """Complete Murray-von Neumann invariant of the direct sum of the given
    idempotent matrices, computed part by part."""
    keys = [_class_keys(ring, np.array(A.entries, dtype=np.int64)[None])[0]
            for A in parts]
    return functools.reduce(_key_sum, keys)


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
    monoid: FinMonoid
    classes: list
    class_of: dict          # (1, code) -> class index, for 1x1 idempotents
    keys: list              # class index -> class key
    index_of: dict          # class key -> class index
    components: tuple       # (s_i, n_i) per simple component of R/J(R)


def _exponent(z: int, s: int) -> int:
    """n with s**n == z, in integer arithmetic (s >= 2)."""
    n = 0
    while s ** n < z:
        n += 1
    if s ** n != z:
        raise SearchExhausted(f"{z} is not a power of {s}")
    return n


def _wedderburn_data(ring: FiniteRing) -> tuple:
    """((s_i, n_i) per component, [(code, rank vector)] per 1x1 idempotent).

    c_i*S = M_{n_i}(F_{q_i}) has simple module size s_i = q_i^{n_i}, the
    least key component > 1 among R's 1x1 idempotents, and |c_i*S| =
    s_i^{n_i}.  The key of rank vector r is (s_i^{r_i})_i.  Idempotents lift
    modulo J, so the 1x1 keys are exactly those of prod [0, n_i]; a failed
    check signals a bug, never a property of the ring."""
    got = ring._cache.get("wedderburn")
    if got is None:
        qmap, comps = _semisimple_quotient(ring)
        codes = ring.idempotents()
        keys = _class_keys(ring, np.array(codes, dtype=np.int64)
                           .reshape(-1, 1, 1))
        sizes = [len(distinct(qmap.target.npmul[c], qmap.target.size))
                 for c in comps]
        simple = [min((key[i] for key in keys if key[i] > 1), default=2)
                  for i in range(len(comps))]
        degrees = [_exponent(z, s) for z, s in zip(sizes, simple)]
        box = {tuple(s ** x for s, x in zip(simple, r)): r
               for r in itertools.product(*(range(n + 1) for n in degrees))}
        if set(keys) != set(box):
            raise SearchExhausted(
                f"R/J({ring.describe()}) is not prod M_n(F_q) by the keys "
                f"of its 1x1 idempotents")
        got = ring._cache["wedderburn"] = (
            tuple(zip(simple, degrees)), [(c, box[k]) for c, k in zip(codes, keys)])
    return got


def rank_vector(ring: FiniteRing, key: tuple) -> tuple:
    """The class in V(R) = N^t of a class key: r with key_i = s_i**r_i, one
    entry per simple component of R/J(R), in ``_wedderburn_data`` order."""
    components, _ = _wedderburn_data(ring)
    return tuple(_exponent(k, s) for (s, _), k in zip(components, key))


def build_v_monoid(ring: FiniteRing, K: int, guards: Guards = DEFAULT) -> VMonoid:
    """Classes of idempotents in M_k(R) for k <= K, with truncated direct sum.

    R/J(R) = prod M_{n_i}(F_{q_i}) and idempotents lift modulo J, so V(R) is
    N^t by rank vector and the classes up to dimension K are the box
    prod [0, K*n_i], read off ``_wedderburn_data`` without enumerating any
    matrices.  Classes of 1x1 idempotents come first, in order of their
    least idempotent code; the rest follow in (sum r, r) order.  [i] + [j]
    is the class whose key is the product of their keys, or the overflow
    element outside the box.  Each class is represented by a direct sum of
    at most K 1x1 idempotents.  ``guards`` bounds nothing here (the class
    keys are bounded by ``ENUMERATION``); it stays because the benchmark
    harness in ``perfbench/`` calls build_v_monoid(ring, K, guards), and
    that harness only changes together with the benchmark.
    """
    if K < 1:
        raise InvalidSpec("truncation must be at least 1")
    cache_key = ("vmonoid", K)
    got = ring._cache.get(cache_key)
    if got is not None:
        return got

    components, ones = _wedderburn_data(ring)
    degrees = [n for _, n in components]
    first_code: dict = {}       # rank vector -> least 1x1 idempotent
    for code, r in ones:
        first_code.setdefault(r, code)
    box = sorted(itertools.product(*(range(K * n + 1) for n in degrees)),
                 key=lambda r: (sum(r), r))
    ranks = list(first_code) + [r for r in box if r not in first_code]
    keys = [tuple(s ** x for (s, _), x in zip(components, r)) for r in ranks]
    index_of = {key: i for i, key in enumerate(keys)}
    class_of = {(1, code): ranks.index(r) for code, r in ones}

    m = len(keys)
    zero_class = ranks.index((0,) * len(degrees))
    labels = ["0" if i == zero_class else f"c{i}" for i in range(m)]
    rows = [[index_of.get(_key_sum(a, b), m) for b in keys] for a in keys]
    ovf = m if any(m in row for row in rows) else None
    if ovf is not None:
        rows = [row + [m] for row in rows] + [[m] * (m + 1)]
        labels.append("T")

    def representative(r):
        parts = max([-(-x // n) for x, n in zip(r, degrees)] + [1])
        blocks = [matrix(ring, [[first_code[tuple(
            min(n, max(0, x - p * n)) for x, n in zip(r, degrees))]]])
            for p in range(parts)]
        return functools.reduce(direct_sum, blocks)

    monoid = FinMonoid(len(rows), tuple(map(tuple, rows)), zero_class,
                       tuple(labels), ovf)
    classes = [VClass(representative(r), i) for i, r in enumerate(ranks)]
    vm = VMonoid(ring, monoid, classes, class_of, keys, index_of, components)
    ring._cache[cache_key] = vm
    return vm


def ideal_components(ring: FiniteRing, ideal: Ideal) -> list:
    """Indices of the simple components of R/J(R) that (I+J)/J covers.

    An idempotent matrix over I vanishes on the other components, and every
    rank vector supported on these lifts to an idempotent over I, so
    V(I) = N^those."""
    qmap, comps = _semisimple_quotient(ring)
    image = set(qmap.image[list(ideal.sorted_members)].tolist())
    return [i for i, c in enumerate(comps) if c in image]


def v_order_ideal(vm: VMonoid, ideal: Ideal) -> OrderIdeal:
    """V(I) in the box: the classes whose key is 1 on every component
    outside ``ideal_components``."""
    if ideal.ring is not vm.ring:
        raise InvalidSpec("ideal belongs to a different ring")
    inside = ideal_components(vm.ring, ideal)
    outside = [i for i in range(len(vm.components)) if i not in inside]
    s = OrderIdeal(frozenset(ci for ci, key in enumerate(vm.keys)
                             if all(key[i] == 1 for i in outside)))
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
    for pairs in by_sum.values():
        for (x1, x2) in pairs:
            for (y1, y2) in pairs:
                if not (x1 in s or x2 in s or y1 in s or y2 in s):
                    continue
                if _refines(m, proper, solve, x1, x2, y1, y2):
                    continue
                return CheckOutcome(False, (x1, x2, y1, y2))
    return CheckOutcome(True, None)


def _refines(m: FinMonoid, proper: list, solve, x1, x2, y1, y2) -> bool:
    t = m.table
    for z11 in proper:
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
