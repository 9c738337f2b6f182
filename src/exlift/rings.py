"""Finite unital rings given by explicit operation tables.

A ring element is its carrier index (an int in ``range(ring.size)``); all
arithmetic reads per-row factors of the operation tables (``FiniteRing``),
the same uniform exact representation for every constructor.  Structural
recipes are kept on the ring only for display and serialization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .config import DEFAULT, Guards
from .errors import GuardExceeded, InvalidSpec


# ---------------------------------------------------------------------------
# Structural recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZmodSpec:
    n: int

    def describe(self) -> str:
        return f"zmod({self.n})"


@dataclass(frozen=True)
class MatrixSpec:
    base: "RingSpec"
    k: int

    def describe(self) -> str:
        return f"matrix({self.base.describe()},{self.k})"


@dataclass(frozen=True)
class TriangularSpec:
    base: "RingSpec"
    k: int

    def describe(self) -> str:
        return f"triangular({self.base.describe()},{self.k})"


@dataclass(frozen=True)
class ProductSpec:
    left: "RingSpec"
    right: "RingSpec"

    def describe(self) -> str:
        return f"product({self.left.describe()},{self.right.describe()})"


@dataclass(frozen=True)
class QuotientSpec:
    base: "RingSpec"
    generators: tuple  # element descriptors of the base ring

    def describe(self) -> str:
        gens = ",".join(repr(g) for g in self.generators)
        return f"quotient({self.base.describe()},[{gens}])"


@dataclass(frozen=True)
class OppositeSpec:
    """Internal recipe for the opposite ring R^op; not part of the file
    schema."""

    base: "RingSpec"

    def describe(self) -> str:
        return f"op({self.base.describe()})"


RingSpec = (
    ZmodSpec | MatrixSpec | TriangularSpec | ProductSpec | QuotientSpec
    | OppositeSpec
)


# The deepest ring recipe, and half the deepest element descriptor (a matrix
# level nests two lists).  Both are parsed and decoded recursively: deeper
# input is an InvalidSpec, not a RecursionError at a depth that the call
# stack and the cached inner rings would set.
NESTING = 100


def _key(desc, depth: int = 0):
    """desc with its lists frozen into tuples: the decode memo's key.  A
    leaf that is not an int is refused here, before any lookup, since
    True == 1 and 1.0 == 1 would find the entry of 1."""
    if type(desc) is int:
        return desc
    if isinstance(desc, (list, tuple)):
        if depth == 2 * NESTING:
            raise InvalidSpec(f"descriptor nested deeper than {2 * NESTING}")
        return tuple([_key(v, depth + 1) for v in desc])
    raise InvalidSpec(f"element descriptor leaves must be ints, got {desc!r}")


def parse_ring_spec(obj, depth: int = 0) -> RingSpec:
    """Parse the nested dict form of a ring spec.  Unknown fields are errors."""
    if not isinstance(obj, dict):
        raise InvalidSpec(f"ring spec must be an object, got {type(obj).__name__}")
    if depth == NESTING:
        raise InvalidSpec(f"ring spec nested deeper than {NESTING}")
    kind = obj.get("type")
    if kind == "zmod":
        _expect_fields(obj, {"type", "n"})
        n = obj.get("n")
        if type(n) is not int or n < 1:      # JSON true is no integer
            raise InvalidSpec("zmod requires an integer n >= 1")
        return ZmodSpec(n)
    if kind in ("matrix", "triangular"):
        _expect_fields(obj, {"type", "base", "k"})
        k = obj.get("k")
        if type(k) is not int or k < 1:
            raise InvalidSpec(f"{kind} requires an integer k >= 1")
        base = parse_ring_spec(obj.get("base"), depth + 1)
        return MatrixSpec(base, k) if kind == "matrix" else TriangularSpec(base, k)
    if kind == "product":
        _expect_fields(obj, {"type", "left", "right"})
        return ProductSpec(parse_ring_spec(obj.get("left"), depth + 1),
                           parse_ring_spec(obj.get("right"), depth + 1))
    if kind == "quotient":
        _expect_fields(obj, {"type", "base", "ideal"})
        base = parse_ring_spec(obj.get("base"), depth + 1)
        ideal = obj.get("ideal")
        if not isinstance(ideal, dict):
            raise InvalidSpec("quotient requires an ideal object")
        _expect_fields(ideal, {"generators"}, where="ideal")
        gens = ideal.get("generators")
        if not isinstance(gens, list):
            raise InvalidSpec("ideal.generators must be a list")
        return QuotientSpec(base, _key(gens))
    raise InvalidSpec(f"unknown ring spec type {kind!r}")


def ring_spec_obj(spec: RingSpec):
    """Inverse of parse_ring_spec (canonical dict form)."""
    if isinstance(spec, ZmodSpec):
        return {"type": "zmod", "n": spec.n}
    if isinstance(spec, MatrixSpec):
        return {"type": "matrix", "base": ring_spec_obj(spec.base), "k": spec.k}
    if isinstance(spec, TriangularSpec):
        return {"type": "triangular", "base": ring_spec_obj(spec.base), "k": spec.k}
    if isinstance(spec, ProductSpec):
        return {"type": "product", "left": ring_spec_obj(spec.left),
                "right": ring_spec_obj(spec.right)}
    if isinstance(spec, QuotientSpec):
        return {"type": "quotient", "base": ring_spec_obj(spec.base),
                "ideal": {"generators": [_thaw_as(spec.base, g)
                                         for g in spec.generators]}}
    raise InvalidSpec(f"spec {spec.describe()} has no external form")


def _expect_fields(obj: dict, allowed: set, where: str = "ring spec") -> None:
    extra = set(obj) - allowed
    if extra:
        raise InvalidSpec(f"unknown fields in {where}: {sorted(extra)}")


# ---------------------------------------------------------------------------
# FiniteRing
# ---------------------------------------------------------------------------

_LIST_MIRROR_MAX = 1024  # small rings keep list-of-list tables for fast scalar ops
_CHUNK = 1 << 20  # entries per numpy temporary in the chunked scans


def member_mask(values, size: int) -> np.ndarray:
    """The membership mask in range(size) of values, an array or a list."""
    mask = np.zeros(size, dtype=bool)
    mask[values] = True
    return mask


def distinct(values, size: int) -> np.ndarray:
    """The distinct carrier indices among values, ascending, from a mask:
    numpy 2's ``np.unique`` imports ``numpy.ma`` on its first call."""
    return np.flatnonzero(member_mask(values, size))


def first_hit(hits: np.ndarray) -> Optional[int]:
    """The least index of a true entry of a boolean array, or None."""
    i = int(np.argmax(hits))
    return i if hits[i] else None


class FiniteRing:
    """A finite unital ring on range(size), its operations kept as per-row
    factors: with the row codes code_r(a) = a // w_r % m_r (m_r rows in
    factor r, w_r the product of the m_s after it), a*c is the sum of
    w_r U_r[code_r(a), c], a+c of w_r V_r[code_r(a), code_r(c)] and -a of
    w_r N_r[code_r(a)].  A table ring is the one-factor case (w = (1,), U_0
    the multiplication table); M_k(R) and T_k(R) have one factor per matrix
    row, R x S one per side.  The whole tables ``npadd``/``npmul``/``npneg``
    are formed when a whole-table kernel first reads them, at once (with
    list mirrors for the scalar ops) up to ``_LIST_MIRROR_MAX`` elements."""

    def __init__(self, size: int, add, mul, neg, zero: int, one: int,
                 spec: RingSpec, weights=None, opposite_of=None):
        # add, mul, neg: the tables, or with weights one factor per weight
        if weights is None:
            weights, add, mul, neg = (1,), (add,), (mul,), (neg,)
        # every ring, R^op too, sets these in this order, which keeps
        # attribute reads specialized by the interpreter
        self.size, self.zero, self.one, self.spec = size, zero, one, spec
        # (w_r, m_r, factor r, a memoryview of it for scalar reads) per row
        self._fadd, self._fmul, self._fneg = (
            tuple((w, len(F), F, memoryview(F)) for w, F in zip(weights, fs))
            for fs in (add, mul, neg))
        self.flip = opposite_of is not None     # a*b here is b*a there
        # the whole tables formed so far, shared with the opposite ring
        self._tables = {} if opposite_of is None else opposite_of._tables
        # memo maps of the element codec and of inverse, filled as asked for
        self._cache: dict = {"encode": {}, "decode": {}, "inverse": {}}
        if self.size > _LIST_MIRROR_MAX:
            self._add = self._mul = self._neg = None
        elif opposite_of is not None:       # R's add and neg mirrors
            self._add, self._mul, self._neg = (
                opposite_of._add, self.npmul.tolist(), opposite_of._neg)
        else:
            self._add = self.npadd.tolist()
            self._mul = self.npmul.tolist()
            self._neg = self.npneg.tolist()

    # -- whole tables ---------------------------------------------------------
    def _table(self, name: str) -> np.ndarray:
        """The whole table of "add", "mul" or "neg", formed on first use."""
        got = self._tables.get(name)
        if got is None:
            for w, _, F, _ in getattr(self, "_f" + name):
                F = F if w == 1 else F * w
                if got is None:
                    got = F
                elif name == "add":         # V_r reads code r of both sides
                    got = (got[:, None, :, None] + F[None, :, None, :]
                           ).reshape(len(got) * len(F), -1)
                else:                       # U_r, N_r read code r of a
                    got = (got[:, None] + F[None]).reshape((-1,) + F.shape[1:])
            self._tables[name] = got
        return got.T if self.flip and name == "mul" else got

    npadd = property(lambda self: self._table("add"))
    npmul = property(lambda self: self._table("mul"))
    npneg = property(lambda self: self._table("neg"))

    # -- scalar arithmetic --------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        out = 0
        for w, m, _, V in self._fadd:
            out += w * V[a // w % m, b // w % m]
        return out

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        if self.flip:
            a, b = b, a
        out = 0
        for w, m, _, U in self._fmul:
            out += w * U[a // w % m, b]
        return out

    def neg(self, a: int) -> int:
        if self._neg is not None:
            return self._neg[a]
        out = 0
        for w, m, _, N in self._fneg:
            out += w * N[a // w % m]
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.size)

    def describe(self) -> str:
        return self.spec.describe()

    def __repr__(self):
        return f"FiniteRing({self.describe()}, size={self.size})"

    # -- rows -----------------------------------------------------------------
    def _mul_array(self, a: int) -> np.ndarray:
        """a*x over all x as an intp array (numpy's fastest index type),
        summed from the factors; R^op's row a is R's column a, the factors'
        columns laid along the carrier grid."""
        row = (functools.reduce(np.add.outer, [
            U[:, a] * w for w, _, U, _ in self._fmul]).ravel() if self.flip
            else sum(U[a // w % m] * w for w, m, U, _ in self._fmul))
        return row.astype(np.intp)

    def _sub_array(self, t: int, xs: np.ndarray) -> np.ndarray:
        """t - x for each x in xs: t's add row at -x, laid out by factors."""
        neg, add_t = (functools.reduce(np.add.outer, parts).ravel() for parts
                      in ([N * w for w, _, N, _ in self._fneg],
                          [V[t // w % m] * w for w, m, V, _ in self._fadd]))
        return add_t.take(neg.take(xs)).astype(np.intp)

    def mul_row(self, a: int) -> list:
        """a*x over all x: the list mirror's own row (callers only read it);
        a ring without list mirrors reads ``_mul_array`` instead."""
        return self._mul[a]

    def add_row(self, a: int) -> list:
        """a + x over all x: the list mirror's own row, like ``mul_row``."""
        return self._add[a]

    # -- cached element sets --------------------------------------------------
    def units(self) -> tuple:
        """All elements with a two-sided inverse, ascending."""
        got = self._cache.get("units")
        if got is None:
            got = self._cache["units"] = tuple(
                u for u in self.elements() if self.inverse(u) is not None)
        return got

    def inverse(self, u: int) -> Optional[int]:
        """Two-sided inverse of u, or None: the first v in u's row with
        u*v = 1 (``solve_right``, one array test on a ring without list
        mirrors), if v*u = 1 (a finite ring is Dedekind-finite).  Memoized."""
        memo = self._cache["inverse"]
        if u not in memo:
            v = solve_right(self, u, self.one)
            memo[u] = None if v is None or self.mul(v, u) != self.one else v
        return memo[u]

    def idempotents(self) -> tuple:
        got = self._cache.get("idempotents")
        if got is None:
            x = np.arange(self.size)
            diag = sum(U[x // w % m, x] * w for w, m, U, _ in self._fmul)
            got = tuple(np.flatnonzero(diag == x).tolist())
            self._cache["idempotents"] = got
        return got

    def right_multiples(self, a: int) -> tuple:
        """Sorted tuple aR."""
        if self._mul is None:
            return tuple(distinct(self._mul_array(a), self.size).tolist())
        return tuple(sorted(set(self._mul[a])))

    def right_span(self, a: int, b: int) -> tuple:
        """Sorted tuple aR + bR.  With list mirrors it grows from aR by the
        cyclic subgroup of each element of bR still outside it, one coset
        span + i*t at a time; without, it is the union of the cosets H + t,
        H the larger of aR and bR and t in the smaller, each set in a mask
        by one array add."""
        if self._add is None:
            H, T = sorted((distinct(self._mul_array(x), self.size)
                           for x in (a, b)), key=len, reverse=True)
            codes = [(w, m, V, H // w % m) for w, m, V, _ in self._fadd]
            mask = np.zeros(self.size, dtype=bool)
            while len(T):                    # T: the t outside every coset
                t = int(T[0])
                mask[sum(V[h, t // w % m] * w for w, m, V, h in codes)] = True
                T = T[~mask[T]]
            return tuple(np.flatnonzero(mask).tolist())
        span = set(self.mul_row(a))
        for t in set(self.mul_row(b)):
            if t in span:
                continue
            old, x = list(span), t
            while x not in span:             # span + <t>, coset by coset
                row = self.add_row(x)
                span.update([row[s] for s in old])
                x = row[t]
        return tuple(sorted(span))

    # -- the opposite ring ----------------------------------------------------
    def op(self) -> "FiniteRing":
        """R^op: the same carrier, addition, zero and one, with a*b in R^op
        equal to b*a in R.  Every left-handed notion over R is the
        right-handed one over R^op (Ra is a*R^op).  It shares R's factors,
        whole tables, add and neg mirrors and inverses (u*v = v*u = 1 reads
        the same in both), reads mul transposed, and is cached both ways."""
        got = self._cache.get("op")
        if got is None:
            got = FiniteRing(self.size, *([f[2] for f in fs] for fs in (
                self._fadd, self._fmul, self._fneg)), self.zero, self.one,
                OppositeSpec(self.spec), [f[0] for f in self._fmul], self)
            got._cache["op"] = self
            got._cache["inverse"] = self._cache["inverse"]
            self._cache["op"] = got
        return got


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _table_dtype(n: int):
    return np.min_scalar_type(max(n - 1, 0))


# Largest |R|*|R| a ring may have: the work of a whole-table kernel, whether
# or not its whole tables are ever formed.
TABLE_ENTRIES = 2**24


def _check_guards(size: int, guards: Guards) -> None:
    if size > guards.carrier:
        raise GuardExceeded(
            f"carrier size {size} exceeds guard {guards.carrier}")
    if size * size > TABLE_ENTRIES:
        raise GuardExceeded(
            f"operation table with {size * size} entries exceeds guard "
            f"{TABLE_ENTRIES}")


_BUILD_CACHE: dict = {}


def build_ring(spec: RingSpec, guards: Guards = DEFAULT) -> FiniteRing:
    """Construct the ring described by spec; raises GuardExceeded / InvalidSpec.

    Builds are memoized by spec, so structurally equal recipes share one ring
    object (and therefore its caches).
    """
    cached = _BUILD_CACHE.get(spec)
    if cached is not None:
        _check_guards(cached.size, guards)
        return cached
    if isinstance(spec, ZmodSpec):
        ring = _build_zmod(spec, guards)
    elif isinstance(spec, (MatrixSpec, TriangularSpec)):
        ring = _build_matrix_like(spec, guards,
                                  isinstance(spec, TriangularSpec))
    elif isinstance(spec, ProductSpec):
        ring = _build_product(spec, guards)
    elif isinstance(spec, QuotientSpec):
        ring = _build_quotient(spec, guards)
    else:
        raise InvalidSpec(f"cannot build {spec!r}")
    _BUILD_CACHE[spec] = ring
    return ring


def _build_zmod(spec: ZmodSpec, guards: Guards) -> FiniteRing:
    n = spec.n
    _check_guards(n, guards)
    idx = np.arange(n)
    dt = _table_dtype(n)
    add = ((idx[:, None] + idx[None, :]) % n).astype(dt)
    mul = ((idx[:, None] * idx[None, :]) % n).astype(dt)
    neg = ((-idx) % n).astype(dt)
    return FiniteRing(n, add, mul, neg, 0, 1 % n, spec)


# An element of M_k(R) or T_k(R) is coded by its free entries, row-major,
# read as a big-endian base-|R| number.  These three functions are the only
# code that packs or unpacks that layout.

def pack(seq: Iterable[int], base: int) -> int:
    """The big-endian base-``base`` code of a digit sequence."""
    code = 0
    for x in seq:
        code = code * base + x
    return code


def unpack(code: int, base: int, width: int) -> list:
    """The ``width`` base-``base`` digits of code, most significant first."""
    out = []
    for _ in range(width):
        out.append(code % base)
        code //= base
    out.reverse()
    return out


def digits(codes: np.ndarray, base: int, width: int) -> np.ndarray:
    """(n, width) base-``base`` digits of codes, most significant first: the
    vectorized ``unpack``."""
    out = np.empty((len(codes), width), dtype=np.int64)
    tmp = np.array(codes, dtype=np.int64)
    for p in reversed(range(width)):
        out[:, p] = tmp % base
        tmp //= base
    return out


@functools.cache
def _positions(k: int, triangular: bool) -> tuple:
    """The free entries (i, j) of a k x k matrix, row-major."""
    return tuple((i, j) for i in range(k) for j in range(k)
                 if i <= j or not triangular)


def _build_matrix_like(spec, guards: Guards, triangular: bool) -> FiniteRing:
    base = build_ring(spec.base, guards)
    k, B = spec.k, base.size
    nfree = k * (k + 1) // 2 if triangular else k * k
    # Refuse by bit length before the size, the k^2 positions or a message
    # printing either is formed: B >= 2 gives at least 2^k matrices, and
    # B^nfree >= 2^(nfree * (bit length of B - 1)).  M_k of the zero ring
    # has one element; the bound on k bounds its build.
    bits = guards.carrier.bit_length()
    if k > bits:
        raise GuardExceeded(f"k x k matrices over {base.describe()} with "
                            f"k > {bits} exceed carrier guard {guards.carrier}")
    if nfree * (B.bit_length() - 1) > 2 * bits:
        raise GuardExceeded(f"carrier size {B}^{nfree} exceeds guard "
                            f"{guards.carrier}")
    size = B ** nfree
    _check_guards(size, guards)
    pos = _positions(k, triangular)

    dt = _table_dtype(size)
    # Layout: an element's code reads its free entries pos[0], pos[1], ... as
    # a big-endian base-B number.  pos is row-major, so a code is also the
    # concatenation of one row code per matrix row, and row r of A + C, A*C
    # and -A reads row r of A alone: factor r of each operation is tabulated
    # over the row codes of row r.
    badd, bmul, bneg = (t.astype(dt) for t in (base.npadd, base.npmul,
                                               base.npneg))
    entry = digits(np.arange(size), B, nfree).T     # entry[p][C]
    full = np.full((k, k, size), base.zero, dtype=np.intp)  # full[l, j][C]
    for p, (i, j) in enumerate(pos):
        full[i, j] = entry[p]
    colcode = [pack(full[:, j], B) for j in range(k)]   # [j][C]
    vec = digits(np.arange(B ** k), B, k).T        # vec[l][column code]
    weights, adds, muls, negs = [], [], [], []
    w = size
    for r in range(k):
        cols = [j for i, j in pos if i == r]
        nr = B ** len(cols)
        w //= nr
        code = digits(np.arange(nr), B, len(cols)).T   # code[q][row code]
        row = np.full((k, nr), base.zero, dtype=np.intp)  # row[l][row code]
        row[cols] = code
        # entry (r, j) of A*C is row r of A dotted with column j of C:
        # tabulate that dot product D[row code, column code] and gather it
        # at the columns of every C into U_r[row code of A, C]
        D = bmul[row[0][:, None], vec[0][None, :]]
        for l in range(1, k):
            D = badd[D, bmul[row[l][:, None], vec[l][None, :]]]
        weights.append(w)
        muls.append(pack([D.take(colcode[j], axis=1) for j in cols], B))
        adds.append(pack([badd[x[:, None], x[None, :]] for x in code], B))
        negs.append(pack([bneg[x] for x in code], B))

    one = pack((base.one if i == j else base.zero for i, j in pos), B)
    return FiniteRing(size, adds, muls, negs, 0, one, spec, weights)


def _build_product(spec: ProductSpec, guards: Guards) -> FiniteRing:
    lring = build_ring(spec.left, guards)
    rring = build_ring(spec.right, guards)
    nl, nr = lring.size, rring.size
    size = nl * nr
    _check_guards(size, guards)
    (la, lm, ln), (ra, rm, rn) = (
        (t.astype(_table_dtype(size)) for t in (s.npadd, s.npmul, s.npneg))
        for s in (lring, rring))
    # (i1, i2) is coded i1*nr + i2: one factor per side, the left mul read
    # at the left code c // nr of c, the right one at c % nr
    return FiniteRing(size, (la, ra), (np.repeat(lm, nr, axis=1),
                                       np.tile(rm, (1, nl))), (ln, rn),
                      lring.zero * nr + rring.zero, lring.one * nr + rring.one,
                      spec, (nr, 1))


def _build_quotient(spec: QuotientSpec, guards: Guards) -> FiniteRing:
    base = build_ring(spec.base, guards)
    gens = [element_from_descriptor(base, g) for g in spec.generators]
    qmap = quotient_by(base, ideal_closure(base, gens), guards)
    shared = qmap.target
    # a ring of its own that carries the user's recipe for faithful
    # round-trips; the cached quotient keeps its spec, the tables are shared
    ring = FiniteRing(shared.size, shared.npadd, shared.npmul, shared.npneg,
                      shared.zero, shared.one, spec)
    ring._cache["recipe_quotient_map"] = qmap
    return ring


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Ideal:
    """A two-sided ideal as an explicit carrier subset plus its generators;
    its views, ``mask`` over the carrier and ``sorted_members``, are derived
    from ``members`` when it is built."""

    ring: FiniteRing
    members: frozenset
    generators: tuple

    def __post_init__(self):
        self.mask = member_mask(list(self.members), self.ring.size)
        self.sorted_members = tuple(sorted(self.members))

    def contains(self, x: int) -> bool:
        return bool(self.mask[x])

    def __iter__(self):
        return iter(self.sorted_members)

    def __len__(self):
        return len(self.members)

    def is_full(self) -> bool:
        return len(self.members) == self.ring.size

    def __repr__(self):
        return (f"Ideal(|I|={len(self.members)} of {self.ring.describe()}, "
                f"gens={list(self.generators)})")


def _additive_span(ring: FiniteRing, elements: Iterable[int]):
    """The additive subgroup generated by elements, as (members, basis).

    It grows from {0} by the cyclic subgroup of each element still outside
    it; such a step at least doubles it, so at most log2|R| of them do work.
    basis lists the elements that took one."""
    add = ring.npadd
    span = np.array([ring.zero], dtype=np.intp)
    inside = np.zeros(ring.size, dtype=bool)
    inside[ring.zero] = True
    basis = []
    for t in elements:
        if inside[t]:
            continue
        cosets, x = [span], t
        while not inside[x]:              # span + <t> = union of span + i*t
            cosets.append(add[span, x])
            x = add[x, t]
        span = np.concatenate(cosets)
        inside[span] = True
        basis.append(t)
    return span, basis


def _additive_generators(ring: FiniteRing) -> np.ndarray:
    """A small set generating (R, +), cached on the ring."""
    got = ring._cache.get("additive_generators")
    if got is None:
        basis = _additive_span(ring, range(ring.size))[1]
        got = ring._cache["additive_generators"] = np.array(basis, dtype=np.intp)
    return got


def ideal_closure(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest two-sided ideal containing gens: the additive span of R*S*R.

    Since r*s*r' distributes over sums of r and r', the span of R*S*R is the
    span of a*s*b over a, b in an additive generating set of R.  Memoized in
    ``ring._cache`` by the exact generator tuple (order and repeats kept,
    as ``generators`` records them): one entry per distinct tuple a process
    closes, and every caller shares the ``Ideal``, so none may mutate it."""
    gens = tuple(int(g) for g in gens)
    key = ("ideal_closure", gens)
    if key not in ring._cache:
        for g in gens:
            if not (0 <= g < ring.size):
                raise InvalidSpec(f"generator index {g} outside carrier")
        G, mul = _additive_generators(ring), ring.npmul
        sb = mul[np.array(gens, dtype=np.intp)[:, None], G[None, :]]  # s*b
        asb = mul[G[:, None, None], sb[None]]                       # a*s*b
        members, _ = _additive_span(ring, asb.ravel().tolist())
        ring._cache[key] = Ideal(ring, frozenset(members.tolist()), gens)
    return ring._cache[key]


def morita_base(ring: FiniteRing) -> tuple:
    """(home, R, k): home is ring, or the ring it is the opposite of (same
    carrier); R and k are home's base and size if home = M_k(R), else home
    and 1.  Every element of ring is the code of a k x k matrix over R.
    Memoized per ring."""
    got = ring._cache.get("morita_base")
    if got is None:
        home = ring.op() if isinstance(ring.spec, OppositeSpec) else ring
        got = ring._cache["morita_base"] = (
            (home, build_ring(home.spec.base), home.spec.k)
            if isinstance(home.spec, MatrixSpec) else (home, home, 1))
    return got


def entry_ideal(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """The ideal J of a ring R generated by the entries of gens, where ring
    is read off R by ``morita_base`` (recursively): the two-sided ideal of
    ring generated by gens is M_k(J), as e_1i*g*e_j1 = g_ij*e_11 and R^op
    has R's two-sided ideals.  J is an ideal of R, not of ring: compare two
    results for one ring, or test is_full() for "gens generate ring"."""
    key = ("entry_ideal", frozenset(gens))
    got = ring._cache.get(key)
    if got is None:
        _, base, k = morita_base(ring)
        got = ring._cache[key] = (
            ideal_closure(ring, sorted(key[1])) if base is ring else
            entry_ideal(base, [x for g in key[1]
                               for x in unpack(g, base.size, k * k)]))
    return got


def full_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, frozenset(range(ring.size)), (ring.one,))


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, frozenset({ring.zero}), ())


def all_ideals(ring: FiniteRing) -> list:
    """Every two-sided ideal, as Ideal objects sorted by (size, members).

    Ideals of a finite ring are exactly the joins of principal ideals, so we
    close the principal ones under pairwise join.
    """
    seen = {}
    work = [ideal_closure(ring, [a]) for a in ring.elements()]
    work.append(zero_ideal(ring))
    for ideal in work:
        seen.setdefault(ideal.members, ideal)
    changed = True
    while changed:
        changed = False
        items = list(seen.values())
        for i1 in items:
            for i2 in items:
                gens = tuple(sorted(set(i1.generators) | set(i2.generators)))
                joined = ideal_closure(ring, gens)
                if joined.members not in seen:
                    seen[joined.members] = joined
                    changed = True
    return sorted(seen.values(), key=lambda i: (len(i.members), i.sorted_members))


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class QuotientMap:
    """Natural surjection R -> R/I with a least-preimage section."""

    source: FiniteRing
    target: FiniteRing
    image: np.ndarray    # source index -> target index
    section: np.ndarray  # target index -> least source preimage

    def pi(self, a: int) -> int:
        return int(self.image[a])

    def lift(self, b: int) -> int:
        return int(self.section[b])


def quotient_by(ring: FiniteRing, ideal: Ideal,
                guards: Guards = DEFAULT) -> QuotientMap:
    """Quotient ring of additive cosets, canonicalized by least member index.

    On R^op it is (R/I)^op over R's cosets: an ideal of R^op is one of R,
    and R^op has no element descriptors to name the quotient's recipe."""
    key = ("quotient", ideal.members)
    got = ring._cache.get(key)
    if got is not None:
        return got
    if isinstance(ring.spec, OppositeSpec):
        q = quotient_by(ring.op(), ideal)
        qmap = QuotientMap(ring, q.target.op(), q.image, q.section)
        ring._cache[key] = qmap
        return qmap

    members = np.fromiter(ideal.sorted_members, dtype=np.intp)
    # the least member of each coset a + I, then the ascending coset reps
    rep = ring.npadd[:, members].min(axis=1).astype(np.int64)
    reps = distinct(rep, ring.size)
    qsize = len(reps)
    image = np.searchsorted(reps, rep).astype(np.int64)

    named = image.astype(_table_dtype(qsize))   # gathers stay in table dtype
    cross = np.ix_(reps, reps)
    add = named[ring.npadd[cross]]
    mul = named[ring.npmul[cross]]
    neg = named[ring.npneg[reps]]

    spec = QuotientSpec(ring.spec,
                        tuple(_encode(ring, g)
                              for g in ideal.generators))
    target = FiniteRing(qsize, add, mul, neg,
                        int(image[ring.zero]), int(image[ring.one]), spec)
    qmap = QuotientMap(ring, target, image, reps.copy())
    ring._cache[key] = qmap
    return qmap


# ---------------------------------------------------------------------------
# Simple solves
# ---------------------------------------------------------------------------

def solve_right(ring: FiniteRing, a: int, target: int) -> Optional[int]:
    """Least x with a*x == target: the first hit in a's row."""
    if ring._mul is None:
        return first_hit(ring._mul_array(a) == target)
    try:
        return ring.mul_row(a).index(target)
    except ValueError:
        return None


def same_right_ideal(ring: FiniteRing, a: int, b: int) -> bool:
    """aR = bR, as a in bR and b in aR."""
    return (solve_right(ring, b, a) is not None
            and solve_right(ring, a, b) is not None)


def solve_pair_right(ring: FiniteRing, c: int, d: int,
                     target: int) -> Optional[tuple]:
    """Least (x, y) lexicographic with c*x + d*y == target: the least x
    with target - c*x in dR, then the least y with d*y equal to it.  Without
    list mirrors every x is tested at once against a mask of dR."""
    if ring._mul is None:
        dy = ring._mul_array(d)
        rest = ring._sub_array(target, ring._mul_array(c))
        x = first_hit(member_mask(dy, ring.size)[rest])
        return None if x is None else (x, first_hit(dy == rest[x]))
    dy = ring.mul_row(d)
    dR = set(dy)
    for x, cx in enumerate(ring.mul_row(c)):
        rest = ring.sub(target, cx)
        if rest in dR:
            return x, dy.index(rest)
    return None


# ---------------------------------------------------------------------------
# Element descriptors (external interface)
# ---------------------------------------------------------------------------
#
# Every ring has one element codec.  Each element has exactly one descriptor,
# and decoding accepts that descriptor only:
#
# - zmod(n): the int i with 0 <= i < n (no other residue, no bool);
# - matrix(R, k), triangular(R, k): the k x k list of rows of descriptors of
#   R, with R's zero below the diagonal of a triangular element;
# - product(R, S): the pair [descriptor in R, descriptor in S];
# - quotient(R, gens): the descriptor in R of the least member of the coset.
#
# Opposite rings have none.  Lists and tuples are the same descriptor.
# Both directions are memoized in ``ring._cache``, one element at a time as
# they are asked for, never by enumerating the carrier:
# "encode" maps an index to its descriptor frozen into tuples, and
# "decode" maps a frozen descriptor back to its index.

def _recipe_quotient_map(ring: FiniteRing) -> QuotientMap:
    """The map base -> ring of a ring with a QuotientSpec, worked out from
    the recipe once and kept on the ring."""
    got = ring._cache.get("recipe_quotient_map")
    if got is None:
        spec = ring.spec
        base = build_ring(spec.base)
        gens = [element_from_descriptor(base, g) for g in spec.generators]
        got = quotient_by(base, ideal_closure(base, gens))
        ring._cache["recipe_quotient_map"] = got
    return got


def element_from_descriptor(ring: FiniteRing, desc) -> int:
    """The element whose canonical descriptor is desc (lists or tuples);
    InvalidSpec for anything else."""
    return _decode(ring, _key(desc))


def _decode(ring: FiniteRing, key) -> int:
    memo = ring._cache["decode"]
    got = memo.get(key)
    if got is None:
        got = memo[key] = _decode_new(ring, key)
    return got


def _decode_new(ring: FiniteRing, key) -> int:
    spec = ring.spec
    if isinstance(spec, ZmodSpec):
        if type(key) is not int or not 0 <= key < spec.n:
            raise InvalidSpec(f"zmod({spec.n}) element descriptor must be an "
                              f"int in [0, {spec.n}), got {key!r}")
        return key
    if isinstance(spec, (MatrixSpec, TriangularSpec)):
        base, k = build_ring(spec.base), spec.k
        tri = isinstance(spec, TriangularSpec)
        if (type(key) is not tuple or len(key) != k
                or any(type(row) is not tuple or len(row) != k
                       for row in key)):
            raise InvalidSpec(f"matrix element descriptor must be a {k}x{k} list")
        if tri and any(_decode(base, key[i][j]) != base.zero
                       for i in range(k) for j in range(i)):
            raise InvalidSpec(
                "triangular element has nonzero entry below diagonal")
        return pack([_decode(base, key[i][j]) for i, j in _positions(k, tri)],
                    base.size)
    if isinstance(spec, ProductSpec):
        if type(key) is not tuple or len(key) != 2:
            raise InvalidSpec("product element descriptor must be a pair")
        lring, rring = build_ring(spec.left), build_ring(spec.right)
        return _decode(lring, key[0]) * rring.size + _decode(rring, key[1])
    if isinstance(spec, QuotientSpec):
        qmap = _recipe_quotient_map(ring)
        s = _decode(qmap.source, key)
        if qmap.lift(qmap.pi(s)) != s:
            raise InvalidSpec(f"quotient element descriptor {key!r} is not "
                              f"the least member of its coset")
        return qmap.pi(s)
    raise InvalidSpec(f"cannot decode elements of {spec!r}")


def element_descriptor(ring: FiniteRing, idx: int):
    """Canonical descriptor of a carrier index, as fresh JSON lists."""
    return _thaw_as(ring.spec, _encode(ring, idx))


def _thaw_as(spec: RingSpec, key):
    """A frozen descriptor of an element of spec's ring as fresh lists, by
    the shape of its descriptors."""
    if isinstance(spec, ZmodSpec):
        return key
    if isinstance(spec, (MatrixSpec, TriangularSpec)):
        if isinstance(spec.base, ZmodSpec):    # rows of ints, thawed as is
            return [list(row) for row in key]
        return [[_thaw_as(spec.base, x) for x in row] for row in key]
    if isinstance(spec, ProductSpec):
        return [_thaw_as(spec.left, key[0]), _thaw_as(spec.right, key[1])]
    return _thaw_as(spec.base, key)    # a quotient: its base's descriptor


def _encode(ring: FiniteRing, idx: int):
    memo = ring._cache["encode"]
    got = memo.get(idx)
    if got is None:
        if not 0 <= idx < ring.size:
            raise InvalidSpec(f"element index {idx} outside carrier")
        got = memo[idx] = _encode_new(ring, idx)
    return got


def _encode_new(ring: FiniteRing, idx: int):
    spec = ring.spec
    if isinstance(spec, ZmodSpec):
        return int(idx)
    if isinstance(spec, (MatrixSpec, TriangularSpec)):
        base, k = build_ring(spec.base), spec.k
        pos = _positions(k, isinstance(spec, TriangularSpec))
        entries = [[_encode(base, base.zero)] * k for _ in range(k)]
        for (i, j), x in zip(pos, unpack(idx, base.size, len(pos))):
            entries[i][j] = _encode(base, x)
        return tuple(map(tuple, entries))
    if isinstance(spec, ProductSpec):
        lring, rring = build_ring(spec.left), build_ring(spec.right)
        return (_encode(lring, idx // rring.size),
                _encode(rring, idx % rring.size))
    if isinstance(spec, QuotientSpec):
        qmap = _recipe_quotient_map(ring)
        return _encode(qmap.source, qmap.lift(idx))
    raise InvalidSpec(f"cannot describe elements of {spec!r}")
