import itertools
import random

import numpy as np
import pytest

from exlift import matrices as M, rings as R, vmonoid as V
from exlift.errors import HypothesisFailed, InvalidSpec, NotDownwardClosed


def z(n):
    return R.build_ring(R.ZmodSpec(n))


# ---------------------------------------------------------------------------
# abstract monoid builders used across the suite
# ---------------------------------------------------------------------------

def table_monoid(table, zero=0, overflow=None):
    n = len(table)
    m = V.FinMonoid(n, tuple(tuple(r) for r in table), zero,
                    tuple(str(i) for i in range(n)), overflow)
    V.validate_fin_monoid(m)
    return m


def truncated_naturals(cap):
    """{0..cap} with an absorbing top standing in for everything larger."""
    n = cap + 2
    top = cap + 1
    table = [[min(a + b, top) if a <= cap and b <= cap else top
              for b in range(n)] for a in range(n)]
    return table_monoid(table, overflow=top)


def bad_separativity_monoid():
    # {0, a, b, t}: a+a = a+b = b+b = t absorbing, a != b
    T = 3
    table = [[0, 1, 2, T],
             [1, T, T, T],
             [2, T, T, T],
             [T, T, T, T]]
    return table_monoid(table)


def cyclic_group(k):
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def chain2():
    # the 2-chain max-semilattice
    return [[0, 1], [1, 1]]


def product_table(t1, t2):
    n1, n2 = len(t1), len(t2)
    n = n1 * n2
    table = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        for a2 in range(n2):
            for b1 in range(n1):
                for b2 in range(n2):
                    table[a1 * n2 + a2][b1 * n2 + b2] = \
                        t1[a1][b1] * n2 + t2[a2][b2]
    return table


BLOCKS = [cyclic_group(2), cyclic_group(3), cyclic_group(4), chain2(), [[0]]]


def random_monoid_with_ideal(rng):
    """A random product of small blocks plus a random order ideal; hypotheses
    (separative S, refinement wrt S) are checked by the caller."""
    t = BLOCKS[rng.randrange(len(BLOCKS))]
    for _ in range(rng.randrange(1, 3)):
        t = product_table(t, BLOCKS[rng.randrange(len(BLOCKS))])
        if len(t) > 18:
            break
    m = table_monoid(t)
    le = m.le_matrix()
    s = {m.zero}
    for seed in rng.sample(range(m.size), rng.randrange(0, m.size)):
        s.add(seed)
    # close under the operation and downward
    changed = True
    while changed:
        changed = False
        for a in list(s):
            for b in list(s):
                c = m.op(a, b)
                if c not in s:
                    s.add(c)
                    changed = True
        for y in list(s):
            for x in range(m.size):
                if le[x][y] and x not in s:
                    s.add(x)
                    changed = True
    return m, V.OrderIdeal(frozenset(s))


# ---------------------------------------------------------------------------
# FinMonoid plumbing
# ---------------------------------------------------------------------------

def test_monoid_io_roundtrip():
    m = truncated_naturals(2)
    obj = V.monoid_to_obj(m)
    again = V.parse_monoid_obj(obj)
    assert again.table == m.table and again.zero == m.zero
    with pytest.raises(InvalidSpec):
        V.parse_monoid_obj({**obj, "bogus": 1})
    broken = dict(obj)
    broken["op_table"] = list(broken["op_table"])
    broken["op_table"][1] = 999
    with pytest.raises(InvalidSpec):
        V.parse_monoid_obj(broken)


def test_validate_rejects_bad_tables():
    # identity law broken
    with pytest.raises(InvalidSpec):
        table_monoid([[0, 1], [0, 0]], zero=0)
    # non-associative: 3-element magma with (1+1)+2 != 1+(1+2)
    with pytest.raises(InvalidSpec):
        table_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]][:2] + [[2, 2, 2]],
                     zero=0)


# ---------------------------------------------------------------------------
# build_v_monoid
# ---------------------------------------------------------------------------

def test_v_zmod2_truncated_naturals():
    vm = V.build_v_monoid(z(2), 2)
    assert len(vm.classes) == 3
    expected = truncated_naturals(2)
    assert vm.monoid.table == expected.table
    assert vm.monoid.zero == 0


def test_v_product_componentwise():
    p22 = R.build_ring(R.ProductSpec(R.ZmodSpec(2), R.ZmodSpec(2)))
    vm = V.build_v_monoid(p22, 1)
    assert len(vm.classes) == 4
    # (1,0) + (0,1) = (1,1) without overflow
    e10 = M.matrix(p22, [[R.element_from_descriptor(p22, [1, 0])]])
    e01 = M.matrix(p22, [[R.element_from_descriptor(p22, [0, 1])]])
    e11 = M.matrix(p22, [[R.element_from_descriptor(p22, [1, 1])]])
    c10, c01, c11 = vm.classify(e10), vm.classify(e01), vm.classify(e11)
    assert vm.monoid.op(c10, c01) == c11
    # (1,1) + (1,0) overflows at K=1
    assert vm.monoid.op(c11, c10) == vm.overflow_index


def test_zero_class_is_identity(corpus_rings):
    for entry, ring in corpus_rings:
        if ring.size > 32:
            continue
        vm = V.build_v_monoid(ring, 2)
        assert vm.monoid.zero == vm.class_of[(1, ring.zero)]
        V.validate_fin_monoid(vm.monoid)


def test_truncation_monotonicity():
    # classes computed at K inject compatibly into classes at K+1
    for ring in (z(2), z(4), z(6),
                 R.build_ring(R.TriangularSpec(R.ZmodSpec(2), 2))):
        vm1 = V.build_v_monoid(ring, 1)
        vm2 = V.build_v_monoid(ring, 2)
        mapping = {}
        for i, cls in enumerate(vm1.classes):
            j = vm2.classify(cls.representative)
            assert j is not None
            mapping[i] = j
        assert len(set(mapping.values())) == len(mapping)
        for i1 in range(len(vm1.classes)):
            for i2 in range(len(vm1.classes)):
                s1 = vm1.monoid.op(i1, i2)
                if s1 == vm1.overflow_index:
                    continue
                s2 = vm2.monoid.op(mapping[i1], mapping[i2])
                assert s2 == mapping[s1]


def test_class_keys_agree_with_witness_search():
    # the witness search behind equivalence_witness is the oracle for the key
    for spec in (R.ZmodSpec(6), R.ZmodSpec(4), R.MatrixSpec(R.ZmodSpec(2), 2),
                 R.TriangularSpec(R.ZmodSpec(2), 2),
                 R.ProductSpec(R.ZmodSpec(2), R.ZmodSpec(3))):
        ring = R.build_ring(spec)
        vm = V.build_v_monoid(ring, 2)
        reps = [c.representative for c in vm.classes]

        def equivalent(A, B):
            return V.equivalence_witness(ring, A, B) is not None

        for ci, members in enumerate(vm.members):
            for (dim, code) in members:
                assert equivalent(M.decode_matrix(ring, dim, code), reps[ci])
        for i, j in itertools.combinations(range(len(reps)), 2):
            assert not equivalent(reps[i], reps[j]), (spec, i, j)
        for i, j in itertools.product(range(len(reps)), repeat=2):
            total = M.direct_sum(reps[i], reps[j])
            hits = [t for t, rep in enumerate(reps) if equivalent(total, rep)]
            assert len(hits) <= 1
            expected = hits[0] if hits else vm.overflow_index
            assert vm.monoid.op(i, j) == expected, (spec, i, j)


def test_order_matches_subidempotent_search():
    # [e] <= [f] iff e is equivalent to a sub-idempotent of f, on M_2(zmod(2))
    ring = z(2)
    vm = V.build_v_monoid(ring, 2)
    le = vm.monoid.le_matrix()
    reps = [c.representative for c in vm.classes]
    for i, e in enumerate(reps):
        for j, f in enumerate(reps):
            d = max(e.n, f.n)
            fp = M.pad(f, d)
            has_sub = False
            for code in range(ring.size ** (d * d)):
                g = M.decode_matrix(ring, d, code)
                if not M.is_idempotent(g):
                    continue
                if M.mat_mul(g, fp) != g or M.mat_mul(fp, g) != g:
                    continue
                if V.equivalent_idempotents(ring, g, e):
                    has_sub = True
                    break
            assert le[i][j] == has_sub


def test_equivalence_witness_replays():
    ring = z(6)
    vm = V.build_v_monoid(ring, 2)
    for ci, members in enumerate(vm.members):
        rep_dim, rep_code = vm.classes[ci].representative.n, \
            vm.classes[ci].representative.encode()
        for (dim, code) in members[:3]:
            A = M.decode_matrix(ring, dim, code)
            B = vm.classes[ci].representative
            got = V.equivalence_witness(ring, A, B)
            assert got is not None
            x, y = got
            d = max(A.n, B.n)
            assert M.mat_mul(x, y) == M.pad(A, d)
            assert M.mat_mul(y, x) == M.pad(B, d)


# ---------------------------------------------------------------------------
# order ideals and checkers
# ---------------------------------------------------------------------------

def test_v_order_ideal_extremes():
    z4 = z(4)
    vm = V.build_v_monoid(z4, 2)
    s0 = V.v_order_ideal(vm, R.zero_ideal(z4))
    assert s0.member_set == frozenset({vm.monoid.zero})
    sfull = V.v_order_ideal(vm, R.full_ideal(z4))
    assert sfull.member_set == frozenset(range(len(vm.classes)))


def test_v_order_ideal_product_factor():
    pr = R.build_ring(R.ProductSpec(R.ZmodSpec(2), R.MatrixSpec(R.ZmodSpec(2), 2)))
    ideal = R.ideal_closure(pr, [R.element_from_descriptor(pr, [0, [[1, 0], [0, 1]]])])
    vm = V.build_v_monoid(pr, 2)
    s = V.v_order_ideal(vm, ideal)
    # exactly the classes whose representative has first component zero
    nr = R.build_ring(R.MatrixSpec(R.ZmodSpec(2), 2)).size
    for ci, cls in enumerate(vm.classes):
        first_zero = all(v // nr == 0 for row in cls.representative.entries
                         for v in row)
        assert (ci in s.member_set) == first_zero


def test_v_order_ideal_is_key_support(corpus_pairs_full):
    # V(I) is the set of classes whose key is trivial on every simple
    # component of R/J outside (I+J)/J
    for name, ring, ideal, tags in corpus_pairs_full:
        vm = V.build_v_monoid(ring, 2)
        qmap, comps = V._semisimple_quotient(ring)
        image = set(qmap.image[list(ideal.members)].tolist())
        outside = [i for i, c in enumerate(comps) if c not in image]
        support = {ci for ci, key in enumerate(vm.keys)
                   if all(key[i] == 1 for i in outside)}
        assert V.v_order_ideal(vm, ideal).member_set == support, name


def test_refinement_examples():
    m = truncated_naturals(2)
    full = V.OrderIdeal(frozenset(m.proper()))
    assert V.has_refinement_wrt(m, full)
    bad = bad_separativity_monoid()
    out = V.has_refinement_wrt(bad, V.OrderIdeal(frozenset(range(4))))
    assert not out.holds
    x1, x2, y1, y2 = out.witness
    assert bad.op(x1, x2) == bad.op(y1, y2)
    zero_only = V.OrderIdeal(frozenset({0}))
    assert V.has_refinement_wrt(bad, zero_only)


def test_separativity_examples():
    assert V.is_separative(truncated_naturals(3))
    out = V.is_separative(bad_separativity_monoid())
    assert not out.holds and set(out.witness) == {1, 2}
    assert V.is_separative(table_monoid([[0]]))


def test_lemma13_examples():
    m = truncated_naturals(2)
    full = V.OrderIdeal(frozenset(m.proper()))
    assert V.lemma13_check(m, full)
    vm = V.build_v_monoid(z(2), 2)
    s = V.v_order_ideal(vm, R.full_ideal(z(2)))
    assert V.lemma13_check(vm.monoid, s)
    bad = bad_separativity_monoid()
    with pytest.raises(HypothesisFailed):
        V.lemma13_check(bad, V.OrderIdeal(frozenset(range(4))))


def test_order_ideal_validation():
    m = truncated_naturals(2)
    with pytest.raises(NotDownwardClosed):
        V.validate_order_ideal(m, V.OrderIdeal(frozenset({0, 2})))
    with pytest.raises(NotDownwardClosed):
        V.validate_order_ideal(m, V.OrderIdeal(frozenset({1})))


def test_refinement_on_corpus(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs:
        vm = V.build_v_monoid(ring, 2)
        s = V.v_order_ideal(vm, ideal)
        assert V.has_refinement_wrt(vm.monoid, s).holds, name


def test_random_monoid_generator_sanity():
    rng = random.Random(20260809)
    produced = 0
    attempts = 0
    while produced < 8 and attempts < 200:
        attempts += 1
        m, s = random_monoid_with_ideal(rng)
        V.validate_fin_monoid(m)
        V.validate_order_ideal(m, s)
        if V.is_separative(m, s.member_set) and V.has_refinement_wrt(m, s):
            produced += 1
            assert V.lemma13_check(m, s).holds
    assert produced == 8
