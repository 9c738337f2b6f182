import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from exlift import matrices as M, rings as R, vmonoid as V
from exlift.errors import GuardExceeded, InvalidSpec

from ring_checks import (corner_ring, regular_witness, verify_ideal,
                         verify_ring_axioms)


def z(n):
    return R.build_ring(R.ZmodSpec(n))


def test_zmod_basics():
    z4 = z(4)
    assert z4.size == 4
    assert z4.add(1, 3) == 0
    assert z4.mul(3, 3) == 1
    assert z4.units() == (1, 3)
    assert z4.idempotents() == (0, 1)


def test_matrix_ring_size():
    m2 = R.build_ring(R.MatrixSpec(R.ZmodSpec(2), 2))
    assert m2.size == 16
    # |GL_2(F_2)| = 6 by enumeration
    assert len(m2.units()) == 6


def test_zero_ring():
    z1 = z(1)
    assert z1.zero == z1.one == 0
    assert z1.units() == (0,)
    verify_ring_axioms(z1)


def test_axioms_hold_on_corpus(corpus_rings):
    for entry, ring in corpus_rings:
        verify_ring_axioms(ring)


def test_quotient_isomorphic_to_zmod2():
    # oracle: exhaustive isomorphism search among the two bijections
    z4 = z(4)
    ideal = R.ideal_closure(z4, [2])
    q = R.quotient_by(z4, ideal).target
    z2 = z(2)
    assert q.size == 2
    found = False
    for perm in itertools.permutations(range(2)):
        ok = (perm[q.zero] == z2.zero and perm[q.one] == z2.one)
        for a in range(2):
            for b in range(2):
                ok = ok and perm[q.add(a, b)] == z2.add(perm[a], perm[b])
                ok = ok and perm[q.mul(a, b)] == z2.mul(perm[a], perm[b])
        found = found or ok
    assert found


def test_quotient_size_and_homomorphism(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs:
        qmap = R.quotient_by(ring, ideal)
        assert qmap.target.size == ring.size // len(ideal.members)
        for a in range(ring.size):
            assert qmap.pi(ring.neg(a)) == qmap.target.neg(qmap.pi(a))
            for b in range(ring.size):
                assert qmap.pi(ring.add(a, b)) == qmap.target.add(
                    qmap.pi(a), qmap.pi(b))
                assert qmap.pi(ring.mul(a, b)) == qmap.target.mul(
                    qmap.pi(a), qmap.pi(b))


def test_ideal_closure_examples():
    z4 = z(4)
    assert R.ideal_closure(z4, [2]).sorted_members == (0, 2)
    t2 = R.build_ring(R.TriangularSpec(R.ZmodSpec(2), 2))
    e12 = R.element_from_descriptor(t2, [[0, 1], [0, 0]])
    assert R.ideal_closure(t2, [e12]).sorted_members == (0, e12)
    m2 = R.build_ring(R.MatrixSpec(R.ZmodSpec(2), 2))
    e11 = R.element_from_descriptor(m2, [[1, 0], [0, 0]])
    # M_2(Z/2) is simple
    assert len(R.ideal_closure(m2, [e11]).members) == 16


def test_ideal_closure_idempotent(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs:
        again = R.ideal_closure(ring, ideal.sorted_members)
        assert again.members == ideal.members
        verify_ideal(ideal)


def test_units_closed_under_mul_and_inverse(corpus_rings):
    for entry, ring in corpus_rings:
        units = set(ring.units())
        for u in units:
            assert ring.inverse(u) in units
            for v in units:
                assert ring.mul(u, v) in units


def test_product_units_example():
    pr = R.build_ring(R.ProductSpec(R.ZmodSpec(2), R.MatrixSpec(R.ZmodSpec(2), 2)))
    # units are pairs (1, g) with g in GL_2(F_2)
    assert len(pr.units()) == 6


def test_regular_witness_examples():
    assert regular_witness(z(4), 2) is None
    assert regular_witness(z(6), 2) == 2
    for entry_ring in (z(4), z(6)):
        assert regular_witness(entry_ring, 0) == 0


def test_idempotents_examples():
    assert z(6).idempotents() == (0, 1, 3, 4)
    t2 = R.build_ring(R.TriangularSpec(R.ZmodSpec(2), 2))
    descs = sorted(R.element_from_descriptor(t2, d) for d in (
        [[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 0]],
        [[0, 0], [0, 1]], [[1, 1], [0, 0]], [[0, 1], [0, 1]]))
    assert t2.idempotents() == tuple(descs)


def test_carrier_guard():
    from exlift.config import Guards
    with pytest.raises(GuardExceeded):
        R.build_ring(R.ZmodSpec(100), Guards(carrier=64))


def test_spec_parsing_rejects_unknown_fields():
    with pytest.raises(InvalidSpec):
        R.parse_ring_spec({"type": "zmod", "n": 4, "bogus": 1})
    with pytest.raises(InvalidSpec):
        R.parse_ring_spec({"type": "mystery"})
    with pytest.raises(InvalidSpec):
        R.parse_ring_spec({"type": "zmod", "n": 0})


def test_spec_roundtrip():
    spec = R.parse_ring_spec({
        "type": "quotient",
        "base": {"type": "product",
                 "left": {"type": "zmod", "n": 2},
                 "right": {"type": "triangular",
                           "base": {"type": "zmod", "n": 2}, "k": 2}},
        "ideal": {"generators": [[0, [[0, 1], [0, 0]]]]},
    })
    assert R.parse_ring_spec(R.ring_spec_obj(spec)) == spec
    ring = R.build_ring(spec)
    verify_ring_axioms(ring)


@given(st.integers(2, 16), st.data())
def test_element_descriptor_roundtrip_zmod(n, data):
    ring = z(n)
    idx = data.draw(st.integers(0, n - 1))
    assert R.element_from_descriptor(ring, R.element_descriptor(ring, idx)) == idx


def test_element_descriptor_roundtrip_structured(corpus_rings):
    for entry, ring in corpus_rings:
        for idx in list(range(ring.size))[:: max(1, ring.size // 8)]:
            desc = R.element_descriptor(ring, idx)
            assert R.element_from_descriptor(ring, desc) == idx


def test_corner_ring():
    t2 = R.build_ring(R.TriangularSpec(R.ZmodSpec(2), 2))
    e11 = R.element_from_descriptor(t2, [[1, 0], [0, 0]])
    corner, embed = corner_ring(t2, e11)
    verify_ring_axioms(corner)
    assert corner.one == embed.index(e11)


def test_all_ideals_zmod16():
    sizes = [len(i.members) for i in R.all_ideals(z(16))]
    assert sizes == [1, 2, 4, 8, 16]


def test_all_ideals_are_ideals(corpus_rings):
    for entry, ring in corpus_rings:
        if ring.size > 40:
            continue
        for ideal in R.all_ideals(ring):
            verify_ideal(ideal)


def test_quotient_build_keeps_its_own_spec():
    # the quotient that quotient_by caches and shares keeps its own recipe
    z16 = z(16)
    shared = R.quotient_by(z16, R.ideal_closure(z16, [4])).target
    before = shared.spec
    r12 = R.build_ring(R.QuotientSpec(R.ZmodSpec(16), (12,)))
    r4 = R.build_ring(R.QuotientSpec(R.ZmodSpec(16), (4,)))
    assert r12.describe() == "quotient(zmod(16),[12])"
    assert r4.describe() == "quotient(zmod(16),[4])"
    assert shared.spec == before
    assert r12.npmul is shared.npmul and r4.npadd is shared.npadd


def _brute_span(ring, a, b):
    return tuple(sorted({ring.add(ring.mul(a, x), ring.mul(b, y))
                         for x in ring.elements() for y in ring.elements()}))


def test_opposite_ring(corpus_rings):
    rng = np.random.default_rng(4)
    for entry, ring in corpus_rings:
        if ring.size > 64:
            continue
        op = ring.op()
        verify_ring_axioms(op)
        assert op.op() is ring and ring.op() is op
        assert op.npadd is ring.npadd and op.npneg is ring.npneg
        assert (op.zero, op.one) == (ring.zero, ring.one)
        assert np.array_equal(op.npmul, ring.npmul.T)
        assert op.units() == ring.units()
        assert all(op.inverse(u) == ring.inverse(u) for u in ring.units())
        # u*v = v*u = 1 reads the same in R^op: one memo serves both
        assert op._cache["inverse"] is ring._cache["inverse"]
        assert op.idempotents() == ring.idempotents()
        assert ([i.members for i in R.all_ideals(op)]
                == [i.members for i in R.all_ideals(ring)])
        for a, b in rng.integers(ring.size, size=(6, 2)).tolist():
            assert ring.right_span(a, b) == _brute_span(ring, a, b)
            assert op.right_span(a, b) == _brute_span(op, a, b)


def test_opposite_ring_shares_the_idempotents(scan_rings, monkeypatch):
    # e*e = e reads the same in R^op: R^op returns R's tuple, whichever of
    # the two asks first, and it is R^op's own brute-force scan
    for ring in scan_rings:
        op = ring.op()
        assert op.idempotents() is ring.idempotents()
        assert op.idempotents() == tuple(e for e in op.elements()
                                         if op.mul(e, e) == e)
    monkeypatch.setattr(R, "_BUILD_CACHE", {})
    for spec in {ring.spec for ring in scan_rings
                 if not isinstance(ring.spec, R.OppositeSpec)}:
        ring = R.build_ring(spec)
        first = ring.op().idempotents()
        assert ring.idempotents() is first


def test_quotient_of_opposite_ring(corpus_pairs):
    # R^op/I is (R/I)^op on R's cosets, and V(R^op) has V(R)'s components
    assert len(corpus_pairs) == 37
    for name, ring, ideal, _ in corpus_pairs:
        q = R.quotient_by(ring, ideal)
        op_ideal = R.ideal_closure(ring.op(), ideal.generators)
        assert op_ideal.members == ideal.members, name
        qop = R.quotient_by(ring.op(), op_ideal)
        assert qop.source is ring.op() and qop.target is q.target.op(), name
        assert np.array_equal(qop.target.npmul, q.target.npmul.T), name
        assert np.array_equal(qop.image, q.image), name
        assert np.array_equal(qop.section, q.section), name
    for ring in {id(ring): ring for _, ring, _, _ in corpus_pairs}.values():
        vm, vm_op = V.build_v_monoid(ring, 1), V.build_v_monoid(ring.op(), 1)
        assert vm_op.components == vm.components, ring.describe()
        assert len(vm_op.keys) == len(vm.keys), ring.describe()


# -- oracles for the table kernels -------------------------------------------

def _fixpoint_closure(ring, gens):
    """Ideal closure as a frontier fixpoint under negation, addition of
    members and multiplication by the carrier on either side."""
    members = {ring.zero} | {int(g) for g in gens}
    frontier = members - {ring.zero}
    add, mul, neg = ring.npadd, ring.npmul, ring.npneg
    while frontier:
        cur = np.fromiter(members, dtype=np.int64)
        fr = np.fromiter(frontier, dtype=np.int64)
        reach = np.unique(np.concatenate([
            neg[fr], add[fr[:, None], cur[None, :]].ravel(),
            mul[fr, :].ravel(), mul[:, fr].ravel()]))
        frontier = {int(x) for x in reach} - members
        members |= frontier
    return frozenset(members)


def test_ideal_closure_matches_fixpoint(corpus_rings):
    for entry, ring in corpus_rings:
        principal = {}
        for a in ring.elements():
            got = R.ideal_closure(ring, [a])
            assert got.members == _fixpoint_closure(ring, [a]), (entry.name, a)
            assert got.generators == (a,)
            principal.setdefault(got.members, a)
        reps = sorted(principal.values())
        for a in reps:
            for b in reps:
                assert (R.ideal_closure(ring, [a, b]).members
                        == _fixpoint_closure(ring, [a, b])), (entry.name, a, b)
        assert R.ideal_closure(ring, []).members == frozenset({ring.zero})
    m2z6 = R.build_ring(R.MatrixSpec(R.ZmodSpec(6), 2))
    rng = np.random.default_rng(6)
    for a in rng.integers(m2z6.size, size=25).tolist():
        assert R.ideal_closure(m2z6, [a]).members == _fixpoint_closure(m2z6,
                                                                       [a])


# -- ideal tests read off R --------------------------------------------------

def test_entry_ideal_matches_closure(corpus_rings):
    # on M_2(R) and M_2(R)^op the helper gives the J of R whose M_2(J) is
    # the closure there; on R and R^op, R's closure
    bases = {ring.spec: ring for entry, ring in corpus_rings
             if "slow" not in entry.tags and ring.size ** 4 <= 4096}
    t2 = R.TriangularSpec(R.ZmodSpec(2), 2)
    assert t2 in bases and len(bases) == 9
    cases = []
    for base in bases.values():
        mring = R.build_ring(R.MatrixSpec(base.spec, 2))
        assert R.morita_base(mring.op()) == (mring, base, 2)
        cases += [(mring, mring, base), (mring.op(), mring, base),
                  (base, None, base), (base.op(), None, base)]
    rng = random.Random(13)
    checked = 0
    for ring, home, base in cases:
        draws = [[rng.randrange(ring.size)] for _ in range(20)]
        pairs = [[rng.randrange(ring.size), rng.randrange(ring.size)]
                 for _ in range(20)]
        for gens in [[e] for e in ring.idempotents()] + draws + pairs:
            got = R.entry_ideal(ring, gens)
            assert got.ring is base, ring.describe()
            if home is not None:
                got = M.matrix_ideal(home, base, 2, got)
            assert (got.members == R.ideal_closure(ring, gens).members), \
                (ring.describe(), gens)
            checked += 1
    assert checked > 2000


def test_same_right_ideal_matches_right_multiples():
    specs = [R.ZmodSpec(8), R.TriangularSpec(R.ZmodSpec(2), 2),
             R.MatrixSpec(R.ZmodSpec(2), 2)]
    for spec in specs:
        ring = R.build_ring(spec)
        for ring in (ring, ring.op()):
            sets = [ring.right_multiples(a) for a in ring.elements()]
            same = [[R.same_right_ideal(ring, a, b) for b in ring.elements()]
                    for a in ring.elements()]
            assert same == [[sa == sb for sb in sets] for sa in sets], \
                ring.describe()
            assert any(map(any, same)) and not all(map(all, same))


def _gathered_matrix_tables(base, k, triangular):
    """(add, mul, neg, one) of M_k(base) or T_k(base), entry by entry:
    digits of every code, then sums of base-table gathers."""
    pos = R._positions(k, triangular)
    nfree, B = len(pos), base.size
    size = B ** nfree
    weights = np.array([B ** (nfree - 1 - p) for p in range(nfree)])
    digits = np.empty((size, nfree), dtype=np.int64)
    tmp = np.arange(size)
    for p in reversed(range(nfree)):
        digits[:, p] = tmp % B
        tmp //= B
    badd, bmul = base.npadd.astype(np.int64), base.npmul.astype(np.int64)
    add = sum(badd[digits[:, None, p], digits[None, :, p]] * weights[p]
              for p in range(nfree))
    full = np.zeros((size, k, k), dtype=np.int64)
    for p, (i, j) in enumerate(pos):
        full[:, i, j] = digits[:, p]
    mul = np.zeros((size, size), dtype=np.int64)
    for p, (i, j) in enumerate(pos):
        acc = np.full((size, size), base.zero, dtype=np.int64)
        for l in range(k):
            acc = badd[acc, bmul[full[:, i, l][:, None], full[None, :, l, j]]]
        mul += acc * weights[p]
    neg = base.npneg.astype(np.int64)[digits] @ weights
    one = sum(int(w) * (base.one if i == j else base.zero)
              for w, (i, j) in zip(weights, pos))
    return add, mul, neg, one


def test_matrix_tables_match_gathered_oracle(corpus_rings):
    bases = [(entry, ring) for entry, ring in corpus_rings
             if ring.size ** 4 <= 1296]
    assert len(bases) == 7
    for entry, base in bases:
        for spec in (R.MatrixSpec(entry.spec, 2),
                     R.TriangularSpec(entry.spec, 2)):
            ring = R.build_ring(spec)
            add, mul, neg, one = _gathered_matrix_tables(
                base, 2, isinstance(spec, R.TriangularSpec))
            dt = np.min_scalar_type(ring.size - 1)
            assert ring.npadd.dtype == ring.npmul.dtype == ring.npneg.dtype == dt
            assert np.array_equal(ring.npadd, add), spec.describe()
            assert np.array_equal(ring.npmul, mul), spec.describe()
            assert np.array_equal(ring.npneg, neg), spec.describe()
            assert (ring.zero, ring.one) == (0, one)
    for n in (3, 4):
        verify_ring_axioms(R.build_ring(R.MatrixSpec(R.ZmodSpec(n), 2)))


def test_quotient_descriptors_close_the_ideal_once(monkeypatch):
    closures = []
    real = R.ideal_closure

    def spy(ring, gens):
        closures.append(ring)
        return real(ring, gens)

    quotient_z16 = R.QuotientSpec(R.ZmodSpec(16), (4,))
    shared = R.quotient_by(z(16), R.ideal_closure(z(16), [4])).target
    for ring in (R.build_ring(R.QuotientSpec(
                     R.ProductSpec(R.ZmodSpec(2),
                                   R.MatrixSpec(R.ZmodSpec(2), 2)),
                     ((0, ((1, 0), (0, 1))),))),
                 R.build_ring(R.MatrixSpec(quotient_z16, 2)),
                 shared):
        monkeypatch.setattr(R, "ideal_closure", spy)
        closures.clear()
        for idx in ring.elements():
            desc = R.element_descriptor(ring, idx)
            assert R.element_from_descriptor(ring, desc) == idx
        monkeypatch.setattr(R, "ideal_closure", real)
        assert len(closures) <= 1, ring.describe()


def test_all_ideals_do_not_depend_on_the_closure_memo(corpus_rings):
    # the same members and generators with the memo as earlier calls left
    # it and with every closure of the ring dropped from it
    def ideals(ring):
        return [(i.sorted_members, i.generators) for i in R.all_ideals(ring)]

    for entry, ring in corpus_rings:
        warm = ideals(ring)
        for key in [k for k in ring._cache
                    if type(k) is tuple and k[0] == "ideal_closure"]:
            del ring._cache[key]
        assert ideals(ring) == warm, entry.name
