import pytest
from hypothesis import given, strategies as st

from exlift import exchange as E, matrices as M, rings as R
from exlift.errors import NotInIdeal, PreconditionFailed

import table_oracles as O
from ring_checks import corner_ring


def z(n):
    return R.build_ring(R.ZmodSpec(n))


def test_unital_witness_examples():
    assert O.exchange_witness_unital(z(2), 1) == O.ExchangeWitness(1, 1, 0)
    assert O.exchange_witness_unital(z(4), 2) == O.ExchangeWitness(0, 0, 3)
    assert O.exchange_witness_unital(z(6), 3) == O.ExchangeWitness(3, 1, 1)


def test_ideal_witness_examples():
    z4 = z(4)
    ideal = R.ideal_closure(z4, [2])
    assert O.exchange_witness_ideal(z4, ideal, 2) == O.ExchangeWitness(0, 0, 2)
    assert O.exchange_witness_ideal(z4, ideal, 0) == O.ExchangeWitness(0, 0, 0)
    t2 = R.build_ring(R.TriangularSpec(R.ZmodSpec(2), 2))
    e12 = R.element_from_descriptor(t2, [[0, 1], [0, 0]])
    it = R.ideal_closure(t2, [e12])
    wit = O.exchange_witness_ideal(t2, it, e12)
    assert wit.e == 0 and wit.r == 0 and wit.s == e12


def test_ideal_witness_requires_membership():
    z4 = z(4)
    ideal = R.ideal_closure(z4, [2])
    with pytest.raises(NotInIdeal):
        O.exchange_witness_ideal(z4, ideal, 1)


def test_witness_equations_replay(corpus_rings):
    for entry, ring in corpus_rings:
        one = ring.one
        for a in range(ring.size):
            w = O.exchange_witness_unital(ring, a)
            assert w is not None
            assert ring.mul(w.e, w.e) == w.e
            assert ring.mul(a, w.r) == w.e
            assert ring.mul(ring.sub(one, a), w.s) == ring.sub(one, w.e)


def test_ideal_witness_equations(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs:
        for x in ideal:
            w = O.exchange_witness_ideal(ring, ideal, x)
            assert w is not None
            assert ideal.contains(w.e) and ideal.contains(w.r) \
                and ideal.contains(w.s)
            assert ring.mul(x, w.r) == w.e
            assert ring.add(ring.add(x, w.s),
                            ring.neg(ring.mul(x, w.s))) == w.e


def test_every_corpus_ring_is_exchange(corpus_rings):
    # finite rings are semiperfect, hence exchange
    for entry, ring in corpus_rings:
        assert E.is_exchange_ring(ring)


def test_every_corpus_ideal_is_exchange(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs:
        assert E.is_exchange_ideal(ring, ideal)


def test_intrinsic_vs_embedded_forms_agree(corpus_pairs):
    # the two non-unital exchange formulations, cross-checked empirically
    for name, ring, ideal, tags in corpus_pairs:
        for x in ideal:
            intrinsic = O.exchange_witness_ideal(ring, ideal, x)
            embedded = O.embedded_exchange_witness(ring, ideal, x)
            assert (intrinsic is None) == (embedded is None)
            if embedded is not None:
                e, t, s = embedded
                one = ring.one
                assert ring.mul(e, e) == e
                assert ring.mul(x, t) == e and ideal.contains(t)
                assert ring.mul(ring.sub(one, x), s) == ring.sub(one, e)


def test_corner_ideal_is_exchange(corpus_pairs):
    # eIe is an exchange ideal of eRe, exercised by materializing the corner;
    # a corner has no element descriptors, so no quotient and no R/J to
    # state the theorem on, and every element of eIe is given a witness
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 32:
            continue
        for e in ring.idempotents():
            corner, embed = corner_ring(ring, e)
            index_of = {x: i for i, x in enumerate(embed)}
            members = frozenset(index_of[m] for m in _corner_set(ring, ideal, e))
            corner_ideal = R.Ideal(corner, members,
                                   tuple(sorted(members)))
            assert all(O.exchange_witness_ideal(corner, corner_ideal, x)
                       is not None for x in corner_ideal), (name, e)


def _corner_set(ring, ideal, e):
    out = set()
    for x in ideal:
        out.add(ring.mul(ring.mul(e, x), e))
    return out


def test_matrix_ideal_is_exchange_smallest_rings():
    # M_2(I) is exchange inside M_2(R), on the smallest corpus rings
    for n in (2, 3, 4):
        ring = z(n)
        m2 = R.build_ring(R.MatrixSpec(R.ZmodSpec(n), 2))
        for ideal in R.all_ideals(ring):
            mi = M.matrix_ideal(m2, ring, 2, ideal)
            assert E.is_exchange_ideal(m2, mi)


def test_lift_idempotent_examples():
    z4 = z(4)
    ideal = R.ideal_closure(z4, [2])
    qm = R.quotient_by(z4, ideal)
    assert O.lift_idempotent(z4, ideal, qm.pi(1)) == 1
    assert O.lift_idempotent(z4, ideal, qm.pi(0)) == 0
    t2 = R.build_ring(R.TriangularSpec(R.ZmodSpec(2), 2))
    e12 = R.element_from_descriptor(t2, [[0, 1], [0, 0]])
    e11 = R.element_from_descriptor(t2, [[1, 0], [0, 0]])
    it = R.ideal_closure(t2, [e12])
    qt = R.quotient_by(t2, it)
    assert O.lift_idempotent(t2, it, qt.pi(e11)) == e11


def test_lift_idempotent_rejects_non_idempotent():
    z9 = z(9)
    i9 = R.ideal_closure(z9, [3])
    q9 = R.quotient_by(z9, i9)
    bad = next(b for b in range(q9.target.size)
               if q9.target.mul(b, b) != b)
    with pytest.raises(PreconditionFailed):
        O.lift_idempotent(z9, i9, bad)


def test_idempotent_lifting_everywhere(corpus_pairs):
    # finite rings lift idempotents modulo every ideal
    for name, ring, ideal, tags in corpus_pairs:
        qmap = R.quotient_by(ring, ideal)
        q = qmap.target
        for ebar in range(q.size):
            if q.mul(ebar, ebar) == ebar:
                e = O.lift_idempotent(ring, ideal, ebar)
                assert e is not None
                assert ring.mul(e, e) == e and qmap.pi(e) == ebar
