import random

import pytest

from exlift import ktheory as K, matrices as M, rings as R
from exlift.errors import NotAUnit, NotFredholm


def z(n):
    return R.build_ring(R.ZmodSpec(n))


def test_is_fredholm_examples():
    z4 = z(4)
    ideal = R.ideal_closure(z4, [2])
    assert K.is_fredholm(z4, ideal, 3)
    assert not K.is_fredholm(z4, ideal, 2)
    pr = R.build_ring(R.ProductSpec(R.ZmodSpec(2), R.MatrixSpec(R.ZmodSpec(2), 2)))
    ipr = R.ideal_closure(pr, [R.element_from_descriptor(pr, [0, [[1, 0], [0, 1]]])])
    for m2code in range(16):
        x = 1 * 16 + m2code
        assert K.is_fredholm(pr, ipr, x)


def test_whitehead_examples():
    z3 = z(3)
    w = K.whitehead_factor(z3, 2)
    assert M.evaluate_word(z3, w) == M.matrix(z3, [[2, 0], [0, 2]])
    z5 = z(5)
    assert M.evaluate_word(z5, K.whitehead_factor(z5, 2)) == \
        M.matrix(z5, [[2, 0], [0, 3]])
    w1 = K.whitehead_factor(z3, 1)
    assert M.evaluate_word(z3, w1) == M.identity(z3, 2)
    with pytest.raises(NotAUnit):
        K.whitehead_factor(z(4), 2)


def test_whitehead_replays_for_every_corpus_unit(corpus_rings):
    for entry, ring in corpus_rings:
        for u in ring.units():
            w = K.whitehead_factor(ring, u)
            got = M.evaluate_word(ring, w)
            uinv = ring.inverse(u)
            assert got == M.matrix(ring, [[u, ring.zero], [ring.zero, uinv]])
            assert len(w.ops) == 6


def test_delta_output_contracts(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs:
        qmap = R.quotient_by(ring, ideal)
        for ubar in qmap.target.units():
            d = K.connecting_delta(ring, ideal, ubar)
            p = d.pos
            assert M.is_idempotent(p)
            e11 = d.neg
            assert all(ideal.contains(ring.sub(p.entries[i][j],
                                               e11.entries[i][j]))
                       for i in range(2) for j in range(2))


def test_delta_examples():
    z4 = z(4)
    i4 = R.ideal_closure(z4, [2])
    d = K.connecting_delta(z4, i4, R.quotient_by(z4, i4).pi(1))
    assert bool(K.k0_zero_test(d))
    z9 = z(9)
    i9 = R.ideal_closure(z9, [3])
    d9 = K.connecting_delta(z9, i9, 2)
    zt = K.k0_zero_test(d9)
    assert zt.strict and zt.relaxed and zt.modes_agree


def test_zero_test_false_case():
    z2 = z(2)
    k = K.K0Element(z2, R.zero_ideal(z2),
                    (M.matrix(z2, [[1]]),), (M.matrix(z2, [[0]]),))
    zt = K.k0_zero_test(k)
    assert not zt.strict and not zt.relaxed and zt.modes_agree


def test_zero_test_logs_mode_disagreement(monkeypatch, caplog):
    z4 = z(4)
    i4 = R.ideal_closure(z4, [2])
    d = K.connecting_delta(z4, i4, R.quotient_by(z4, i4).pi(1))
    monkeypatch.setattr(K, "_strict_equal", lambda *args: False)
    with caplog.at_level("WARNING", logger="exlift"):
        zt = K.k0_zero_test(d)
    assert not zt.strict and zt.relaxed and not zt.modes_agree
    assert zt.relaxed_padding == 0
    assert [r.name for r in caplog.records] == ["exlift"]
    assert "modes disagree" in caplog.records[0].getMessage()


def test_trivial_difference_is_zero(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs[:6]:
        e = M.matrix(ring, [[ring.one]])
        k = K.K0Element(ring, ideal, (e,), (e,))
        assert bool(K.k0_zero_test(k))


def test_index_requires_fredholm():
    z4 = z(4)
    ideal = R.ideal_closure(z4, [2])
    with pytest.raises(NotFredholm):
        K.index(z4, ideal, 2)


def test_index_pipeline_examples():
    z4 = z(4)
    i4 = R.ideal_closure(z4, [2])
    assert bool(K.k0_zero_test(K.index(z4, i4, 3)))
    z9 = z(9)
    i9 = R.ideal_closure(z9, [3])
    assert bool(K.k0_zero_test(K.index(z9, i9, 4)))


def test_delta_well_defined_under_lift_choice(corpus_pairs):
    rng = random.Random(99)
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 32:
            continue
        qmap = R.quotient_by(ring, ideal)
        members = ideal.sorted_members
        for ubar in qmap.target.units():
            d1 = K.connecting_delta(ring, ideal, ubar)

            def random_lift(rbar):
                base = qmap.lift(rbar)
                return ring.add(base, rng.choice(members))

            d2 = K.connecting_delta(ring, ideal, ubar, lift=random_lift)
            assert bool(K.k0_zero_test(d1 - d2)), name


def test_index_multiplicative_sample(corpus_pairs):
    rng = random.Random(17)
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 16:
            continue
        fred = K.fredholm_elements(ring, ideal)
        pairs = [(rng.choice(fred), rng.choice(fred)) for _ in range(3)]
        for x, y in pairs:
            lhs = K.index(ring, ideal, ring.mul(x, y))
            rhs = K.index(ring, ideal, x) + K.index(ring, ideal, y)
            assert bool(K.k0_zero_test(lhs - rhs)), name


def test_exactness_consequence(corpus_pairs):
    # x - y in I for a unit y forces index(x) = 0
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 16:
            continue
        for y in ring.units():
            for b in list(ideal)[:4]:
                x = ring.add(y, b)
                assert K.is_fredholm(ring, ideal, x)
                assert bool(K.k0_zero_test(K.index(ring, ideal, x))), name
