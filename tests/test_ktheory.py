import functools
import random

import pytest

from exlift import ktheory as K, matrices as M, rings as R, vmonoid
from exlift.errors import NotAUnit, NotFredholm
import table_oracles as O
from witness_search import strict_zero_padding


def is_zero(k):
    """k0_zero_test's verdict, asserted to match the strict witness search
    (some padding m <= 2 exactly when the class keys agree)."""
    zero = K.k0_zero_test(k)
    assert (strict_zero_padding(k) is not None) == zero
    return zero


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


def _whitehead(ring, u):
    """The word connecting_delta factors diag(u, u^-1) by."""
    return M.ElemWord(2, M.whitehead_ops(ring, u, 1, 2))


def test_whitehead_examples():
    z3 = z(3)
    w = _whitehead(z3, 2)
    assert M.evaluate_word(z3, w) == M.matrix(z3, [[2, 0], [0, 2]])
    z5 = z(5)
    assert M.evaluate_word(z5, _whitehead(z5, 2)) == \
        M.matrix(z5, [[2, 0], [0, 3]])
    w1 = _whitehead(z3, 1)
    assert M.evaluate_word(z3, w1) == M.identity(z3, 2)
    z4 = z(4)
    with pytest.raises(NotAUnit):
        K.connecting_delta(z4, R.ideal_closure(z4, [2]), 0)


def test_whitehead_replays_for_every_corpus_unit(corpus_rings):
    for entry, ring in corpus_rings:
        for u in ring.units():
            w = _whitehead(ring, u)
            got = M.evaluate_word(ring, w)
            uinv = ring.inverse(u)
            assert got == M.matrix(ring, [[u, ring.zero], [ring.zero, uinv]])
            assert len(w.ops) == 6


def test_delta_output_contracts(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs:
        qmap = R.quotient_by(ring, ideal)
        for ubar in qmap.target.units():
            d = K.connecting_delta(ring, ideal, ubar)
            p, e11 = (functools.reduce(M.direct_sum, parts)
                      for parts in (d.pos_parts, d.neg_parts))
            assert O.is_idempotent(p)
            assert all(ideal.contains(ring.sub(p.entries[i][j],
                                               e11.entries[i][j]))
                       for i in range(2) for j in range(2))


def test_delta_examples():
    z4 = z(4)
    i4 = R.ideal_closure(z4, [2])
    d = K.connecting_delta(z4, i4, R.quotient_by(z4, i4).pi(1))
    assert is_zero(d) is True
    z9 = z(9)
    i9 = R.ideal_closure(z9, [3])
    d9 = K.connecting_delta(z9, i9, 2)
    assert is_zero(d9) is True
    assert strict_zero_padding(d9) == 0


def test_zero_test_false_case():
    z2 = z(2)
    k = K.K0Element(z2, R.zero_ideal(z2),
                    (M.matrix(z2, [[1]]),), (M.matrix(z2, [[0]]),))
    assert is_zero(k) is False


def test_zero_test_on_idempotents_of_the_ideal(corpus_pairs):
    # [e] - [f] for idempotents e, f in I: zero exactly when the witness
    # search finds one, and both verdicts occur
    seen = set()
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 16:
            continue
        idems = [M.matrix(ring, [[e]]) for e in ring.idempotents()
                 if ideal.contains(e)]
        for e in idems:
            for f in idems:
                seen.add(is_zero(K.K0Element(ring, ideal, (e,), (f,))))
    assert seen == {True, False}


def test_strict_oracle_decides_full_ideals_without_class_key(corpus_pairs,
                                                            monkeypatch):
    # on a full ideal the oracle's verdict comes from its own witness search,
    # so agreeing with k0_zero_test is not a comparison with itself
    def refuse(*args, **kwargs):
        raise AssertionError("the strict oracle read class_key")

    monkeypatch.setattr(vmonoid, "class_key", refuse)
    full = [(name, ring, ideal) for name, ring, ideal, tags in corpus_pairs
            if ideal.is_full() and ring.size <= 16]
    assert len(full) >= 5
    for name, ring, ideal in full:
        one = M.matrix(ring, [[ring.one]])
        zero = M.matrix(ring, [[ring.zero]])
        assert strict_zero_padding(K.K0Element(ring, ideal, (one,), (one,))) \
            == 0, name
        assert strict_zero_padding(
            K.K0Element(ring, ideal, (one,), (zero,))) is None, name
        for x in K.fredholm_elements(ring, ideal)[:3]:
            assert strict_zero_padding(K.index(ring, ideal, x)) is not None, \
                (name, x)


def test_trivial_difference_is_zero(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs[:6]:
        e = M.matrix(ring, [[ring.one]])
        k = K.K0Element(ring, ideal, (e,), (e,))
        assert is_zero(k)


def test_index_requires_fredholm():
    z4 = z(4)
    ideal = R.ideal_closure(z4, [2])
    with pytest.raises(NotFredholm):
        K.index(z4, ideal, 2)


def test_index_pipeline_examples():
    z4 = z(4)
    i4 = R.ideal_closure(z4, [2])
    assert is_zero(K.index(z4, i4, 3))
    z9 = z(9)
    i9 = R.ideal_closure(z9, [3])
    assert is_zero(K.index(z9, i9, 4))


def _delta_with_lift(ring, ideal, ubar, lift):
    """connecting_delta's recipe with each Whitehead parameter lifted by
    ``lift`` instead of to its least-index preimage."""
    qmap = R.quotient_by(ring, ideal)
    ops = []
    for op in M.whitehead_ops(qmap.target, ubar, 1, 2):
        r = lift(op.r)
        assert qmap.pi(r) == op.r
        ops.append(M.left_op(op.i, op.j, r))
    lifted = M.ElemWord(2, tuple(ops))
    v = M.evaluate_word(ring, lifted)
    vinv = M.evaluate_word(ring, lifted.inverse(ring))
    e11 = M.direct_sum(M.matrix(ring, [[ring.one]]),
                       M.matrix(ring, [[ring.zero]]))
    p = M.mat_mul(M.mat_mul(v, e11), vinv)
    assert O.is_idempotent(p) and O.congruent_mod(p, e11, ideal)
    return K.K0Element(ring, ideal, (p,), (e11,))


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

            d2 = _delta_with_lift(ring, ideal, ubar, random_lift)
            assert is_zero(d1 - d2), name


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
            assert is_zero(lhs - rhs), name


def test_exactness_consequence(corpus_pairs):
    # x - y in I for a unit y forces index(x) = 0
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 16:
            continue
        for y in ring.units():
            for b in list(ideal)[:4]:
                x = ring.add(y, b)
                assert K.is_fredholm(ring, ideal, x)
                assert is_zero(K.index(ring, ideal, x)), name
