import copy
import dataclasses
import functools
import json
import random
import sys
from collections import Counter

import pytest

from exlift import (certificates as C, lifting as L, matrices as M,
                    rings as R, scans, vmonoid as V)
from exlift.errors import NotFredholm, PreconditionFailed
from exlift.ktheory import fredholm_elements, index, k0_zero_test
from witness_search import strict_zero_padding
from ring_checks import decode_matrix
from table_oracles import congruent_mod
from reduction_contracts import (corpus_lifts,
                                 diagonalization_contract_failures,
                                 reduction_contract_failures,
                                 w1_congruent)


def z(n):
    return R.build_ring(R.ZmodSpec(n))


def z4_pair():
    z4 = z(4)
    return z4, R.ideal_closure(z4, [2])


def test_join_examples():
    z6 = z(6)
    full = R.full_ideal(z6)
    assert L.join_idempotent(z6, full, 0, 0) == 0
    assert L.join_idempotent(z6, full, 0, 1) == 1
    assert L.join_idempotent(z6, full, 3, 4) == 1


def test_join_contracts(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 16:
            continue
        idems = [e for e in ring.idempotents() if ideal.contains(e)]
        for e1 in idems[:4]:
            for e2 in ring.idempotents()[:4]:
                g = L.join_idempotent(ring, ideal, e1, e2)
                assert ring.mul(g, g) == g
                assert (R.ideal_closure(ring, [g]).members
                        == R.ideal_closure(ring, [e1, e2]).members)


def test_reduce_row_example():
    z4, ideal = z4_pair()
    rr = L.reduce_row(z4, ideal, M.matrix(z4, [[1, 0], [2, 1]]))
    assert rr.result == M.identity(z4, 2)
    assert rr.h == 1
    # identity input: trivial contracts, h = 1
    rr2 = L.reduce_row(z4, ideal, M.identity(z4, 2))
    assert rr2.result[1, 0] == 0 and rr2.h == 1


def test_reduce_requires_preconditions():
    z4, ideal = z4_pair()
    with pytest.raises(PreconditionFailed):
        L.reduce_row(z4, ideal, M.matrix(z4, [[1, 1], [0, 1]]))  # b not in I
    with pytest.raises(PreconditionFailed):
        L.reduce_row(z4, ideal, M.matrix(z4, [[2, 0], [2, 2]]))  # not invertible


def _pattern_matrices(ring, ideal, rng, count, need_d_unital):
    """Invertible 2x2 samples with off-diagonal entries in I (and d-1 in I)."""
    from exlift.matrices import try_inverse
    members = ideal.sorted_members
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 400:
        attempts += 1
        a = rng.randrange(ring.size)
        d = (ring.add(ring.one, rng.choice(members)) if need_d_unital
             else rng.randrange(ring.size))
        alpha = M.matrix(ring, [[a, rng.choice(members)],
                                [rng.choice(members), d]])
        if try_inverse(alpha) is not None:
            out.append(alpha)
    return out


def test_reduction_contracts_random_sample(corpus_pairs):
    rng = random.Random(5)
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 16:
            continue
        for alpha in _pattern_matrices(ring, ideal, rng, 4, False):
            rr = L.reduce_row(ring, ideal, alpha)
            rc = L.reduce_col(ring, ideal, alpha)
            assert reduction_contract_failures(rr) == [], (name, alpha)
            assert reduction_contract_failures(rc) == [], (name, alpha)


def test_every_reduction_meets_its_contracts(corpus_pairs, monkeypatch):
    # the lift does not assert the reduction contracts; a spy collects
    # every row reduction a lift makes (column reductions are row
    # reductions over R^op) on every default corpus pair, and on the pairs
    # with |R/I| <= 2 at m = 4, whose stage 0 runs over M_2(R)
    seen = []
    real = L._reduce_row

    def spy(ring, ideal, alpha, g=None):
        res = real(ring, ideal, alpha, g)
        seen.append(res)
        return res

    monkeypatch.setattr(L, "_reduce_row", spy)
    for _ in corpus_lifts(corpus_pairs):
        pass
    bad = [(res.ring.describe(), failed) for res in seen
           if (failed := reduction_contract_failures(res))]
    assert bad == []
    specs = {type(res.ring.spec).__name__ for res in seen}
    assert {"OppositeSpec", "MatrixSpec"} <= specs and len(seen) > 400


def _perturbed(res, part, key, change):
    """res with trace[part][key] replaced by change of it."""
    trace = copy.deepcopy(res.trace)
    trace[part][key] = change(trace[part][key])
    return dataclasses.replace(res, trace=trace)


@pytest.mark.parametrize("side", ["row", "col"])
def test_reduction_contracts_catch_a_perturbed_reduction(side):
    # the oracle above is not vacuous: one witness of a real reduction
    # changed, or one op of its word dropped, breaks the contract named
    t2 = R.build_ring(R.TriangularSpec(R.ZmodSpec(2), 2))
    e12 = R.element_from_descriptor(t2, [[0, 1], [0, 0]])
    unit = R.element_from_descriptor(t2, [[1, 0], [0, 1]])
    alpha = M.matrix(t2, [[unit, e12], [e12, unit]])
    reduce = L.reduce_row if side == "row" else L.reduce_col
    res = reduce(t2, R.ideal_closure(t2, [e12]), alpha)
    assert reduction_contract_failures(res) == []
    flip = lambda a: t2.sub(t2.one, a)       # e -> 1-e, also over R^op
    shift = lambda a: t2.add(a, t2.one)
    cases = {("pass1", "e", flip): {"pass1 e = cr", "pass1 1-e = ds"},
             ("pass1", "y", shift): {"pass1 unimodular"},
             ("corner", "f", flip): {"f factorization", "1-f factorization"},
             ("corner", "wprime", shift): {"w w' = g"},
             ("pass2", "e", flip): {"pass2 e = cr", "pass2 1-e = ds"}}
    for (part, key, change), broken in cases.items():
        failed = reduction_contract_failures(
            _perturbed(res, part, key, change))
        assert broken <= set(failed), (part, key, failed)
    assert "d'R = hR" in reduction_contract_failures(
        dataclasses.replace(res, h=flip(res.h)))
    ops = res.word.ops
    last = max(i for i, op in enumerate(ops) if op.r != t2.zero)
    dropped = M.ElemWord(2, ops[:last] + ops[last + 1:])
    assert "word replays" in reduction_contract_failures(
        dataclasses.replace(res, word=dropped))


def test_every_diagonalization_meets_its_contracts(corpus_pairs,
                                                   monkeypatch):
    # nor does it assert the diagonalization's: a spy collects every
    # diagonalization of the same lifts, and each lift's w1 is congruent
    # to x + 1 modulo I
    seen = []
    real = L._diagonalize

    def spy(ring, ideal, alpha, **witnesses):
        res = real(ring, ideal, alpha, **witnesses)
        seen.append(res)
        return res

    monkeypatch.setattr(L, "_diagonalize", spy)
    stages = 0
    for name, x, m, cert in corpus_lifts(corpus_pairs):
        assert w1_congruent(cert), (name, x, m)
        stages += len(cert.stages)
    bad = [(res.ring.describe(), failed) for res in seen
           if (failed := diagonalization_contract_failures(res))]
    assert bad == []
    assert len(seen) == stages == 224


def test_diagonalization_contracts_catch_a_perturbed_step():
    # the oracle is not vacuous either: one derived witness of a real
    # diagonalization changed breaks the contracts named
    t2 = R.build_ring(R.TriangularSpec(R.ZmodSpec(2), 2))
    e12 = R.element_from_descriptor(t2, [[0, 1], [0, 0]])
    dg = L.diagonalize_2x2(t2, R.ideal_closure(t2, [e12]),
                           M.matrix(t2, [[t2.one, e12], [e12, t2.one]]))
    z4 = z(4)
    dz = L.diagonalize_2x2(z4, R.full_ideal(z4), M.matrix(z4, [[2, 1],
                                                               [1, 2]]))
    flip = lambda ring, a: ring.sub(ring.one, a)
    shift = lambda ring, a: ring.add(a, ring.one)
    cases = [(dg, "f", flip, {"f idempotent in I", "b' = f u",
                              "f lands in (2,2)"}),
             (dg, "p", flip, {"1-p in ideal", "(1-p)R = b'R", "RpR = R"}),
             (dg, "v", flip, {"v solves (1-f)tv = 1-f"}),
             (dz, "p", shift, {"p idempotent"})]
    for res, key, change, broken in cases:
        assert diagonalization_contract_failures(res) == []
        trace = dict(res.trace, **{key: change(res.ring, res.trace[key])})
        failed = diagonalization_contract_failures(
            dataclasses.replace(res, trace=trace))
        assert broken <= set(failed), (key, failed)


def test_unit_regular_witness_examples():
    pr = R.build_ring(R.ProductSpec(R.ZmodSpec(2), R.MatrixSpec(R.ZmodSpec(2), 2)))
    ipr = R.ideal_closure(pr, [R.element_from_descriptor(pr, [0, [[1, 0], [0, 1]]])])
    d0 = R.element_from_descriptor(pr, [0, [[0, 0], [0, 0]]])
    f, u, p = L.unit_regular_witness(pr, ipr, d0)
    assert f == d0 and pr.mul(f, u) == d0 and p == pr.one
    d = R.element_from_descriptor(pr, [0, [[1, 0], [0, 0]]])
    f, u, p = L.unit_regular_witness(pr, ipr, d)
    assert pr.mul(f, f) == f and pr.mul(f, u) == d
    assert u in pr.units()
    # dR = (1-p)R with RpR = R
    assert pr.mul(p, p) == p and R.same_right_ideal(pr, pr.sub(pr.one, p), d)
    assert R.entry_ideal(pr, [p]).is_full()


def test_unit_regular_refuses_when_span_not_full():
    # R = Z/2 x Z/2, I = R, d = (1,0): p = (0,1) but RpR != R
    p22 = R.build_ring(R.ProductSpec(R.ZmodSpec(2), R.ZmodSpec(2)))
    d = R.element_from_descriptor(p22, [1, 0])
    with pytest.raises(PreconditionFailed) as exc:
        L.unit_regular_witness(p22, R.full_ideal(p22), d)
    assert str(exc.value) == "RpR != R"
    # a certificate replay reports each failure under the step's name
    assert exc.value.check == "unit-regular step"
    z4, ideal = z4_pair()
    with pytest.raises(PreconditionFailed) as exc:
        L.unit_regular_witness(z4, ideal, 1)
    assert exc.value.check == "unit-regular step"


def test_q_of_the_unit_regular_step_follows_from_p(corpus_rings):
    # the proposition's second hypothesis, an idempotent q with
    # Rd = R(1-q) and RqR = R, is not checked: over every element d of
    # every ideal of the default corpus rings, q exists iff p does (dR =
    # (1-p)R), and RqR = R iff RpR = R
    seen = Counter()
    for entry, ring in corpus_rings:
        if "slow" in entry.tags:
            continue
        for ideal in R.all_ideals(ring):
            for d in ideal:
                gen_p = scans.idempotent_generator_right(ring, d)
                gen_q = scans.idempotent_generator_right(ring.op(), d)
                assert (gen_p is None) == (gen_q is None), (entry.name, d)
                if gen_p is None:
                    seen["no p"] += 1
                    continue
                p, q = (ring.sub(ring.one, g) for g in (gen_p, gen_q))
                full = R.entry_ideal(ring, [p]).is_full()
                assert full == R.entry_ideal(ring, [q]).is_full(), \
                    (entry.name, d)
                seen["RpR = R" if full else "RpR != R"] += 1
    assert seen == {"no p": 37, "RpR = R": 103, "RpR != R": 119}


def test_diagonalize_examples():
    z4, ideal = z4_pair()
    dg = L.diagonalize_2x2(z4, ideal, M.identity(z4, 2))
    assert dg.a_prime in z4.units() and dg.u in z4.units()
    dg2 = L.diagonalize_2x2(z4, ideal, M.matrix(z4, [[1, 2], [2, 1]]))
    qm = R.quotient_by(z4, ideal)
    assert qm.pi(dg2.a_prime) == qm.pi(z4.mul(1, z4.inverse(dg2.u)))
    # diag(a, 1) for a unit
    dg3 = L.diagonalize_2x2(z4, ideal, M.matrix(z4, [[3, 0], [0, 1]]))
    assert qm.pi(dg3.a_prime) == qm.pi(z4.mul(3, z4.inverse(dg3.u)))


def test_diagonalization_checks_invertibility_once(monkeypatch):
    calls = []
    real = L.try_inverse

    def counting(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(L, "try_inverse", counting)
    z4, ideal = z4_pair()
    alpha = M.matrix(z4, [[1, 2], [2, 1]])
    L.diagonalize_2x2(z4, ideal, alpha)
    assert calls == [alpha]
    # the forced m=4 lift diagonalizes twice: over M_2(Z/4), then over Z/4
    calls.clear()
    cert = L.lift_unit(z4, ideal, 3, start_m=4).certificate
    assert len(cert.stages) == 2
    assert calls == [s.diag.alpha for s in cert.stages]


def test_singular_alpha_is_refused():
    z4, ideal = z4_pair()
    singular = M.matrix(z4, [[2, 0], [0, 1]])   # (2,2) entry is 1 mod I
    for run in (L.reduce_row, L.reduce_col, L.diagonalize_2x2):
        with pytest.raises(PreconditionFailed, match="matrix is not invertible"):
            run(z4, ideal, singular)


def test_diagonalize_identity_replay(corpus_pairs):
    rng = random.Random(23)
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 16:
            continue
        for alpha in _pattern_matrices(ring, ideal, rng, 3, True):
            dg = L.diagonalize_2x2(ring, ideal, alpha)
            lam = M.matrix(ring, [[ring.one, ring.zero],
                                  [ring.zero, ring.inverse(dg.u)]])
            out = M.apply_elem_word(
                M.apply_elem_word(M.mat_mul(M.apply_elem_word(alpha, dg.beta),
                                            lam), dg.epsilon), dg.gamma)
            assert out == M.direct_sum(M.matrix(ring, [[dg.a_prime]]),
                                       M.identity(ring, 1))


def test_oracle_examples():
    z4, ideal = z4_pair()
    assert L.oracle_lift(z4, ideal, 3) == 1
    assert L.oracle_lift(z4, ideal, 2) is None
    z6 = z(6)
    assert L.oracle_lift(z6, R.full_ideal(z6), 4) == 1


def test_lift_unit_examples():
    z4, ideal = z4_pair()
    res = L.lift_unit(z4, ideal, 3)
    assert res.certificate is not None
    assert ideal.contains(z4.sub(3, res.certificate.y))
    with pytest.raises(NotFredholm):
        L.lift_unit(z4, ideal, 2)


def test_lift_unit_product_example():
    pr = R.build_ring(R.ProductSpec(R.ZmodSpec(2), R.MatrixSpec(R.ZmodSpec(2), 2)))
    ipr = R.ideal_closure(pr, [R.element_from_descriptor(pr, [0, [[1, 0], [0, 1]]])])
    x = R.element_from_descriptor(pr, [1, [[1, 0], [0, 0]]])
    res = L.lift_unit(pr, ipr, x)
    y = res.certificate.y
    assert y in pr.units() and ipr.contains(pr.sub(x, y))


def test_lift_matches_oracle(corpus_pairs):
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 16:
            continue
        status = L.separative_exchange_status(ring, ideal)
        if not status["ok"]:
            continue
        for x in fredholm_elements(ring, ideal)[:4]:
            res = L.lift_unit(ring, ideal, x)
            oracle = L.oracle_lift(ring, ideal, x)
            assert (res.certificate is not None) == (oracle is not None)
            if res.certificate:
                assert ideal.contains(ring.sub(x, res.certificate.y))
                assert ideal.contains(ring.sub(x, oracle))


def test_forced_m4_path():
    z2 = z(2)
    res = L.lift_unit(z2, R.zero_ideal(z2), 1, start_m=4)
    cert = res.certificate
    assert cert.m == 4
    assert [(s.dim, s.level) for s in cert.stages] == [(4, "blocked"),
                                                       (2, "base")]
    assert cert.y == 1
    z4, ideal = z4_pair()
    res2 = L.lift_unit(z4, ideal, 3, start_m=4)
    assert ideal.contains(z4.sub(3, res2.certificate.y))


def test_forced_m4_lift_over_larger_quotients():
    # the E_4(R/I) orbit word used to come from a capped search of E_4
    for n, x in ((3, 2), (4, 3)):
        ring = z(n)
        ideal = R.zero_ideal(ring)
        cert = L.lift_unit(ring, ideal, x, start_m=4).certificate
        assert (cert.m, cert.y) == (4, x) and ring.inverse(cert.y1) is not None
        payload = json.loads(C.dumps_certificate(cert.to_payload()))
        ok, checks = C.verify_payload(payload)
        assert ok, [c for c in checks if not c["ok"]]


def test_forced_m4_lift_through_m2_z8():
    # the blocked stage runs over M_2(Z/8), 4,096 elements, where the 2x2
    # inverse used to come from a refused |M_2(Z/8)|^2 column search
    ring = z(8)
    for gen in (2, 1):
        ideal = R.ideal_closure(ring, [gen])
        for x in fredholm_elements(ring, ideal):
            cert = L.lift_unit(ring, ideal, x, start_m=4).certificate
            assert [(s.dim, s.level, s.stage_ring.size) for s in cert.stages] \
                == [(4, "blocked", 4096), (2, "base", 8)]
            assert ideal.contains(ring.sub(x, cert.y))
            payload = json.loads(C.dumps_certificate(cert.to_payload()))
            ok, checks = C.verify_payload(payload)
            assert ok, (gen, x, [c for c in checks if not c["ok"]])


def _k0_witness(ring, ideal, x, y):
    """(p, a, b) for index(x) = [p] - [e11]: a = w*e11 and b = e11*w^-1 with
    w = v*diag(y^-1, y), v the lifted Whitehead word of connecting_delta."""
    qmap = R.quotient_by(ring, ideal)
    lifted = M.ElemWord(2, tuple(
        M.left_op(op.i, op.j, qmap.lift(op.r))
        for op in M.whitehead_ops(qmap.target, qmap.pi(x), 1, 2)))
    v = M.evaluate_word(ring, lifted)
    vinv = M.evaluate_word(ring, lifted.inverse(ring))
    yinv = ring.inverse(y)
    w = M.mat_mul(v, M.matrix(ring, [[yinv, ring.zero], [ring.zero, y]]))
    winv = M.mat_mul(M.matrix(ring, [[y, ring.zero], [ring.zero, yinv]]),
                     vinv)
    e11 = M.matrix(ring, [[ring.one, ring.zero], [ring.zero, ring.zero]])
    assert M.mat_mul(w, winv) == M.identity(ring, 2)
    assert congruent_mod(w, M.identity(ring, 2), ideal)
    return M.mat_mul(M.mat_mul(v, e11), vinv), M.mat_mul(w, e11), \
        M.mat_mul(e11, winv)


def test_every_fredholm_element_lifts(corpus_pairs_full):
    # every unit of R/I lifts, and each lift y yields the strict zero-test
    # witness for index(x) at padding 0: a*b = p, b*a = e11, a = p mod M_2(I)
    lifted = 0
    for name, ring, ideal, tags in corpus_pairs_full:
        for x in fredholm_elements(ring, ideal):
            cert = L.lift_unit(ring, ideal, x).certificate
            payload = json.loads(C.dumps_certificate(cert.to_payload()))
            ok, checks = C.verify_payload(payload)
            assert ok, (name, x, [c for c in checks if not c["ok"]])
            # y1 is a unit of R (GL_1), and the direct scan finds a lift too
            assert ring.inverse(cert.y1) is not None
            assert L.oracle_lift(ring, ideal, x) is not None
            assert ideal.contains(ring.sub(x, cert.y))
            ix = index(ring, ideal, x)
            p, a, b = _k0_witness(ring, ideal, x, cert.y)
            pos, neg = (functools.reduce(M.direct_sum, parts)
                        for parts in (ix.pos_parts, ix.neg_parts))
            assert p == pos
            assert M.mat_mul(a, b) == p and M.mat_mul(b, a) == neg
            assert congruent_mod(a, p, ideal), (name, x)
            assert k0_zero_test(ix), (name, x)
            assert strict_zero_padding(ix, stab=0) == 0, (name, x)
            lifted += 1
    assert lifted == 208


def test_lift_requires_separative_exchange_hypotheses():
    # the lift's hypothesis holds on every finite ring, so the status states
    # the theorem: no failing case exists to feed it, and no truncation
    # level enters the verdict
    z4, ideal = z4_pair()
    assert L.separative_exchange_status(z4, ideal) == {
        "exchange": True, "separative": True, "refinement": True,
        "decision_path": "theorem", "ok": True}


def test_elemword_parameters_stay_in_ideal(corpus_pairs):
    rng = random.Random(31)
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 16:
            continue
        for alpha in _pattern_matrices(ring, ideal, rng, 2, False):
            rr = L.reduce_row(ring, ideal, alpha)
            rc = L.reduce_col(ring, ideal, alpha)
            assert M.word_in_ideal(rr.word, ideal)
            assert M.word_in_ideal(rc.word, ideal)


# ---------------------------------------------------------------------------
# The hypothesis holds by theorem; the stage rings inherit it
# ---------------------------------------------------------------------------

def test_stage_rings_inherit_separative_exchange(corpus_pairs):
    # M_2(I) is a separative exchange ideal of M_2(R) when I is one of R
    checked = 0
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size ** 4 > 1296:
            continue
        assert L.separative_exchange_status(ring, ideal)["ok"], name
        sring, sideal = M.stage_ring(ring, ideal, 2)
        assert L.separative_exchange_status(sring, sideal)["ok"], name
        checked += 1
    assert checked == 20


def _search_order(ring):
    """[e] <= [g] on 1x1 idempotents by search: e is equivalent to some
    idempotent f with fg = gf = f (x in eRf, y in fRe, xy = e, yx = f)."""
    idems = ring.idempotents()
    mul = ring.mul

    def corner(e, f):
        return {mul(mul(e, r), f) for r in ring.elements()}

    equivalent = {(e, f): any(mul(x, y) == e and mul(y, x) == f
                              for x in corner(e, f) for y in corner(f, e))
                  for e in idems for f in idems}
    return {(e, g): any(equivalent[e, f] for f in idems
                        if mul(f, g) == f == mul(g, f))
            for e in idems for g in idems}


def test_rank_vector_order_is_the_v_monoid_order(corpus_rings):
    # join_idempotent orders the 1x1 idempotents of R and of R^op by R's
    # rank vectors.  On R that is the order of the truncated V-monoid; on
    # R^op, as on R, it is checked against a witness search
    for entry, ring in corpus_rings:
        rank = dict(V._wedderburn_data(ring)[1])
        idems = ring.idempotents()
        by_rank = {(e, g): all(a <= b for a, b in zip(rank[e], rank[g]))
                   for e in idems for g in idems}
        for K in (1, 2):
            vm = V.build_v_monoid(ring, K)
            le = vm.monoid.le_matrix()
            assert by_rank == {
                (e, g): le[vm.class_of[(1, e)]][vm.class_of[(1, g)]]
                for e in idems for g in idems}, (entry.name, K)
        for side in (ring, ring.op()):
            assert side.idempotents() == idems
            assert _search_order(side) == by_rank, side.describe()


def test_stage_class_keys_order_like_the_stage_ring(corpus_rings):
    # join_idempotent reads the classes of M_2(R) off R; that order is the
    # one of M_2(R)'s own rank vectors, on M_2(R) and on M_2(R)^op
    bases = {ring.spec: ring for _, ring in corpus_rings
             if ring.size ** 4 <= 1296}
    assert len(bases) == 7
    pairs = 0
    for base in bases.values():
        mring = R.build_ring(R.MatrixSpec(base.spec, 2))
        rank = dict(V._wedderburn_data(mring)[1])
        idems = mring.idempotents()
        keys = {e: L._class_key(mring, e) for e in idems}
        assert all(L._class_key(mring.op(), e) == keys[e] for e in idems)
        for e in idems:
            for g in idems:
                assert (all(a <= b for a, b in zip(rank[e], rank[g]))
                        == all(a <= b for a, b in zip(keys[e], keys[g]))), \
                    (mring.describe(), e, g)
                pairs += 1
    assert pairs == 18316


def test_class_key_batch_matches_per_idempotent_keys(scan_rings):
    # _class_key fills its memo for all idempotents by one batch over R
    count = 0
    for ring in scan_rings:
        home, base, k = R.morita_base(ring)
        home._cache.pop("class_keys", None)
        idems = ring.idempotents()
        L._class_key(ring, idems[-1])
        assert len(home._cache["class_keys"]) == len(idems)
        for g in idems:
            assert (L._class_key(ring, g)
                    == V.class_key(base, decode_matrix(base, k, g))), \
                (ring.describe(), g)
            count += 1
    assert count > 1000


def _matrix_degree(ring):
    spec = ring.spec
    if isinstance(spec, R.OppositeSpec):
        spec = spec.base
    return spec.k if isinstance(spec, R.MatrixSpec) else 1


def test_lift_calls_no_hypothesis_function(monkeypatch):
    # the hypothesis holds by theorem, so neither the base lift nor a
    # forced m=4 lift, with its blocked M_2(R) stage, decides it
    from exlift import exchange
    hypotheses = (exchange.is_exchange_ring, exchange.is_exchange_ideal,
                  L.separative_exchange_status, L.effective_truncation,
                  V.build_v_monoid, V.v_order_ideal, V.is_separative,
                  V.has_refinement_wrt, V.lemma13_check)
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            seen.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name, mod in list(sys.modules.items()):
        if name == "exlift" or name.startswith("exlift."):
            for attr, val in list(vars(mod).items()):
                if any(val is fn for fn in hypotheses):
                    monkeypatch.setattr(mod, attr, spy(val))
    z4, ideal = z4_pair()
    for start_m, levels in ((2, ["base"]), (4, ["blocked", "base"])):
        cert = L.lift_unit(z4, ideal, 3, start_m=start_m).certificate
        assert [s.level for s in cert.stages] == levels
    assert seen == []
    assert L.separative_exchange_status(z4, ideal)["ok"]
    assert "separative_exchange_status" in seen     # the spies are live


def test_forced_m4_lift_closes_no_ideal_of_a_stage_ring(monkeypatch):
    # the stage step's ideal tests over M_2(Z/8) (RgR, RhR, RpR, RqR) are
    # read off Z/8, in the lift and in the verifier; each side starts from
    # freshly built rings, so no memo an earlier test left answers for it
    seen = []
    real = R.ideal_closure

    def spy(ring, gens):
        seen.append((ring.describe(), _matrix_degree(ring)))
        return real(ring, gens)

    for name, mod in list(sys.modules.items()):
        if name == "exlift" or name.startswith("exlift."):
            for attr, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, attr, spy)
    monkeypatch.setattr(R, "_BUILD_CACHE", {})
    ring = z(8)
    ideal = R.ideal_closure(ring, [2])
    x = fredholm_elements(ring, ideal)[0]
    cert = L.lift_unit(ring, ideal, x, start_m=4).certificate
    assert [s.stage_ring.size for s in cert.stages] == [4096, 8]
    payload = json.loads(C.dumps_certificate(cert.to_payload()))
    monkeypatch.setattr(R, "_BUILD_CACHE", {})
    assert C.verify_payload(payload)[0]
    assert ("zmod(8)", 1) in seen        # the verifier rebuilds I
    assert all(k == 1 for _, k in seen), seen


def test_forced_m4_lift_forms_no_whole_table_of_a_stage_ring(monkeypatch):
    # a stage step and its verification read M_2(Z/8) through its per-row
    # factors only: its whole |M_2(Z/8)|^2 tables are never formed, and
    # units() never scans its carrier; each side starts from fresh rings
    formed, scanned = [], []
    table, units = R.FiniteRing._table, R.FiniteRing.units

    def spy_table(ring, name):
        formed.append((ring.describe(), name))
        return table(ring, name)

    def spy_units(ring):
        scanned.append(ring.describe())
        return units(ring)

    monkeypatch.setattr(R.FiniteRing, "_table", spy_table)
    monkeypatch.setattr(R.FiniteRing, "units", spy_units)
    stage = ("matrix(zmod(8),2)", "op(matrix(zmod(8),2))")
    for gen in (2, 1):
        monkeypatch.setattr(R, "_BUILD_CACHE", {})
        ring = z(8)
        ideal = R.ideal_closure(ring, [gen])
        payloads = []
        for x in fredholm_elements(ring, ideal):
            cert = L.lift_unit(ring, ideal, x, start_m=4).certificate
            assert [s.stage_ring.size for s in cert.stages] == [4096, 8]
            payloads.append(json.loads(C.dumps_certificate(cert.to_payload())))
        monkeypatch.setattr(R, "_BUILD_CACHE", {})
        assert all(C.verify_payload(p)[0] for p in payloads)
        assert ("zmod(8)", "mul") in formed       # the spies are live
        assert "zmod(8)" in scanned
        assert not [f for f in formed if f[0] in stage], formed
        assert not [s for s in scanned if s in stage], scanned


def test_forced_m4_stage_answers_row_questions_in_numpy(monkeypatch):
    # over M_2(Z/8) and its opposite, which keep no list mirrors, the lift
    # and the verifier read no list row (no mul_row, no add_row) and aR + bR
    # only through coset masks in the lift, and the verifier decides "g in
    # f1R+f2R" by a pair solve, building no span.  M_k(I) is built once per
    # (stage ring, I): the verify in the lift's process reuses it, a verify
    # from fresh rings builds it again
    rows, added, spanned, built = [], [], [], []
    mul_row, add_row = R.FiniteRing.mul_row, R.FiniteRing.add_row
    right_span, matrix_ideal = R.FiniteRing.right_span, M.matrix_ideal
    phase = ["lift"]

    def spy_mul_row(ring, a):
        rows.append(ring.describe())
        return mul_row(ring, a)

    def spy_add_row(ring, a):
        added.append(ring.describe())
        return add_row(ring, a)

    def spy_right_span(ring, a, b):
        spanned.append((phase[0], ring.describe()))
        return right_span(ring, a, b)

    def spy_matrix_ideal(block_ring, base_ring, k, ideal):
        built.append((phase[0], block_ring, ideal.members))
        return matrix_ideal(block_ring, base_ring, k, ideal)

    monkeypatch.setattr(R.FiniteRing, "mul_row", spy_mul_row)
    monkeypatch.setattr(R.FiniteRing, "add_row", spy_add_row)
    monkeypatch.setattr(R.FiniteRing, "right_span", spy_right_span)
    monkeypatch.setattr(M, "matrix_ideal", spy_matrix_ideal)
    stage = ("matrix(zmod(8),2)", "op(matrix(zmod(8),2))")
    for gen in (2, 1):
        monkeypatch.setattr(R, "_BUILD_CACHE", {})
        built.clear()
        phase[0] = "lift"
        ring = z(8)
        ideal = R.ideal_closure(ring, [gen])
        payloads = [json.loads(C.dumps_certificate(L.lift_unit(
            ring, ideal, x, start_m=4).certificate.to_payload()))
            for x in fredholm_elements(ring, ideal)]
        assert len(payloads) > 1
        phase[0] = "warm"
        assert all(C.verify_payload(p)[0] for p in payloads)
        monkeypatch.setattr(R, "_BUILD_CACHE", {})
        phase[0] = "verify"
        assert all(C.verify_payload(p)[0] for p in payloads)
        assert [(p, r.describe(), m) for p, r, m in built] == [
            ("lift", stage[0], ideal.members),
            ("verify", stage[0], ideal.members)], built
        assert built[0][1] is not built[1][1]     # a fresh M_2(Z/8)
    assert ("lift", stage[0]) in spanned and ("lift", stage[1]) in spanned
    assert "zmod(8)" in added and "zmod(8)" in rows   # the spies are live
    assert not [r for r in rows if r in stage], rows
    assert not [r for r in added if r in stage], added
    assert not [s for s in spanned if s[0] != "lift"], spanned
