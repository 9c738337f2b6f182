import json
import random

import pytest

from exlift import certificates as C, lifting as L, matrices as M, rings as R
from exlift.errors import (HypothesisFailed, NotFredholm, PreconditionFailed)
from exlift.ktheory import fredholm_elements, index, k0_zero_test


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
            # constructors assert the lemma contracts; spot-check replay here
            assert M.apply_elem_word(alpha, rr.word) == rr.result
            assert M.apply_elem_word(alpha, rc.word) == rc.result


def test_unit_regular_witness_examples():
    pr = R.build_ring(R.ProductSpec(R.ZmodSpec(2), R.MatrixSpec(R.ZmodSpec(2), 2)))
    ipr = R.ideal_closure(pr, [R.element_from_descriptor(pr, [0, [[1, 0], [0, 1]]])])
    d0 = R.element_from_descriptor(pr, [0, [[0, 0], [0, 0]]])
    f, u, p, q = L.unit_regular_witness(pr, ipr, d0)
    assert f == d0 and pr.mul(f, u) == d0
    d = R.element_from_descriptor(pr, [0, [[1, 0], [0, 0]]])
    f, u, p, q = L.unit_regular_witness(pr, ipr, d)
    assert pr.mul(f, f) == f and pr.mul(f, u) == d
    assert u in pr.units()


def test_unit_regular_refuses_when_span_not_full():
    # R = Z/2 x Z/2, I = R, d = (1,0): p = (0,1) but RpR != R
    p22 = R.build_ring(R.ProductSpec(R.ZmodSpec(2), R.ZmodSpec(2)))
    d = R.element_from_descriptor(p22, [1, 0])
    with pytest.raises(PreconditionFailed) as exc:
        L.unit_regular_witness(p22, R.full_ideal(p22), d)
    assert "RpR" in str(exc.value) or "RqR" in str(exc.value)


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
        assert (cert.m, cert.k, cert.y) == (4, 1, x)
        payload = json.loads(C.dumps_certificate(cert.to_payload()))
        ok, checks = C.verify_payload(payload)
        assert ok, [c for c in checks if not c["ok"]]


def test_every_fredholm_element_lifts(corpus_pairs):
    lifted = 0
    for name, ring, ideal, tags in corpus_pairs:
        for x in fredholm_elements(ring, ideal):
            cert = L.lift_unit(ring, ideal, x).certificate
            payload = json.loads(C.dumps_certificate(cert.to_payload()))
            ok, checks = C.verify_payload(payload)
            assert ok, (name, x, [c for c in checks if not c["ok"]])
            assert cert.oracle_confirmed
            assert ideal.contains(ring.sub(x, cert.y))
            lifted += 1
    assert lifted == 192


def test_lift_requires_separative_exchange_hypotheses():
    # zmod(4) with the zero ideal is fine; fabricate a failing case via a
    # non-exchange "ideal" is impossible over finite rings, so check the
    # gate wiring by confirming status reporting instead
    z4, ideal = z4_pair()
    status = L.separative_exchange_status(z4, ideal)
    assert status["ok"] and status["truncation"] >= 1


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
