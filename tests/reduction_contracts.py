"""The contracts of the reductions, diagonalizations and lifts, checked
outside the lift.

``lifting`` does not assert these inside its construction; the certificate
verifier checks them on every certificate, and the tests check them on
every reduction and diagonalization a lift makes (spies on
``lifting._reduce_row`` and ``lifting._diagonalize``).

A column reduction over R is the row reduction of alpha^T over R^op, so its
contracts are the row contracts there.  For a row reduction of alpha with
last row (c, d) to (c', d'): the word lies in E_2(I) and replays,
h is an idempotent with 1-h in I, c' in Rc, c'R = (1-h)R, d'R = hR and
RhR = R (read off R on a stage ring M_k(R), whose ideals are M_k(J)).
"""

from exlift.errors import GuardExceeded
from exlift.ktheory import fredholm_elements
from exlift.lifting import lift_unit
from exlift.matrices import (apply_elem_word, direct_sum, identity, mat_mul,
                             matrix, word_in_ideal)
from exlift.rings import (entry_ideal, quotient_by, same_right_ideal,
                          solve_right)

from table_oracles import congruent_mod


def reduction_contract_failures(res) -> list:
    """The names of the contracts the ReductionResult res breaks."""
    ring, alpha, word, result = res.ring, res.alpha, res.word, res.result
    if res.side == "col":
        ring, alpha, word, result = (ring.op(), alpha.op(), word.op(),
                                     result.op())
    ideal, h, one = res.ideal, res.h, ring.one
    cP, dP = result[1, 0], result[1, 1]
    checks = {
        "word in E_2(I)": word_in_ideal(word, ideal),
        "word replays": apply_elem_word(alpha, word) == result,
        "h idempotent": ring.mul(h, h) == h,
        "1-h in ideal": ideal.contains(ring.sub(one, h)),
        "c' in Rc": solve_right(ring.op(), alpha[1, 0], cP) is not None,
        "c'R = (1-h)R": same_right_ideal(ring, cP, ring.sub(one, h)),
        "d'R = hR": same_right_ideal(ring, dP, h),
        "RhR = R": entry_ideal(ring, [h]).is_full(),
    }
    return [name for name, ok in checks.items() if not ok]


def diagonalization_contract_failures(dg) -> list:
    """The names of the contracts the DiagonalizationResult dg breaks: the
    column reduction's input has its off-diagonal entries in I, the
    unit-regular step replays (f idempotent, b' = f*u with u a unit),
    b'u^-1 lands on f, gamma*alpha*beta*(1+u^-1)*epsilon = a'+1 with a' a
    unit, and pi(a') = pi(a*u^-1)."""
    ring, ideal, one = dg.ring, dg.ideal, dg.ring.one
    f, bP, a1 = dg.trace["f"], dg.trace["b_prime"], dg.col_reduction.alpha
    uinv = ring.inverse(dg.u)
    lam = matrix(ring, [[one, ring.zero], [ring.zero, uinv]])
    replay = apply_elem_word(apply_elem_word(
        mat_mul(apply_elem_word(dg.alpha, dg.beta), lam), dg.epsilon),
        dg.gamma)
    checks = {
        "a1 entries in I": ideal.contains(a1[0, 1])
        and ideal.contains(a1[1, 0]),
        "unit-regular replay": ring.mul(f, f) == f
        and ring.mul(f, dg.u) == bP,
        "f lands in (2,2)": dg.scaled[1, 1] == f,
        "diagonalization identity":
            replay == direct_sum(matrix(ring, [[dg.a_prime]]),
                                 identity(ring, 1)),
        "a' is a unit": ring.inverse(dg.a_prime) is not None,
        "pi(a') = pi(a u^-1)": ideal.contains(
            ring.sub(dg.a_prime, ring.mul(dg.alpha[0, 0], uinv))),
    }
    return [name for name, ok in checks.items() if not ok]


def w1_congruent(cert) -> bool:
    """The first stage's input w1 is congruent to x + 1_{m-1} modulo I."""
    ring, m = cert.ring, cert.m
    target = direct_sum(matrix(ring, [[cert.x]]), identity(ring, m - 1))
    return congruent_mod(cert.stages[0].input_matrix, target, cert.ideal)


def corpus_lifts(corpus_pairs):
    """(name, x, m, certificate) of every lift the contracts are checked
    on: each Fredholm element of each pair at m = 2, and the first at
    m = 4 on the pairs with |R/I| <= 2, whose stage 0 runs over M_2(R)
    (skipped where M_2(R) exceeds the table guard)."""
    for name, ring, ideal, tags in corpus_pairs:
        fl = fredholm_elements(ring, ideal)
        for x in fl:
            yield name, x, 2, lift_unit(ring, ideal, x).certificate
        if quotient_by(ring, ideal).target.size <= 2:
            try:
                cert = lift_unit(ring, ideal, fl[0], start_m=4).certificate
            except GuardExceeded:
                continue
            yield name, fl[0], 4, cert
