"""The contracts of the reductions, diagonalizations and lifts, checked
outside the lift.

``lifting`` does not assert these inside its construction, and the
certificate verifier checks only those a recorded witness or the claim can
break (``certificates._check_reduction`` and ``_check_diagonalization``).
The tests check all of them on every reduction and diagonalization a lift
makes (spies on ``lifting._reduce_row`` and ``lifting._diagonalize``).

A column reduction over R is the row reduction of alpha^T over R^op, so its
contracts are the row contracts there.  A row reduction of alpha with last
row (c, d) to (c', d') runs a row pass (two ops), a corner step (two ops)
and a second row pass (two ops); A1 and A2, the matrices after the first
pass and after the corner, are its word's first 2 and first 4 ops applied
to alpha.  The contracts, by the scan or solve that holds each:

- each row pass (``scans.row_pass_witnesses``) on the last row (c, d) of
  alpha or of A2: c*x + d*y = 1, e idempotent, e = c*r with r*e = r,
  1-e = d*s with s*(1-e) = s; after pass 1 the last row is
  (e*c, (1-e)*d);
- the corner (``scans.corner_witnesses_right``) on w = e*c + (1-e)*d:
  f idempotent, f = e*w*w1 with w1*f = w1, 1-f = (1-e)*w*w2 with
  w2*(1-f) = w2; w*w' = g (``rings.solve_right``);
- the reduced row (``scans.split``): h idempotent with 1-h in I,
  c' in Rc, c'R = (1-h)R, d'R = hR and RhR = R (read off R on a stage
  ring M_k(R), whose ideals are M_k(J));
- the word lies in E_2(I) and replays alpha to the result.

A diagonalization's contracts (``diagonalization_contract_failures``) are
those of its unit-regular step (``lifting.unit_regular_witness``) on the
column-reduced b', of its pseudo-inverse v (``scans.pseudoinverse_scan``)
and of its output.
"""

from exlift.errors import GuardExceeded
from exlift.ktheory import fredholm_elements
from exlift.lifting import lift_unit
from exlift.matrices import (ElemWord, apply_elem_word, direct_sum, identity,
                             mat_mul, matrix, whitehead_word, word_in_ideal)
from exlift.rings import (entry_ideal, quotient_by, same_right_ideal,
                          solve_right)

from table_oracles import congruent_mod


def row_pass_contracts(ring, tag: str, c: int, d: int, wit: dict) -> dict:
    """{name: holds} of the row pass tag's witnesses for the row (c, d)."""
    x, y, e, r, s = (wit[k] for k in ("x", "y", "e", "r", "s"))
    one = ring.one
    return {
        f"{tag} unimodular": ring.add(ring.mul(c, x), ring.mul(d, y)) == one,
        f"{tag} idempotent": ring.mul(e, e) == e,
        f"{tag} e = cr": ring.mul(c, r) == e and ring.mul(r, e) == r,
        f"{tag} 1-e = ds": ring.mul(d, s) == ring.sub(one, e)
        and ring.mul(s, ring.sub(one, e)) == s,
    }


def reduction_contract_failures(res) -> list:
    """The names of the contracts the ReductionResult res breaks."""
    return [name for name, ok in reduction_contracts(res).items() if not ok]


def reduction_contracts(res) -> dict:
    """{name: holds} of each contract of the ReductionResult res."""
    ring, alpha, word, result = res.ring, res.alpha, res.word, res.result
    if res.side == "col":
        ring, alpha, word, result = (ring.op(), alpha.op(), word.op(),
                                     result.op())
    ideal, h, one, trace = res.ideal, res.h, ring.one, res.trace
    A1, A2 = (apply_elem_word(alpha, ElemWord(2, word.ops[:n]))
              for n in (2, 4))
    c0, d0 = alpha[1, 0], alpha[1, 1]
    e = trace["pass1"]["e"]
    w, f, w1, w2, g, wp = (trace["corner"][k] for k in (
        "w", "f", "w1", "w2", "g", "wprime"))
    cP, dP = result[1, 0], result[1, 1]
    return {
        **row_pass_contracts(ring, "pass1", c0, d0, trace["pass1"]),
        "pass1 row shape": (A1[1, 0], A1[1, 1])
        == (ring.mul(e, c0), ring.mul(ring.sub(one, e), d0)),
        "f idempotent": ring.mul(f, f) == f,
        "f factorization": ring.mul(ring.mul(e, w), w1) == f
        and ring.mul(w1, f) == w1,
        "1-f factorization":
            ring.mul(ring.mul(ring.sub(one, e), w), w2) == ring.sub(one, f)
            and ring.mul(w2, ring.sub(one, f)) == w2,
        "w w' = g": ring.mul(w, wp) == g,
        **row_pass_contracts(ring, "pass2", A2[1, 0], A2[1, 1],
                             trace["pass2"]),
        "word in E_2(I)": word_in_ideal(word, ideal),
        "word replays": apply_elem_word(alpha, word) == result,
        "h idempotent": ring.mul(h, h) == h,
        "1-h in ideal": ideal.contains(ring.sub(one, h)),
        "c' in Rc": solve_right(ring.op(), c0, cP) is not None,
        "c'R = (1-h)R": same_right_ideal(ring, cP, ring.sub(one, h)),
        "d'R = hR": same_right_ideal(ring, dP, h),
        "RhR = R": entry_ideal(ring, [h]).is_full(),
    }


def diagonalization_contract_failures(dg) -> list:
    """The names of the contracts the DiagonalizationResult dg breaks."""
    return [name for name, ok in diagonalization_contracts(dg).items()
            if not ok]


def diagonalization_contracts(dg) -> dict:
    """{name: holds} of each contract of the DiagonalizationResult dg: the
    column reduction's input has its off-diagonal entries in I; the
    unit-regular step on b' gives an idempotent f in I and a unit u with
    b' = f*u, and an idempotent p with 1-p in I, (1-p)R = b'R and RpR = R;
    b'u^-1 lands on f at (2,2) of w(-1)*(column-reduced matrix)*
    diag(1, u^-1); v solves (1-f)tv = 1-f with v(1-f) = v;
    gamma*alpha*beta*(1+u^-1)*epsilon = a'+1 with a' a unit, and
    pi(a') = pi(a*u^-1)."""
    ring, ideal, one = dg.ring, dg.ideal, dg.ring.one
    f, p, v, t, bP = (dg.trace[k] for k in ("f", "p", "v", "t", "b_prime"))
    a1 = dg.col_reduction.alpha
    uinv = ring.inverse(dg.u)
    lam = matrix(ring, [[one, ring.zero], [ring.zero, uinv]])
    scaled = mat_mul(apply_elem_word(dg.col_reduction.result, ElemWord(
        2, whitehead_word(ring, ring.neg(one)))), lam)
    replay = apply_elem_word(apply_elem_word(
        mat_mul(apply_elem_word(dg.alpha, dg.beta), lam), dg.epsilon),
        dg.gamma)
    return {
        "a1 entries in I": ideal.contains(a1[0, 1])
        and ideal.contains(a1[1, 0]),
        "f idempotent in I": ring.mul(f, f) == f and ideal.contains(f),
        "b' = f u": uinv is not None and ring.mul(f, dg.u) == bP,
        "p idempotent": ring.mul(p, p) == p,
        "1-p in ideal": ideal.contains(ring.sub(one, p)),
        "(1-p)R = b'R": same_right_ideal(ring, ring.sub(one, p), bP),
        "RpR = R": entry_ideal(ring, [p]).is_full(),
        "f lands in (2,2)": scaled[1, 1] == f,
        "v solves (1-f)tv = 1-f":
            ring.mul(ring.mul(ring.sub(one, f), t), v) == ring.sub(one, f)
            and ring.mul(v, ring.sub(one, f)) == v,
        "diagonalization identity":
            replay == direct_sum(matrix(ring, [[dg.a_prime]]),
                                 identity(ring, 1)),
        "a' is a unit": ring.inverse(dg.a_prime) is not None,
        "pi(a') = pi(a u^-1)": ideal.contains(
            ring.sub(dg.a_prime, ring.mul(dg.alpha[0, 0], uinv))),
    }


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
