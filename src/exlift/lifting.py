"""Certificate-producing reduction, diagonalization and unit lifting.

Every operation here follows a constructive proof step by step, records the
witnesses it finds, and asserts the target contracts exactly before
returning.  Searches that the theory guarantees to succeed scan in ascending
carrier index and raise SearchExhausted on a miss, which always signals a
bug, never a routine negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT, Guards
from .errors import (GuardExceeded, HypothesisFailed, NotFredholm,
                     PreconditionFailed, SearchExhausted)
from .exchange import is_exchange_ideal
from .ktheory import K0Element, ZeroTestResult, index, k0_zero_test
from .matrices import (ElemWord, RMatrix, apply_elem_word, block_matrix,
                       direct_sum, e_orbit_factor, identity, is_idempotent,
                       left_op, mat_mul, matrix, matrix_ideal, right_op,
                       sigma_inv_word_left, sigma_word_left, sigma_word_right,
                       try_inverse, unblock_matrix, word_in_ideal)
from .rings import (FiniteRing, Ideal, MatrixSpec, build_ring, ideal_closure,
                    quotient_by, solve_left, solve_pair_left,
                    solve_pair_right, solve_right)
from . import scans
from .vmonoid import build_v_monoid, is_separative, v_order_ideal


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------

def effective_truncation(ring: FiniteRing, guards: Guards = DEFAULT) -> int:
    """Largest K <= guards.truncation whose M_K enumeration fits the guards."""
    K = guards.truncation
    while K > 1 and ring.size ** (K * K) > guards.enumeration:
        K -= 1
    if ring.size ** (K * K) > guards.enumeration:
        raise GuardExceeded(
            f"even K=1 enumeration over {ring.describe()} exceeds guards")
    return K


def separative_exchange_status(ring: FiniteRing, ideal: Ideal,
                               guards: Guards = DEFAULT) -> dict:
    """Whether I is a separative exchange ideal, with the truncation level
    the separativity verdict was computed at.  Cached per (ring, ideal)."""
    K = effective_truncation(ring, guards)
    key = ("sep_exch", ideal.members, K)
    got = ring._cache.get(key)
    if got is None:
        exchange = is_exchange_ideal(ring, ideal)
        vm = build_v_monoid(ring, K, guards)
        s = v_order_ideal(vm, ideal)
        sep = is_separative(vm.monoid, s.member_set)
        got = {
            "exchange": exchange,
            "separative": sep.holds,
            "separativity_witness": sep.witness,
            "truncation": K,
            "ok": exchange and sep.holds,
        }
        ring._cache[key] = got
    return got


# ---------------------------------------------------------------------------
# Idempotent joining
# ---------------------------------------------------------------------------

def join_idempotent(ring: FiniteRing, ideal: Ideal, e1: int, e2: int,
                    guards: Guards = DEFAULT) -> int:
    """Least idempotent g in e1*R + e2*R with [e1],[e2] <= [g] in the
    truncated V(R) and RgR = Re1R + Re2R."""
    return _join(ring, ideal, e1, e2, "right", guards)


def _join(ring: FiniteRing, ideal: Ideal, e1: int, e2: int, side: str,
          guards: Guards) -> int:
    if ring.mul(e1, e1) != e1 or ring.mul(e2, e2) != e2:
        raise PreconditionFailed("join inputs must be idempotent")
    if not ideal.contains(e1):
        raise PreconditionFailed("first idempotent must lie in the ideal")
    if not is_exchange_ideal(ring, ideal):
        raise PreconditionFailed("ideal is not exchange")
    vm = build_v_monoid(ring, effective_truncation(ring, guards), guards)
    le = vm.monoid.le_matrix()
    c1 = vm.class_of[(1, e1)]
    c2 = vm.class_of[(1, e2)]
    if side == "right":
        span = np.unique(ring.npadd[ring.npmul[e1][:, None],
                                    ring.npmul[e2][None, :]])
    else:
        span = np.unique(ring.npadd[ring.npmul[:, e1][:, None],
                                    ring.npmul[:, e2][None, :]])
    target = ideal_closure(ring, [e1, e2]).members
    for g in span:
        g = int(g)
        if ring.mul(g, g) != g:
            continue
        cg = vm.class_of[(1, g)]
        if not (le[c1][cg] and le[c2][cg]):
            continue
        if ideal_closure(ring, [g]).members != target:
            continue
        return g
    raise SearchExhausted(
        f"no join idempotent for ({e1},{e2}) in {ring.describe()}")


# ---------------------------------------------------------------------------
# Row / column reduction (the two-pass procedure)
# ---------------------------------------------------------------------------

@dataclass
class ReductionResult:
    ring: FiniteRing
    ideal: Ideal
    side: str                 # "row" or "col"
    alpha: RMatrix
    word: ElemWord            # six ops in E_2(I)
    result: RMatrix
    h: int                    # row: c'R=(1-h)R, d'R=hR; col: the k idempotent
    trace: dict

    def to_payload(self) -> dict:
        from .certificates import reduction_payload
        return reduction_payload(self)


def _check_entries(ring: FiniteRing, ideal: Ideal, alpha: RMatrix) -> None:
    if alpha.n != 2:
        raise PreconditionFailed("reduction works on 2x2 matrices")
    if not ideal.contains(alpha[0, 1]) or not ideal.contains(alpha[1, 0]):
        raise PreconditionFailed("off-diagonal entries must lie in the ideal")


def _row_pass(ring: FiniteRing, ideal: Ideal, A: RMatrix, tag: str,
              trace: dict):
    """One unimodular-row pass: ops making the last row (e*c, (1-e)*d)."""
    c, d = A[1, 0], A[1, 1]
    got = scans.row_pass_witnesses(ring, c, d)
    if got is None:
        raise SearchExhausted("no exchange idempotent for the row pass")
    x, y, e, r, s = got
    op1 = right_op(2, 1, ring.neg(ring.mul(s, c)))
    op2 = right_op(1, 2, ring.neg(ring.mul(r, d)))
    A = apply_elem_word(A, ElemWord(2, (op1, op2)))
    trace[tag] = {"x": x, "y": y, "e": e, "r": r, "s": s}
    return [op1, op2], A, e, r, s


def reduce_row(ring: FiniteRing, ideal: Ideal, alpha: RMatrix,
               guards: Guards = DEFAULT) -> ReductionResult:
    """Right-multiply by a word in E_2(I) so the last row becomes (c', d')
    with c' in Rc, c'R = (1-h)R, d'R = hR and RhR = R."""
    _check_entries(ring, ideal, alpha)
    if try_inverse(alpha, guards) is None:
        raise PreconditionFailed("matrix is not invertible")
    one = ring.one
    trace: dict = {}
    c_orig, d_orig = alpha[1, 0], alpha[1, 1]

    ops, A, e, r, s = _row_pass(ring, ideal, alpha, "pass1", trace)

    # move w = e*c + (1-e)*d into position (2,2), then strip a full corner
    w = ring.add(A[1, 0], A[1, 1])
    got = scans.corner_witnesses_right(ring, e, w)
    if got is None:
        raise SearchExhausted("no exchange idempotent for the corner step")
    f, w1, w2 = got
    f1 = ring.mul(ring.mul(w, w1), e)
    f2 = ring.mul(ring.mul(w, w2), ring.sub(one, e))
    g = _join(ring, ideal, f1, f2, "right", guards)
    wprime = solve_right(ring, w, g)
    if wprime is None:
        raise SearchExhausted("join idempotent not in wR")
    # beta_1 = (1, r*c; 0, 1) with the original c of this reduction
    op3 = right_op(1, 2, ring.mul(r, c_orig))
    op4 = right_op(2, 1, ring.neg(ring.mul(ring.mul(wprime, e), c_orig)))
    A = apply_elem_word(A, ElemWord(2, (op3, op4)))
    trace["corner"] = {"w": w, "f": f, "w1": w1, "w2": w2,
                       "f1": f1, "f2": f2, "g": g, "wprime": wprime}

    ops2, A, e2, r2, s2 = _row_pass(ring, ideal, A, "pass2", trace)

    cP, dP = A[1, 0], A[1, 1]
    h = scans.complement_right(ring, cP, dP)
    if h is None:
        raise SearchExhausted("no complementary idempotent for the direct sum")
    word = ElemWord(2, tuple(ops + [op3, op4] + ops2))
    res = ReductionResult(ring, ideal, "row", alpha, word, A, h, trace)
    _assert_row_contracts(res, c_orig)
    return res


def _assert_row_contracts(res: ReductionResult, c_orig: int) -> None:
    ring, ideal = res.ring, res.ideal
    if not word_in_ideal(res.word, ideal):
        raise AssertionError("row reduction word leaves E_2(I)")
    if apply_elem_word(res.alpha, res.word) != res.result:
        raise AssertionError("row reduction word does not replay")
    cP, dP = res.result[1, 0], res.result[1, 1]
    h = res.h
    if ring.mul(h, h) != h or not ideal.contains(ring.sub(ring.one, h)):
        raise AssertionError("h fails its idempotent/ideal contract")
    if solve_left(ring, c_orig, cP) is None:
        raise AssertionError("c' is not a left multiple of c")
    if ring.right_multiples(cP) != ring.right_multiples(ring.sub(ring.one, h)):
        raise AssertionError("c'R != (1-h)R")
    if ring.right_multiples(dP) != ring.right_multiples(h):
        raise AssertionError("d'R != hR")
    if len(ideal_closure(ring, [h]).members) != ring.size:
        raise AssertionError("RhR != R")


def _col_pass(ring: FiniteRing, ideal: Ideal, A: RMatrix, tag: str,
              trace: dict):
    """One unimodular-column pass: ops making the last column (b*e; d*(1-e))."""
    b, d = A[0, 1], A[1, 1]
    got = scans.col_pass_witnesses(ring, b, d)
    if got is None:
        raise SearchExhausted("no exchange idempotent for the column pass")
    x, y, e, r, s = got
    op1 = left_op(1, 2, ring.neg(ring.mul(b, s)))
    op2 = left_op(2, 1, ring.neg(ring.mul(d, r)))
    A = apply_elem_word(A, ElemWord(2, (op1, op2)))
    trace[tag] = {"x": x, "y": y, "e": e, "r": r, "s": s}
    return [op1, op2], A, e, r, s


def reduce_col(ring: FiniteRing, ideal: Ideal, alpha: RMatrix,
               guards: Guards = DEFAULT) -> ReductionResult:
    """Left-multiply by a word in E_2(I) so the last column becomes (b''; d'')
    with b'' in bR, Rb'' = R(1-k), Rd'' = Rk and RkR = R."""
    _check_entries(ring, ideal, alpha)
    if try_inverse(alpha, guards) is None:
        raise PreconditionFailed("matrix is not invertible")
    one = ring.one
    trace: dict = {}
    b_orig = alpha[0, 1]

    ops, A, e, r, s = _col_pass(ring, ideal, alpha, "pass1", trace)

    w = ring.add(A[0, 1], A[1, 1])
    got = scans.corner_witnesses_left(ring, e, w)
    if got is None:
        raise SearchExhausted("no exchange idempotent for the corner step")
    f, w1, w2 = got
    f1 = ring.mul(e, ring.mul(w1, w))
    f2 = ring.mul(ring.sub(one, e), ring.mul(w2, w))
    g = _join(ring, ideal, f1, f2, "left", guards)
    wprime = solve_left(ring, w, g)
    if wprime is None:
        raise SearchExhausted("join idempotent not in Rw")
    op3 = left_op(2, 1, ring.mul(b_orig, r))
    op4 = left_op(1, 2, ring.neg(ring.mul(ring.mul(b_orig, e), wprime)))
    A = apply_elem_word(A, ElemWord(2, (op3, op4)))
    trace["corner"] = {"w": w, "f": f, "w1": w1, "w2": w2,
                       "f1": f1, "f2": f2, "g": g, "wprime": wprime}

    ops2, A, e2, r2, s2 = _col_pass(ring, ideal, A, "pass2", trace)

    bP, dP = A[0, 1], A[1, 1]
    k = scans.complement_left(ring, bP, dP)
    if k is None:
        raise SearchExhausted("no complementary idempotent for the direct sum")
    word = ElemWord(2, tuple(ops + [op3, op4] + ops2))
    res = ReductionResult(ring, ideal, "col", alpha, word, A, k, trace)
    _assert_col_contracts(res, b_orig)
    return res


def _assert_col_contracts(res: ReductionResult, b_orig: int) -> None:
    ring, ideal = res.ring, res.ideal
    if not word_in_ideal(res.word, ideal):
        raise AssertionError("column reduction word leaves E_2(I)")
    if apply_elem_word(res.alpha, res.word) != res.result:
        raise AssertionError("column reduction word does not replay")
    bP, dP = res.result[0, 1], res.result[1, 1]
    k = res.h
    if ring.mul(k, k) != k or not ideal.contains(ring.sub(ring.one, k)):
        raise AssertionError("k fails its idempotent/ideal contract")
    if solve_right(ring, b_orig, bP) is None:
        raise AssertionError("b'' is not a right multiple of b")
    if ring.left_multiples(bP) != ring.left_multiples(ring.sub(ring.one, k)):
        raise AssertionError("Rb'' != R(1-k)")
    if ring.left_multiples(dP) != ring.left_multiples(k):
        raise AssertionError("Rd'' != Rk")
    if len(ideal_closure(ring, [k]).members) != ring.size:
        raise AssertionError("RkR != R")


# ---------------------------------------------------------------------------
# Unit regularity
# ---------------------------------------------------------------------------

def unit_regular_witness(ring: FiniteRing, ideal: Ideal, d: int,
                         guards: Guards = DEFAULT) -> tuple:
    """(f, u, p, q) with d = f*u, f idempotent, u a unit; hypotheses of the
    underlying proposition (p, q exist with full two-sided span) are verified
    and PreconditionFailed names whichever fails."""
    if not ideal.contains(d):
        raise PreconditionFailed("element is not in the ideal")
    one = ring.one
    gen_r = scans.idempotent_generator_right(ring, d)
    if gen_r is None:
        raise PreconditionFailed("no idempotent 1-p with dR = (1-p)R")
    p = ring.sub(one, gen_r)
    gen_l = scans.idempotent_generator_left(ring, d)
    if gen_l is None:
        raise PreconditionFailed("no idempotent 1-q with Rd = R(1-q)")
    q = ring.sub(one, gen_l)
    if len(ideal_closure(ring, [p]).members) != ring.size:
        raise PreconditionFailed("RpR != R")
    if len(ideal_closure(ring, [q]).members) != ring.size:
        raise PreconditionFailed("RqR != R")
    status = separative_exchange_status(ring, ideal, guards)
    if not status["ok"]:
        raise PreconditionFailed(
            f"ideal is not separative exchange: {status}")
    got = scans.unit_regular_scan(ring, d)
    if got is None:
        raise SearchExhausted(f"no unit w with dwd = d for d={d}")
    f, u = got
    if ring.mul(f, f) != f or ring.mul(f, u) != d:
        raise SearchExhausted("unit-regular witness fails replay")
    return f, u, p, q


# ---------------------------------------------------------------------------
# 2x2 diagonalization
# ---------------------------------------------------------------------------

@dataclass
class DiagonalizationResult:
    ring: FiniteRing
    ideal: Ideal
    alpha: RMatrix
    gamma: ElemWord           # left word
    beta: ElemWord            # right word (before the 1+u^-1 factor)
    epsilon: ElemWord         # right word (after the 1+u^-1 factor)
    u: int
    a_prime: int
    row_reduction: ReductionResult
    col_reduction: ReductionResult
    trace: dict

    def to_payload(self) -> dict:
        from .certificates import diagonalization_payload
        return diagonalization_payload(self)


def diagonalize_2x2(ring: FiniteRing, ideal: Ideal, alpha: RMatrix,
                    guards: Guards = DEFAULT) -> DiagonalizationResult:
    """Find units a', u and words gamma, beta, epsilon with
    gamma*alpha*beta*(1+u^-1)*epsilon = a'+1 and pi(a') = pi(a*u^-1)."""
    _check_entries(ring, ideal, alpha)
    one = ring.one
    if not ideal.contains(ring.sub(alpha[1, 1], one)):
        raise PreconditionFailed("entry (2,2) must be 1 modulo the ideal")
    if try_inverse(alpha, guards) is None:
        raise PreconditionFailed("matrix is not invertible")
    status = separative_exchange_status(ring, ideal, guards)
    if not status["ok"]:
        raise PreconditionFailed(f"ideal is not separative exchange: {status}")

    a_orig = alpha[0, 0]
    rr = reduce_row(ring, ideal, alpha, guards)

    sigL = sigma_word_left(ring)
    sigR = sigma_word_right(ring)
    a1 = apply_elem_word(apply_elem_word(rr.result, ElemWord(2, tuple(sigR))),
                         ElemWord(2, tuple(sigL)))
    rc = reduce_col(ring, ideal, a1, guards)
    q = rc.h
    bP = rc.result[0, 1]

    f, u, p, _ = unit_regular_witness(ring, ideal, bP, guards)
    uinv = ring.inverse(u)

    a3 = apply_elem_word(rc.result, ElemWord(2, tuple(sigma_inv_word_left(ring))))
    lam = matrix(ring, [[one, ring.zero], [ring.zero, uinv]])
    a4 = mat_mul(a3, lam)
    if a4[1, 1] != f:
        raise AssertionError("b'*u^-1 did not land on the idempotent f")
    t = a4[1, 0]

    eps1 = right_op(2, 1, ring.neg(ring.mul(f, t)))
    a5 = apply_elem_word(a4, ElemWord(2, (eps1,)))
    lhs = a5[1, 0]                      # (1-f)*t
    if lhs != ring.mul(ring.sub(one, f), t):
        raise AssertionError("unexpected (2,1) entry after eps1")
    v = scans.pseudoinverse_scan(ring, lhs, ring.sub(one, f))
    if v is None:
        raise SearchExhausted("no v with (1-f)tv = 1-f")
    eps2 = right_op(1, 2, v)
    a6 = apply_elem_word(a5, ElemWord(2, (eps2,)))
    if a6[1, 1] != one:
        raise AssertionError("(2,2) entry is not 1 after eps2")
    z_prime = a6[0, 1]
    mu1 = left_op(1, 2, ring.neg(z_prime))
    mu2 = right_op(2, 1, ring.neg(lhs))
    a7 = apply_elem_word(a6, ElemWord(2, (mu1, mu2)))
    a_prime = a7[0, 0]
    if a7 != direct_sum(matrix(ring, [[a_prime]]), matrix(ring, [[one]])):
        raise AssertionError("final matrix is not a'+1")

    gamma = ElemWord(2, tuple(sigL) + rc.word.ops
                     + tuple(sigma_inv_word_left(ring)) + (mu1,))
    beta = ElemWord(2, rr.word.ops + tuple(sigR))
    epsilon = ElemWord(2, (eps1, eps2, mu2))

    if ring.inverse(a_prime) is None:
        raise AssertionError("a' is not a unit")
    qmap = quotient_by(ring, ideal, guards)
    if qmap.pi(a_prime) != qmap.pi(ring.mul(a_orig, uinv)):
        raise AssertionError("pi(a') != pi(a*u^-1)")
    replay = apply_elem_word(mat_mul(apply_elem_word(alpha, beta), lam), epsilon)
    replay = apply_elem_word(replay, gamma)
    if replay != a7:
        raise AssertionError("diagonalization words do not replay")

    trace = {"q": q, "p": p, "f": f, "v": v, "t": t, "z_prime": z_prime,
             "b_prime": bP}
    return DiagonalizationResult(ring, ideal, alpha, gamma, beta, epsilon,
                                 u, a_prime, rr, rc, trace)


# ---------------------------------------------------------------------------
# The lifting theorem
# ---------------------------------------------------------------------------

@dataclass
class LiftStage:
    dim: int                  # dimension of the stage input over the base ring
    level: str                # "base" or "blocked"
    stage_ring: FiniteRing
    stage_ideal: Ideal
    input_matrix: RMatrix     # over the base ring, dim x dim
    diag: DiagonalizationResult
    w_next: RMatrix           # (a'*u) at dimension dim/2 over the base ring


@dataclass
class LiftCertificate:
    ring: FiniteRing
    ideal: Ideal
    x: int
    y: int
    m: int                    # stabilization level used (2 or 4)
    k: int                    # GL_k level the representative came from
    y1: RMatrix               # the k x k invertible representative
    z_word: ElemWord          # lifted orbit word, left ops at dimension m
    w1: RMatrix               # eval(z_word) * (y1 + 1_{m-k})
    stages: list
    oracle_confirmed: bool

    def to_payload(self) -> dict:
        from .certificates import lift_payload
        return lift_payload(self)


@dataclass
class LiftResult:
    certificate: Optional[LiftCertificate]
    index_element: K0Element
    zero_test: ZeroTestResult

    def __bool__(self):
        return self.certificate is not None


def oracle_lift(ring: FiniteRing, ideal: Ideal, x: int) -> Optional[int]:
    """Least unit y with x - y in I, by direct scan."""
    for y in ring.units():
        if ideal.contains(ring.sub(x, y)):
            return y
    return None


def lift_unit(ring: FiniteRing, ideal: Ideal, x: int,
              guards: Guards = DEFAULT, start_m: int = 2) -> LiftResult:
    """Lift pi(x) to a unit of R when index(x) vanishes, with a replayable
    certificate; start_m forces the first attempted stabilization level."""
    qmap = quotient_by(ring, ideal, guards)
    S = qmap.target
    xbar = qmap.pi(x)
    if S.inverse(xbar) is None:
        raise NotFredholm(f"pi({x}) is not a unit of R/I")
    status = separative_exchange_status(ring, ideal, guards)
    if not status["ok"]:
        raise HypothesisFailed(f"ideal is not separative exchange: {status}")

    ix = index(ring, ideal, x, guards)
    zt = k0_zero_test(ix, guards.stabilization, guards)
    if not zt.strict:
        return LiftResult(None, ix, zt)

    attempt = None
    if start_m <= 2:
        attempt = _find_w1(ring, ideal, qmap, x, m=2, k=1, guards=guards)
    if attempt is None:
        attempt = _find_w1(ring, ideal, qmap, x, m=4, k=1, guards=guards)
    if attempt is None:
        attempt = _find_w1(ring, ideal, qmap, x, m=4, k=2, guards=guards)
    if attempt is None:
        raise GuardExceeded(
            "no GL_k representative found at m in {2, 4}; larger "
            "stabilizations are out of scope")
    y1, z_word, w1, m, k = attempt

    stages = []
    current = w1
    dim = m
    while dim > 1:
        if dim == 2:
            dg = diagonalize_2x2(ring, ideal, current, guards)
            w_next = matrix(ring, [[ring.mul(dg.a_prime, dg.u)]])
            stages.append(LiftStage(dim, "base", ring, ideal, current, dg,
                                    w_next))
            current = w_next
            dim = 1
        else:
            # view the 4x4 matrix as 2x2 over M_2(R)
            mring = build_ring(MatrixSpec(ring.spec, 2), guards)
            mideal = matrix_ideal(mring, ring, 2, ideal)
            blocked = block_matrix(current, mring, 2)
            dg = diagonalize_2x2(mring, mideal, blocked, guards)
            w_elem = mring.mul(dg.a_prime, dg.u)
            w_next = unblock_matrix(matrix(mring, [[w_elem]]), ring, 2)
            stages.append(LiftStage(dim, "blocked", mring, mideal, current,
                                    dg, w_next))
            current = w_next
            dim = 2
    y = current[0, 0]

    if ring.inverse(y) is None:
        raise AssertionError("lifted element is not a unit")
    if not ideal.contains(ring.sub(x, y)):
        raise AssertionError("lift does not agree with x modulo I")
    oracle = oracle_lift(ring, ideal, x)
    cert = LiftCertificate(ring, ideal, x, y, m, k, y1, z_word, w1, stages,
                           oracle is not None)
    return LiftResult(cert, ix, zt)


def _find_w1(ring: FiniteRing, ideal: Ideal, qmap, x: int, m: int, k: int,
             guards: Guards):
    """Search y1 in GL_k(R), ascending, whose image is E_m(R/I)-equivalent to
    pi(x) + 1_{m-1}; returns (y1, lifted word, w1, m, k)."""
    S = qmap.target
    target = direct_sum(matrix(S, [[qmap.pi(x)]]), identity(S, m - 1))
    try:
        candidates = _gl_candidates(ring, k, guards)
    except GuardExceeded:
        return None
    for y1 in candidates:
        y1bar = matrix(S, [[qmap.pi(v) for v in row] for row in y1.entries])
        base = direct_sum(y1bar, identity(S, m - k))
        try:
            wbar = e_orbit_factor(S, m, target, base, guards)
        except GuardExceeded:
            return None
        if wbar is None:
            continue
        z_word = ElemWord(m, tuple(left_op(op.i, op.j, qmap.lift(op.r))
                                   for op in wbar.ops))
        w1 = apply_elem_word(direct_sum(y1, identity(ring, m - k)), z_word)
        for i in range(m):
            for j in range(m):
                dv = ring.sub(w1[i, j], x if (i, j) == (0, 0)
                              else (ring.one if i == j else ring.zero))
                if not ideal.contains(dv):
                    raise AssertionError("w1 entry congruences fail")
        return y1, z_word, w1, m, k
    return None


def _gl_candidates(ring: FiniteRing, k: int, guards: Guards):
    if k == 1:
        for u in ring.units():
            yield matrix(ring, [[u]])
        return
    total = ring.size ** (k * k)
    if total > guards.enumeration:
        raise GuardExceeded(f"GL_{k} enumeration over {ring.describe()} "
                            f"exceeds guards")
    from .matrices import decode_matrix
    for code in range(total):
        A = decode_matrix(ring, k, code)
        if try_inverse(A, guards) is not None:
            yield A


def verify_certificate(cert, guards: Guards = DEFAULT):
    """Replay a certificate object or payload; returns (ok, report)."""
    from .certificates import verify_payload
    payload = cert.to_payload() if hasattr(cert, "to_payload") else cert
    return verify_payload(payload, guards)
