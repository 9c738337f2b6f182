"""Certificate-producing reduction, diagonalization and unit lifting.

Every operation here follows a constructive proof step by step, records the
witnesses it finds, and asserts the target contracts exactly before
returning.  Searches that the theory guarantees to succeed scan in ascending
carrier index and raise SearchExhausted on a miss, which always signals a
bug, never a routine negative.

The theorem's one hypothesis, I a separative exchange ideal of R, is checked
once, by ``lift_unit`` on (R, I).  The steps below run over rings that
inherit it and do not check it again: M_k(I) is a separative exchange ideal
of M_k(R) whenever I is one of R (Ara-Goodearl-O'Meara-Pardo 1998), and
exchange and separativity are left-right symmetric, so R^op inherits them
too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import DEFAULT, Guards
from .errors import (HypothesisFailed, NotFredholm, PreconditionFailed,
                     SearchExhausted)
from .exchange import is_exchange_ideal
from .matrices import (ElemWord, RMatrix, apply_elem_word, block_matrix,
                       decode_matrix, direct_sum, e_orbit_factor, identity,
                       left_op, mat_mul, matrix, right_op, sigma_inv_word_left,
                       sigma_word_left, sigma_word_right, stage_ring,
                       try_inverse, unblock_matrix, word_in_ideal)
from .rings import (FiniteRing, Ideal, MatrixSpec, OppositeSpec, build_ring,
                    ideal_closure, quotient_by, solve_right)
from . import scans
from .vmonoid import (build_v_monoid, class_key, is_separative,
                      v_order_ideal)


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------

def effective_truncation(ring: FiniteRing, guards: Guards = DEFAULT) -> int:
    """The truncation V(R) is built at: ``guards.truncation`` on every ring,
    since the closed-form build enumerates no matrices over R."""
    return guards.truncation


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

def _class_key(ring: FiniteRing, g: int) -> tuple:
    """The class key of the idempotent g, read off R: on M_k(R), the key of
    g's k x k entry matrix over R (Morita: V(M_k(R)) = V(R)); on any other
    ring R, that of g itself (k = 1).  R^op reads from R.  Memoized per
    ring, shared with its opposite."""
    home = ring.op() if isinstance(ring.spec, OppositeSpec) else ring
    memo = home._cache.setdefault("class_keys", {})
    got = memo.get(g)
    if got is None:
        if isinstance(home.spec, MatrixSpec):
            base, k = build_ring(home.spec.base), home.spec.k
        else:
            base, k = home, 1
        got = memo[g] = class_key(base, decode_matrix(base, k, g))
    return got


def join_idempotent(ring: FiniteRing, ideal: Ideal, e1: int, e2: int) -> int:
    """Least idempotent g in e1*R + e2*R with [e1],[e2] <= [g] in V(R) and
    RgR = Re1R + Re2R.

    V(R) = N^t by rank vector, and the class key (s_i^{r_i})_i of a rank
    vector r grows with each r_i, so [e] <= [g] iff e's key is
    componentwise <= g's (see ``vmonoid``).  On a stage ring M_k(R) the
    keys are read off R (``_class_key``), so no invariant of M_k(R) itself
    is computed.  Over R^op the keys come from R: eR <-> Re gives
    V(R) = V(R^op) with each idempotent in the same class."""
    if ring.mul(e1, e1) != e1 or ring.mul(e2, e2) != e2:
        raise PreconditionFailed("join inputs must be idempotent")
    if not ideal.contains(e1):
        raise PreconditionFailed("first idempotent must lie in the ideal")
    k1, k2 = _class_key(ring, e1), _class_key(ring, e2)
    target = ideal_closure(ring, [e1, e2]).members
    for g in ring.right_span(e1, e2):
        if ring.mul(g, g) != g:
            continue
        if not all(a <= c and b <= c
                   for a, b, c in zip(k1, k2, _class_key(ring, g))):
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


def _check_entries(ideal: Ideal, alpha: RMatrix) -> None:
    if alpha.n != 2:
        raise PreconditionFailed("reduction works on 2x2 matrices")
    if not ideal.contains(alpha[0, 1]) or not ideal.contains(alpha[1, 0]):
        raise PreconditionFailed("off-diagonal entries must lie in the ideal")


def _row_pass(ring: FiniteRing, A: RMatrix, tag: str, trace: dict):
    """One unimodular-row pass: ops making the last row (e*c, (1-e)*d).
    Returns the ops and the new matrix; the witnesses go to trace[tag]."""
    c, d = A[1, 0], A[1, 1]
    got = scans.row_pass_witnesses(ring, c, d)
    if got is None:
        raise SearchExhausted("no exchange idempotent for the row pass")
    x, y, e, r, s = got
    op1 = right_op(2, 1, ring.neg(ring.mul(s, c)))
    op2 = right_op(1, 2, ring.neg(ring.mul(r, d)))
    A = apply_elem_word(A, ElemWord(2, (op1, op2)))
    trace[tag] = {"x": x, "y": y, "e": e, "r": r, "s": s}
    return [op1, op2], A


def _require_invertible(alpha: RMatrix) -> None:
    if try_inverse(alpha) is None:
        raise PreconditionFailed("matrix is not invertible")


def reduce_row(ring: FiniteRing, ideal: Ideal,
               alpha: RMatrix) -> ReductionResult:
    """Right-multiply by a word in E_2(I) so the last row becomes (c', d')
    with c' in Rc, c'R = (1-h)R, d'R = hR and RhR = R."""
    _check_entries(ideal, alpha)
    _require_invertible(alpha)
    return _reduce_row(ring, ideal, alpha)


def _reduce_row(ring: FiniteRing, ideal: Ideal,
                alpha: RMatrix) -> ReductionResult:
    """reduce_row on an alpha already checked by the caller."""
    one = ring.one
    trace: dict = {}
    c_orig = alpha[1, 0]

    ops, A = _row_pass(ring, alpha, "pass1", trace)
    e, r = trace["pass1"]["e"], trace["pass1"]["r"]

    # move w = e*c + (1-e)*d into position (2,2), then strip a full corner
    w = ring.add(A[1, 0], A[1, 1])
    got = scans.corner_witnesses_right(ring, e, w)
    if got is None:
        raise SearchExhausted("no exchange idempotent for the corner step")
    f, w1, w2 = got
    f1 = ring.mul(ring.mul(w, w1), e)
    f2 = ring.mul(ring.mul(w, w2), ring.sub(one, e))
    g = join_idempotent(ring, ideal, f1, f2)
    wprime = solve_right(ring, w, g)
    if wprime is None:
        raise SearchExhausted("join idempotent not in wR")
    # beta_1 = (1, r*c; 0, 1) with the original c of this reduction
    op3 = right_op(1, 2, ring.mul(r, c_orig))
    op4 = right_op(2, 1, ring.neg(ring.mul(ring.mul(wprime, e), c_orig)))
    A = apply_elem_word(A, ElemWord(2, (op3, op4)))
    trace["corner"] = {"w": w, "f": f, "w1": w1, "w2": w2,
                       "f1": f1, "f2": f2, "g": g, "wprime": wprime}

    ops2, A = _row_pass(ring, A, "pass2", trace)

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
    if solve_right(ring.op(), c_orig, cP) is None:
        raise AssertionError("c' is not a left multiple of c")
    if ring.right_multiples(cP) != ring.right_multiples(ring.sub(ring.one, h)):
        raise AssertionError("c'R != (1-h)R")
    if ring.right_multiples(dP) != ring.right_multiples(h):
        raise AssertionError("d'R != hR")
    if len(ideal_closure(ring, [h]).members) != ring.size:
        raise AssertionError("RhR != R")


def reduce_col(ring: FiniteRing, ideal: Ideal,
               alpha: RMatrix) -> ReductionResult:
    """Left-multiply by a word in E_2(I) so the last column becomes (b''; d'')
    with b'' in bR, Rb'' = R(1-k), Rd'' = Rk and RkR = R.

    This is reduce_row on alpha^T over R^op, transposed back: the row
    procedure's right ops and contracts over R^op are the column
    procedure's left ops and contracts over R."""
    _check_entries(ideal, alpha)
    _require_invertible(alpha)
    return _reduce_col(ring, ideal, alpha)


def _reduce_col(ring: FiniteRing, ideal: Ideal,
                alpha: RMatrix) -> ReductionResult:
    """reduce_col on an alpha already checked by the caller."""
    rr = _reduce_row(ring.op(), ideal, alpha.op())
    return ReductionResult(ring, ideal, "col", alpha, rr.word.op(),
                           rr.result.op(), rr.h, rr.trace)


# ---------------------------------------------------------------------------
# Unit regularity
# ---------------------------------------------------------------------------

def unit_regular_witness(ring: FiniteRing, ideal: Ideal, d: int) -> tuple:
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
    gen_l = scans.idempotent_generator_right(ring.op(), d)
    if gen_l is None:
        raise PreconditionFailed("no idempotent 1-q with Rd = R(1-q)")
    q = ring.sub(one, gen_l)
    if len(ideal_closure(ring, [p]).members) != ring.size:
        raise PreconditionFailed("RpR != R")
    if len(ideal_closure(ring, [q]).members) != ring.size:
        raise PreconditionFailed("RqR != R")
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


def diagonalize_2x2(ring: FiniteRing, ideal: Ideal,
                    alpha: RMatrix) -> DiagonalizationResult:
    """Find units a', u and words gamma, beta, epsilon with
    gamma*alpha*beta*(1+u^-1)*epsilon = a'+1 and pi(a') = pi(a*u^-1)."""
    _check_entries(ideal, alpha)
    one = ring.one
    if not ideal.contains(ring.sub(alpha[1, 1], one)):
        raise PreconditionFailed("entry (2,2) must be 1 modulo the ideal")
    _require_invertible(alpha)

    a_orig = alpha[0, 0]
    rr = _reduce_row(ring, ideal, alpha)

    sigL = sigma_word_left(ring)
    sigR = sigma_word_right(ring)
    # a1 is alpha times elementary words, so invertible like alpha
    a1 = apply_elem_word(apply_elem_word(rr.result, ElemWord(2, tuple(sigR))),
                         ElemWord(2, tuple(sigL)))
    _check_entries(ideal, a1)
    rc = _reduce_col(ring, ideal, a1)
    q = rc.h
    bP = rc.result[0, 1]

    f, u, p, _ = unit_regular_witness(ring, ideal, bP)
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
    if not ideal.contains(ring.sub(a_prime, ring.mul(a_orig, uinv))):
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
    k: int                    # GL_k level of y1: always 1, a unit of R
    y1: RMatrix               # the k x k invertible representative
    z_word: ElemWord          # lifted orbit word, left ops at dimension m
    w1: RMatrix               # eval(z_word) * (y1 + 1_{m-k})
    stages: list
    oracle_confirmed: bool    # a unit lifts pi(x); always True

    def to_payload(self) -> dict:
        from .certificates import lift_payload
        return lift_payload(self)


@dataclass
class LiftResult:
    certificate: LiftCertificate


def oracle_lift(ring: FiniteRing, ideal: Ideal, x: int) -> Optional[int]:
    """Least unit y with x - y in I, by direct scan."""
    for y in ring.units():
        if ideal.contains(ring.sub(x, y)):
            return y
    return None


def lift_unit(ring: FiniteRing, ideal: Ideal, x: int,
              guards: Guards = DEFAULT, start_m: int = 2) -> LiftResult:
    """Lift pi(x) to a unit y of R, with a replayable certificate, through
    an m x m matrix with m = 2, or m = 4 when start_m > 2.

    Neither index(x) nor its zero test is computed: a finite ring has stable
    rank 1, so every unit of R/I lifts, and the certificate itself proves
    index(x) = 0, since y is a unit with x - y in I (the easy direction of
    the lifting theorem)."""
    qmap = quotient_by(ring, ideal, guards)
    S = qmap.target
    xbar = qmap.pi(x)
    if S.inverse(xbar) is None:
        raise NotFredholm(f"pi({x}) is not a unit of R/I")
    status = separative_exchange_status(ring, ideal, guards)
    if not status["ok"]:
        raise HypothesisFailed(f"ideal is not separative exchange: {status}")

    m = 2 if start_m <= 2 else 4
    attempt = _find_w1(ring, ideal, qmap, x, m)
    if attempt is None:
        # some unit y has pi(y) = pi(x), so the scan cannot miss
        raise SearchExhausted(f"no unit y1 of R with pi(y1) + 1_{m - 1} in "
                              f"E_{m}(R/I)(pi({x}) + 1_{m - 1})")
    y1, z_word, w1 = attempt

    # each stage halves the dimension: a 2k x 2k matrix over R is 2x2 over
    # M_k(R), diagonalized there to a'u + 1, whose corner a'u is k x k over R
    stages = []
    current = w1
    while current.n > 1:
        k = current.n // 2
        sring, sideal = stage_ring(ring, ideal, k, guards)
        dg = diagonalize_2x2(sring, sideal, block_matrix(current, sring, k))
        w_next = unblock_matrix(
            matrix(sring, [[sring.mul(dg.a_prime, dg.u)]]), ring, k)
        stages.append(LiftStage(current.n, "base" if k == 1 else "blocked",
                                sring, sideal, current, dg, w_next))
        current = w_next
    y = current[0, 0]

    if ring.inverse(y) is None:
        raise AssertionError("lifted element is not a unit")
    if not ideal.contains(ring.sub(x, y)):
        raise AssertionError("lift does not agree with x modulo I")
    # the two asserts above prove that a lift exists, so the flag is True
    cert = LiftCertificate(ring, ideal, x, y, m, 1, y1, z_word, w1, stages,
                           True)
    return LiftResult(cert)


def _find_w1(ring: FiniteRing, ideal: Ideal, qmap, x: int, m: int):
    """Search units y1 of R, ascending, whose image y1 + 1_{m-1} is
    E_m(R/I)-equivalent to pi(x) + 1_{m-1}; returns (y1 as a 1x1 matrix,
    lifted word, w1)."""
    S = qmap.target
    target = direct_sum(matrix(S, [[qmap.pi(x)]]), identity(S, m - 1))
    for u in ring.units():
        y1 = matrix(ring, [[u]])
        base = direct_sum(matrix(S, [[qmap.pi(u)]]), identity(S, m - 1))
        wbar = e_orbit_factor(S, m, target, base)
        if wbar is None:
            continue
        z_word = ElemWord(m, tuple(left_op(op.i, op.j, qmap.lift(op.r))
                                   for op in wbar.ops))
        w1 = apply_elem_word(direct_sum(y1, identity(ring, m - 1)), z_word)
        for i in range(m):
            for j in range(m):
                dv = ring.sub(w1[i, j], x if (i, j) == (0, 0)
                              else (ring.one if i == j else ring.zero))
                if not ideal.contains(dv):
                    raise AssertionError("w1 entry congruences fail")
        return y1, z_word, w1
    return None


def verify_certificate(cert, guards: Guards = DEFAULT):
    """Replay a certificate object or payload; returns (ok, report)."""
    from .certificates import verify_payload
    payload = cert.to_payload() if hasattr(cert, "to_payload") else cert
    return verify_payload(payload, guards)
