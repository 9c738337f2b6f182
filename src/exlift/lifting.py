"""Certificate-producing reduction, diagonalization and unit lifting.

Every operation here follows a constructive proof step by step and records
the witnesses it finds.  The lift searches for each witness, once per unit
pi(x) of R/I, since the construction is a function of (I, m, pi(x))
(``lift_unit``); the certificate verifier runs the same construction on a
certificate's recorded join idempotents (``_reduce_row``'s g;
``_diagonalize``'s g_row and g_col), which derives every other witness by
the same scans, and checks what those and the claim can change; the tests
hold the scans' contracts (``tests/reduction_contracts.py``) and each lift
to ``oracle_lift``.  So the construction re-checks nothing: "y is a unit"
and "x - y in I" are checks of the verifier, run on every ``--full`` corpus
lift by ``test_every_fredholm_element_lifts``.  The 2x2 step applies its
ops to its four entries itself, and the verifier's "diagonalization
identity" replays its words by ``apply_elem_word``, coded apart.  Searches
the theory guarantees to succeed scan in ascending carrier index and raise
SearchExhausted on a miss: a bug in a lift, a wrong record in a replay.

The theorem's one hypothesis, I a separative exchange ideal of R, holds on
every finite ring (``separative_exchange_status``), so nothing here checks
it.  The stage rings inherit it as well: M_k(I) is a separative exchange
ideal of M_k(R) whenever I is one of R (Ara-Goodearl-O'Meara-Pardo 1998),
and exchange and separativity are left-right symmetric, so R^op inherits
them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import DEFAULT, Guards
from .errors import NotFredholm, PreconditionFailed, SearchExhausted
from .exchange import is_exchange_ideal
from .matrices import (RIGHT, ElemWord, RMatrix, apply_elem_word,
                       block_matrix, direct_sum, e_orbit_factor, identity,
                       left_op, matrix, right_op, stage_ring, try_inverse,
                       unblock_matrix, w_group, whitehead_word)
from .rings import (FiniteRing, Ideal, digits, entry_ideal, morita_base,
                    quotient_by, solve_right)
from . import scans, vmonoid
from .vmonoid import _class_keys, _wedderburn_data

build_v_monoid = vmonoid.build_v_monoid   # uncalled; perfbench traces it


# ---------------------------------------------------------------------------
# The theorem's hypothesis
# ---------------------------------------------------------------------------

def effective_truncation(ring: FiniteRing, guards: Guards = DEFAULT) -> int:
    """The truncation V(R) is built at: ``guards.truncation`` on every ring,
    since the closed-form build enumerates no matrices over R."""
    return guards.truncation


def separative_exchange_status(ring: FiniteRing, ideal: Ideal,
                               guards: Guards = DEFAULT) -> dict:
    """Whether I is a separative exchange ideal of R, by theorem.

    I is an exchange ideal (``is_exchange_ideal``).  ``_wedderburn_data``
    reads V(R) = N^t off R/J(R), one copy of N per simple component, and
    raises on a ring where that reading fails.  N^t is cancellative and has
    refinement, so every order ideal of it, V(I) included, is separative,
    and V(R) has refinement with respect to it (Ara-Goodearl-O'Meara-Pardo
    1998).  No verdict depends on a truncation or on ``guards``."""
    _wedderburn_data(ring)
    exchange = is_exchange_ideal(ring, ideal)
    return {"exchange": exchange, "separative": True, "refinement": True,
            "decision_path": "theorem", "ok": exchange}


# ---------------------------------------------------------------------------
# Idempotent joining
# ---------------------------------------------------------------------------

def _class_key(ring: FiniteRing, g: int) -> tuple:
    """The class key of the idempotent g, read off R: on M_k(R), the key of
    g's k x k entry matrix over R (Morita: V(M_k(R)) = V(R)); on any other
    ring R, that of g itself (k = 1).  R^op reads from R.  Memoized per
    ring, shared with its opposite, and filled on first use for every
    idempotent: off ``_wedderburn_data`` on k = 1, else by a batch over R."""
    home, base, k = morita_base(ring)
    memo = home._cache.get("class_keys")
    if memo is None and k == 1:
        components, ones = _wedderburn_data(home)
        memo = home._cache["class_keys"] = {code: tuple(
            s ** x for (s, _), x in zip(components, r)) for code, r in ones}
    elif memo is None:
        idems = home.idempotents()
        ent = digits(idems, base.size, k * k).reshape(-1, k, k)
        memo = home._cache["class_keys"] = dict(
            zip(idems, _class_keys(base, ent)))
    return memo[g]


def join_idempotent(ring: FiniteRing, ideal: Ideal, e1: int, e2: int) -> int:
    """Least idempotent g in e1*R + e2*R with [e1],[e2] <= [g] in V(R) and
    RgR = Re1R + Re2R.

    V(R) = N^t by rank vector, and the class key (s_i^{r_i})_i of a rank
    vector r grows with each r_i, so [e] <= [g] iff e's key is
    componentwise <= g's (see ``vmonoid``).  On a stage ring M_k(R) the
    keys and the ideals RgR are read off R (``_class_key``,
    ``entry_ideal``: RgR = M_k(J) for J generated by g's entries), so
    no invariant of M_k(R) itself is computed.  Over R^op both come from
    R: eR <-> Re gives V(R) = V(R^op) with each idempotent in the same
    class, and R^op has R's two-sided ideals."""
    if ring.mul(e1, e1) != e1 or ring.mul(e2, e2) != e2:
        raise PreconditionFailed("join inputs must be idempotent")
    if not ideal.contains(e1):
        raise PreconditionFailed("first idempotent must lie in the ideal")
    k1, k2 = _class_key(ring, e1), _class_key(ring, e2)
    target = entry_ideal(ring, [e1, e2]).members
    span = frozenset(ring.right_span(e1, e2))
    for g in ring.idempotents():
        if g not in span:
            continue
        if not all(a <= c and b <= c
                   for a, b, c in zip(k1, k2, _class_key(ring, g))):
            continue
        if entry_ideal(ring, [g]).members != target:
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


def _check_entries(ideal: Ideal, alpha: RMatrix) -> None:
    if alpha.n != 2:
        raise PreconditionFailed("reduction works on 2x2 matrices")
    if not ideal.contains(alpha[0, 1]) or not ideal.contains(alpha[1, 0]):
        raise PreconditionFailed("off-diagonal entries must lie in the ideal")


def _row_pass(ring: FiniteRing, c: int, d: int, tag: str, trace: dict):
    """One unimodular-row pass on the last row (c, d): the two right ops
    making it (e*c, (1-e)*d).  The witnesses go to trace[tag]."""
    got = scans.row_pass_witnesses(ring, c, d)
    if got is None:
        raise SearchExhausted(f"no exchange idempotent for the {tag} row",
                              f"{tag} witnesses found")
    x, y, e, r, s = got
    trace[tag] = {"x": x, "y": y, "e": e, "r": r, "s": s}
    return (right_op(2, 1, ring.neg(ring.mul(s, c))),
            right_op(1, 2, ring.neg(ring.mul(r, d))))


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


def _reduce_row(ring: FiniteRing, ideal: Ideal, alpha: RMatrix,
                g: Optional[int] = None) -> ReductionResult:
    """reduce_row on an alpha already checked by the caller.  A given join
    idempotent g is used as is; without one, ``join_idempotent`` picks it.
    alpha's entries m = [a, b, c, d] take each right op (i, j, r) as
    column j += column i * r and form one RMatrix, the result."""
    one, add, mul, trace = ring.one, ring.add, ring.mul, {}
    m = list(alpha.entries[0] + alpha.entries[1])

    def apply(ops):
        for _, i, j, r in ops:
            m[j - 1] = add(m[j - 1], mul(m[i - 1], r))
            m[j + 1] = add(m[j + 1], mul(m[i + 1], r))
        return ops

    ops = apply(_row_pass(ring, m[2], m[3], "pass1", trace))
    e, r = trace["pass1"]["e"], trace["pass1"]["r"]

    # move w = e*c + (1-e)*d into position (2,2), then strip a full corner
    w = add(m[2], m[3])
    got = scans.corner_witnesses_right(ring, e, w)
    if got is None:
        raise SearchExhausted("no exchange idempotent for the corner step",
                              "corner witnesses found")
    f, w1, w2 = got
    f1 = mul(mul(w, w1), e)
    f2 = mul(mul(w, w2), ring.sub(one, e))
    if g is None:
        g = join_idempotent(ring, ideal, f1, f2)
    wprime = solve_right(ring, w, g)
    if wprime is None:
        raise SearchExhausted(f"join idempotent {g} not in wR",
                              "g idempotent in wR")
    # beta_1 = (1, r*c; 0, 1) with the original c = alpha[1, 0]
    ops += apply((right_op(1, 2, mul(r, alpha[1, 0])),
                  right_op(2, 1, ring.neg(mul(mul(wprime, e), alpha[1, 0])))))
    trace["corner"] = {"w": w, "f": f, "w1": w1, "w2": w2,
                       "f1": f1, "f2": f2, "g": g, "wprime": wprime}

    ops += apply(_row_pass(ring, m[2], m[3], "pass2", trace))

    got = scans.split(ring, m[2], m[3])    # R = c'R + d'R: h = 1 - e
    if got is None:
        raise SearchExhausted("no complementary idempotent for the direct sum",
                              "h found")
    h = ring.sub(one, got[0])
    return ReductionResult(ring, ideal, "row", alpha, ElemWord(2, ops),
                           RMatrix(ring, 2, (tuple(m[:2]), tuple(m[2:]))),
                           h, trace)


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


def _reduce_col(ring: FiniteRing, ideal: Ideal, alpha: RMatrix,
                g: Optional[int] = None) -> ReductionResult:
    """reduce_col on an alpha already checked by the caller, with
    ``_reduce_row``'s optional join idempotent."""
    rr = _reduce_row(ring.op(), ideal, alpha.op(), g)
    return ReductionResult(ring, ideal, "col", alpha, rr.word.op(),
                           rr.result.op(), rr.h, rr.trace)


# ---------------------------------------------------------------------------
# Unit regularity
# ---------------------------------------------------------------------------

def unit_regular_witness(ring: FiniteRing, ideal: Ideal, d: int) -> tuple:
    """(f, u, p) with d = f*u, f idempotent, u a unit, and p the idempotent
    of the underlying proposition's hypothesis: dR = (1-p)R with RpR = R.
    PreconditionFailed names whichever part of the hypothesis fails.

    The proposition also asks for q with Rd = R(1-q) and RqR = R, which
    p's hypothesis implies: d is then regular, so Rd = R(1-q) for an
    idempotent q, (1-q)R is isomorphic to dR = (1-p)R, and V(R) = N^t
    cancels, so RqR = RpR.  A failure here is the check
    "unit-regular step" of a certificate replay."""
    if not ideal.contains(d):
        raise PreconditionFailed("element is not in the ideal",
                                 "unit-regular step")
    gen = scans.idempotent_generator_right(ring, d)
    if gen is None:
        raise PreconditionFailed("no idempotent 1-p with dR = (1-p)R",
                                 "unit-regular step")
    p = ring.sub(ring.one, gen)
    if not entry_ideal(ring, [p]).is_full():
        raise PreconditionFailed("RpR != R", "unit-regular step")
    got = scans.unit_regular_scan(ring, d)
    if got is None:
        raise SearchExhausted(f"no unit w with dwd = d for d={d}",
                              "unit-regular step")
    f, u = got
    return f, u, p


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


def diagonalize_2x2(ring: FiniteRing, ideal: Ideal,
                    alpha: RMatrix) -> DiagonalizationResult:
    """Find units a', u and words gamma, beta, epsilon with
    gamma*alpha*beta*(1+u^-1)*epsilon = a'+1 and pi(a') = pi(a*u^-1)."""
    _check_entries(ideal, alpha)
    if not ideal.contains(ring.sub(alpha[1, 1], ring.one)):
        raise PreconditionFailed("entry (2,2) must be 1 modulo the ideal")
    _require_invertible(alpha)
    return _diagonalize(ring, ideal, alpha)


def _diagonalize(ring: FiniteRing, ideal: Ideal, alpha: RMatrix, g_row=None,
                 g_col=None) -> DiagonalizationResult:
    """diagonalize_2x2 on an alpha already checked by the caller.  A given
    join idempotent (g_row, g_col) is used as is, a missing one searched
    for; everything else, f, u and p of the unit-regular step and v
    included, is derived by the same scans whoever picked g.  Its fixed
    words are built once per ring, kept in ``ring._cache``.  Between the
    reductions it works on four entries (the signed swaps and diag(1, u^-1)
    in closed form, eps1, eps2, mu1 and mu2 as two scalar updates each);
    only a1, the column reduction's input, becomes an RMatrix."""
    one, add, mul, neg = ring.one, ring.add, ring.mul, ring.neg
    # the signed swaps w(1), as left and as right ops, and w(-1) = w(1)^-1
    if "signed_swaps" not in ring._cache:
        ring._cache["signed_swaps"] = (
            ElemWord(2, whitehead_word(ring, one)),
            ElemWord(2, whitehead_word(ring, one, side=RIGHT)),
            ElemWord(2, whitehead_word(ring, ring.neg(one))))
    sigL, sigR, sig_inv = ring._cache["signed_swaps"]
    rr = _reduce_row(ring, ideal, alpha, g_row)
    (a, b), (c, d) = rr.result.entries     # w(1) (a b; c d) w(1) = a1
    a1 = RMatrix(ring, 2, ((neg(d), c), (b, neg(a))))
    rc = _reduce_col(ring, ideal, a1, g_col)
    (a, bP), (c, d) = rc.result.entries

    f, u, p = unit_regular_witness(ring, ideal, bP)
    uinv = ring.inverse(u)
    # w(-1) (a b'; c d) diag(1, u^-1) = (-c -du^-1; t b'u^-1), b'u^-1 = f
    a, b, t, d = neg(c), mul(neg(d), uinv), a, mul(bP, uinv)
    eps1 = right_op(2, 1, neg(mul(f, t)))
    lhs = mul(ring.sub(one, f), t)
    v = scans.pseudoinverse_scan(ring, lhs, ring.sub(one, f))
    if v is None:
        raise SearchExhausted("no v with (1-f)tv = 1-f", "v found")
    eps2 = right_op(1, 2, v)
    a, c = add(a, mul(b, eps1.r)), add(t, mul(d, eps1.r))
    z_prime, d = add(b, mul(a, v)), add(d, mul(c, v))
    mu1, mu2 = left_op(1, 2, neg(z_prime)), right_op(2, 1, neg(lhs))
    a_prime = add(add(a, mul(mu1.r, c)),
                  mul(add(z_prime, mul(mu1.r, d)), mu2.r))
    gamma = ElemWord(2, sigL.ops + rc.word.ops + sig_inv.ops + (mu1,))
    beta = ElemWord(2, rr.word.ops + sigR.ops)
    epsilon = ElemWord(2, (eps1, eps2, mu2))

    trace = {"q": rc.h, "p": p, "f": f, "v": v, "t": t, "z_prime": z_prime,
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
    y1: int                   # a unit of R
    z_word: ElemWord          # lifted orbit word, left ops at dimension m
    stages: list              # the first takes w1 = z_word * (y1 + 1_{m-1})

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
    the lifting theorem).  The theorem's hypothesis holds on every finite
    ring (``separative_exchange_status``), so it is not checked here.  It
    is a function of (I, m, pi(x)), kept in ``ring._cache`` by I's members
    and generators (stage ideals are the caller's), the guards (a tighter
    one still raises), m and pi(x); the certificates of one coset share
    their stages, which nothing changes."""
    qmap = quotient_by(ring, ideal, guards)
    S = qmap.target
    xbar = qmap.pi(x)
    if S.inverse(xbar) is None:
        raise NotFredholm(f"pi({x}) is not a unit of R/I")

    m = 2 if start_m <= 2 else 4
    key = ("lift", ideal.members, ideal.generators, guards, m, xbar)
    got = ring._cache.get(key)
    if got is None:
        got = ring._cache[key] = _build_lift(ring, ideal, qmap, x, m, guards)
    y, y1, z_word, stages = got
    return LiftResult(LiftCertificate(ring, ideal, x, y, m, y1, z_word,
                                      list(stages)))


def _build_lift(ring: FiniteRing, ideal: Ideal, qmap, x, m, guards):
    """(y, y1, z_word, stages) of the lift of pi(x) at level m."""
    attempt = _find_w1(ring, qmap, x, m)
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
    return current[0, 0], y1, z_word, tuple(stages)


def _find_w1(ring: FiniteRing, qmap, x: int, m: int):
    """The least unit y1 of R whose image y1 + 1_{m-1} is E_m(R/I)-equivalent
    to pi(x) + 1_{m-1}; returns (y1, lifted word, w1).  Both are diagonal with
    a unit corner, so by Vaserstein's injective stability (see ``matrices``)
    they are iff pi(x) pi(y1)^-1 is 1 or a key of ``w_group``, W(R/I); then
    ``e_orbit_factor``, asked once, pushes no op on them: its word is W's."""
    S, xbar = qmap.target, qmap.pi(x)

    def plus_one(R, a):                 # a + 1_{m-1} over R
        return direct_sum(matrix(R, [[a]]), identity(R, m - 1))

    for u in ring.units():
        ubar = qmap.pi(u)
        if ubar == xbar or S.mul(xbar, S.inverse(ubar)) in w_group(S):
            wbar = e_orbit_factor(S, m, plus_one(S, xbar), plus_one(S, ubar))
            z_word = ElemWord(m, tuple(left_op(op.i, op.j, qmap.lift(op.r))
                                       for op in wbar.ops))
            return u, z_word, apply_elem_word(plus_one(ring, u), z_word)
    return None
