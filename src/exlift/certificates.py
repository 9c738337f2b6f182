"""Versioned certificate files and their replay verifier.

A certificate is a complete transcript: ring recipe, ideal generators, the
elementary words, and every witness the construction found.  Verification
rebuilds the ring, replays each word, recomputes each derived quantity from
the recorded witnesses, and compares against the stored values.  It imports
nothing beyond the ring core and the matrix layer, so a verifier needs no
access to the searches that produced the certificate.

Witness checks that require V-monoid machinery (the order conditions on join
idempotents) are construction-time checks covered by the property suite; the
file-level verifier checks the span and two-sided ideal contracts instead.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .config import DEFAULT, Guards
from .errors import InvalidSpec
from .matrices import (ElemWord, RMatrix, apply_elem_word, direct_sum,
                       identity, map_entries, mat_mul, matrix, matrix_ideal,
                       block_matrix, left_op, right_op, sigma_inv_word_left,
                       sigma_word_left, sigma_word_right, try_inverse,
                       unblock_matrix, word_in_ideal)
from .rings import (FiniteRing, Ideal, MatrixSpec, build_ring,
                    element_descriptor, element_from_descriptor,
                    ideal_closure, parse_ring_spec, quotient_by,
                    ring_spec_obj, solve_left, solve_right)
from . import scans

FORMAT = "exlift-cert"
VERSION = 1


# ---------------------------------------------------------------------------
# Digests and envelopes
# ---------------------------------------------------------------------------

def ring_digest(ring: FiniteRing) -> str:
    h = hashlib.sha256()
    h.update(str((ring.size, ring.zero, ring.one)).encode())
    h.update(ring.npadd.astype("int64").tobytes())
    h.update(ring.npmul.astype("int64").tobytes())
    h.update(ring.npneg.astype("int64").tobytes())
    return h.hexdigest()[:16]


def ideal_digest(ideal: Ideal) -> str:
    h = hashlib.sha256()
    h.update(str(ideal.sorted_members).encode())
    return h.hexdigest()[:16]


def _mat_desc(A: RMatrix) -> list:
    return [[element_descriptor(A.ring, x) for x in row] for row in A.entries]


def _mat_from_desc(ring: FiniteRing, desc, n: Optional[int] = None) -> RMatrix:
    if not isinstance(desc, list) or not desc:
        raise InvalidSpec("matrix payload must be a nonempty list of rows")
    rows = [[element_from_descriptor(ring, v) for v in row] for row in desc]
    m = RMatrix(ring, len(rows), tuple(tuple(r) for r in rows))
    if n is not None and m.n != n:
        raise InvalidSpec(f"expected a {n}x{n} matrix")
    return m


def _word_desc(ring: FiniteRing, w: ElemWord) -> list:
    return [{"side": op.side, "i": op.i, "j": op.j,
             "r": element_descriptor(ring, op.r)} for op in w.ops]


def _word_from_desc(ring: FiniteRing, n: int, desc) -> ElemWord:
    if not isinstance(desc, list):
        raise InvalidSpec("word payload must be a list of ops")
    ops = []
    for rec in desc:
        if not isinstance(rec, dict) or set(rec) != {"side", "i", "j", "r"}:
            raise InvalidSpec("malformed op record")
        if rec["side"] not in ("left", "right"):
            raise InvalidSpec(f"unknown op side {rec['side']!r}")
        if rec["i"] == rec["j"] or not all(
                isinstance(rec[key], int) and 1 <= rec[key] <= n
                for key in ("i", "j")):
            raise InvalidSpec("op indices out of range")
        ops.append(
            (left_op if rec["side"] == "left" else right_op)(
                rec["i"], rec["j"], element_from_descriptor(ring, rec["r"])))
    return ElemWord(n, tuple(ops))


def _envelope(ring: FiniteRing, ideal: Ideal, kind: str) -> dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "ring": ring_spec_obj(ring.spec),
        "ring_digest": ring_digest(ring),
        "ideal_generators": [element_descriptor(ring, g)
                             for g in ideal.generators],
        "ideal_digest": ideal_digest(ideal),
    }


# ---------------------------------------------------------------------------
# Payload builders (invoked via the result objects' to_payload methods)
# ---------------------------------------------------------------------------

def _reduction_content(res) -> dict:
    ring = res.ring
    ed = lambda v: element_descriptor(ring, v)
    t = res.trace
    return {
        "side": res.side,
        "alpha": _mat_desc(res.alpha),
        "word": _word_desc(ring, res.word),
        "result": _mat_desc(res.result),
        "h": ed(res.h),
        "trace": {
            "pass1": {k: ed(v) for k, v in t["pass1"].items()},
            "corner": {k: ed(v) for k, v in t["corner"].items()},
            "pass2": {k: ed(v) for k, v in t["pass2"].items()},
        },
    }


def reduction_payload(res) -> dict:
    payload = _envelope(res.ring, res.ideal, "reduction")
    payload.update(_reduction_content(res))
    return payload


def _diagonalization_content(res) -> dict:
    ring = res.ring
    ed = lambda v: element_descriptor(ring, v)
    return {
        "alpha": _mat_desc(res.alpha),
        "gamma": _word_desc(ring, res.gamma),
        "beta": _word_desc(ring, res.beta),
        "epsilon": _word_desc(ring, res.epsilon),
        "u": ed(res.u),
        "a_prime": ed(res.a_prime),
        "row_reduction": _reduction_content(res.row_reduction),
        "col_reduction": _reduction_content(res.col_reduction),
        "trace": {k: ed(v) for k, v in res.trace.items()},
    }


def diagonalization_payload(res) -> dict:
    payload = _envelope(res.ring, res.ideal, "diagonalization")
    payload.update(_diagonalization_content(res))
    return payload


def lift_payload(cert) -> dict:
    ring = cert.ring
    payload = _envelope(ring, cert.ideal, "lift")
    payload.update({
        "x": element_descriptor(ring, cert.x),
        "y": element_descriptor(ring, cert.y),
        "m": cert.m,
        "k": cert.k,
        "y1": _mat_desc(cert.y1),
        "z_word": _word_desc(ring, cert.z_word),
        "w1": _mat_desc(cert.w1),
        "stages": [{
            "dim": st.dim,
            "level": st.level,
            "input": _mat_desc(st.input_matrix),
            "w_next": _mat_desc(st.w_next),
            "diag": _diagonalization_content(st.diag),
        } for st in cert.stages],
        "oracle_confirmed": cert.oracle_confirmed,
    })
    return payload


def save_certificate(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_certificate(payload))


def dumps_certificate(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def load_certificate(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"certificate is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise InvalidSpec("certificate must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

class _Report:
    def __init__(self):
        self.checks = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def first_failure(self) -> Optional[dict]:
        for c in self.checks:
            if not c["ok"]:
                return c
        return None


def verify_payload(payload: dict, guards: Guards = DEFAULT):
    """Replays a certificate payload; returns (ok, list of check records).

    Never raises on malformed input: every defect becomes a failed check.
    """
    rep = _Report()
    try:
        _verify(payload, rep, guards)
    except Exception as exc:  # malformed payloads land here, not in tracebacks
        rep.add("well-formed", False, f"{type(exc).__name__}: {exc}")
    return rep.ok, rep.checks


def _verify(payload: dict, rep: _Report, guards: Guards) -> None:
    if not rep.add("format", payload.get("format") == FORMAT
                   and payload.get("version") == VERSION,
                   f"format={payload.get('format')!r} "
                   f"version={payload.get('version')!r}"):
        return
    kind = payload.get("kind")
    if not rep.add("kind", kind in ("reduction", "diagonalization", "lift"),
                   f"kind={kind!r}"):
        return
    ring = build_ring(parse_ring_spec(payload["ring"]), guards)
    if not rep.add("ring digest", ring_digest(ring) == payload.get("ring_digest")):
        return
    gens = [element_from_descriptor(ring, g)
            for g in payload["ideal_generators"]]
    ideal = ideal_closure(ring, gens)
    if not rep.add("ideal digest",
                   ideal_digest(ideal) == payload.get("ideal_digest")):
        return
    if kind == "reduction":
        _verify_reduction(ring, ideal, payload, rep, None)
    elif kind == "diagonalization":
        _verify_diagonalization(ring, ideal, payload, rep, None)
    else:
        _verify_lift(ring, ideal, payload, rep, guards)


def _verify_reduction(ring: FiniteRing, ideal: Ideal, content: dict,
                      rep: _Report, expect_alpha: Optional[RMatrix]) -> None:
    side = content.get("side")
    if not rep.add("reduction side", side in ("row", "col")):
        return
    alpha = _mat_from_desc(ring, content["alpha"], 2)
    if expect_alpha is not None:
        rep.add("reduction input chains", alpha == expect_alpha)
    word = _word_from_desc(ring, 2, content["word"])
    result = _mat_from_desc(ring, content["result"], 2)
    h = element_from_descriptor(ring, content["h"])
    rep.add("word in E_2(I)", word_in_ideal(word, ideal))
    rep.add("word replays", apply_elem_word(alpha, word) == result)
    one = ring.one
    t = content["trace"]
    p1 = {k: element_from_descriptor(ring, v) for k, v in t["pass1"].items()}
    cn = {k: element_from_descriptor(ring, v) for k, v in t["corner"].items()}
    p2 = {k: element_from_descriptor(ring, v) for k, v in t["pass2"].items()}

    if side == "row":
        c0, d0 = alpha[1, 0], alpha[1, 1]
        _verify_row_pass(ring, rep, "pass1", c0, d0, p1)
        e, r, s = p1["e"], p1["r"], p1["s"]
        rep.add("op1 from witnesses",
                word.ops[0] == right_op(2, 1, ring.neg(ring.mul(s, c0))))
        rep.add("op2 from witnesses",
                word.ops[1] == right_op(1, 2, ring.neg(ring.mul(r, d0))))
        A1 = apply_elem_word(alpha, ElemWord(2, word.ops[:2]))
        rep.add("pass1 row shape",
                A1[1, 0] == ring.mul(e, c0)
                and A1[1, 1] == ring.mul(ring.sub(one, e), d0))
        w, f = cn["w"], cn["f"]
        w1, w2 = cn["w1"], cn["w2"]
        f1, f2, g, wp = cn["f1"], cn["f2"], cn["g"], cn["wprime"]
        rep.add("w definition", w == ring.add(A1[1, 0], A1[1, 1]))
        rep.add("f idempotent", ring.mul(f, f) == f)
        rep.add("f factorization",
                ring.mul(ring.mul(e, w), w1) == f and ring.mul(w1, f) == w1)
        rep.add("1-f factorization",
                ring.mul(ring.mul(ring.sub(one, e), w), w2) == ring.sub(one, f)
                and ring.mul(w2, ring.sub(one, f)) == w2)
        rep.add("f1 f2 built", f1 == ring.mul(ring.mul(w, w1), e)
                and f2 == ring.mul(ring.mul(w, w2), ring.sub(one, e)))
        rep.add("f1 in ideal", ideal.contains(f1))
        rep.add("corner canonical witnesses",
                scans.corner_witnesses_right(ring, e, w) == (f, w1, w2))
        rep.add("g idempotent in wR",
                ring.mul(g, g) == g and ring.mul(w, wp) == g)
        rep.add("wprime canonical", wp == solve_right(ring, w, g))
        rep.add("g spans f1,f2",
                ideal_closure(ring, [g]).members
                == ideal_closure(ring, [f1, f2]).members)
        span = {ring.add(ring.mul(f1, a), ring.mul(f2, b))
                for a in ring.elements() for b in ring.elements()}
        rep.add("g in f1R+f2R", g in span)
        rep.add("op3 from witnesses",
                word.ops[2] == right_op(1, 2, ring.mul(r, c0)))
        rep.add("op4 from witnesses",
                word.ops[3] == right_op(
                    2, 1, ring.neg(ring.mul(ring.mul(wp, e), c0))))
        A2 = apply_elem_word(A1, ElemWord(2, word.ops[2:4]))
        c2, d2 = A2[1, 0], A2[1, 1]
        _verify_row_pass(ring, rep, "pass2", c2, d2, p2)
        e2, r2, s2 = p2["e"], p2["r"], p2["s"]
        rep.add("op5 from witnesses",
                word.ops[4] == right_op(2, 1, ring.neg(ring.mul(s2, c2))))
        rep.add("op6 from witnesses",
                word.ops[5] == right_op(1, 2, ring.neg(ring.mul(r2, d2))))
        cP, dP = result[1, 0], result[1, 1]
        rep.add("h idempotent", ring.mul(h, h) == h)
        rep.add("h canonical", h == scans.complement_right(ring, cP, dP))
        rep.add("1-h in ideal", ideal.contains(ring.sub(one, h)))
        rep.add("c' in Rc", solve_left(ring, c0, cP) is not None)
        rep.add("c'R = (1-h)R",
                ring.right_multiples(cP)
                == ring.right_multiples(ring.sub(one, h)))
        rep.add("d'R = hR",
                ring.right_multiples(dP) == ring.right_multiples(h))
        rep.add("RhR = R", len(ideal_closure(ring, [h]).members) == ring.size)
    else:
        b0, d0 = alpha[0, 1], alpha[1, 1]
        _verify_col_pass(ring, rep, "pass1", b0, d0, p1)
        e, r, s = p1["e"], p1["r"], p1["s"]
        rep.add("op1 from witnesses",
                word.ops[0] == left_op(1, 2, ring.neg(ring.mul(b0, s))))
        rep.add("op2 from witnesses",
                word.ops[1] == left_op(2, 1, ring.neg(ring.mul(d0, r))))
        A1 = apply_elem_word(alpha, ElemWord(2, word.ops[:2]))
        rep.add("pass1 column shape",
                A1[0, 1] == ring.mul(b0, e)
                and A1[1, 1] == ring.mul(d0, ring.sub(one, e)))
        w, f = cn["w"], cn["f"]
        w1, w2 = cn["w1"], cn["w2"]
        f1, f2, g, wp = cn["f1"], cn["f2"], cn["g"], cn["wprime"]
        rep.add("w definition", w == ring.add(A1[0, 1], A1[1, 1]))
        rep.add("f idempotent", ring.mul(f, f) == f)
        rep.add("f factorization",
                ring.mul(w1, ring.mul(w, e)) == f and ring.mul(f, w1) == w1)
        rep.add("1-f factorization",
                ring.mul(w2, ring.mul(w, ring.sub(one, e))) == ring.sub(one, f)
                and ring.mul(ring.sub(one, f), w2) == w2)
        rep.add("f1 f2 built", f1 == ring.mul(e, ring.mul(w1, w))
                and f2 == ring.mul(ring.sub(one, e), ring.mul(w2, w)))
        rep.add("f1 in ideal", ideal.contains(f1))
        rep.add("corner canonical witnesses",
                scans.corner_witnesses_left(ring, e, w) == (f, w1, w2))
        rep.add("g idempotent in Rw",
                ring.mul(g, g) == g and ring.mul(wp, w) == g)
        rep.add("wprime canonical", wp == solve_left(ring, w, g))
        rep.add("g spans f1,f2",
                ideal_closure(ring, [g]).members
                == ideal_closure(ring, [f1, f2]).members)
        span = {ring.add(ring.mul(a, f1), ring.mul(b, f2))
                for a in ring.elements() for b in ring.elements()}
        rep.add("g in Rf1+Rf2", g in span)
        rep.add("op3 from witnesses",
                word.ops[2] == left_op(2, 1, ring.mul(b0, r)))
        rep.add("op4 from witnesses",
                word.ops[3] == left_op(
                    1, 2, ring.neg(ring.mul(ring.mul(b0, e), wp))))
        A2 = apply_elem_word(A1, ElemWord(2, word.ops[2:4]))
        b2, d2 = A2[0, 1], A2[1, 1]
        _verify_col_pass(ring, rep, "pass2", b2, d2, p2)
        e2, r2, s2 = p2["e"], p2["r"], p2["s"]
        rep.add("op5 from witnesses",
                word.ops[4] == left_op(1, 2, ring.neg(ring.mul(b2, s2))))
        rep.add("op6 from witnesses",
                word.ops[5] == left_op(2, 1, ring.neg(ring.mul(d2, r2))))
        bP, dP = result[0, 1], result[1, 1]
        k = h
        rep.add("k idempotent", ring.mul(k, k) == k)
        rep.add("1-k in ideal", ideal.contains(ring.sub(one, k)))
        rep.add("b'' in bR", solve_right(ring, b0, bP) is not None)
        rep.add("Rb'' = R(1-k)",
                ring.left_multiples(bP)
                == ring.left_multiples(ring.sub(one, k)))
        rep.add("Rd'' = Rk",
                ring.left_multiples(dP) == ring.left_multiples(k))
        rep.add("RkR = R", len(ideal_closure(ring, [k]).members) == ring.size)


def _verify_row_pass(ring, rep, tag, c, d, wit) -> None:
    one = ring.one
    e, r, s, x, y = wit["e"], wit["r"], wit["s"], wit["x"], wit["y"]
    rep.add(f"{tag} unimodular",
            ring.add(ring.mul(c, x), ring.mul(d, y)) == one)
    rep.add(f"{tag} idempotent", ring.mul(e, e) == e)
    rep.add(f"{tag} e = cr", ring.mul(c, r) == e and ring.mul(r, e) == r)
    rep.add(f"{tag} 1-e = ds",
            ring.mul(d, s) == ring.sub(one, e)
            and ring.mul(s, ring.sub(one, e)) == s)
    rep.add(f"{tag} canonical witnesses",
            scans.row_pass_witnesses(ring, c, d) == (x, y, e, r, s))


def _verify_col_pass(ring, rep, tag, b, d, wit) -> None:
    one = ring.one
    e, r, s, x, y = wit["e"], wit["r"], wit["s"], wit["x"], wit["y"]
    rep.add(f"{tag} unimodular",
            ring.add(ring.mul(x, b), ring.mul(y, d)) == one)
    rep.add(f"{tag} idempotent", ring.mul(e, e) == e)
    rep.add(f"{tag} e = rb", ring.mul(r, b) == e and ring.mul(e, r) == r)
    rep.add(f"{tag} 1-e = sd",
            ring.mul(s, d) == ring.sub(one, e)
            and ring.mul(ring.sub(one, e), s) == s)
    rep.add(f"{tag} canonical witnesses",
            scans.col_pass_witnesses(ring, b, d) == (x, y, e, r, s))


# every recorded field is checked below; any other field would go unchecked
_DIAG_TRACE = {"q", "p", "f", "v", "t", "z_prime", "b_prime"}


def _verify_diagonalization(ring: FiniteRing, ideal: Ideal, content: dict,
                            rep: _Report,
                            expect_alpha: Optional[RMatrix]) -> None:
    one = ring.one
    alpha = _mat_from_desc(ring, content["alpha"], 2)
    if expect_alpha is not None:
        rep.add("diag input chains", alpha == expect_alpha)
    gamma = _word_from_desc(ring, 2, content["gamma"])
    beta = _word_from_desc(ring, 2, content["beta"])
    epsilon = _word_from_desc(ring, 2, content["epsilon"])
    u = element_from_descriptor(ring, content["u"])
    a_prime = element_from_descriptor(ring, content["a_prime"])
    if not rep.add("trace fields", set(content["trace"]) == _DIAG_TRACE):
        return
    trace = {k: element_from_descriptor(ring, v)
             for k, v in content["trace"].items()}

    rr = content["row_reduction"]
    _verify_reduction(ring, ideal, rr, rep, alpha)
    rr_result = _mat_from_desc(ring, rr["result"], 2)
    sigL = ElemWord(2, tuple(sigma_word_left(ring)))
    sigR = ElemWord(2, tuple(sigma_word_right(ring)))
    a1 = apply_elem_word(apply_elem_word(rr_result, sigR), sigL)
    rc = content["col_reduction"]
    _verify_reduction(ring, ideal, rc, rep, a1)
    rc_result = _mat_from_desc(ring, rc["result"], 2)

    uinv = ring.inverse(u)
    if not rep.add("u is a unit", uinv is not None):
        return
    b_prime = rc_result[0, 1]
    f, v, t, z_prime = trace["f"], trace["v"], trace["t"], trace["z_prime"]
    p, q = trace["p"], trace["q"]
    rep.add("b_prime recorded", trace["b_prime"] == b_prime)
    rep.add("q is the column idempotent",
            q == element_from_descriptor(ring, rc["h"]))
    rep.add("f idempotent in I",
            ring.mul(f, f) == f and ideal.contains(f))
    rep.add("b' = f u", ring.mul(f, u) == b_prime)
    rep.add("p idempotent", ring.mul(p, p) == p)
    rep.add("1-p in ideal", ideal.contains(ring.sub(one, p)))
    rep.add("(1-p)R = b'R",
            ring.right_multiples(ring.sub(one, p))
            == ring.right_multiples(b_prime))
    rep.add("RpR = R", len(ideal_closure(ring, [p]).members) == ring.size)

    lam = matrix(ring, [[one, ring.zero], [ring.zero, uinv]])
    a4 = mat_mul(apply_elem_word(rc_result,
                                 ElemWord(2, tuple(sigma_inv_word_left(ring)))),
                 lam)
    rep.add("t recorded", t == a4[1, 0])
    rep.add("f lands in (2,2)", a4[1, 1] == f)
    lhs = ring.mul(ring.sub(one, f), t)
    rep.add("v solves (1-f)tv = 1-f",
            ring.mul(lhs, v) == ring.sub(one, f)
            and ring.mul(v, ring.sub(one, f)) == v)
    eps_expect = (right_op(2, 1, ring.neg(ring.mul(f, t))),
                  right_op(1, 2, v),
                  right_op(2, 1, ring.neg(lhs)))
    rep.add("epsilon from witnesses", epsilon.ops == eps_expect)
    a6 = apply_elem_word(a4, ElemWord(2, epsilon.ops[:2]))
    rep.add("z' recorded", z_prime == a6[0, 1])
    rc_word = _word_from_desc(ring, 2, rc["word"])
    gamma_expect = (tuple(sigma_word_left(ring)) + rc_word.ops
                    + tuple(sigma_inv_word_left(ring))
                    + (left_op(1, 2, ring.neg(z_prime)),))
    rep.add("gamma composition", gamma.ops == gamma_expect)
    rr_word = _word_from_desc(ring, 2, rr["word"])
    beta_expect = rr_word.ops + tuple(sigma_word_right(ring))
    rep.add("beta composition", beta.ops == beta_expect)

    rep.add("a' is a unit", ring.inverse(a_prime) is not None)
    final = apply_elem_word(
        apply_elem_word(mat_mul(apply_elem_word(alpha, beta), lam), epsilon),
        gamma)
    target = direct_sum(matrix(ring, [[a_prime]]), matrix(ring, [[one]]))
    rep.add("diagonalization identity", final == target)
    qmap = quotient_by(ring, ideal)
    rep.add("pi(a') = pi(a u^-1)",
            qmap.pi(a_prime) == qmap.pi(ring.mul(alpha[0, 0], uinv)))


def _verify_lift(ring: FiniteRing, ideal: Ideal, payload: dict,
                 rep: _Report, guards: Guards) -> None:
    one = ring.one
    x = element_from_descriptor(ring, payload["x"])
    y = element_from_descriptor(ring, payload["y"])
    m, k = payload["m"], payload["k"]
    if not rep.add("stabilization level", m in (2, 4) and 1 <= k <= 2):
        return
    y1 = _mat_from_desc(ring, payload["y1"], k)
    rep.add("y1 invertible", try_inverse(y1, guards) is not None)
    z_word = _word_from_desc(ring, m, payload["z_word"])
    w1 = _mat_from_desc(ring, payload["w1"], m)
    base = direct_sum(y1, identity(ring, m - k)) if m > k else y1
    rep.add("w1 = z (y1+1)", apply_elem_word(base, z_word) == w1)
    qmap = quotient_by(ring, ideal)
    target_bar = direct_sum(matrix(qmap.target, [[qmap.pi(x)]]),
                            identity(qmap.target, m - 1))
    rep.add("pi(w1) = pi(x)+1", map_entries(w1, qmap) == target_bar)

    current = w1
    for idx, st in enumerate(payload["stages"]):
        dim = st["dim"]
        if not rep.add(f"stage {idx} dimension",
                       dim == current.n and dim in (2, 4)):
            return
        inp = _mat_from_desc(ring, st["input"], dim)
        rep.add(f"stage {idx} chains", inp == current)
        w_next = _mat_from_desc(ring, st["w_next"], dim // 2)
        if st["level"] == "base":
            if not rep.add(f"stage {idx} level", dim == 2):
                return
            _verify_diagonalization(ring, ideal, st["diag"], rep, inp)
            ap = element_from_descriptor(ring, st["diag"]["a_prime"])
            uu = element_from_descriptor(ring, st["diag"]["u"])
            rep.add(f"stage {idx} output",
                    w_next == matrix(ring, [[ring.mul(ap, uu)]]))
        else:
            if not rep.add(f"stage {idx} level", dim == 4):
                return
            mring = build_ring(MatrixSpec(ring.spec, 2), guards)
            mideal = matrix_ideal(mring, ring, 2, ideal)
            blocked = block_matrix(inp, mring, 2)
            _verify_diagonalization(mring, mideal, st["diag"], rep, blocked)
            ap = element_from_descriptor(mring, st["diag"]["a_prime"])
            uu = element_from_descriptor(mring, st["diag"]["u"])
            rep.add(f"stage {idx} output",
                    w_next == unblock_matrix(
                        matrix(mring, [[mring.mul(ap, uu)]]), ring, 2))
        current = w_next
    rep.add("stages reach dimension 1", current.n == 1)
    rep.add("y is the final stage output", current[0, 0] == y)
    rep.add("y is a unit", ring.inverse(y) is not None)
    rep.add("x - y in I", ideal.contains(ring.sub(x, y)))
    oracle_exists = any(ideal.contains(ring.sub(x, u_))
                        for u_ in ring.units())
    rep.add("oracle flag accurate",
            bool(payload["oracle_confirmed"]) == oracle_exists)
