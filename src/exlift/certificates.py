"""Versioned certificate files and their replay verifier.

A certificate is a complete transcript: ring recipe, ideal generators, the
elementary words, and every witness the construction found.  Verification
rebuilds the ring, replays each word, recomputes each derived quantity from
the recorded witnesses, and compares against the stored values.  It imports
the ring core, the matrix layer and ``scans``: it re-runs the deterministic
first-hit scans to check that each recorded witness is the canonical one,
and checks every witness against its defining equations as well, so no
answer of a search is taken on trust.

The join idempotent's order condition ([f1], [f2] <= [g], by rank vector
over R/J(R)) is not re-checked: it only picks which g the construction
records, and the verifier checks the contracts the proof uses instead, that
g is an idempotent in f1R + f2R and wR with RgR = Rf1R + Rf2R.

The two-sided ideal tests of a blocked stage over M_k(R) (RgR = Rf1R + Rf2R,
RhR = R, RpR = R) are read off R by ``rings.entry_ideal``, since every
ideal of M_k(R) is M_k(J) for an ideal J of R; aR = bR is a in bR and b in aR.

Every element leaf is decoded by ``rings.element_from_descriptor``, which
accepts an element's canonical descriptor only, so a leaf cannot be swapped
for another name of the same element (a zmod int moved by n, another member
of a quotient coset, a JSON bool).  ``dumps_certificate`` writes the text
itself; its bytes are pinned by the golden digests in the tests, which hold
it to ``json.dumps(payload, sort_keys=True, indent=1)`` as the oracle.  The
writer dispatches on a value's exact type first (list, dict, int and str,
what payloads are built of), writes a list of exact ints with one join and
a dict's int and str values without a recursive call; subclasses, bools and
None go through an isinstance chain, which refuses what JSON cannot hold.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import Optional

from .config import DEFAULT, Guards
from .errors import InvalidSpec
from .matrices import (LEFT, RIGHT, ElemOp, ElemWord, RMatrix,
                       apply_elem_word, block_matrix, direct_sum, identity,
                       left_op, map_entries, mat_mul, matrix, right_op,
                       sigma_inv_word_left, sigma_word_left, sigma_word_right,
                       stage_ring, try_inverse, unblock_matrix, word_in_ideal)
from .rings import (FiniteRing, Ideal, build_ring, element_descriptor,
                    element_from_descriptor, entry_ideal, ideal_closure,
                    parse_ring_spec, quotient_by, ring_spec_obj,
                    same_right_ideal, solve_right)
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


_OP_KEYS = frozenset(("side", "i", "j", "r"))


def _word_from_desc(ring: FiniteRing, n: int, desc) -> ElemWord:
    if not isinstance(desc, list):
        raise InvalidSpec("word payload must be a list of ops")
    ops = []
    for rec in desc:
        if not isinstance(rec, dict) or rec.keys() != _OP_KEYS:
            raise InvalidSpec("malformed op record")
        side, i, j = rec["side"], rec["i"], rec["j"]
        if side not in (LEFT, RIGHT):
            raise InvalidSpec(f"unknown op side {side!r}")
        if (type(i) is not int or type(j) is not int or i == j
                or not (1 <= i <= n and 1 <= j <= n)):
            raise InvalidSpec("op indices out of range")
        ops.append(ElemOp(side, i, j, element_from_descriptor(ring, rec["r"])))
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
    """The certificate text: sorted keys, a one-space indent, ASCII only,
    and a final newline.  Floats, non-str keys and values JSON has no form
    for raise TypeError."""
    out: list = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, nl: str, out: list) -> None:
    """Append the JSON text of value to out; nl is a newline plus the indent
    of the line value starts on."""
    kind = type(value)
    if kind is not list and kind is not dict and kind is not int \
            and kind is not str:
        if isinstance(value, str):
            kind = str
        elif value is None or value is True or value is False:
            out.append("null" if value is None
                       else "true" if value else "false")
            return
        elif isinstance(value, int):
            kind = int
        elif isinstance(value, (list, tuple)):
            kind = list
        elif isinstance(value, dict):
            kind = dict
        else:
            raise TypeError(
                f"a certificate cannot hold a {type(value).__name__}")
    if kind is int:
        out.append(int.__repr__(value))
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif not value:
        out.append("[]" if kind is list else "{}")
    elif kind is list:
        inner = nl + " "
        if not [v for v in value if type(v) is not int]:
            out.append("[" + inner + ("," + inner).join(map(repr, value))
                       + nl + "]")
            return
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        inner = nl + " "
        sep = "{" + inner
        for k in sorted(value):
            if not isinstance(k, str):
                raise TypeError("certificate keys must be str")
            v = value[k]
            head = sep + encode_basestring_ascii(k) + ": "
            if type(v) is int:
                out.append(head + repr(v))
            elif type(v) is str:
                out.append(head + encode_basestring_ascii(v))
            else:
                out.append(head)
                _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")


def load_certificate(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpec(f"cannot read certificate {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"certificate is not valid JSON: {exc}") from exc
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
    version = payload.get("version")
    if not rep.add("format", payload.get("format") == FORMAT
                   and type(version) is int and version == VERSION,
                   f"format={payload.get('format')!r} "
                   f"version={version!r}"):
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
                      rep: _Report, expect_alpha: Optional[RMatrix]) -> tuple:
    """Replay a row reduction; returns its word and result over ring.  A
    column reduction over R is the row reduction of alpha^T over R^op
    (transposition is an anti-isomorphism M_2(R) -> M_2(R^op)), so a
    side="col" payload is transposed into R^op and replayed by the same
    checks."""
    side = content.get("side")
    word = _word_from_desc(ring, 2, content["word"])
    result = _mat_from_desc(ring, content["result"], 2)
    decoded = word, result
    if not rep.add("reduction side", side in ("row", "col")):
        return decoded
    alpha = _mat_from_desc(ring, content["alpha"], 2)
    if expect_alpha is not None:
        rep.add("reduction input chains", alpha == expect_alpha)
    h = element_from_descriptor(ring, content["h"])
    t = content["trace"]
    p1 = {k: element_from_descriptor(ring, v) for k, v in t["pass1"].items()}
    cn = {k: element_from_descriptor(ring, v) for k, v in t["corner"].items()}
    p2 = {k: element_from_descriptor(ring, v) for k, v in t["pass2"].items()}
    if side == "col":
        ring = ring.op()
        alpha, word, result = alpha.op(), word.op(), result.op()
    rep.add("word in E_2(I)", word_in_ideal(word, ideal))
    rep.add("word replays", apply_elem_word(alpha, word) == result)
    one = ring.one

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
            entry_ideal(ring, [g]).members
            == entry_ideal(ring, [f1, f2]).members)
    rep.add("g in f1R+f2R", g in ring.right_span(f1, f2))
    rep.add("op3 from witnesses",
            word.ops[2] == right_op(1, 2, ring.mul(r, c0)))
    rep.add("op4 from witnesses",
            word.ops[3] == right_op(
                2, 1, ring.neg(ring.mul(ring.mul(wp, e), c0))))
    A2 = apply_elem_word(A1, ElemWord(2, word.ops[2:4]))
    c2, d2 = A2[1, 0], A2[1, 1]
    _verify_row_pass(ring, rep, "pass2", c2, d2, p2)
    r2, s2 = p2["r"], p2["s"]
    rep.add("op5 from witnesses",
            word.ops[4] == right_op(2, 1, ring.neg(ring.mul(s2, c2))))
    rep.add("op6 from witnesses",
            word.ops[5] == right_op(1, 2, ring.neg(ring.mul(r2, d2))))
    cP, dP = result[1, 0], result[1, 1]
    rep.add("h idempotent", ring.mul(h, h) == h)
    rep.add("h canonical", h == scans.complement_right(ring, cP, dP))
    rep.add("1-h in ideal", ideal.contains(ring.sub(one, h)))
    rep.add("c' in Rc", solve_right(ring.op(), c0, cP) is not None)
    rep.add("c'R = (1-h)R", same_right_ideal(ring, cP, ring.sub(one, h)))
    rep.add("d'R = hR", same_right_ideal(ring, dP, h))
    rep.add("RhR = R", entry_ideal(ring, [h]).is_full())
    return decoded


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

    rr_word, rr_result = _verify_reduction(
        ring, ideal, content["row_reduction"], rep, alpha)
    sigL = ElemWord(2, tuple(sigma_word_left(ring)))
    sigR = ElemWord(2, tuple(sigma_word_right(ring)))
    a1 = apply_elem_word(apply_elem_word(rr_result, sigR), sigL)
    rc = content["col_reduction"]
    rc_word, rc_result = _verify_reduction(ring, ideal, rc, rep, a1)

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
    rep.add("(1-p)R = b'R", same_right_ideal(ring, ring.sub(one, p), b_prime))
    rep.add("RpR = R", entry_ideal(ring, [p]).is_full())

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
    gamma_expect = (tuple(sigma_word_left(ring)) + rc_word.ops
                    + tuple(sigma_inv_word_left(ring))
                    + (left_op(1, 2, ring.neg(z_prime)),))
    rep.add("gamma composition", gamma.ops == gamma_expect)
    beta_expect = rr_word.ops + tuple(sigma_word_right(ring))
    rep.add("beta composition", beta.ops == beta_expect)

    rep.add("a' is a unit", ring.inverse(a_prime) is not None)
    final = apply_elem_word(
        apply_elem_word(mat_mul(apply_elem_word(alpha, beta), lam), epsilon),
        gamma)
    target = direct_sum(matrix(ring, [[a_prime]]), matrix(ring, [[one]]))
    rep.add("diagonalization identity", final == target)
    rep.add("pi(a') = pi(a u^-1)",
            ideal.contains(ring.sub(a_prime, ring.mul(alpha[0, 0], uinv))))


def _verify_lift(ring: FiniteRing, ideal: Ideal, payload: dict,
                 rep: _Report, guards: Guards) -> None:
    """Replay a lift certificate.

    The certificate proves that y is a unit lifting pi(x): x enters only
    through pi(x) and the coset x + I.  So it verifies unchanged for any
    recorded x' congruent to x mod I (the same lift of the same unit of R/I),
    and an x' outside that coset fails the "pi(w1) = pi(x)+1" check.
    """
    x = element_from_descriptor(ring, payload["x"])
    y = element_from_descriptor(ring, payload["y"])
    m, k = payload["m"], payload["k"]
    # type() rather than isinstance(): JSON true would pass as the int 1
    if not rep.add("stabilization level",
                   type(m) is int and m in (2, 4) and type(k) is int
                   and k == 1):
        return
    y1 = _mat_from_desc(ring, payload["y1"], 1)
    rep.add("y1 invertible", try_inverse(y1) is not None)
    z_word = _word_from_desc(ring, m, payload["z_word"])
    w1 = _mat_from_desc(ring, payload["w1"], m)
    base = direct_sum(y1, identity(ring, m - 1))
    rep.add("w1 = z (y1+1)", apply_elem_word(base, z_word) == w1)
    qmap = quotient_by(ring, ideal)
    target_bar = direct_sum(matrix(qmap.target, [[qmap.pi(x)]]),
                            identity(qmap.target, m - 1))
    rep.add("pi(w1) = pi(x)+1", map_entries(w1, qmap) == target_bar)

    current = w1
    for idx, st in enumerate(payload["stages"]):
        dim = st["dim"]
        if not rep.add(f"stage {idx} dimension",
                       type(dim) is int and dim == current.n
                       and dim in (2, 4)):
            return
        inp = _mat_from_desc(ring, st["input"], dim)
        rep.add(f"stage {idx} chains", inp == current)
        w_next = _mat_from_desc(ring, st["w_next"], dim // 2)
        k = dim // 2
        if not rep.add(f"stage {idx} level",
                       st["level"] == ("base" if k == 1 else "blocked")):
            return
        sring, sideal = stage_ring(ring, ideal, k, guards)
        _verify_diagonalization(sring, sideal, st["diag"], rep,
                                block_matrix(inp, sring, k))
        ap = element_from_descriptor(sring, st["diag"]["a_prime"])
        uu = element_from_descriptor(sring, st["diag"]["u"])
        rep.add(f"stage {idx} output",
                w_next == unblock_matrix(
                    matrix(sring, [[sring.mul(ap, uu)]]), ring, k))
        current = w_next
    rep.add("stages reach dimension 1", current.n == 1)
    rep.add("y is the final stage output", current[0, 0] == y)
    rep.add("y is a unit", ring.inverse(y) is not None)
    rep.add("x - y in I", ideal.contains(ring.sub(x, y)))
    # the two checks above prove that a lift exists: only true is accurate
    rep.add("oracle flag accurate", payload["oracle_confirmed"] is True)
