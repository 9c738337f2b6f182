"""Lift certificates (format version 2) and their replay verifier.

A certificate states a claim and records the answers of the searches its
verifier checks by property.  The claim is the ring recipe, the ideal
generators, x, y and m: y is a unit of the ring R the recipe builds, and
x - y lies in the ideal I the generators generate, as found through an
m x m matrix.  The recipe is the claim, not a name for the operation
tables: a certificate whose recipe is replaced either fails or verifies the
claim about the ring the new recipe builds, and ``verify_claim`` returns
the claim it checked (the recipe as ``ring_spec_obj`` writes it, the
generators, x and y as ``element_descriptor`` writes them, and m), which
the ``exlift verify`` report echoes; ``verify_payload`` builds no claim.
What depends only on the ring, the ideal or a stage ring (the closure of
the generators, R/I, each M_k(R) and M_k(I), the signed swaps, inverses,
the element codec) is read from per-ring memos: a cold ``exlift verify``
pays for each once, later certificates of a process for their own only.

Recorded, besides the claim:

- y1, a unit of R, and z_word, a word of left ops at dimension m, with
  w1 = z_word applied to y1 + 1_{m-1} congruent to x + 1_{m-1} modulo I;
- for each stage of the descent m x m -> 1 x 1 (a 2k x 2k matrix over R is
  2 x 2 over M_k(R)), over M_k(R): the join idempotents g_row and g_col of
  its row and column reductions, f, u and p of the unit-regular step, v,
  and a'.

The lift searches; the verifier checks.  It rebuilds each stage with the
lift's own construction, ``lifting._diagonalize``, given the recorded
witnesses, which derives the rest (the row-pass and corner witnesses, w',
h, q, t, z', b', each reduction's six ops and the words beta, gamma and
epsilon) by the lift's first-hit scans; a recorded witness it cannot use
fails the check a miss there denies (``SearchExhausted.check``).  Every
returned value is put through the identities the proof uses and every
recorded one through its properties, so no answer of a search is taken on
trust.  The join idempotent's order condition ([f1], [f2] <= [g], by rank
vector over R/J(R)) is not re-checked: it only picks which g the
construction records, and the verifier checks the contracts the proof uses
instead, that g is an idempotent in f1R + f2R and wR with
RgR = Rf1R + Rf2R.  The two-sided ideal tests of a blocked stage over
M_k(R) (RgR = Rf1R + Rf2R, RhR = R, RpR = R) are read off R by
``rings.entry_ideal``, since every ideal of M_k(R) is M_k(J) for an ideal J
of R; aR = bR is a in bR and b in aR.

Every element leaf is decoded by ``rings.element_from_descriptor``, which
accepts an element's canonical descriptor only, so a leaf cannot be swapped
for another name of the same element (a zmod int moved by n, another member
of a quotient coset, a JSON bool).  Unknown and missing fields fail the
"fields" checks.  ``dumps_certificate`` writes the text itself; its bytes
are pinned by the golden digests in the tests, which hold it to
``json.dumps(payload, sort_keys=True, indent=1)`` as the oracle.  The
writer dispatches on a value's exact type first (list, dict, int and str,
what payloads are built of), writes a list of exact ints with one join and
a dict's int and str values without a recursive call; subclasses, bools and
None go through an isinstance chain, which refuses what JSON cannot hold.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .config import DEFAULT, Guards
from .errors import InvalidSpec, SearchExhausted
from .lifting import _diagonalize
from .matrices import (LEFT, RIGHT, ElemOp, ElemWord, RMatrix,
                       apply_elem_word, block_matrix, direct_sum, identity,
                       map_entries, mat_mul, matrix, stage_ring, try_inverse,
                       unblock_matrix, word_in_ideal)
from .rings import (FiniteRing, Ideal, build_ring, element_descriptor,
                    element_from_descriptor, entry_ideal, ideal_closure,
                    parse_ring_spec, quotient_by, ring_spec_obj,
                    same_right_ideal, solve_pair_right, solve_right)

FORMAT = "exlift-cert"
VERSION = 2

_CLAIM = ("ring", "ideal_generators", "x", "y", "m")
_FIELDS = frozenset(_CLAIM + ("format", "version", "kind", "y1", "z_word",
                              "stages"))
_STAGE_FIELDS = frozenset(("g_row", "g_col", "f", "p", "v", "u", "a_prime"))


# ---------------------------------------------------------------------------
# Payloads
# ---------------------------------------------------------------------------

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


def lift_payload(cert) -> dict:
    """The version 2 payload of a LiftCertificate (its to_payload)."""
    ring = cert.ring
    return {
        "format": FORMAT,
        "version": VERSION,
        "kind": "lift",
        "ring": ring_spec_obj(ring.spec),
        "ideal_generators": [element_descriptor(ring, g)
                             for g in cert.ideal.generators],
        "x": element_descriptor(ring, cert.x),
        "y": element_descriptor(ring, cert.y),
        "m": cert.m,
        "y1": element_descriptor(ring, cert.y1),
        "z_word": _word_desc(ring, cert.z_word),
        "stages": [_stage_desc(st.diag) for st in cert.stages],
    }


def _stage_desc(dg) -> dict:
    """A stage's recorded witnesses, over its ring M_k(R)."""
    ring = dg.ring
    return {key: element_descriptor(ring, val) for key, val in (
        ("g_row", dg.row_reduction.trace["corner"]["g"]),
        ("g_col", dg.col_reduction.trace["corner"]["g"]),
        ("f", dg.trace["f"]), ("p", dg.trace["p"]), ("v", dg.trace["v"]),
        ("u", dg.u), ("a_prime", dg.a_prime))}


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
    except (ValueError, RecursionError) as exc:   # JSON too deep or too long
        raise InvalidSpec(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidSpec("certificate must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

class _Report:
    """The checks of one replay of payload, and the claim it decoded."""

    def __init__(self, payload: dict, guards: Guards):
        self.checks = []
        self.claim = None     # (spec, ring, ideal, x, y, m) once decoded
        try:
            _verify(payload, self, guards)
        except Exception as exc:   # malformed input: a check, no traceback
            self.add("well-formed", False, f"{type(exc).__name__}: {exc}")

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)


def verify_payload(payload: dict, guards: Guards = DEFAULT):
    """Replays a certificate payload; returns (ok, list of check records).
    Never raises on malformed input: every defect becomes a failed check."""
    rep = _Report(payload, guards)
    return rep.ok, rep.checks


def verify_claim(payload: dict, guards: Guards = DEFAULT):
    """``verify_payload``'s (ok, checks) and the claim the payload states:
    a dict of the recipe, ideal generators, x, y and m in canonical form,
    or None when the payload states none that can be read.  The claim is
    proven only when ok is True."""
    rep = _Report(payload, guards)
    if rep.claim is None:
        return rep.ok, rep.checks, None
    spec, ring, ideal, x, y, m = rep.claim
    return rep.ok, rep.checks, {
        "ring": ring_spec_obj(spec),
        "ideal_generators": [element_descriptor(ring, g)
                             for g in ideal.generators],
        "x": element_descriptor(ring, x), "y": element_descriptor(ring, y),
        "m": m}


def _verify(payload: dict, rep: _Report, guards: Guards) -> None:
    version = payload.get("version")
    if not rep.add("format", payload.get("format") == FORMAT
                   and type(version) is int and version == VERSION,
                   f"format={payload.get('format')!r} "
                   f"version={version!r}"):
        return
    kind = payload.get("kind")
    if not rep.add("kind", kind == "lift", f"kind={kind!r}"):
        return
    if not rep.add("fields", payload.keys() == _FIELDS,
                   f"fields={sorted(map(str, payload))}"):
        return
    spec = parse_ring_spec(payload["ring"])
    ring = build_ring(spec, guards)
    gens = payload["ideal_generators"]
    if type(gens) is not list:
        raise InvalidSpec("ideal_generators must be a list")
    ideal = ideal_closure(ring, [element_from_descriptor(ring, g)
                                 for g in gens])
    x = element_from_descriptor(ring, payload["x"])
    y = element_from_descriptor(ring, payload["y"])
    m = payload["m"]
    # type() rather than isinstance(): JSON true would pass as the int 1
    if not rep.add("stabilization level", type(m) is int and m in (2, 4)):
        return
    rep.claim = spec, ring, ideal, x, y, m
    _verify_lift(ring, ideal, x, y, m, payload, rep, guards)


def _verify_lift(ring: FiniteRing, ideal: Ideal, x: int, y: int, m: int,
                 payload: dict, rep: _Report, guards: Guards) -> None:
    """Replay a lift: w1 from y1 and z_word, then each stage's
    diagonalization, whose output a'u is the next stage's input.

    The certificate proves that y is a unit lifting pi(x): x enters only
    through pi(x) and the coset x + I.  So it verifies unchanged for any
    recorded x' congruent to x mod I (the same lift of the same unit of R/I,
    a claim the report names), and an x' outside that coset fails the
    "pi(w1) = pi(x)+1" check.
    """
    y1 = matrix(ring, [[element_from_descriptor(ring, payload["y1"])]])
    if not rep.add("y1 invertible", try_inverse(y1) is not None):
        return
    z_word = _word_from_desc(ring, m, payload["z_word"])
    w1 = apply_elem_word(direct_sum(y1, identity(ring, m - 1)), z_word)
    qmap = quotient_by(ring, ideal)
    target_bar = direct_sum(matrix(qmap.target, [[qmap.pi(x)]]),
                            identity(qmap.target, m - 1))
    rep.add("pi(w1) = pi(x)+1", map_entries(w1, qmap) == target_bar)

    stages = payload["stages"]
    # each stage halves the dimension: m = 2 takes one, m = 4 two
    if not rep.add("stage count",
                   type(stages) is list and len(stages) == m // 2):
        return
    current = w1
    for idx, rec in enumerate(stages):
        if not rep.add(f"stage {idx} fields", type(rec) is dict
                       and rec.keys() == _STAGE_FIELDS):
            return
        k = current.n // 2
        sring, sideal = stage_ring(ring, ideal, k, guards)
        wit = {key: element_from_descriptor(sring, val)
               for key, val in rec.items()}
        a_prime = wit.pop("a_prime")
        try:
            dg = _diagonalize(sring, sideal, block_matrix(current, sring, k),
                              **wit)
        except SearchExhausted as exc:
            rep.add(exc.check, False, str(exc))
            return
        _check_diagonalization(dg, a_prime, rep)
        current = unblock_matrix(matrix(sring, [[sring.mul(a_prime, dg.u)]]),
                                 ring, k)
    rep.add("y is the final stage output", current[0, 0] == y)
    rep.add("y is a unit", ring.inverse(y) is not None)
    rep.add("x - y in I", ideal.contains(ring.sub(x, y)))


def _check_diagonalization(dg, a_prime: int, rep: _Report) -> None:
    """The checks on a stage the construction rebuilt, with the recorded
    a' in gamma*alpha*beta*(1+u^-1)*epsilon = a'+1."""
    ring, ideal, one = dg.ring, dg.ideal, dg.ring.one
    _check_reduction(dg.row_reduction, rep)
    _check_reduction(dg.col_reduction, rep)
    f, p, v, t, b_prime = (dg.trace[k] for k in ("f", "p", "v", "t",
                                                 "b_prime"))
    uinv = ring.inverse(dg.u)
    rep.add("u is a unit", uinv is not None)   # else the replay raised
    rep.add("f idempotent in I",
            ring.mul(f, f) == f and ideal.contains(f))
    rep.add("b' = f u", ring.mul(f, dg.u) == b_prime)
    rep.add("p idempotent", ring.mul(p, p) == p)
    rep.add("1-p in ideal", ideal.contains(ring.sub(one, p)))
    rep.add("(1-p)R = b'R", same_right_ideal(ring, ring.sub(one, p), b_prime))
    rep.add("RpR = R", entry_ideal(ring, [p]).is_full())
    rep.add("f lands in (2,2)", dg.scaled[1, 1] == f)
    lhs = ring.mul(ring.sub(one, f), t)
    rep.add("v solves (1-f)tv = 1-f",
            ring.mul(lhs, v) == ring.sub(one, f)
            and ring.mul(v, ring.sub(one, f)) == v)
    rep.add("a' is a unit", ring.inverse(a_prime) is not None)
    lam = RMatrix(ring, 2, ((one, ring.zero), (ring.zero, uinv)))
    final = apply_elem_word(apply_elem_word(
        mat_mul(apply_elem_word(dg.alpha, dg.beta), lam), dg.epsilon),
        dg.gamma)
    target = RMatrix(ring, 2, ((a_prime, ring.zero), (ring.zero, one)))
    rep.add("diagonalization identity", final == target)
    rep.add("pi(a') = pi(a u^-1)",
            ideal.contains(ring.sub(a_prime, ring.mul(dg.alpha[0, 0], uinv))))


def _check_reduction(res, rep: _Report) -> None:
    """The checks on a rebuilt reduction.  A column reduction over R is
    checked as the row reduction of alpha^T over R^op, whose rows are its
    columns (transposition is an anti-isomorphism M_2(R) -> M_2(R^op))."""
    ring, side = res.ring, res.side
    if side == "col":
        ring = ring.op()
    ideal, one, trace = res.ideal, ring.one, res.trace
    A1, A2 = res.steps
    c0, d0 = _last_row(res.alpha, side)
    e = _check_row_pass(ring, rep, "pass1", c0, d0, trace["pass1"])
    c1, d1 = _last_row(A1, side)
    rep.add("pass1 row shape",
            c1 == ring.mul(e, c0) and d1 == ring.mul(ring.sub(one, e), d0))
    w, f, w1, w2, f1, f2, g, wp = (trace["corner"][k] for k in (
        "w", "f", "w1", "w2", "f1", "f2", "g", "wprime"))
    rep.add("corner witnesses found", True)    # else the replay raised
    rep.add("f idempotent", ring.mul(f, f) == f)
    rep.add("f factorization",
            ring.mul(ring.mul(e, w), w1) == f and ring.mul(w1, f) == w1)
    rep.add("1-f factorization",
            ring.mul(ring.mul(ring.sub(one, e), w), w2) == ring.sub(one, f)
            and ring.mul(w2, ring.sub(one, f)) == w2)
    rep.add("f1 in ideal", ideal.contains(f1))
    rep.add("g idempotent in wR",
            ring.mul(g, g) == g and ring.mul(w, wp) == g)
    rep.add("g spans f1,f2",
            entry_ideal(ring, [g]).members
            == entry_ideal(ring, [f1, f2]).members)
    rep.add("g in f1R+f2R", solve_pair_right(ring, f1, f2, g) is not None)
    _check_row_pass(ring, rep, "pass2", *_last_row(A2, side), trace["pass2"])
    rep.add("word in E_2(I)", word_in_ideal(res.word, ideal))
    rep.add("word replays", apply_elem_word(res.alpha, res.word) == res.result)
    h = res.h
    cP, dP = _last_row(res.result, side)
    rep.add("h found", True)                   # else the replay raised
    rep.add("h idempotent", ring.mul(h, h) == h)
    rep.add("1-h in ideal", ideal.contains(ring.sub(one, h)))
    rep.add("c' in Rc", solve_right(ring.op(), c0, cP) is not None)
    rep.add("c'R = (1-h)R", same_right_ideal(ring, cP, ring.sub(one, h)))
    rep.add("d'R = hR", same_right_ideal(ring, dP, h))
    rep.add("RhR = R", entry_ideal(ring, [h]).is_full())


def _last_row(A, side: str) -> tuple:
    """A's last row, or on the column side its last column (A^T's row)."""
    return (A[1, 0], A[1, 1]) if side == "row" else (A[0, 1], A[1, 1])


def _check_row_pass(ring: FiniteRing, rep: _Report, tag: str, c: int, d: int,
                    wit: dict) -> int:
    """One row pass's witnesses for the row (c, d), checked; returns e."""
    x, y, e, r, s = (wit[k] for k in ("x", "y", "e", "r", "s"))
    one = ring.one
    rep.add(f"{tag} witnesses found", True)   # else the replay raised
    rep.add(f"{tag} unimodular",
            ring.add(ring.mul(c, x), ring.mul(d, y)) == one)
    rep.add(f"{tag} idempotent", ring.mul(e, e) == e)
    rep.add(f"{tag} e = cr", ring.mul(c, r) == e and ring.mul(r, e) == r)
    rep.add(f"{tag} 1-e = ds",
            ring.mul(d, s) == ring.sub(one, e)
            and ring.mul(s, ring.sub(one, e)) == s)
    return e
