"""Single-leaf tampering of version 3 lift certificates.

``mutants(payload)`` yields every mutant of a certificate by each rule that
applies to one node of it:

- an int: +1 and -1, and +n and -n where it is a residue of zmod(n) inside
  an element descriptor; the bool of the same truth in its place;
- an element descriptor of a quotient ring: another member of the coset it
  names;
- a str: extended by one character;
- a dict: one key dropped, or an extra key;
- a list: its last entry dropped, or a copy of it appended (0 to an empty
  list).

``judge`` says how the verifier met a mutant.  A mutant must fail, and nothing but an ``ExliftError`` may surface
as its "well-formed" failure.  A mutant that verifies is accepted in two
cases only:

- it changes a claim field (ring recipe, ideal generators, x, y, m), the
  verifier's claim is the mutant's, and that claim is true: y is a unit of
  the ring the recipe builds with x - y in the ideal the generators
  generate (a different true claim, which the report names);
- it changes a witness in ``ALTERNATIVE_WITNESSES``, one the verifier checks
  by property and that can take another valid value, and the verifier's
  claim is the original one.

Run as a script, it sweeps the certificates of ``exlift corpus`` (the first
3 Fredholm elements of each default pair) and the forced m=4 certificates
of the default pairs with |R/I| <= 2 (the first Fredholm element of each):

    PYTHONPATH=src python tests/tamper.py
"""

from __future__ import annotations

import copy
import sys
import time

from exlift import certificates as C, errors, rings as R
from verify_agree import certificates

CLAIM_FIELDS = ("ring", "ideal_generators", "x", "y", "m")

# witnesses checked by property that take other valid values in the sweep:
# a join idempotent is any idempotent g in f1R + f2R and wR with
# RgR = Rf1R + Rf2R (the order condition that picks the recorded one is not
# re-checked), and z_word any word whose w1 is congruent to x + 1 modulo I
# and whose stages the recorded witnesses still carry through (an op moved
# by a member of I, over zmod(2) x M_2(zmod(2)) modulo zmod(2) x 0)
ALTERNATIVE_WITNESSES = frozenset(("g_row", "g_col", "z_word"))

_EXLIFT_ERRORS = frozenset(
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.ExliftError))


def _element_paths(payload: dict) -> list:
    """(path, spec) of each element descriptor of the payload's ring or of
    a stage ring; the ring recipe's own descriptors are left out."""
    spec = R.parse_ring_spec(payload["ring"])
    out = [(["x"], spec), (["y"], spec), (["y1"], spec)]
    out += [(["ideal_generators", i], spec)
            for i in range(len(payload["ideal_generators"]))]
    out += [(["z_word", i, "r"], spec) for i in range(len(payload["z_word"]))]
    for s, rec in enumerate(payload["stages"]):
        k = payload["m"] // 2 ** (s + 1)
        sspec = spec if k == 1 else R.MatrixSpec(spec, k)
        out += [(["stages", s, key], sspec) for key in rec]
    return out


def _descriptor_rules(spec, desc, path: list):
    """(path, value): each zmod residue moved by +-n, and each quotient
    descriptor swapped for another member of its coset."""
    if isinstance(spec, R.ZmodSpec):
        yield path, desc + spec.n
        yield path, desc - spec.n
    elif isinstance(spec, (R.MatrixSpec, R.TriangularSpec)):
        for i, row in enumerate(desc):
            for j, v in enumerate(row):
                yield from _descriptor_rules(spec.base, v, path + [i, j])
    elif isinstance(spec, R.ProductSpec):
        yield from _descriptor_rules(spec.left, desc[0], path + [0])
        yield from _descriptor_rules(spec.right, desc[1], path + [1])
    elif isinstance(spec, R.QuotientSpec):
        base = R.build_ring(spec.base)
        s = R.element_from_descriptor(base, desc)
        ideal = R.ideal_closure(base, [R.element_from_descriptor(base, g)
                                       for g in spec.generators])
        other = min(ideal.members - {base.zero}, default=None)
        if other is not None:
            yield path, R.element_descriptor(base, base.add(s, other))
        yield from _descriptor_rules(spec.base, desc, path)


def _generic_rules(node, path: list):
    """(path, value) of the structural rules, at node and below it."""
    if type(node) is int:
        yield path, node + 1
        yield path, node - 1
        yield path, bool(node)
    elif type(node) is str:
        yield path, node + "x"
    elif type(node) is dict:
        for key in node:
            yield path, {k: v for k, v in node.items() if k != key}
        yield path, dict(node, extra=0)
        for key, val in node.items():
            yield from _generic_rules(val, path + [key])
    elif type(node) is list:
        if node:
            yield path, node[:-1]
        yield path, node + [copy.deepcopy(node[-1]) if node else 0]
        for i, val in enumerate(node):
            yield from _generic_rules(val, path + [i])


def at(payload, path: list):
    for step in path:
        payload = payload[step]
    return payload


def with_value(payload: dict, path: list, value):
    """A deep copy of payload with the node at path replaced by value."""
    if not path:
        return value
    out = copy.deepcopy(payload)
    at(out, path[:-1])[path[-1]] = value
    return out


def mutants(payload: dict):
    """(path, mutant) for every rule at every node of payload."""
    yield from ((path, with_value(payload, path, value))
                for path, value in _generic_rules(payload, []))
    for path, spec in _element_paths(payload):
        for sub, value in _descriptor_rules(spec, at(payload, path), path):
            yield sub, with_value(payload, sub, value)


def claim_holds(claim: dict) -> bool:
    """y is a unit of the recipe's ring and x - y lies in the ideal the
    generators generate, computed without the verifier."""
    ring = R.build_ring(R.parse_ring_spec(claim["ring"]))
    ideal = R.ideal_closure(ring, [R.element_from_descriptor(ring, g)
                                   for g in claim["ideal_generators"]])
    x = R.element_from_descriptor(ring, claim["x"])
    y = R.element_from_descriptor(ring, claim["y"])
    return ring.inverse(y) is not None and ideal.contains(ring.sub(x, y))


def witness_field(path: list):
    """The top-level field a path runs through, or the stage field."""
    if path[:1] == ["stages"] and len(path) > 2:
        return path[2]
    return path[0] if path else None


def judge(original: dict, path: list, mutant: dict) -> tuple:
    """How the verifier met a mutant: ("failed", None) when it refused it
    and raised nothing but an ``ExliftError``; ("verified", field) when it
    verified it as the module docstring allows; else ("problem", what
    went wrong)."""
    ok, checks, claim = C.verify_claim(mutant)
    for c in checks:
        if (c["check"] == "well-formed"
                and c["detail"].split(":")[0] not in _EXLIFT_ERRORS):
            return "problem", f"{path}: raised {c['detail']}"
    if not ok:
        return "failed", None
    field = witness_field(path)
    if field in CLAIM_FIELDS:
        if claim != {k: mutant[k] for k in CLAIM_FIELDS}:
            return "problem", f"{path}: verifies, but names {claim}"
        if not claim_holds(claim):
            return "problem", f"{path}: verifies a false claim {claim}"
    elif field not in ALTERNATIVE_WITNESSES:
        return "problem", f"{path}: verifies with a changed {field!r}"
    elif claim != {k: original[k] for k in CLAIM_FIELDS}:
        return "problem", f"{path}: changes the claim to {claim}"
    return "verified", field


def sweep(payload: dict) -> tuple:
    """(mutant count, problems, fields whose mutants verified) of one
    certificate, which must verify."""
    ok, _, claim = C.verify_claim(payload)
    assert ok and claim == {k: payload[k] for k in CLAIM_FIELDS}, claim
    count, problems, verified = 0, [], set()
    for path, mutant in mutants(payload):
        count += 1
        verdict, detail = judge(payload, path, mutant)
        if verdict == "verified":
            verified.add(detail)
        elif verdict == "problem":
            problems.append(detail)
    return count, problems, verified


def main() -> int:
    start = time.perf_counter()
    total = certs = 0
    verified: set = set()
    failed = []
    for name, payload in certificates(full=False):
        count, problems, seen = sweep(payload)
        certs += 1
        total += count
        verified |= seen
        failed += [f"{name}: {p}" for p in problems]
    print(f"{certs} certificates, {total} mutants, "
          f"{time.perf_counter() - start:.1f} s; mutants that verified "
          f"changed {sorted(verified) or 'nothing'}")
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
