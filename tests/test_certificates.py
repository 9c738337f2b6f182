import ast
import copy
import enum
import json
import random
from collections import Counter, OrderedDict, defaultdict

import pytest

from exlift import (certificates as C, lifting as L, matrices as M,
                    rings as R, scans)
from exlift.errors import InvalidSpec
from exlift.ktheory import fredholm_elements

import certificates_v1 as V1
import mutate_src as MS
import reduction_contracts as R_C
import tamper as T
import verify_agree as VA
from reduction_contracts import corpus_lifts, reduction_contract_failures
from table_oracles import thaw


def z4_pair():
    z4 = R.build_ring(R.ZmodSpec(4))
    return z4, R.ideal_closure(z4, [2])


def t2_matrix(t2, rows):
    return M.matrix(t2, [[R.element_from_descriptor(t2, d) for d in row]
                         for row in rows])


def t2_pair():
    """T_2(Z/2), which is noncommutative, with the ideal (e12) and an input
    whose column reduction and diagonalization have nonzero ops.  Every
    single-entry change of the generator e12 changes the ideal."""
    t2 = R.build_ring(R.TriangularSpec(R.ZmodSpec(2), 2))
    e12 = R.element_from_descriptor(t2, [[0, 1], [0, 0]])
    alpha = t2_matrix(t2, [[[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                           [[[0, 1], [0, 0]], [[1, 0], [0, 1]]]])
    return t2, R.ideal_closure(t2, [e12]), alpha


def m2_orbit_pair():
    """M_2(Z/2) with the zero ideal and x = [[0, 1], [1, 1]], whose lift
    records a 10-op orbit word."""
    m2 = R.build_ring(R.MatrixSpec(R.ZmodSpec(2), 2))
    return m2, R.zero_ideal(m2), R.element_from_descriptor(m2, [[0, 1],
                                                                [1, 1]])


def fresh_payloads():
    z4, ideal = z4_pair()
    t2, ideal_t2, _ = t2_pair()
    m2, zero, x = m2_orbit_pair()
    lift = lambda ring, ideal, x, m=2: L.lift_unit(
        ring, ideal, x, start_m=m).certificate.to_payload()
    return {"lift": lift(z4, ideal, 3),
            "forced m=4 lift": lift(z4, ideal, 3, 4),
            "lift over T_2(Z/2)": lift(t2, ideal_t2, t2.one),
            "forced m=4 lift over T_2(Z/2)": lift(t2, ideal_t2, t2.one, 4),
            "lift with an orbit word": lift(m2, zero, x)}


def test_fresh_certificates_verify():
    # a version 3 stage records its join idempotents and a' only
    for kind, payload in fresh_payloads().items():
        ok, checks = C.verify_payload(payload)
        assert ok, (kind, [c for c in checks if not c["ok"]])
        assert payload["version"] == C.VERSION == 3
        assert all(rec.keys() == {"g_row", "g_col", "a_prime"}
                   for rec in payload["stages"]), kind


# the checks a valid certificate passes, each once per reduction, stage or
# lift; a column reduction runs the row reduction's checks over R^op.  Only
# checks a recorded witness or the claim can fail are run: the scans'
# return contracts are asserted by ``reduction_contract_failures``
REDUCTION_CHECKS = [
    "f1 in ideal", "g idempotent in wR", "g spans f1,f2", "g in f1R+f2R",
    "word in E_2(I)", "1-h in ideal", "c' in Rc", "c'R = (1-h)R",
    "d'R = hR", "RhR = R"]
STAGE_CHECKS = 2 * REDUCTION_CHECKS + [
    "a' is a unit", "diagonalization identity", "pi(a') = pi(a u^-1)"]


def lift_checks(m: int) -> Counter:
    names = ["format", "kind", "fields", "stabilization level",
             "y1 invertible", "pi(w1) = pi(x)+1", "stage count",
             "y is the final stage output", "y is a unit", "x - y in I"]
    for idx in range(m // 2):
        names += [f"stage {idx} fields"] + STAGE_CHECKS
    return Counter(names)


def test_valid_certificates_run_every_check(corpus_pairs):
    z4, ideal = z4_pair()
    for m, total in ((2, 34), (4, 58)):
        payload = L.lift_unit(z4, ideal, 3, start_m=m).certificate \
            .to_payload()
        ok, checks = C.verify_payload(payload)
        assert ok and len(checks) == total
        assert Counter(c["check"] for c in checks) == lift_checks(m)
    for name, x, m, cert in corpus_lifts(corpus_pairs):
        ok, checks = C.verify_payload(cert.to_payload())
        assert ok and Counter(c["check"] for c in checks) == lift_checks(m), \
            (name, x, m)


def test_construction_replays_the_recorded_witnesses(corpus_pairs):
    # the verifier runs the lift's own construction with a certificate's
    # recorded join idempotents: it rebuilds each stage field for field,
    # words, traces (f, p and v), u and a' included
    stages = 0
    for name, x, m, cert in corpus_lifts(corpus_pairs):
        payload = json.loads(C.dumps_certificate(cert.to_payload()))
        for st, rec in zip(cert.stages, payload["stages"], strict=True):
            wit = {key: R.element_from_descriptor(st.stage_ring, val)
                   for key, val in rec.items()}
            a_prime = wit.pop("a_prime")
            again = L._diagonalize(st.stage_ring, st.stage_ideal,
                                   st.diag.alpha, **wit)
            assert again == st.diag and again.a_prime == a_prime, \
                (name, x, m)
            stages += 1
    assert stages == 224
    # a given witness is used as is, also where the search picks another:
    # here w = 1, so every idempotent of Z/6 lies in wR
    z6 = R.build_ring(R.ZmodSpec(6))
    alpha = M.matrix(z6, [[1, 2], [3, 1]])
    assert tuple(L._reduce_row(z6, R.full_ideal(z6), alpha, g)
                 .trace["corner"]["g"] for g in z6.idempotents()) \
        == z6.idempotents() == (0, 1, 3, 4)


def test_col_reduction_certificate():
    # the column reduction meets its contracts, checked outside the lift,
    # and a lift certificate replays its column reductions
    z4, ideal = z4_pair()
    rc = L.reduce_col(z4, ideal, M.matrix(z4, [[1, 2], [0, 1]]))
    assert rc.side == "col" and reduction_contract_failures(rc) == []
    t2, ideal_t2, alpha = t2_pair()
    rc = L.reduce_col(t2, ideal_t2, alpha)
    assert reduction_contract_failures(rc) == []
    ok, checks = C.verify_payload(fresh_payloads()["lift over T_2(Z/2)"])
    assert ok and [c["check"] for c in checks].count("RhR = R") == 2


def test_col_payload_replays_as_row_reduction_over_opposite_ring():
    # full ideal: here the column reduction is not the row reduction over R
    # transposed, so only the R^op mirror reproduces it
    t2 = R.build_ring(R.TriangularSpec(R.ZmodSpec(2), 2))
    full = R.full_ideal(t2)
    alpha = t2_matrix(t2, [[[[0, 0], [0, 1]], [[1, 0], [0, 0]]],
                           [[[1, 1], [0, 1]], [[0, 0], [0, 1]]]])
    rc = L.reduce_col(t2, full, alpha)
    rr = L.reduce_row(t2.op(), full, alpha.op())
    assert rc.alpha.ring is rc.result.ring is t2
    assert (rc.h, rc.trace) == (rr.h, rr.trace)
    assert rc.word.op() == rr.word and rc.result.op() == rr.result
    assert {op.side for op in rc.word.ops} == {"left"}
    assert rc.word != L.reduce_row(t2, full, alpha).word.op()
    assert reduction_contract_failures(rc) == []
    # the verifier derives the column reduction's h over R^op the same way:
    # a recorded g_col that is no idempotent fails there
    payload = L.lift_unit(t2, full, t2.zero).certificate.to_payload()
    ok, checks = C.verify_payload(payload)
    names = [c["check"] for c in checks]
    assert ok and names.count("RhR = R") == 2
    payload["stages"][0]["g_col"] = [[0, 1], [0, 0]]
    ok, checks = C.verify_payload(payload)
    assert not ok and "g idempotent in wR" in {c["check"] for c in checks
                                               if not c["ok"]}


def test_m4_lift_certificate():
    z4, ideal = z4_pair()
    res = L.lift_unit(z4, ideal, 3, start_m=4)
    ok, checks = C.verify_payload(res.certificate.to_payload())
    assert ok, [c for c in checks if not c["ok"]]


def test_lift_certificate_rejects_stabilization_level_two():
    # y1 + 1 as a 2x2 y1 pads to the same w1, yet lift_unit only records
    # units of R, so y1 is an element and a v1-style k field is unknown
    z4, ideal = z4_pair()
    for start_m in (2, 4):
        payload = L.lift_unit(z4, ideal, 3, start_m=start_m).certificate \
            .to_payload()
        y1 = payload["y1"]
        for mutated, failed in ((dict(payload, y1=[[y1, 0], [0, 1]]),
                                 "well-formed"),
                                (dict(payload, k=2), "fields"),
                                (dict(payload, m=1), "stabilization level")):
            ok, checks = C.verify_payload(json.loads(json.dumps(mutated)))
            assert not ok
            assert failed in {c["check"] for c in checks if not c["ok"]}


def test_lift_certificate_rejects_level_and_oracle_flag_mutations():
    # a stage's level and dimension follow from m, and y being a unit with
    # x - y in I proves that a lift exists: version 1's "level", "dim" and
    # "oracle_confirmed" fields are unknown to version 3, and the stages
    # come in the order the dimension halves
    z4, ideal = z4_pair()
    payload = L.lift_unit(z4, ideal, 3, start_m=4).certificate.to_payload()
    for key, value in (("level", "blocked"), ("dim", 4)):
        mutated = copy.deepcopy(payload)
        mutated["stages"][0][key] = value
        ok, checks = C.verify_payload(mutated)
        assert not ok and "stage 0 fields" in {c["check"] for c in checks
                                               if not c["ok"]}, key
    for flag in (True, "no", 1, [0]):
        mutated = dict(payload, oracle_confirmed=flag)
        ok, checks = C.verify_payload(mutated)
        assert not ok and "fields" in {c["check"] for c in checks
                                       if not c["ok"]}, flag
    swapped = dict(payload, stages=payload["stages"][::-1])
    ok, checks = C.verify_payload(swapped)
    assert not ok and "well-formed" in {c["check"] for c in checks
                                        if not c["ok"]}


def test_lift_certificate_proves_a_lift_of_the_coset():
    z4, ideal = z4_pair()
    payload = fresh_payloads()["lift"]
    assert R.element_from_descriptor(z4, payload["x"]) == 3
    congruent = dict(payload, x=R.element_descriptor(z4, 1))
    ok, checks, claim = C.verify_claim(congruent)
    assert ok, [c for c in checks if not c["ok"]]
    # the same lift of the same unit of R/I: the report names x = 1
    assert claim == {"ring": {"type": "zmod", "n": 4},
                     "ideal_generators": [2], "x": 1, "y": 1, "m": 2}
    other = dict(payload, x=R.element_descriptor(z4, 2))
    ok, checks = C.verify_payload(other)
    assert not ok
    assert "pi(w1) = pi(x)+1" in {c["check"] for c in checks if not c["ok"]}


def test_certificate_proves_its_own_lift_only():
    # 3 is also a unit of Z/4 lifting pi(3), but not the one the replayed
    # construction outputs: the claim checks alone would accept it, so only
    # "y is the final stage output" ties the claim to the proof
    z4, ideal = z4_pair()
    payload = fresh_payloads()["lift"]
    assert R.element_from_descriptor(z4, payload["y"]) == 1
    ok, checks = C.verify_payload(dict(payload,
                                       y=R.element_descriptor(z4, 3)))
    assert not ok
    assert [c["check"] for c in checks if not c["ok"]] \
        == ["y is the final stage output"]


@pytest.mark.parametrize("pair, x, key, forged, check", [
    # an idempotent in wR and f1R + f2R whose reduction still carries the
    # lift through, but RgR is not Rf1R + Rf2R
    ("quotient(triangular(zmod(2),2),[e12]) |I|=1", 3, "g_row",
     [[0, 0], [0, 1]], "g spans f1,f2"),
])
def test_a_forged_witness_only_its_own_check_rejects(corpus_pairs, pair, x,
                                                     key, forged, check):
    # single-leaf mutants of the sweep; disabling the one check that
    # rejects each would let it verify
    ring, ideal = next((r, i) for n, r, i, _ in corpus_pairs if n == pair)
    payload = L.lift_unit(ring, ideal, x).certificate.to_payload()
    assert payload["stages"][0][key] != forged
    ok, checks = C.verify_payload(T.with_value(payload, ["stages", 0, key],
                                               forged))
    assert not ok and [c["check"] for c in checks if not c["ok"]] == [check]


def test_certificate_verifies_in_a_cold_process(tmp_path, cold_python):
    # the verifier needs nothing the lift left in ring._cache
    z4, ideal = z4_pair()
    payload = L.lift_unit(z4, ideal, 3, start_m=4).certificate.to_payload()
    path = tmp_path / "m4.json"
    C.save_certificate(payload, str(path))
    out = cold_python(
        "import sys\n"
        "from exlift import certificates as C\n"
        "ok, checks = C.verify_payload(C.load_certificate(sys.argv[1]))\n"
        "print(ok, len(checks))\n", str(path))
    assert out.split() == ["True", str(len(C.verify_payload(payload)[1]))]


def test_save_load_roundtrip(tmp_path):
    payload = fresh_payloads()["lift"]
    path = tmp_path / "cert.json"
    C.save_certificate(payload, str(path))
    again = C.load_certificate(str(path))
    assert again == payload
    # byte-exact round trip
    assert C.dumps_certificate(again) == C.dumps_certificate(payload)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(InvalidSpec):
        C.load_certificate(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(InvalidSpec):
        C.load_certificate(str(path))


def test_version_1_certificate_fails_the_format_check():
    z4, ideal = z4_pair()
    cert = L.lift_unit(z4, ideal, 3).certificate
    ok, checks = C.verify_payload(V1.lift_payload(cert))
    assert not ok and checks == [{"check": "format", "ok": False,
                                  "detail": "format='exlift-cert' version=1"}]


def test_version_2_certificate_fails_the_format_check():
    # the parent format recorded f, p, u and v in every stage
    z4, ideal = z4_pair()
    for start_m in (2, 4):
        cert = L.lift_unit(z4, ideal, 3, start_m=start_m).certificate
        payload = V1.lift_payload_v2(cert)
        assert all(rec.keys() == C._STAGE_FIELDS | {"f", "p", "u", "v"}
                   for rec in payload["stages"])
        ok, checks = C.verify_payload(payload)
        assert not ok and checks == [
            {"check": "format", "ok": False,
             "detail": "format='exlift-cert' version=2"}]


def test_single_field_mutations_rejected():
    # every mutant by the sweep's rules, on a sample of 50 paths of each
    # fresh certificate: each fails, or verifies as ``tamper`` allows
    rng = random.Random(20260809)
    for kind, payload in fresh_payloads().items():
        found = list(T.mutants(payload))
        assert len(found) >= 60, (kind, len(found))
        failed = 0
        for path, mutated in rng.sample(found, min(50, len(found))):
            verdict, detail = T.judge(payload, path, mutated)
            assert verdict != "problem", detail
            failed += verdict == "failed"
        assert failed >= 40, (kind, failed)


# one certificate per ring shape, one whose recipe nests a quotient's
# generators in a product's descriptor, and the forced m=4 Z/4 certificate
SWEEP = {"zmod": ("zmod(8) |I|=2", 2),
         "quotient": ("quotient(zmod(16),[4]) |I|=2", 2),
         "quotient of a product": ("quotient(zmod(2)xM2,[0xM2]) |I|=2", 2),
         "matrix": ("matrix(zmod(2),2)+zero", 2),
         "triangular": ("triangular(zmod(2),2)", 2),
         "product": ("zmod(2)xM2(zmod(2))+left", 2),
         "forced m=4": ("zmod(4) |I|=2", 4)}


@pytest.mark.parametrize("shape", sorted(SWEEP))
def test_tamper_sweep(shape, corpus_pairs):
    # every mutant by every rule; the full sweep over the corpus runs as
    # ``python tests/tamper.py``
    name, m = SWEEP[shape]
    ring, ideal = next((r, i) for n, r, i, _ in corpus_pairs if n == name)
    x = fredholm_elements(ring, ideal)[-1]
    payload = L.lift_unit(ring, ideal, x, start_m=m).certificate.to_payload()
    count, problems, verified = T.sweep(payload)
    assert problems == [] and count >= 60, (count, problems)
    assert verified <= set(T.CLAIM_FIELDS) | T.ALTERNATIVE_WITNESSES


def test_shadowed_checks_fail_with_what_implies_them(corpus_pairs):
    # tests/mutate_src.py names, for each check no test kills when it is
    # disabled, the verifier checks, replay stops or reduction contracts
    # that imply it; disabled, it leaves one of them failing on every
    # mutant of the sweep shapes that it fails (the CI step runs the sweep)
    tree = ast.parse(MS.TARGET.read_text(encoding="utf-8"))
    checks = {s.name for s in MS.sites(tree)}
    t2, ideal_t2, alpha = t2_pair()
    contracts = R_C.reduction_contracts(L.reduce_row(t2, ideal_t2, alpha)) \
        | R_C.diagonalization_contracts(L.diagonalize_2x2(t2, ideal_t2, alpha))
    known = checks | set(MS.REPLAY_STOPS) | contracts.keys()
    assert MS.SHADOWED.keys() | MS.OPEN.keys() <= checks
    assert not MS.SHADOWED.keys() & MS.OPEN.keys()
    assert all(set(names) <= known for names in MS.SHADOWED.values())
    payloads = []
    for shape, (name, m) in sorted(SWEEP.items()):
        ring, ideal = next((r, i) for n, r, i, _ in corpus_pairs if n == name)
        x = fredholm_elements(ring, ideal)[-1]
        payloads.append((shape, L.lift_unit(ring, ideal, x, start_m=m)
                         .certificate.to_payload()))
    assert MS.shadow_misses(payloads) == []


def _miss_on_call(fn, n):
    """fn, but returning None on its n-th call."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        return None if len(calls) == n else fn(*args)
    return wrapped


@pytest.mark.parametrize("check, module, name, n", [
    ("corner witnesses found", scans, "corner_witnesses_right", 1),
    ("g idempotent in wR", L, "solve_right", 1),
    # the first call is the row reduction's pass 1
    ("pass2 witnesses found", scans, "row_pass_witnesses", 2),
    # split's fourth call decomposes R for h: after pass 1, the corner
    # and pass 2 of the row reduction
    ("h found", scans, "split", 4),
    # the unit-regular step on b': its hypothesis (p) and its scan
    ("unit-regular step", scans, "idempotent_generator_right", 1),
    ("unit-regular step", scans, "unit_regular_scan", 1),
    ("v found", scans, "pseudoinverse_scan", 1),
])
def test_replay_misses_fail_under_their_own_names(monkeypatch, check, module,
                                                  name, n):
    # no single-leaf mutant reaches these misses on the corpus rings, so
    # the scan or solve the construction calls misses while it replays a
    # valid certificate
    z4, ideal = z4_pair()
    payload = L.lift_unit(z4, ideal, 3).certificate.to_payload()
    monkeypatch.setattr(module, name, _miss_on_call(getattr(module, name), n))
    ok, checks = C.verify_payload(payload)
    assert not ok
    assert [c["check"] for c in checks if not c["ok"]] == [check]


def test_failed_unit_regular_hypothesis_fails_its_step(monkeypatch):
    # RpR != R for the p the replay derives stops it under the step's name
    z4, ideal = z4_pair()
    payload = L.lift_unit(z4, ideal, 3).certificate.to_payload()
    monkeypatch.setattr(L, "entry_ideal",
                        lambda ring, gens: R.zero_ideal(ring))
    ok, checks = C.verify_payload(payload)
    assert not ok and [(c["check"], c["detail"]) for c in checks
                       if not c["ok"]] == [("unit-regular step", "RpR != R")]


def test_op_index_outside_the_matrix_is_a_failed_check():
    payload = fresh_payloads()["lift with an orbit word"]
    mutated = copy.deepcopy(payload)
    mutated["z_word"][2]["j"] = 3
    ok, checks = C.verify_payload(mutated)
    assert not ok
    assert [c["check"] for c in checks if not c["ok"]] == ["well-formed"]
    assert "op indices out of range" in checks[-1]["detail"]


def _fails_or_names_its_claim(mutated):
    """A changed claim field fails, or verifies a true claim the report
    names."""
    ok, checks, claim = C.verify_claim(mutated)
    if ok:
        assert claim == {k: mutated[k] for k in T.CLAIM_FIELDS}
        assert T.claim_holds(claim)
    return ok


def test_ring_digest_detects_spec_mutation():
    # the recipe is the claim: zmod(5) in place of zmod(4) verifies, as the
    # lift of 3 modulo (2) = Z/5, since every stage of the Z/4 lift (g_row,
    # g_col and a' all 1) replays over Z/5; over zmod(3), x = 3 names no
    # element
    payload = fresh_payloads()["lift"]
    mutated = copy.deepcopy(payload)
    mutated["ring"]["n"] = 5
    assert _fails_or_names_its_claim(mutated)
    mutated["ring"]["n"] = 3
    assert not _fails_or_names_its_claim(mutated)


def test_ideal_digest_detects_generator_mutation():
    # the generators are part of the claim: (3) = Z/4 makes x - y in I true
    # for every x, so this one verifies, as the lift of 3 modulo Z/4
    payload = fresh_payloads()["lift"]
    mutated = copy.deepcopy(payload)
    mutated["ideal_generators"] = [3]
    assert _fails_or_names_its_claim(mutated)
    mutated["ideal_generators"] = [0]
    assert not _fails_or_names_its_claim(mutated)


def test_swapped_ring_recipes_fail_or_name_themselves():
    # four recipes build the tables of quotient(zmod(16),[4]); a table
    # digest let each of them verify as if it were the original.  Now each
    # fails, or verifies with a report naming the recipe it carries
    q = R.build_ring(R.QuotientSpec(R.ZmodSpec(16), (4,)))
    ideal = R.ideal_closure(q, [2])
    payload = L.lift_unit(q, ideal, 3).certificate.to_payload()
    assert C.verify_payload(payload)[0]
    base = lambda n: {"type": "zmod", "n": n}
    recipes = [(16, 12), (20, 4), (8, 4), (4, 0)]
    verified = 0
    for n, gen in recipes:
        ring = {"type": "quotient", "base": base(n),
                "ideal": {"generators": [gen]}}
        verified += _fails_or_names_its_claim(dict(payload, ring=ring))
    assert verified == 4


def test_bool_for_int_mutations_rejected():
    # JSON true/false are ints to Python: every 0 -> false and 1 -> true leaf
    # change of a forced m=4 certificate must fail, as any other change does
    z4, ideal = z4_pair()
    payload = L.lift_unit(z4, ideal, 3, start_m=4).certificate.to_payload()
    paths = []

    def walk(node, path):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, val in items:
            walk(val, path + [key])
        if type(node) is int and node in (0, 1):
            paths.append(path)

    walk(payload, [])
    assert len(paths) == 17
    for path in paths:
        mutated = copy.deepcopy(payload)
        node = mutated
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = bool(node[path[-1]])
        ok, _ = C.verify_payload(mutated)
        assert not ok, path


# keys whose int values are no element descriptors (the ring recipe holds
# descriptors of other rings)
_NOT_ELEMENTS = {"version", "m", "i", "j"}


def element_leaf_paths(payload):
    """Paths of every int leaf of payload that sits in an element
    descriptor of the certificate's ring or of a stage ring."""
    paths = []

    def walk(node, path, key):
        if isinstance(node, dict):
            for k, val in node.items():
                if k != "ring":
                    walk(val, path + [k], k)
        elif isinstance(node, list):
            for i, val in enumerate(node):
                walk(val, path + [i], key)
        elif type(node) is int and key not in _NOT_ELEMENTS:
            paths.append(path)

    walk(payload, [], None)
    return paths


def test_zmod_leaf_shifted_by_n_fails():
    # d + n and d - n name d's residue, yet only d is its descriptor: on the
    # base stage (m = 2) and on the blocked M_2(Z/4) stage (forced m = 4)
    z4, ideal = z4_pair()
    for start_m in (2, 4):
        payload = L.lift_unit(z4, ideal, 3, start_m=start_m).certificate \
            .to_payload()
        paths = element_leaf_paths(payload)
        assert len(paths) == (7 if start_m == 2 else 19)
        assert len(payload["stages"]) == start_m // 2
        for path in paths:
            for shift in (4, -4):
                mutated = T.with_value(payload, path,
                                       T.at(payload, path) + shift)
                ok, checks = C.verify_payload(mutated)
                assert not ok, (start_m, path, shift)
    payload = L.lift_unit(z4, ideal, 3, start_m=4).certificate.to_payload()
    assert not C.verify_payload(dict(payload, y=payload["y"] + 4))[0]


def test_quotient_leaf_naming_another_coset_member_fails():
    # quotient(zmod(16),[4]) names each coset by its least member 0..3;
    # d + 4 is another member of the same coset, and no descriptor
    q = R.build_ring(R.QuotientSpec(R.ZmodSpec(16), (4,)))
    assert [R.element_descriptor(q, i) for i in q.elements()] == [0, 1, 2, 3]
    for gens in ([], [2]):
        ideal = R.ideal_closure(q, [R.element_from_descriptor(q, g)
                                    for g in gens])
        for start_m in (2, 4):
            payload = L.lift_unit(q, ideal, 3, start_m=start_m).certificate \
                .to_payload()
            assert C.verify_payload(payload)[0]
            paths = element_leaf_paths(payload)
            assert len(paths) >= 6
            for path in paths:
                for other in (T.at(payload, path) + 4,
                              T.at(payload, path) + 12):
                    mutated = T.with_value(payload, path, other)
                    ok, checks = C.verify_payload(mutated)
                    assert not ok, (gens, path, other)
                    assert "well-formed" in {c["check"] for c in checks
                                             if not c["ok"]}
    with pytest.raises(InvalidSpec):
        R.element_from_descriptor(q, 5)
    # over a structured base: the class of e12 in T_2(Z/2) mod (e12) is
    # named by the zero matrix only
    qt = R.build_ring(R.QuotientSpec(R.TriangularSpec(R.ZmodSpec(2), 2),
                                     (((0, 1), (0, 0)),)))
    assert R.element_from_descriptor(qt, [[0, 0], [0, 0]]) == qt.zero
    with pytest.raises(InvalidSpec):
        R.element_from_descriptor(qt, [[0, 1], [0, 0]])


def test_bool_refused_after_its_int_is_memoized():
    z2 = R.build_ring(R.ZmodSpec(2))
    assert R.element_from_descriptor(z2, 1) == 1
    assert z2._cache["decode"][1] == 1     # and True == 1 hashes alike
    for desc in (True, False, 1.0):
        with pytest.raises(InvalidSpec):
            R.element_from_descriptor(z2, desc)
    m2 = R.build_ring(R.MatrixSpec(R.ZmodSpec(2), 2))
    one = R.element_from_descriptor(m2, [[1, 0], [0, 1]])
    assert one == m2.one
    assert R.element_from_descriptor(m2, ((1, 0), (0, 1))) == one
    with pytest.raises(InvalidSpec):
        R.element_from_descriptor(m2, [[True, 0], [0, 1]])


def test_descriptor_copies_do_not_alias_the_memo():
    m2 = R.build_ring(R.MatrixSpec(R.ZmodSpec(2), 2))
    desc = R.element_descriptor(m2, m2.one)
    assert desc == [[1, 0], [0, 1]]
    desc[0][0] = 7
    desc.append("junk")
    assert R.element_descriptor(m2, m2.one) == [[1, 0], [0, 1]]
    payload = fresh_payloads()["forced m=4 lift"]
    payload["stages"][0]["a_prime"][0][0] = 99
    assert fresh_payloads()["forced m=4 lift"]["stages"][0]["a_prime"][0][0] \
        != 99


def _oracle(payload):
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def test_writer_matches_json_on_fresh_payloads():
    payloads = list(fresh_payloads().values())
    for x in (1, 3):
        for start_m in (2, 4):
            payloads.append(L.lift_unit(*z4_pair(), x, start_m=start_m)
                            .certificate.to_payload())
    for payload in payloads:
        assert C.dumps_certificate(payload) == _oracle(payload)


def test_writer_matches_json_on_edge_shapes():
    shapes = [
        {}, [], {"a": []}, {"a": {}}, [[]], [{}], [[], {}, [[]], {"b": {}}],
        (1, (2, 3)), {"t": ((), (4,), [(5, [6])])},
        {"n": [-1, 0, -(2 ** 70), 2 ** 64 + 1]},
        {"flags": [True, False, None], "one": True, "none": None},
        [1, True, 2], [0, False], [None],
        {"s": 'quote " backslash \\ slash / ctl \x00\x01\x1f\x7f tab\tnl\n'},
        {"s": "café ☃ \U0001f600 \ud800"},
        {"é": 1, "b": 2, "A": 3, "": 4, "a\"b": 5},
        {"z": {"y": {"x": [[1, [2, [3]]], "w"]}}},
        "bare string", 7, None, True,
    ]
    for value in shapes:
        assert C.dumps_certificate(value) == _oracle(value), value


def test_writer_matches_json_on_subclasses():
    class Level(enum.IntEnum):
        LOW = 1
        HIGH = 7

    class Big(int):               # JSON writes the int, not these
        def __repr__(self):
            return "Big"

        __str__ = __repr__

    class Text(str):
        def __repr__(self):
            return "Text"

    class Row(list):
        pass

    class Pair(tuple):
        pass

    shapes = [
        Level.HIGH, Big(2 ** 70), Text('a"b'), Row([1, 2]), Row([]),
        Pair((3, [4])), Pair(()), [Level.LOW, 2, Big(-3)], [1, Text("x")],
        OrderedDict([("b", Level.LOW), ("a", Text("x")), ("c", Big(0))]),
        OrderedDict(), defaultdict(list, {"k": Row([Big(5), True, None])}),
        {Text("key"): Row([Level.HIGH, Pair(()), OrderedDict([("z", [])])])},
        {"x": Big(1), "y": Text("t"), "z": Pair((Level.LOW,)), "b": False},
        M.ElemOp("left", 1, 2, 3), [M.ElemWord(2, ())],
    ]
    for value in shapes:
        assert C.dumps_certificate(value) == _oracle(value), value


def test_descriptors_by_shape_match_the_generic_thaw(scan_rings):
    # every corpus ring and M_2(R) up to 4,096 elements (opposite rings
    # have no descriptors)
    count = 0
    for ring in scan_rings:
        if isinstance(ring.spec, R.OppositeSpec):
            continue
        for idx in range(ring.size):
            first = R.element_descriptor(ring, idx)
            second = R.element_descriptor(ring, idx)
            assert first == thaw(R._encode(ring, idx)), (ring.describe(),
                                                           idx)
            assert not _list_ids(first) & _list_ids(second), idx
            count += 1
    assert count > 10000


def _plain_json(value) -> bool:
    """value holds only dicts with str keys, lists, ints and strs."""
    if type(value) is dict:
        return all(type(k) is str and _plain_json(v) for k, v in value.items())
    if type(value) is list:
        return all(_plain_json(v) for v in value)
    return type(value) in (int, str)


def test_ring_spec_objects_are_plain_json(corpus_rings):
    # a quotient's generators come out as lists at every depth, as a
    # certificate file holds them, also where the recipe nests descriptors
    for entry, ring in corpus_rings:
        obj = R.ring_spec_obj(ring.spec)
        assert _plain_json(obj), (entry.name, obj)
        assert json.loads(json.dumps(obj)) == obj, entry.name
        assert R.parse_ring_spec(obj) == entry.spec, entry.name


def test_verified_claims_equal_the_loaded_claims(corpus_pairs):
    # the claim the verifier reports equals the claim fields of the file it
    # read, for one certificate per default pair
    for name, ring, ideal, _ in corpus_pairs:
        x = fredholm_elements(ring, ideal)[0]
        payload = json.loads(C.dumps_certificate(
            L.lift_unit(ring, ideal, x).certificate.to_payload()))
        ok, _, claim = C.verify_claim(payload)
        assert ok and claim == {k: payload[k] for k in T.CLAIM_FIELDS}, \
            (name, claim)


def _list_ids(value) -> set:
    """The ids of value and of every list nested in it, if value is one."""
    if not isinstance(value, list):
        assert type(value) is int
        return set()
    return {id(value)}.union(*map(_list_ids, value))


def test_writer_refuses_what_json_would_coerce_or_reject():
    for value in ({"a": 1.0}, [0.5], {1: 2}, {None: 0}, {"s": {1, 2}},
                  [object()], {"b": b"x"}):
        with pytest.raises(TypeError):
            C.dumps_certificate(value)


def test_warm_and_cold_verifiers_agree(tmp_path):
    # the 94 `exlift corpus` certificates and the forced m=4 ones, verified
    # after this process's lifts and verifies, and in a fresh interpreter;
    # ``python tests/verify_agree.py`` replays the --full corpus
    count, differ = VA.agree(VA.certificates(full=False), str(tmp_path))
    assert count == 110 and differ == []


def _drop_closures(ring) -> None:
    for key in [k for k in ring._cache
                if type(k) is tuple and k[0] == "ideal_closure"]:
        del ring._cache[key]


def test_closure_memo_is_keyed_by_the_exact_generators():
    # (2) of Z/8 named in four ways; each claim names its own generators,
    # whichever was closed first
    z8 = R.build_ring(R.ZmodSpec(8))
    payload = L.lift_unit(z8, R.ideal_closure(z8, [2, 4]),
                          3).certificate.to_payload()
    names = ([2, 4], [4, 2], [2, 4, 2], [6])
    for order in (names, names[::-1]):
        _drop_closures(z8)
        for gens in order:
            ok, checks, claim = C.verify_claim(dict(payload,
                                                    ideal_generators=gens))
            assert ok and claim["ideal_generators"] == gens, (gens, checks)
    # a tuple that closes to another ideal never gets an earlier Ideal
    two = R.ideal_closure(z8, [2])
    four = R.ideal_closure(z8, [4])
    assert R.ideal_closure(z8, [2]) is two and four is not two
    assert (four.sorted_members, four.generators) == ((0, 4), (4,))
    assert two.sorted_members == (0, 2, 4, 6)
    other = dict(payload, ideal_generators=[4])
    warm = C.verify_claim(other)
    _drop_closures(z8)
    assert C.verify_claim(other) == warm
    assert warm[2]["ideal_generators"] == [4]


def test_both_entry_points_agree():
    # verify_payload is verify_claim without its claim, on every corpus
    # certificate and, on every tenth, on one tamper mutant per field,
    # picked by a fixed seed
    rng = random.Random(20261020)
    payloads = [p for _, p in VA.certificates(full=False)]
    fields = set()
    for idx, payload in enumerate(payloads):
        assert C.verify_payload(payload) == C.verify_claim(payload)[:2]
        if idx % 10:
            continue
        by_field = defaultdict(list)
        for path, mutant in T.mutants(payload):
            by_field[T.witness_field(path)].append(mutant)
        fields |= by_field.keys()
        for field in sorted(by_field, key=str):
            p = rng.choice(by_field[field])
            assert C.verify_payload(p) == C.verify_claim(p)[:2], field
    assert fields == C._FIELDS | C._STAGE_FIELDS | {None}
