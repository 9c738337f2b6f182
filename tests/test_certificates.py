import copy
import json
import random

import pytest

from exlift import certificates as C, lifting as L, matrices as M, rings as R
from exlift.errors import InvalidSpec


def z4_pair():
    z4 = R.build_ring(R.ZmodSpec(4))
    return z4, R.ideal_closure(z4, [2])


def fresh_payloads():
    z4, ideal = z4_pair()
    rr = L.reduce_row(z4, ideal, M.matrix(z4, [[1, 0], [2, 1]]))
    dg = L.diagonalize_2x2(z4, ideal, M.matrix(z4, [[1, 2], [2, 1]]))
    lf = L.lift_unit(z4, ideal, 3).certificate
    return {"reduction": rr.to_payload(),
            "diagonalization": dg.to_payload(),
            "lift": lf.to_payload()}


def test_fresh_certificates_verify():
    for kind, payload in fresh_payloads().items():
        ok, checks = C.verify_payload(payload)
        assert ok, (kind, [c for c in checks if not c["ok"]])


def test_col_reduction_certificate():
    z4, ideal = z4_pair()
    rc = L.reduce_col(z4, ideal, M.matrix(z4, [[1, 2], [0, 1]]))
    ok, checks = C.verify_payload(rc.to_payload())
    assert ok


def test_m4_lift_certificate():
    z4, ideal = z4_pair()
    res = L.lift_unit(z4, ideal, 3, start_m=4)
    ok, checks = C.verify_payload(res.certificate.to_payload())
    assert ok, [c for c in checks if not c["ok"]]


def test_lift_certificate_proves_a_lift_of_the_coset():
    z4, ideal = z4_pair()
    payload = fresh_payloads()["lift"]
    assert R.element_from_descriptor(z4, payload["x"]) == 3
    congruent = dict(payload, x=R.element_descriptor(z4, 1))
    ok, checks = C.verify_payload(congruent)
    assert ok, [c for c in checks if not c["ok"]]
    other = dict(payload, x=R.element_descriptor(z4, 2))
    ok, checks = C.verify_payload(other)
    assert not ok
    assert "pi(w1) = pi(x)+1" in {c["check"] for c in checks if not c["ok"]}


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


def mutate_leaves(payload, rng, limit):
    """Distinct single-leaf mutations of a JSON payload (ints flipped,
    booleans negated, strings extended)."""
    paths = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, val in node.items():
                walk(val, path + [key])
        elif isinstance(node, list):
            for i, val in enumerate(node):
                walk(val, path + [i])
        else:
            paths.append(path)

    walk(payload, [])
    rng.shuffle(paths)
    out = []
    for path in paths:
        if len(out) >= limit:
            break
        mutated = copy.deepcopy(payload)
        node = mutated
        for step in path[:-1]:
            node = node[step]
        leaf = node[path[-1]]
        if isinstance(leaf, bool):
            node[path[-1]] = not leaf
        elif isinstance(leaf, int):
            node[path[-1]] = leaf + 1
        elif isinstance(leaf, str):
            node[path[-1]] = leaf + "x"
        else:
            continue
        out.append((path, mutated))
    return out


def _semantically_distinct(payload, mutated):
    """zmod descriptors reduce modulo n, so ints may wrap to the same
    element; only count a mutation when the canonical dump differs after a
    verify-and-rebuild cycle is impossible, i.e. compare raw values."""
    return C.dumps_certificate(payload) != C.dumps_certificate(mutated)


def test_single_field_mutations_rejected():
    rng = random.Random(20260809)
    for kind, payload in fresh_payloads().items():
        rejected = 0
        tried = 0
        for path, mutated in mutate_leaves(payload, rng, 120):
            if not _semantically_distinct(payload, mutated):
                continue
            tried += 1
            ok, checks = C.verify_payload(mutated)
            assert not ok, (kind, path)
            rejected += 1
            if rejected >= 50:
                break
        assert rejected >= min(50, tried), kind
        assert tried >= 30, (kind, tried)  # payloads carry plenty of leaves


def test_mutation_reports_name_failing_contract():
    payload = fresh_payloads()["diagonalization"]
    mutated = copy.deepcopy(payload)
    mutated["u"] = (mutated["u"] + 2) % 4
    ok, checks = C.verify_payload(mutated)
    assert not ok
    assert any(not c["ok"] and c["check"] for c in checks)


def test_ring_digest_detects_spec_mutation():
    payload = fresh_payloads()["reduction"]
    mutated = copy.deepcopy(payload)
    mutated["ring"]["n"] = 5
    ok, checks = C.verify_payload(mutated)
    assert not ok
    assert any(c["check"] == "ring digest" and not c["ok"] for c in checks)


def test_ideal_digest_detects_generator_mutation():
    payload = fresh_payloads()["lift"]
    mutated = copy.deepcopy(payload)
    mutated["ideal_generators"] = [3]
    ok, checks = C.verify_payload(mutated)
    assert not ok
