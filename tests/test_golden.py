"""Golden outputs: the sha256 of ``dumps_certificate`` for a fixed set of
payloads over noncommutative rings, and the ``exlift corpus --format
machine`` report, default and ``--full``.

The version 1 payloads, built by the test oracle ``certificates_v1``, hold
every word, matrix and witness the reductions, diagonalizations and lifts
compute, so their digests (``golden_certificates.json``) pin the
computation.  The payloads the library writes, the claim and the witnesses
checked by property, are pinned beside them (``golden_certificates_v2.json``,
named for the format it first pinned; it holds version 3 now), and so are
the forced m=4 lifts over zmod(6) and zmod(8)
(``golden_certificates_m4.json``), whose stage rings M_2(Z/6) and M_2(Z/8)
keep no list mirrors.  Each version 3 digest is that of the version 2
payload of the same lift with f, p, u and v dropped from every stage and
the version set to 3: the lift's computation did not change with the
format.  A refactor of the reduction,
scan or certificate code must leave every digest unchanged, and the corpus
reports (``golden_corpus.json``) too; a deliberate change to either means
writing new ones and saying why.
"""

import hashlib
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

import certificates_v1 as V1

from exlift import certificates as C, lifting as L, matrices as M, rings as R
from exlift.cli import main
from exlift.ktheory import fredholm_elements

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_certificates.json")
GOLDEN_V2 = os.path.join(os.path.dirname(__file__),
                         "golden_certificates_v2.json")
GOLDEN_M4 = os.path.join(os.path.dirname(__file__),
                         "golden_certificates_m4.json")
GOLDEN_CORPUS = os.path.join(os.path.dirname(__file__), "golden_corpus.json")

T2 = R.TriangularSpec(R.ZmodSpec(2), 2)
Z2M2 = R.ProductSpec(R.ZmodSpec(2), R.MatrixSpec(R.ZmodSpec(2), 2))

# (name, spec, ideal generators, alpha), all as element descriptors
REDUCTION_INPUTS = (
    ("triangular(zmod(2),2) full", T2, [[[1, 0], [0, 1]]],
     [[[[0, 0], [0, 1]], [[1, 0], [0, 0]]],
      [[[1, 1], [0, 1]], [[0, 0], [0, 1]]]]),
    ("zmod(2)xM2(zmod(2))+right", Z2M2, [[0, [[1, 0], [0, 1]]]],
     [[[1, [[0, 0], [0, 0]]], [0, [[0, 1], [1, 0]]]],
      [[0, [[0, 1], [1, 1]]], [1, [[0, 0], [1, 0]]]]]),
)


def _is_commutative(ring):
    return np.array_equal(ring.npmul, ring.npmul.T)


def golden_results(corpus_pairs):
    """name -> reduction result or lift certificate, for every pinned
    certificate."""
    out = {}
    for name, spec, gens, alpha in REDUCTION_INPUTS:
        ring = R.build_ring(spec)
        ideal = R.ideal_closure(
            ring, [R.element_from_descriptor(ring, g) for g in gens])
        A = M.matrix(ring, [[R.element_from_descriptor(ring, v) for v in row]
                            for row in alpha])
        out[f"reduce_row {name}"] = L.reduce_row(ring, ideal, A)
        out[f"reduce_col {name}"] = L.reduce_col(ring, ideal, A)
    for name, ring, ideal, tags in corpus_pairs:
        if _is_commutative(ring):
            continue
        for x in fredholm_elements(ring, ideal):
            desc = json.dumps(R.element_descriptor(ring, x))
            out[f"lift {name} x={desc}"] = L.lift_unit(ring, ideal,
                                                      x).certificate
    z4 = R.build_ring(R.ZmodSpec(4))
    out["lift zmod(4) |I|=2 x=3 m=4"] = L.lift_unit(
        z4, R.ideal_closure(z4, [2]), 3, start_m=4).certificate
    return out


def golden_payloads(corpus_pairs):
    """name -> version 1 payload for every pinned certificate."""
    return {name: (V1.lift_payload(res) if isinstance(res, L.LiftCertificate)
                   else V1.reduction_payload(res))
            for name, res in golden_results(corpus_pairs).items()}


def golden_payloads_v2(corpus_pairs):
    """name -> library (version 3) payload for every pinned lift."""
    return {name: res.to_payload()
            for name, res in golden_results(corpus_pairs).items()
            if isinstance(res, L.LiftCertificate)}


def forced_m4_payloads():
    """name -> library payload of the forced m=4 lift of every Fredholm
    element of every ideal of zmod(6) and zmod(8): the blocked stage over
    M_2(R), a ring of 1,296 or 4,096 elements without list mirrors."""
    out = {}
    for n in (6, 8):
        ring = R.build_ring(R.ZmodSpec(n))
        for ideal in R.all_ideals(ring):
            for x in fredholm_elements(ring, ideal):
                name = f"lift zmod({n}) |I|={len(ideal)} x={x} m=4"
                out[name] = L.lift_unit(ring, ideal, x,
                                        start_m=4).certificate.to_payload()
    return out


def _digest(payload):
    return hashlib.sha256(C.dumps_certificate(payload).encode()).hexdigest()


def test_golden_certificate_digests(corpus_pairs):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = {name: _digest(p) for name, p in golden_payloads(corpus_pairs).items()}
    assert sorted(got) == sorted(golden)
    assert [n for n in golden if got[n] != golden[n]] == []


def test_golden_v2_certificate_digests(corpus_pairs):
    # the payloads the library writes and verifies, beside the version 1
    # transcripts that pin the computation
    with open(GOLDEN_V2, encoding="utf-8") as fh:
        golden = json.load(fh)
    payloads = golden_payloads_v2(corpus_pairs)
    got = {name: _digest(p) for name, p in payloads.items()}
    assert sorted(got) == sorted(golden) and len(got) == 53
    assert [n for n in golden if got[n] != golden[n]] == []
    assert all(C.verify_payload(p)[0] for p in payloads.values())


def test_golden_forced_m4_digests():
    # the stage step's no-mirror path: rows, inverses and spans read off
    # the per-row factors of M_2(Z/6) and M_2(Z/8) and their opposites
    with open(GOLDEN_M4, encoding="utf-8") as fh:
        golden = json.load(fh)
    payloads = forced_m4_payloads()
    got = {name: _digest(p) for name, p in payloads.items()}
    assert sorted(got) == sorted(golden) and len(got) == 35
    assert [n for n in golden if got[n] != golden[n]] == []
    assert all(C.verify_payload(p)[0] for p in payloads.values())


@pytest.mark.parametrize("mode", ["default", "full"])
def test_corpus_report_is_golden(mode):
    with open(GOLDEN_CORPUS, encoding="utf-8") as fh:
        golden = json.load(fh)[mode]
    args = ["corpus", "--format", "machine"] + (["--full"] if mode == "full"
                                                else [])
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.output == json.dumps(golden, sort_keys=True, indent=1) + "\n"


def test_writer_matches_json_on_golden_payloads(corpus_pairs):
    # json.dumps is the oracle of the certificate writer's bytes
    payloads = golden_payloads(corpus_pairs)
    assert len(payloads) == 57
    payloads.update({f"v2 {name}": p for name, p
                     in golden_payloads_v2(corpus_pairs).items()})
    for name, payload in payloads.items():
        assert C.dumps_certificate(payload) == json.dumps(
            payload, sort_keys=True, indent=1) + "\n", name
