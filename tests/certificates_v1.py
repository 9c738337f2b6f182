"""Version 1 of the certificate format, kept as a test oracle.

A version 1 certificate was a complete transcript: the ring recipe with a
digest of its tables, the ideal generators with a digest of the ideal, and
every word, matrix and witness of the construction.  The library now writes
version 2 (``exlift.certificates``), which records the claim and the
witnesses its verifier checks by property, and derives the rest.  These
builders still produce the version 1 payloads of reductions,
diagonalizations and lifts from the result objects of ``exlift.lifting``,
so the golden digests of those payloads keep pinning every value the lift
computes, and the verifier can be shown to refuse a version 1 file.

    PYTHONPATH=src python tests/certificates_v1.py OUT.json

writes the version 1 certificate of the lift of 3 in Z/4 modulo (2).
"""

from __future__ import annotations

import hashlib
import sys

from exlift.matrices import RMatrix, ElemWord
from exlift.rings import (FiniteRing, Ideal, element_descriptor,
                          ring_spec_obj)


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


def _word_desc(ring: FiniteRing, w: ElemWord) -> list:
    return [{"side": op.side, "i": op.i, "j": op.j,
             "r": element_descriptor(ring, op.r)} for op in w.ops]


def _envelope(ring: FiniteRing, ideal: Ideal, kind: str) -> dict:
    return {
        "format": "exlift-cert",
        "version": 1,
        "kind": kind,
        "ring": ring_spec_obj(ring.spec),
        "ring_digest": ring_digest(ring),
        "ideal_generators": [element_descriptor(ring, g)
                             for g in ideal.generators],
        "ideal_digest": ideal_digest(ideal),
    }


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
    """The version 1 payload of a ReductionResult."""
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
    """The version 1 payload of a DiagonalizationResult."""
    payload = _envelope(res.ring, res.ideal, "diagonalization")
    payload.update(_diagonalization_content(res))
    return payload


def lift_payload(cert) -> dict:
    """The version 1 payload of a LiftCertificate: y1 as a 1x1 matrix at
    GL_k level k = 1, w1 (the first stage's input), every stage's input,
    output and diagonalization, and the oracle flag, always true."""
    ring = cert.ring
    payload = _envelope(ring, cert.ideal, "lift")
    payload.update({
        "x": element_descriptor(ring, cert.x),
        "y": element_descriptor(ring, cert.y),
        "m": cert.m,
        "k": 1,
        "y1": [[element_descriptor(ring, cert.y1)]],
        "z_word": _word_desc(ring, cert.z_word),
        "w1": _mat_desc(cert.stages[0].input_matrix),
        "stages": [{
            "dim": st.dim,
            "level": st.level,
            "input": _mat_desc(st.input_matrix),
            "w_next": _mat_desc(st.w_next),
            "diag": _diagonalization_content(st.diag),
        } for st in cert.stages],
        "oracle_confirmed": True,
    })
    return payload


def main(path: str) -> None:
    from exlift.certificates import save_certificate
    from exlift.lifting import lift_unit
    from exlift.rings import ZmodSpec, build_ring, ideal_closure
    z4 = build_ring(ZmodSpec(4))
    cert = lift_unit(z4, ideal_closure(z4, [2]), 3).certificate
    save_certificate(lift_payload(cert), path)


if __name__ == "__main__":
    main(sys.argv[1])
