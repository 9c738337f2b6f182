"""Warm and cold replays of lift certificates agree.

A verifier that runs after many lifts and verifies reads per-ring memos
(``rings.ideal_closure``'s ideals, the stage rings and their M_k(I), the
signed swaps of ``lifting._diagonalize``, inverses, element codecs) that a
fresh interpreter builds again.  ``lifting.lift_unit``'s memo of each
lift's construction, kept under ("lift", ...) on the ring, is no verifier
memo: the verifier never reads it and replays every certificate in full.
``agree`` verifies each certificate in this process with ``verify_claim``,
writes it to a file, verifies every file again in one fresh interpreter,
and names each certificate whose (ok, checks, claim) differ between the
two.

Run as a script, it replays every Fredholm element of every ``--full``
corpus pair lifted at m=2 (208 lifts) and the forced m=4 certificates of
the pairs with |R/I| <= 2 (the first Fredholm element of each), and prints
one summary line:

    PYTHONPATH=src python tests/verify_agree.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import exlift
from exlift import certificates as C, errors, rings as R
from exlift.corpus import corpus_pairs
from exlift.ktheory import fredholm_elements
from exlift.lifting import lift_unit

# verifies each file of a directory, in name order: one JSON line each
COLD = """
import json, os, sys
from exlift import certificates as C
for name in sorted(os.listdir(sys.argv[1])):
    got = C.verify_claim(C.load_certificate(os.path.join(sys.argv[1], name)))
    print(json.dumps(got))
"""


def certificates(full: bool):
    """(name, payload): at m=2, the first 3 Fredholm elements of each
    default pair (what ``exlift corpus`` lifts), or with full every Fredholm
    element of every ``--full`` pair; at m=4, the first Fredholm element of
    each pair with |R/I| <= 2 whose stage ring the guards admit."""
    for name, ring, ideal, _ in corpus_pairs(include_slow=full):
        fl = fredholm_elements(ring, ideal)
        for x in fl if full else fl[:3]:
            yield f"{name} x={x}", lift_unit(ring, ideal,
                                             x).certificate.to_payload()
        if R.quotient_by(ring, ideal).target.size <= 2:
            try:
                cert = lift_unit(ring, ideal, fl[0], start_m=4).certificate
            except errors.ExliftError:   # the stage ring exceeds a guard
                continue
            yield f"{name} x={fl[0]} m=4", cert.to_payload()


def agree(named_payloads, directory: str) -> tuple:
    """(count, names whose warm and cold verdicts differ): each payload is
    verified here, written to directory, which must be empty, and verified
    again with every other file in one fresh interpreter."""
    names, warm = [], []
    for name, payload in named_payloads:
        # JSON's own round trip, so tuples and lists compare as the child's
        warm.append(json.loads(json.dumps(C.verify_claim(payload))))
        C.save_certificate(payload, os.path.join(directory,
                                                 f"{len(names):04d}.json"))
        names.append(name)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(exlift.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", COLD, directory], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=600).stdout.splitlines()
    cold = [json.loads(line) for line in out]
    if len(cold) != len(warm):
        return len(names), [f"{len(cold)} cold verdicts for {len(warm)} files"]
    return len(names), [name for name, w, c in zip(names, warm, cold)
                        if w != c]


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as directory:
        count, differ = agree(certificates(full=True), directory)
    print(f"{count} certificates verified warm and cold, "
          f"{time.perf_counter() - start:.1f} s; verdicts differ on "
          f"{len(differ)}")
    for name in differ:
        print(name)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
