"""Each check of the certificate verifier, disabled in turn, against the
tests that should notice.

``sites()`` finds every ``rep.add(name, cond, ...)`` call in
``src/exlift/certificates.py``, and ``mutant(tree, index)`` is that
module's source with one site's condition replaced by ``True``: a verifier
that passes that check unconditionally.  A mutant the tests still pass
survives.  A survivor is a check the tests cannot tell from no check: it is
either implied by the checks that stay (``SHADOWED`` names them) or not
yet failed by any certificate (``OPEN`` says what was tried).

Run as a script, it copies ``src/`` and ``tests/`` once per mutant into a
temporary directory, writes the mutant in place of ``certificates.py``,
runs ``tests/test_certificates.py`` and ``tests/test_golden.py`` there
(stopping at the first failure), and prints each survivor.  It then puts
``SHADOWED`` to the tamper mutants of the sweep's certificates
(``shadow_misses``).  It exits 1 if a survivor is in neither ``SHADOWED``
nor ``OPEN``, or a mutant fails a shadowed check but none that imply it
(2 if the tests fail on the unmutated verifier):

    PYTHONPATH=src python tests/mutate_src.py
"""

from __future__ import annotations

import ast
import copy
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import types
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
TARGET = ROOT / "src" / "exlift" / "certificates.py"
TESTS = ("tests/test_certificates.py", "tests/test_golden.py")
# the test of SHADOWED itself is left out: a check it fails on a mutant
# would be killed on the map's word, not by a certificate
MAP_TEST = "test_shadowed_checks_fail_with_what_implies_them"

# A check whose disabling the tests do not notice -> the checks that imply
# it: when all of those pass, so does it.  A name outside the verifier is a
# contract of ``reduction_contracts.reduction_contracts`` or
# ``.diagonalization_contracts``, which the tests assert on every reduction
# and diagonalization of the corpus lifts.  ``_INPUT_IN_I`` below says the
# stage input's off-diagonal entries lie in I, with its (2,2) entry
# congruent to 1: "pi(w1) = pi(x)+1" before stage 0, the previous stage's
# "pi(a') = pi(a u^-1)" before stage 1, and the row reduction's "word in
# E_2(I)" before the column reduction.
_INPUT_IN_I = ("pi(w1) = pi(x)+1", "pi(a') = pi(a u^-1)", "word in E_2(I)")
# the names under which a replay of the construction stops: a scan's miss
# or a failed hypothesis of the unit-regular step, or a record it cannot
# decode or a guard it exceeds
REPLAY_STOPS = ("pass1 witnesses found", "corner witnesses found",
                "g idempotent in wR", "pass2 witnesses found", "h found",
                "unit-regular step", "v found", "well-formed")
SHADOWED = {
    # a replay of stage 0 that does not stop rebuilds w1 = z_word (y1 + 1)
    # into a'+1 by invertible factors, so w1, y1 + 1 and y1 (R is
    # Dedekind-finite) are invertible
    "y1 invertible": ("diagonalization identity", "a' is a unit")
    + REPLAY_STOPS,
    # y = a'u of the last stage, u from the unit-regular step
    "y is a unit": ("y is the final stage output", "a' is a unit",
                    "b' = f u"),
    # each stage's a'u is congruent to its input's (1,1) entry mod I
    "x - y in I": ("y is the final stage output", "pi(w1) = pi(x)+1",
                   "pi(a') = pi(a u^-1)"),
    # a' + 1 is a product of invertible matrices (its input: y1 + 1 or the
    # previous stage's a'u)
    "a' is a unit": ("diagonalization identity", "y1 invertible",
                     "b' = f u"),
    # modulo I every word in E_2(I) and f vanish, and the identity reads
    # a' = a u^-1
    "pi(a') = pi(a u^-1)": ("diagonalization identity", "word in E_2(I)",
                            "f idempotent in I", "pi(w1) = pi(x)+1"),
    # f1 = w w1 e with e = cr and c in I
    "f1 in ideal": ("pass1 e = cr",) + _INPUT_IN_I,
    # each op's element has a factor c, c2 in Rc, r = re or r2 = r2e2
    "word in E_2(I)": ("pass1 e = cr", "pass2 e = cr") + _INPUT_IN_I,
    # 1-h lies in c'R, and c' in Rc with c in I
    "1-h in ideal": ("c'R = (1-h)R", "c' in Rc") + _INPUT_IN_I,
    # every op that changes the first column adds the second times an
    # element ending in c, or in the (2,1) entry, already in Rc
    "c' in Rc": (),
    # c'R = e2 R and d'R = (1-e2)R for the second pass's e2, so the split
    # of (c', d') finds e2 and h = 1-e2
    "c'R = (1-h)R": ("pass2 e = cr", "pass2 1-e = ds"),
    "d'R = hR": ("pass2 e = cr", "pass2 1-e = ds"),
}

# A check whose disabling the tests do not notice and that nothing above
# implies: no certificate fails it yet.  Each needs a forged certificate
# that only it rejects, or a proof that the others imply it.
OPEN = {
    "g in f1R+f2R": "w is a unit and f1R + f2R = wR on every reduction of "
                    "the corpus lifts, so g in wR puts g there",
    "RhR = R": "no idempotent g in wR of a reduction of the corpus lifts "
               "(rings up to 256 elements) gives an h with RhR != R",
}


class Site(NamedTuple):
    line: int
    name: str          # the check name, or the source of a computed one
    call: ast.Call


def sites(tree: ast.Module) -> list:
    """Every ``rep.add(name, cond, ...)`` call of tree, in source order."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "rep" and len(node.args) >= 2):
            arg = node.args[0]
            name = (arg.value if isinstance(arg, ast.Constant)
                    else ast.unparse(arg))
            found.append(Site(node.lineno, name, node))
    return sorted(found, key=lambda s: (s.line, s.call.col_offset))


def mutant(tree: ast.Module, index: int) -> str:
    """The source of tree with the condition of site index set to True."""
    tree = copy.deepcopy(tree)
    sites(tree)[index].call.args[1] = ast.Constant(True)
    return ast.unparse(ast.fix_missing_locations(tree))


def verifier(source: str):
    """The module source, a version of ``certificates``, loaded as a
    module of ``exlift``."""
    module = types.ModuleType("exlift.certificates_mutant")
    module.__package__ = "exlift"
    exec(compile(source, "<mutant>", "exec"), module.__dict__)
    return module


def shadow_misses(named_payloads) -> list:
    """(name, path, check) of each tamper mutant of the named payloads that
    fails a ``SHADOWED`` check and, with that check disabled, fails none of
    the checks that imply it: a counterexample to the map."""
    from exlift import certificates as C
    from tamper import mutants

    tree = ast.parse(TARGET.read_text(encoding="utf-8"))
    disabled = {s.name: verifier(mutant(tree, i))
                for i, s in enumerate(sites(tree)) if s.name in SHADOWED}
    out = []
    for name, payload in named_payloads:
        for path, tampered in mutants(payload):
            _, checks = C.verify_payload(tampered)
            for check in sorted({c["check"] for c in checks if not c["ok"]}
                                & disabled.keys()):
                _, again = disabled[check].verify_payload(tampered)
                if not {c["check"] for c in again if not c["ok"]} \
                        & set(SHADOWED[check]):
                    out.append((name, path, check))
    return out


def survives(source: str) -> bool:
    """Whether the tests pass with source as ``certificates.py``."""
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=skip)
        (work / "src" / "exlift" / "certificates.py").write_text(
            source, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "-k", f"not {MAP_TEST}", *TESTS],
            cwd=work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=900)
        return done.returncode == 0


def main() -> int:
    start = time.perf_counter()
    tree = ast.parse(TARGET.read_text(encoding="utf-8"))
    found = sites(tree)
    if not survives(ast.unparse(tree)):
        print("the tests fail on the unmutated verifier")
        return 2
    survivors = [s for i, s in enumerate(found) if survives(mutant(tree, i))]
    print(f"{len(found)} check sites, {len(survivors)} survivors, "
          f"{time.perf_counter() - start:.0f} s")
    unexplained = 0
    for s in survivors:
        if s.name in SHADOWED:
            why = ", ".join(map(repr, SHADOWED[s.name])) or "the construction"
            print(f"  line {s.line} {s.name!r}: implied by {why}")
        elif s.name in OPEN:
            print(f"  line {s.line} {s.name!r}: open, {OPEN[s.name]}")
        else:
            print(f"  line {s.line} {s.name!r}: UNEXPLAINED")
            unexplained += 1
    from verify_agree import certificates
    misses = shadow_misses(certificates(full=False))
    for name, path, check in misses:
        print(f"{name} {path}: fails {check!r} alone among what implies it")
    return 1 if unexplained or misses else 0


if __name__ == "__main__":
    sys.exit(main())
