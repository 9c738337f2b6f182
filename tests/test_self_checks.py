"""No module of ``exlift`` re-checks its own construction: no ``assert``
statement and no ``raise AssertionError``.  No check of the certificate
verifier records a constant pass, and each can be disabled by
``mutate_src``.

The lift's certificates are replayed by the verifier, and the tests hold
every identity the construction relies on, so a check that only replays
what the code just computed belongs in the tests as an oracle.
"""

import ast
import pathlib

from mutate_src import mutant, sites

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "exlift"


def self_checks(path: pathlib.Path) -> list:
    """(file, line) of each ``assert`` and ``raise AssertionError`` in path,
    called or not."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if isinstance(exc, ast.Call):
            exc = exc.func
        if (isinstance(node, ast.Assert) or isinstance(exc, ast.Name)
                and exc.id == "AssertionError"):
            found.append((path.name, node.lineno))
    return sorted(found)


def test_self_checks_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(x):\n"
                   "    assert x\n"
                   "    if x:\n"
                   "        raise AssertionError('replay')\n"
                   "    raise AssertionError\n"
                   "    raise ValueError('x')\n")
    assert self_checks(mod) == [("mod.py", 2), ("mod.py", 4), ("mod.py", 5)]


def test_no_self_checks_in_src():
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in self_checks(path)] == []


# The verifier's checks: a ``rep.add(name, cond, ...)`` whose cond is a
# constant true value records a pass no certificate can turn into a
# failure.  (The replay miss records its failure as a constant False.)

def constant_checks(path: pathlib.Path) -> list:
    """(line, name) of each ``rep.add`` site of path whose condition is a
    constant that passes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(s.line, s.name) for s in sites(tree)
            if isinstance(s.call.args[1], ast.Constant)
            and s.call.args[1].value]


def test_constant_checks_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(rep, x):\n"
                   "    rep.add('found', True)    # else it raised\n"
                   "    rep.add('x', x == 1)\n"
                   "    rep.add(f'{x} seen', 1, 'detail')\n"
                   "    rep.add('miss', False)\n"
                   "    other.add('y', True)\n")
    assert constant_checks(mod) == [(2, "found"), (4, "f'{x} seen'")]


def test_no_constant_check_in_the_verifier():
    assert constant_checks(SRC / "certificates.py") == []


def test_every_check_site_has_a_mutant_that_compiles():
    # tests/mutate_src.py (a CI step) runs each mutant against the tests
    tree = ast.parse((SRC / "certificates.py").read_text(encoding="utf-8"))
    found = sites(tree)
    names = [s.name for s in found]
    assert len(found) == 25 and len(set(names)) == 25
    assert {"y1 invertible", "exc.check", "f'stage {idx} fields'",
            "RhR = R", "x - y in I"} <= set(names)
    for index in range(len(found)):
        source = mutant(tree, index)
        compile(source, f"mutant {index}", "exec")
        assert sites(ast.parse(source))[index].call.args[1].value is True
