"""No module of ``exlift`` re-checks its own construction: no ``assert``
statement and no ``raise AssertionError``.

The lift's certificates are replayed by the verifier, and the tests hold
every identity the construction relies on, so a check that only replays
what the code just computed belongs in the tests as an oracle.
"""

import ast
import pathlib

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
