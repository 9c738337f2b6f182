"""No function of ``exlift`` stores a local name its body never reads.

A name counts as read when it is loaded anywhere in the function body,
nested functions included.  Names starting with ``_`` are exempt, so an
unpacking target that is not needed is written ``_`` or ``_name``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "exlift"


def dead_locals(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for stmt in node.body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        stored = {n.id for n in names if isinstance(n.ctx, ast.Store)}
        found += [(path.name, node.name, name)
                  for name in sorted(stored - read) if not name.startswith("_")]
    return found


def test_dead_locals_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(xs):\n"
                   "    a, b = xs\n"
                   "    c = 1\n"
                   "    c += 1\n"
                   "    for i, x in enumerate(xs):\n"
                   "        pass\n"
                   "    _skip, d = xs\n"
                   "    def g():\n"
                   "        return d\n"
                   "    return a + g() + x\n")
    assert dead_locals(mod) == [("mod.py", "f", "b"), ("mod.py", "f", "c"),
                                ("mod.py", "f", "i")]


def test_no_dead_locals_in_src():
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in dead_locals(path)] == []
