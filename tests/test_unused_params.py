"""No function of ``exlift`` takes a parameter its body never reads.

A parameter counts as read when its name is loaded anywhere in the body,
nested functions included.  ``ALLOWED`` names the exceptions and why each
stays.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "exlift"

# (module, function, parameter) -> why the unread parameter stays
ALLOWED = {
    ("lifting.py", "effective_truncation", "ring"):
        "perfbench calls it as (ring, guards), and perfbench is out of scope",
    ("vmonoid.py", "build_v_monoid", "guards"):
        "perfbench calls it as (ring, K, guards), and perfbench is out of "
        "scope",
    ("lifting.py", "separative_exchange_status", "guards"):
        "the cli and perfbench call it as (ring, ideal, guards), and "
        "perfbench is out of scope",
    ("rings.py", "quotient_by", "guards"):
        "perfbench calls it as (ring, ideal, guards), and perfbench is out of "
        "scope",
}


def unused_params(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(path.name, node.name, p.arg) for p in params
                  if p.arg not in read]
    return found


def test_unused_params_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b, *args, c=1, **kw):\n"
                   "    def g(d):\n"
                   "        return a + d\n"
                   "    b = 2\n"
                   "    return g(kw)\n")
    assert unused_params(mod) == [("mod.py", "f", "b"), ("mod.py", "f", "c"),
                                  ("mod.py", "f", "args")]


def test_no_unused_params_in_src():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in unused_params(path)]
    assert sorted(found) == sorted(ALLOWED)
