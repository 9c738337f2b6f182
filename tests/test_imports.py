"""No module of ``exlift`` imports a name it never uses.

The package ``__init__`` re-exports the public names, so it is exempt.  A
name counts as used when it is read anywhere in the module, including
inside a string annotation.
"""

import ast
import json
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "exlift"


def _used_names(tree: ast.AST) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)       # forward references such as "RingSpec"
    return used


def unused_imports(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _used_names(tree)
    return sorted(name for name in imported if name not in used)


def test_unused_imports_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nimport sys as system\n"
                   "from typing import Optional, List\n"
                   "x: 'Optional' = system.argv\n")
    assert unused_imports(mod) == ["List", "os"]


def test_no_unused_imports_in_src():
    found = {path.name: unused_imports(path)
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: got for name, got in found.items() if got} == {}


def test_lift_and_verify_leave_numpy_ma_unimported(cold_python):
    # numpy 2's np.unique imports numpy.ma on its first call (16-24 ms);
    # numpy 1 imports it with numpy, so there is nothing to check there
    before, after, ok = json.loads(cold_python(
        "import json, sys\n"
        "import numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from exlift import certificates, corpus, ktheory, lifting\n"
        "ok = True\n"
        "for _, ring, ideal, _ in corpus.corpus_pairs(include_slow=False):\n"
        "    x = ktheory.fredholm_elements(ring, ideal)[0]\n"
        "    cert = lifting.lift_unit(ring, ideal, x).certificate\n"
        "    ok &= certificates.verify_payload(cert.to_payload())[0]\n"
        "print(json.dumps([before, 'numpy.ma' in sys.modules, ok]))\n"))
    assert ok
    if not before:
        assert not after
