"""Every top-level function and class of ``exlift`` is reached from a CLI
command, ``lifting.lift_unit`` or ``certificates.verify_claim``.

Reached means: named, directly or through an import or a module-level
value, by a root or by a function or class already reached (a class's
methods and bases count as part of it).  A name read as ``module.name``
through an imported module counts too.  The package ``__init__`` only
re-exports, so it reaches nothing.  ``ALLOWED`` names the exceptions and
why each stays.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "exlift"

# (module, name) -> why it stays unreached
ALLOWED = {
    ("lifting", "reduce_row"):
        "perfbench traces it by name, and perfbench is out of scope",
    ("lifting", "reduce_col"):
        "perfbench traces it by name, and perfbench is out of scope",
    ("vmonoid", "v_order_ideal"):
        "perfbench traces it by name, and perfbench is out of scope",
    ("lifting", "effective_truncation"):
        "perfbench calls it by name, and perfbench is out of scope",
    ("vmonoid", "build_v_monoid"):
        "perfbench calls it by name, and perfbench is out of scope",
    ("vmonoid", "VMonoid"):
        "what build_v_monoid returns",
    ("vmonoid", "VClass"):
        "the classes of a VMonoid",
}

ROOTS = {("lifting", "lift_unit"), ("certificates", "verify_claim")}


def _is_command(node) -> bool:
    """A function decorated by ``<group>.command(...)``: a CLI command."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr == "command":
            return True
    return False


def _imports(node, modules: set) -> tuple:
    """(names, module aliases) an import statement binds, as
    {local: (module, name)} and {local: module}."""
    names, aliases = {}, {}
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        for a in node.names:
            local = a.asname or a.name
            if node.module is None and a.name in modules:
                aliases[local] = a.name           # from . import scans
            elif node.module is not None:
                names[local] = (node.module, a.name)
    return names, aliases


def definitions(src: pathlib.Path = SRC) -> tuple:
    """(defs, roots): every top-level function, class and assigned name of
    each module, as (module, name) -> (kind, the (module, name) it reads),
    and the roots of the reachability walk."""
    files = {p.stem: p for p in sorted(src.glob("*.py"))
             if p.name != "__init__.py"}
    modules = set(files)
    defs, roots = {}, set(ROOTS)
    for module, path in files.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, aliases = {}, {}
        for node in tree.body:
            got = _imports(node, modules)
            names.update(got[0])
            aliases.update(got[1])
        local = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                kind = "class" if isinstance(node, ast.ClassDef) else "def"
                local[node.name] = (kind, node)
                if kind == "def" and _is_command(node):
                    roots.add((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    if isinstance(t, ast.Name):
                        local[t.id] = ("value", node)
        for name, (kind, node) in local.items():
            reads = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):   # imports inside a body
                    for ref in _imports(sub, modules)[0].values():
                        reads.add(ref)
                elif isinstance(sub, ast.Name):
                    if sub.id in local and sub.id != name:
                        reads.add((module, sub.id))
                    elif sub.id in names:
                        reads.add(names[sub.id])
                elif (isinstance(sub, ast.Attribute)
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id in aliases):
                    reads.add((aliases[sub.value.id], sub.attr))
            defs[(module, name)] = (kind, reads)
    return defs, roots


def unreached(src: pathlib.Path = SRC) -> list:
    defs, roots = definitions(src)
    seen, todo = set(), [r for r in roots if r in defs]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        todo += [ref for ref in defs[key][1] if ref in defs]
    return sorted(key for key, (kind, _) in defs.items()
                  if kind != "value" and key not in seen)


def test_unreached_names_detected(tmp_path):
    (tmp_path / "__init__.py").write_text("from .lifting import helper\n")
    (tmp_path / "lifting.py").write_text(
        "from .rings import build\n"
        "from . import scans\n"
        "TABLE = {'k': build}\n"
        "class Cert:\n"
        "    def to_payload(self):\n"
        "        from .certificates import lift_payload\n"
        "        return lift_payload(self)\n"
        "def lift_unit():\n"
        "    return Cert(), TABLE, scans.first()\n"
        "def helper():\n"
        "    return build()\n")
    (tmp_path / "rings.py").write_text("def build():\n    pass\n")
    (tmp_path / "scans.py").write_text("def first():\n    pass\n"
                                       "def second():\n    pass\n")
    (tmp_path / "certificates.py").write_text(
        "def lift_payload(cert):\n    return cert\n"
        "def verify_claim():\n    pass\n")
    (tmp_path / "cli.py").write_text(
        "import click\n"
        "@click.group()\n"
        "def main():\n    pass\n"
        "@main.command()\n"
        "def run():\n    pass\n"
        "def orphan():\n    pass\n")
    # main is reached through the decorator of its command run
    assert unreached(tmp_path) == [("cli", "orphan"), ("lifting", "helper"),
                                   ("scans", "second")]


def test_every_name_in_src_is_reached():
    assert unreached() == sorted(ALLOWED)
