"""Hostile input fails by contract: an exit code of ``cli.EXIT_CODES`` and
exactly one ``error:`` line on stderr, never a traceback.

JSON nested too deep or holding an integer too long for ``json`` is an
InvalidSpec (exit 7) at each place the CLI reads JSON: the spec file, the
certificate file, ``--element`` and ``--ideal``.  So is a ring recipe or
an element descriptor nested deeper than ``rings.NESTING`` allows, which
would otherwise reach a RecursionError in its recursive parse, build or
decode, or not, by what is cached.  A carrier too large to
print or to compute is a GuardExceeded (exit 5), refused by bit length
before its size is formed.  Every case whose k could make the build form
memory runs in one child process that caps its own address space
(``RLIMIT_AS``), so a bound that fails fails the test, not the machine.
"""

import functools
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from exlift import lifting as L, rings as R
from exlift.certificates import dumps_certificate
from exlift.cli import EXIT_CODES, main
from exlift.errors import GuardExceeded

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
CAP = 1 << 30                   # the child's address space, bytes
Z4 = '{"ring": {"type": "zmod", "n": 4}, "ideal": {"generators": [2]}}'
DEEP = "[" * 5000 + "]" * 5000
LONG = "9" * 5001

# the child runs each argument list through the CLI under its own cap
CHILD = f"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({CAP}, {CAP}))
from click.testing import CliRunner
from exlift.cli import main
out = []
for args in json.load(open(sys.argv[1])):
    res = CliRunner().invoke(main, args)
    out.append([res.exit_code, res.stderr])
print(json.dumps(out))
"""


def contract_failure(code: int, stderr: str):
    """None if (code, stderr) is a contract failure: an exit code of
    ``EXIT_CODES`` and one ``error:`` line; else what is wrong."""
    lines = stderr.splitlines()
    if code not in EXIT_CODES.values():
        return f"exit {code}"
    if len(lines) != 1 or not lines[0].startswith("error: "):
        return f"stderr {stderr[:300]!r}"
    return None


def invoke(args):
    res = CliRunner().invoke(main, args)
    return res.exit_code, res.stderr


def run_capped(cases, tmp_path):
    """(exit code, stderr) of each argument list, run in one child process
    whose address space is capped at CAP bytes."""
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(cases))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [tuple(r) for r in json.loads(proc.stdout)]


@functools.cache
def z4_certificate() -> str:
    z4 = R.build_ring(R.ZmodSpec(4))
    cert = L.lift_unit(z4, R.ideal_closure(z4, [2]), 3).certificate
    return dumps_certificate(cert.to_payload())


def test_carrier_too_large_to_print_exits_5(tmp_path):
    # |M_200(Z/2)| = 2^40000 has more digits than Python prints
    spec = tmp_path / "m200.json"
    spec.write_text('{"ring": {"type": "matrix", "base": {"type": "zmod", '
                    '"n": 2}, "k": 200}}')
    for args in (["check", "--spec", str(spec)],
                 ["lift", "--spec", str(spec), "--element", "0"]):
        code, stderr = invoke(args)
        assert code == 5 and contract_failure(code, stderr) is None, \
            (args, code, stderr)
        assert stderr.startswith("error: GuardExceeded: ") \
            and len(stderr) < 200, stderr


def test_carrier_guard_states_a_large_size_as_a_power():
    # M_17(Z/2) passes the bound on k; its size is refused as 2^289
    with pytest.raises(GuardExceeded,
                       match=r"^carrier size 2\^289 exceeds guard 65536$"):
        R.build_ring(R.MatrixSpec(R.ZmodSpec(2), 17))


def test_carrier_too_large_to_compute_exits_5(tmp_path):
    # k = 10^6 would form 10^12 positions and the integer 2^(10^12) if the
    # guard ran on the size; the zero ring has one k x k matrix for every
    # k, and its k is bounded all the same
    cases = []
    for base, k in ((2, 10 ** 6), (1, 10 ** 6), (3, 10 ** 4000)):
        spec = tmp_path / f"k{base}.json"
        spec.write_text(json.dumps({"ring": {
            "type": "matrix", "base": {"type": "zmod", "n": base}, "k": k}}))
        cases.append(["check", "--spec", str(spec)])
    for args, (code, stderr) in zip(cases, run_capped(cases, tmp_path)):
        assert code == 5 and contract_failure(code, stderr) is None, \
            (args, code, stderr)


def _spec_file(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    return ["check", "--spec", str(path)]


def _certificate_file(tmp_path, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    return ["verify", str(path)]


def _element(tmp_path, text):
    return ["index", "--spec", _spec_file(tmp_path, Z4)[2], "--element", text]


def _ideal(tmp_path, text):
    return ["index", "--spec", _spec_file(tmp_path, Z4)[2], "--element", "3",
            "--ideal", text]


@pytest.mark.parametrize("entry", [_spec_file, _certificate_file, _element,
                                   _ideal])
def test_json_too_deep_or_too_long_exits_7(tmp_path, entry):
    for text in (DEEP, LONG, "[" + LONG + "]"):
        args = entry(tmp_path, text)
        code, stderr = invoke(args)
        assert code == 7 and contract_failure(code, stderr) is None, \
            (entry.__name__, code, stderr[-300:])
        assert stderr.startswith("error: InvalidSpec: "), stderr


def _nested_recipe(depth: int) -> str:
    return ('{"type": "matrix", "base": ' * depth + '{"type": "zmod", "n": 2}'
            + ', "k": 1}' * depth)


def test_recipe_nested_too_deep_exits_7(tmp_path):
    # json reads 600 levels, more than the recursive parse and build of a
    # recipe would; 99 levels still build
    code, stderr = invoke(_spec_file(tmp_path, '{"ring": '
                                     + _nested_recipe(600) + '}'))
    assert code == 7 and contract_failure(code, stderr) is None, stderr
    assert stderr == (f"error: InvalidSpec: ring spec nested deeper than "
                      f"{R.NESTING}\n"), stderr
    code, stderr = invoke(_spec_file(tmp_path, '{"ring": '
                                     + _nested_recipe(R.NESTING - 1) + '}'))
    assert (code, stderr) == (0, "")


def test_descriptor_nested_too_deep_exits_7(tmp_path):
    # json reads 900 levels, more than the recursive decode would
    deep = "[" * 900 + "0" + "]" * 900
    for args in (_element(tmp_path, deep), _ideal(tmp_path, f"[{deep}]")):
        code, stderr = invoke(args)
        assert code == 7 and contract_failure(code, stderr) is None, stderr
        assert "nested deeper than" in stderr, stderr


# -- drawn hostile files -----------------------------------------------------

WRONG_TYPES = ("true", "null", '"x"', "1.5", "-3", "{}")


def _nest(opener: str, depth: int) -> str:
    if opener == "[":
        return "[" * depth + "0" + "]" * depth
    return '{"a": ' * depth + "0" + "}" * depth


# a JSON text that is no valid value at any hole below
hostile_values = st.one_of(
    st.tuples(st.sampled_from("[{"), st.integers(1, 6000)).map(
        lambda t: _nest(*t)),
    st.integers(1000, 6000).map(lambda n: "9" * n),
    st.sampled_from(WRONG_TYPES),
    st.integers(R.NESTING, 3000).map(_nested_recipe),
)

# k with k > 17 = the bit length of the default carrier guard: refused
# over every base, the zero ring's included
huge_k = st.one_of(st.integers(18, 10 ** 12),
                   st.integers(13, 4300).map(lambda n: "9" * n))

SPEC_HOLES = (
    "@",
    '{"ring": @}',
    '{"monoid": @}',
    '{"ring": {"type": "zmod", "n": @}}',
    '{"ring": {"type": "zmod", "n": 4}, "ideal": @}',
    '{"ring": {"type": "zmod", "n": 4}, "ideal": {"generators": @}}',
)
CERT_FIELDS = ("format", "version", "kind", "ring", "ideal_generators", "x",
               "y", "m", "y1", "z_word", "stages")


@st.composite
def hostile_cases(draw):
    """(argument list with one @ for the file's path, file text, capped)."""
    where = draw(st.sampled_from(("spec", "certificate", "huge k")))
    if where == "huge k":
        base = draw(st.integers(1, 4))
        kind = draw(st.sampled_from(("matrix", "triangular")))
        k = str(draw(huge_k))
        recipe = (f'{{"type": "{kind}", "base": {{"type": "zmod", '
                  f'"n": {base}}}, "k": {k}}}')
        if draw(st.booleans()):
            return ["check", "--spec", "@"], f'{{"ring": {recipe}}}', True
        return ["verify", "@"], _with_field("ring", recipe), True
    value = draw(hostile_values)
    if where == "certificate":
        if draw(st.booleans()):
            return ["verify", "@"], value, False
        return ["verify", "@"], _with_field(
            draw(st.sampled_from(CERT_FIELDS)), value), False
    text = draw(st.sampled_from(SPEC_HOLES)).replace("@", value)
    command = draw(st.sampled_from((["check", "--spec", "@"],
                                    ["index", "--spec", "@", "--element", "1"],
                                    ["lift", "--spec", "@", "--element", "1"])))
    return command, text, False


def _with_field(field: str, value: str) -> str:
    """The zmod(4) lift certificate with ``field`` replaced by the JSON
    text ``value``."""
    payload = dict(json.loads(z4_certificate()), **{field: "@HOLE@"})
    return json.dumps(payload).replace('"@HOLE@"', value)


def test_drawn_hostile_files_fail_by_contract(tmp_path):
    capped, count = [], itertools.count()

    @settings(max_examples=120, derandomize=True, database=None,
              deadline=None)
    @given(hostile_cases())
    def run(case):
        command, text, cap = case
        path = tmp_path / f"case{next(count)}.json"
        path.write_text(text)
        args = [str(path) if a == "@" else a for a in command]
        if cap:
            capped.append(args)
            return
        code, stderr = invoke(args)
        assert contract_failure(code, stderr) is None, (args[0], text[:200],
                                                        code, stderr[-300:])

    run()
    assert len(capped) >= 10, len(capped)
    for args, (code, stderr) in zip(capped, run_capped(capped, tmp_path)):
        assert code in (5, 6) and contract_failure(code, stderr) is None, \
            (args, code, stderr[-300:])
