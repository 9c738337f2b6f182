"""The inline Python scripts of the CI workflow compile.

``.github/workflows/tier1.yml`` feeds several scripts to ``python3 -``
through ``<<'EOF'`` heredocs.  A syntax slip in one of them would show only
on a runner, so each body is read out of the workflow text here (line by
line, no YAML parser) and passed to ``compile()``.
"""

import pathlib
import re
import textwrap

import pytest

WORKFLOW = (pathlib.Path(__file__).resolve().parents[1] / ".github"
            / "workflows" / "tier1.yml")


def heredoc_scripts(text: str) -> list:
    """(line, body) of every ``python3 - ... <<'EOF'`` command: the line
    number of its ``python3 -`` and the lines up to its ``EOF``, dedented
    as the YAML block scalar dedents them.  The command may continue over
    backslash-ended lines."""
    lines = text.splitlines()
    out = []
    for start, line in enumerate(lines):
        if not re.search(r"\bpython3 -(\s|$)", line):
            continue
        last = start
        while lines[last].rstrip().endswith("\\"):
            last += 1
        if not lines[last].rstrip().endswith("<<'EOF'"):
            continue
        end = next(i for i in range(last + 1, len(lines))
                   if lines[i].strip() == "EOF")
        body = textwrap.dedent("\n".join(lines[last + 1:end]))
        out.append((start + 1, body))
    return out


def test_every_heredoc_script_is_found():
    text = WORKFLOW.read_text(encoding="utf-8")
    scripts = heredoc_scripts(text)
    assert len(scripts) == text.count("<<'EOF'") >= 5
    assert all(body.startswith("import json, sys\n") for _, body in scripts)


def test_workflow_scripts_compile():
    for line, body in heredoc_scripts(WORKFLOW.read_text(encoding="utf-8")):
        compile(body, f"{WORKFLOW.name}:{line}", "exec")


def test_a_syntax_slip_fails_to_compile():
    text = ("        run: |\n"
            "          python3 - \"$RUNNER_TEMP/a.txt\" \\\n"
            "            \"$RUNNER_TEMP/b.txt\" <<'EOF'\n"
            "          import sys\n"
            "          for p in sys.argv[1:]\n"
            "              print(p)\n"
            "          EOF\n")
    [(line, body)] = heredoc_scripts(text)
    assert line == 2 and body.startswith("import sys\nfor p")
    with pytest.raises(SyntaxError):
        compile(body, "slip", "exec")
