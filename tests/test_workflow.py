"""The shell steps of the CI workflow and their inline Python scripts parse.

``.github/workflows/tier1.yml`` runs each step's ``run:`` text with bash,
and feeds several scripts to ``python3 -`` through ``<<'EOF'`` heredocs.  A
syntax slip in either would show only on a runner, so both are read out of
the workflow text here (line by line, no YAML parser): each ``run:`` text
goes through ``bash -n``, each heredoc body through ``compile()``.
"""

import pathlib
import re
import subprocess
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


def test_pinned_check_count_is_the_tests_count():
    # the CLI round trip pins how many checks `exlift verify` runs on the
    # zmod(4) lift at m = 2; the certificate tests list those checks
    from test_certificates import lift_checks
    pins = re.findall(r'report\["checks_total"\] == (\d+)',
                      WORKFLOW.read_text(encoding="utf-8"))
    assert [int(n) for n in pins] == [sum(lift_checks(2).values())]


def run_blocks(text: str) -> list:
    """(line, script) of every ``run:`` step: the command on its ``run:``
    line, or the lines of its ``run: |`` block, which ends before the first
    non-blank line indented no deeper than ``run:``, dedented as the YAML
    block scalar dedents them.  A ``${{ ... }}`` expression, which the
    runner replaces before bash reads the script, is replaced by a word."""
    lines = text.splitlines()
    out = []
    for start, line in enumerate(lines):
        m = re.match(r"( *)run:\s*(.*)$", line)
        if not m:
            continue
        script = m.group(2)
        if script == "|":
            end = start + 1
            while end < len(lines) and (
                    not lines[end].strip()
                    or len(lines[end]) - len(lines[end].lstrip(" "))
                    > len(m.group(1))):
                end += 1
            script = textwrap.dedent("\n".join(lines[start + 1:end]))
        out.append((start + 1, re.sub(r"\$\{\{.*?\}\}", "x", script) + "\n"))
    return out


def bash_syntax_error(script: str) -> str:
    """What ``bash -n`` says about script: "" when it parses."""
    done = subprocess.run(["bash", "-n"], input=script, text=True,
                          capture_output=True, timeout=60)
    return done.stderr if done.returncode else ""


def test_every_run_block_is_found():
    text = WORKFLOW.read_text(encoding="utf-8")
    blocks = run_blocks(text)
    assert len(blocks) == len(re.findall(r"(?m)^\s*run:", text)) >= 9
    assert all("${{" not in script for _, script in blocks)


def test_workflow_run_blocks_parse_in_bash():
    for line, script in run_blocks(WORKFLOW.read_text(encoding="utf-8")):
        assert bash_syntax_error(script) == "", (f"{WORKFLOW.name}:{line}",
                                                 script)


def test_a_shell_slip_fails_to_parse():
    text = ("      - name: Check\n"
            "        run: |\n"
            "          status=0\n"
            "          if test \"$status\" -eq 0; then\n"
            "            echo ok\n"
            "          python3 - <<'EOF'\n"
            "          print(1)\n"
            "          EOF\n"
            "      - name: Next\n"
            "        run: echo \"${{ matrix.numpy }}\"\n")
    (line, script), (line2, script2) = run_blocks(text)
    assert (line, line2) == (2, 10) and script.startswith("status=0\nif")
    assert script.endswith("EOF\n") and script2 == 'echo "x"\n'
    assert "syntax error" in bash_syntax_error(script)
    assert bash_syntax_error(script2) == ""
