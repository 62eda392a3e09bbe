"""The README's "Library tour" runs, and every value its comments give holds;
so do the outputs its "Command line" section gives."""

import ast
import io
import re
import shlex
import sys
import tokenize
from collections.abc import Iterator
from pathlib import Path

import pytest

from pairbij import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(heading: str) -> str:
    """The README's text under a "## " heading, up to the next one."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _tour() -> str:
    """The fenced python block under the "Library tour" heading."""
    return _section("Library tour").split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_tour_values_hold():
    block = _tour()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked, wrong = [], []
    for stmt in ast.parse(block).body:
        if not (isinstance(stmt, ast.Expr) and stmt.lineno in comments):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        # `<expr>  # <value>  (a remark)`: the value is the comment up to a double space.
        want = re.split(r"\s{2,}", comments[stmt.lineno])[0]
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        if isinstance(got, Iterator):
            got = list(got)
        checked.append(ast.unparse(stmt))
        if repr(got) != want:
            wrong.append(f"{ast.unparse(stmt)} gives {got!r}, the README says {want}")
    assert checked, "no `<expr>  # <value>` line found in the Library tour"
    assert not wrong, wrong


def test_command_table_outputs_hold(capsys):
    # rows `| `<command>` | `pairbij <args>` | `<output>` |`: the output cell is one literal
    rows = re.findall(r"^\| `\w+` \| `pairbij ([^`]*)` \| `([^`]*)` \|$",
                      _section("Command line"), re.MULTILINE)
    assert rows, "no command-table row with a literal output found"
    for command, want in rows:
        code = cli.main(shlex.split(command))
        assert (code, capsys.readouterr().out) == (0, want + "\n"), command


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="needs CPython's limit on decimal digits")
def test_too_long_result_exits_2_naming_the_limit(capsys):
    command = re.search(r"too long to print \(`pairbij ([^`]*)`\)", _section("Command line"))[1]
    assert cli.main(shlex.split(command)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"limit of {sys.get_int_max_str_digits()} decimal digits" in err
