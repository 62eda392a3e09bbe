"""The README's "Library tour" runs, and every value its comments give holds."""

import ast
import io
import re
import tokenize
from collections.abc import Iterator
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    """The fenced python block under the "Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


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
