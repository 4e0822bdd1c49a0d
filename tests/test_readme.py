"""The README's library example runs as written.

Every bare call in the block whose comment opens with an integer must
return that integer, so the documented API and values cannot drift.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    source = library_block()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        claim = re.search(r"#\s*(-?\d+)\b", lines[node.end_lineno - 1])
        if claim:
            assert value == int(claim.group(1)), ast.unparse(node)
            checked += 1
    assert checked >= 2
