"""Rules on the source of the agbms package itself."""

import ast
import pathlib

import agbms


def test_no_bare_assert():
    # python -O compiles assert statements out, so a guard written as one
    # would stop guarding; every invariant raises explicitly instead
    pkg = pathlib.Path(agbms.__file__).resolve().parent
    found = [
        f"{path.relative_to(pkg)}:{node.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"bare assert in src/agbms at {', '.join(found)}"
