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


def test_lane_codec_in_gf():
    # the packed-lane byte format has one home, gf: no other module converts
    # words to or from bytes, translates them or imports struct
    pkg = pathlib.Path(agbms.__file__).resolve().parent
    found = []
    for path in sorted(pkg.rglob("*.py")):
        if path.name == "gf.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            codec_call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("to_bytes", "from_bytes", "translate")
            )
            struct_import = (isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names)) or (
                isinstance(node, ast.ImportFrom) and node.module == "struct"
            )
            if codec_call or struct_import:
                found.append(f"{path.relative_to(pkg)}:{node.lineno}")
    assert found == [], f"lane codec outside gf.py at {', '.join(found)}"


def test_locators_stay_packed():
    # BMS hands F^(i) and G^(i) to the decoder as packed words, so neither
    # module may name the dict form of a polynomial
    pkg = pathlib.Path(agbms.__file__).resolve().parent
    found = []
    for name in ("bms.py", "decoder.py"):
        path = pkg / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            imported = isinstance(node, ast.ImportFrom) and any(a.name == "BiPoly" for a in node.names)
            if imported or getattr(node, "attr", getattr(node, "id", None)) == "BiPoly":
                found.append(f"{name}:{node.lineno}")
    assert found == [], f"BiPoly imported at {', '.join(found)}"
