"""Rules on the source of the agbms package itself."""

import ast
import dataclasses
import pathlib

import agbms
from agbms import archsim


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


def test_step_reads_its_own_heads():
    # each lane of the bms.loops generator reads its own d and e in the one
    # pass over the lanes; bms.discrepancies, the same read for the dumps,
    # stays out of it
    pkg = pathlib.Path(agbms.__file__).resolve().parent
    tree = ast.parse((pkg / "bms.py").read_text())
    gen = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "loops")
    assert any(isinstance(n, ast.Yield) for n in ast.walk(gen))
    called = {n.func.id for n in ast.walk(gen) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "discrepancies" not in called


def test_simulator_rules_live_in_the_controller():
    # the N-loop is written once: only _Controller.run calls the lane rule
    # and the boundary check, so no datapath runs a loop of its own.  A run
    # keeps no record of its loops: no function in the package reads
    # keep_snapshots, nothing in archsim appends to a trace field, and
    # ArchTrace.clocks, the one place that builds register windows, reads
    # them off the replayed boundary states
    pkg = pathlib.Path(agbms.__file__).resolve().parent
    tree = ast.parse((pkg / "archsim.py").read_text())
    defs = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        defs += [(f"{cls.name}.{n.name}", n) for n in cls.body if isinstance(n, ast.FunctionDef)]
    fields = {f.name for f in dataclasses.fields(archsim.ArchTrace)}

    def users(attr):
        return sorted({name for name, d in defs for n in ast.walk(d) if getattr(n, "attr", None) == attr})

    assert users("lane") == users("_boundary") == ["_Controller.run"]
    assert "ArchTrace.clocks" in users("boundary_states")
    appends = [
        f"archsim.py:{n.lineno}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and getattr(n.func, "attr", None) in ("append", "extend", "insert")
        if getattr(n.func.value, "attr", None) in fields
    ]
    assert appends == [], f"a trace field is appended to at {', '.join(appends)}"
    reads = [
        f"{path.relative_to(pkg)}:{n.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        for n in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(n, ast.Name) and n.id == "keep_snapshots"
    ]
    assert reads == [], f"keep_snapshots is read at {', '.join(reads)}"


def test_every_name_has_a_toolkit_caller():
    # src/agbms holds only what the toolkit runs: every function and method
    # is referenced, as a name, an attribute or an import, somewhere in the
    # package or in bench/, which drives it as the benchmark does; oracle
    # too, whose test-only references live in tests/conftest.py.  Dunder
    # methods are called by Python and __all__ is the public API, so those
    # are exempt.  The match is by name only: a method that shares its name
    # with any local variable or attribute (a GF.weight beside bms.loops'
    # local weight, say) counts as called, so a dead name can escape it
    pkg = pathlib.Path(agbms.__file__).resolve().parent
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    referenced, defined = set(), []
    for path in sorted(pkg.glob("*.py")) + sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(a.name.rpartition(".")[2] for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and path.parent == pkg:
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((f"{path.name}:{node.lineno}", node.name))
    found = [f"{where} {name}" for where, name in defined if name not in referenced and name not in agbms.__all__]
    assert found == [], f"no toolkit caller for {', '.join(found)}"


def test_simulators_multiply_with_their_own_rows():
    # the boundary check compares two independent multipliers: archsim maps
    # its words through its own product and pair rows (GF.lookup) and never
    # through the GF.scale and GF.merge that bms.loops, the reference,
    # multiplies with, nor through GF.merge's pair rows
    pkg = pathlib.Path(agbms.__file__).resolve().parent
    tree = ast.parse((pkg / "archsim.py").read_text())
    names = ("scale", "merge", "_pair_rows")
    found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in names]
    assert found == [], f"archsim names scale, merge or _pair_rows at lines {found}"
