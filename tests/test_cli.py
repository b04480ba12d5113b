import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import random
import stat
import subprocess
import sys

import pytest

from agbms import archsim, bms, cli, decoder, oracle
from agbms import curve as curve_mod
from agbms.gf import ZERO
from conftest import bundled_error_file


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decode_golden_error_file(capsys):
    errfile = bundled_error_file("elliptic_gf16")
    code, out, _ = run_cli(capsys, "decode", "elliptic_gf16", errfile, "--errors")
    assert code == cli.EXIT_OK
    assert "status: Success" in out
    assert "error: 4 6" in out and "error: 12 8" in out and "error: 23 11" in out
    assert out.startswith("# spec_sha256=")


def test_decode_klein_division(capsys):
    errfile = bundled_error_file("klein_gf8")
    code, out, _ = run_cli(capsys, "decode", "klein_gf8", errfile, "--errors", "--mode", "division")
    assert code == cli.EXIT_OK
    assert "status: Success" in out


def test_decode_zero_word(tmp_path, capsys):
    codespec, _ = cli.load_code("elliptic_gf16")
    wordfile = tmp_path / "word.txt"
    wordfile.write_text(" ".join(str(s) for s in codespec.zero_word().symbols) + "\n")
    code, out, _ = run_cli(capsys, "decode", "elliptic_gf16", str(wordfile))
    assert code == cli.EXIT_OK
    assert "status: Success" in out
    assert "error:" not in out


def test_decode_non_generic_exit_code(tmp_path, capsys):
    errfile = tmp_path / "bad.txt"
    errfile.write_text("0 13\n4 6\n20 12\n")  # known non-generic triple
    code, out, _ = run_cli(capsys, "decode", "elliptic_gf16", str(errfile), "--errors")
    assert code == cli.EXIT_NOT_GENERIC
    assert "status: NotGenericDetected" in out


def test_decode_klein_special_point_failure(tmp_path, capsys):
    # a non-generic Klein pattern through P_(1:0:0) (index 22) ends as
    # Failure, exit 3: the closed form cannot evaluate there and the
    # interpolation finds no correction that passes the re-check
    codespec, _ = cli.load_code("klein_gf8")
    locs = [1, 2, 3, 22]
    assert codespec.points[22].special == "(1:0:0)"
    assert not oracle.is_generic(codespec, locs).is_generic
    received = codespec.inject_errors(codespec.zero_word(), locs, [0] * 4)
    for mode in (bms.INVERSE_FREE, bms.DIVISION):
        res = decoder.decode(codespec, received, mode)
        assert res.status == decoder.FAILURE
        assert "(1:0:0)" in res.detail
    errfile = tmp_path / "special.txt"
    errfile.write_text("1 0\n2 0\n3 0\n22 0\n")
    code, out, _ = run_cli(capsys, "decode", "klein_gf8", str(errfile), "--errors")
    assert code == cli.EXIT_FAILURE
    assert "status: Failure" in out


def test_decode_parse_error(tmp_path, capsys):
    # a nesting deeper than the JSON decoder recurses used to end in a
    # RecursionError traceback
    bad = tmp_path / "spec.json"
    for text in ("{not json", "[" * 200000 + "]" * 200000):
        bad.write_text(text)
        code, out, err = run_cli(capsys, "decode", str(bad), "whatever")
        assert code == cli.EXIT_PARSE
        assert err.startswith("error: bad code spec") and out == ""


@pytest.mark.parametrize("key", [[-1, 0], [0, -2], [1.5, 0], ["1", 0], [True, 1]],
                         ids=["neg_n1", "neg_n2", "float", "str", "bool"])
def test_spec_chi_keys_validated(tmp_path, capsys, key):
    # a chi monomial must be a pair of non-negative ints; x^-1 used to load
    # into a Laurent "curve" and decode to Success
    doc = json.loads(cli._spec_bytes("elliptic_gf16"))
    doc["curve"]["chi"].append(key + [0])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "decode", str(spec), bundled_error_file("elliptic_gf16"), "--errors")
    assert code == cli.EXIT_PARSE
    assert "chi key" in err and out == ""


SPEC_EDITS = [
    ("elliptic_gf16", "curve", "e", 30),  # read as e = 30 mod 15 = 0 before the range check
    ("elliptic_gf16", "curve", "e", 15),
    ("elliptic_gf16", "curve", "chi", [[0, 1, 15], [1, 0, 0]]),
    ("elliptic_gf16", "curve", "chi", [[0, 1, 0], [1, 0, 0], [1, 0, 5]]),  # repeated x term
    ("elliptic_gf16", "curve", "chi", [[0, 1, 0], [1, 0, 0], [True, 0, 0]]),  # true is 1
    ("elliptic_gf16", "field", "prim_poly", "x"),
    ("elliptic_gf16", "field", "prim_poly", None),
    ("elliptic_gf16", "field", "prim_poly", 19.0),
    ("elliptic_gf16", "field", "w", True),
    ("elliptic_gf16", "code", "m", 24),  # m - g + 1 = n: no message symbols
    ("elliptic_gf16", "code", "m", 8.0),
    # klein is a JSON bool, not something read by truthiness
    ("elliptic_gf16", "curve", "klein", None),
    ("elliptic_gf16", "curve", "klein", {}),
    ("elliptic_gf16", "curve", "klein", 0),
    ("klein_gf8", "curve", "klein", "x"),
    ("klein_gf8", "curve", "klein", 1),
    # the Klein quartic is fixed: e = 0 and no chi
    ("klein_gf8", "curve", "e", "x"),
    ("klein_gf8", "curve", "e", None),
    ("klein_gf8", "curve", "chi", [[0, 1, 0]]),
    ("elliptic_gf16", "curve", "genus", True),
    ("elliptic_gf16", "curve", "genus", 1.0),
    ("klein_gf8", "curve", "genus", 3.0),
    # code.t, when given, is t_generic
    ("elliptic_gf16", "code", "t", 99),
    ("elliptic_gf16", "code", "t", "x"),
    # a negative mask has the bit length of 19 = 0b10011; it used to raise IndexError
    ("elliptic_gf16", "field", "prim_poly", -19),
]


def spec_edit_ids(edits):
    """pytest's default case ids, with the preset left out where it is
    elliptic_gf16, so the elliptic cases keep the ids they had before the
    preset column, and a value that is not a scalar named by its JSON, so
    no id depends on a case's place in the list."""
    for preset, *rest in edits:
        parts = [] if preset == "elliptic_gf16" else [preset]
        parts += [
            str(v) if v is None or isinstance(v, (str, int, float)) else json.dumps(v, separators=(",", ":"))
            for v in rest
        ]
        yield "-".join(parts)


def test_spec_edit_ids_unique():
    ids = list(spec_edit_ids(SPEC_EDITS))
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("preset, section, key, value", SPEC_EDITS, ids=list(spec_edit_ids(SPEC_EDITS)))
def test_spec_values_validated(tmp_path, capsys, preset, section, key, value):
    # each of these used to decode the bundled errors or crash with a
    # traceback; a malformed spec exits 1
    doc = json.loads(cli._spec_bytes(preset))
    doc[section][key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "decode", str(spec), bundled_error_file(preset), "--errors")
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: bad code spec") and out == ""


# the whole spec (None) or one section replaced by a value that is not a
# JSON object; a non-object curve section used to end in a traceback
SECTION_EDITS = [(section, value) for section in (None, "field", "curve", "code") for value in ([], "x", None, 3)]


@pytest.mark.parametrize("section, value", SECTION_EDITS)
def test_spec_sections_validated(tmp_path, capsys, section, value):
    doc = json.loads(cli._spec_bytes("elliptic_gf16"))
    if section is None:
        doc = value
    else:
        doc[section] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "decode", str(spec), bundled_error_file("elliptic_gf16"), "--errors")
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: bad code spec") and out == ""
    assert ("the spec" if section is None else f"section {section!r}") in err


PRESETS = ("elliptic_gf16", "klein_gf8", "hermitian_gf16")


@pytest.mark.parametrize("preset", PRESETS)
def test_spec_budget_below_zero_refused(tmp_path, capsys, preset):
    # a spec whose m leaves t_generic below 0 exits 1; the smallest m with
    # t_generic = 0 decodes a clean word
    doc = json.loads(cli._spec_bytes(preset))
    del doc["code"]["t"]
    low = 2 * doc["curve"]["genus"] - 2 + doc["curve"]["a"]
    spec, word = tmp_path / "spec.json", tmp_path / "word.txt"
    word.write_text(" ".join(["-1"] * cli.load_code(preset)[0].n) + "\n")
    for m, want in ((low - 1, cli.EXIT_PARSE), (low, cli.EXIT_OK)):
        doc["code"]["m"] = m
        spec.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "decode", str(spec), str(word))
        assert code == want
        if want == cli.EXIT_PARSE:
            assert err.startswith("error: bad code spec") and f"2g-2+a={low}" in err and out == ""
        else:
            assert "status: Success" in out and err == ""


@pytest.mark.parametrize("preset", PRESETS)
def test_spec_m_below_n(tmp_path, capsys, preset):
    # a spec with m = n exits 1; m = n - 1 decodes a clean word
    doc = json.loads(cli._spec_bytes(preset))
    del doc["code"]["t"]
    n = cli.load_code(preset)[0].n
    spec, word = tmp_path / "spec.json", tmp_path / "word.txt"
    word.write_text(" ".join(["-1"] * n) + "\n")
    for m, want in ((n, cli.EXIT_PARSE), (n - 1, cli.EXIT_OK)):
        doc["code"]["m"] = m
        spec.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "decode", str(spec), str(word))
        assert code == want
        if want == cli.EXIT_PARSE:
            assert err.startswith("error: bad code spec") and f"below n = {n}" in err and out == ""
        else:
            assert "status: Success" in out and err == ""


FUZZ_KINDS = ("int", "float", "str", "bool", "null", "list", "dict", "delete")


def spec_leaves(doc, path=()):
    """Paths to every scalar of a spec document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for k, v in items for leaf in spec_leaves(v, path + (k,))]
    return [path]


def fuzzed_specs(count, seed):
    """(preset, spec document) pairs: a preset with one or two scalars or
    whole sections set to a value of some JSON type, or deleted."""
    rng = random.Random(seed)
    for k in range(count):
        preset = PRESETS[k % 3]
        doc = json.loads(cli._spec_bytes(preset))
        paths = spec_leaves(doc) + [(section,) for section in doc]
        # deepest and highest list index first, so a deletion never shifts
        # a path still to be mutated
        for path in sorted(rng.sample(paths, rng.randint(1, 2)), reverse=True):
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            old, kind = parent[path[-1]], rng.choice(FUZZ_KINDS)
            if kind == "delete":
                del parent[path[-1]]
                continue
            parent[path[-1]] = {
                "int": rng.randint(-3, 40),
                "float": (0.0 if isinstance(old, dict) else float(old)) + rng.choice([0.0, 0.5]),
                "str": rng.choice(["x", "", "3"]),
                "bool": rng.choice([True, False]),
                "null": None,
                "list": rng.choice([[], [old]]),
                "dict": rng.choice([{}, {"v": old}]),
            }[kind]
        yield preset, doc


FUZZ_SCRIPT = """
import contextlib, io, json, sys
from agbms import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps(codes))
"""


def fuzz_exit_codes(argvs):
    """``cli.main``'s exit code for each argv, run in-process; a ``python -O``
    subprocess must give the same codes."""
    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", FUZZ_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert json.loads(out) == codes
    return codes


def test_spec_fuzz_exits_cleanly(tmp_path):
    # malformed specs exit with a code, never a traceback, also with
    # asserts compiled out
    argvs = []
    for k, (preset, doc) in enumerate(fuzzed_specs(150, seed=0)):
        spec = tmp_path / f"spec{k}.json"
        spec.write_text(json.dumps(doc))
        argvs.append(["decode", str(spec), bundled_error_file(preset), "--errors"])
    codes = fuzz_exit_codes(argvs)
    assert set(codes) <= {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_NOT_GENERIC, cli.EXIT_FAILURE}


# token and line edits of a well-formed word or error file
BAD_TOKENS = ["x", "0x1", "1.0", "nan", "1e3", "9" * 30, "9" * 5000, "-2", "1_0", "+3", "\u00e9"]
BAD_LINES = ["", "# comment", "  # indented comment", "1", "1 2 3", "1 2 # trailing", "\t"]


def fuzzed_input_files(count, seed):
    """(preset, is error file, file bytes) triples: a valid word or error
    file of a preset with one to three edits -- a token replaced by a
    malformed, float, huge or out-of-range one, a token or line dropped or
    added, a duplicated error location, a comment or blank line, or a
    non-UTF-8 byte."""
    rng = random.Random(seed)
    codes = {preset: cli.load_code(preset)[0] for preset in PRESETS}
    for k in range(count):
        preset = PRESETS[k % 3]
        code = codes[preset]
        q, n = code.fld.q, code.n
        errors = k % 2 == 1
        if errors:
            locs = rng.sample(range(n), rng.randint(0, code.t_generic + 1))
            lines = [f"{j} {rng.randrange(q - 1)}" for j in locs]
        else:
            lines = [" ".join(str(rng.randrange(-1, q - 1)) for _ in range(n))]
        non_utf8 = False
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(lines) + 1)
            toks = lines[at - 1].split() if lines else []
            edit = rng.choice(["token", "token", "range", "line", "drop", "dup", "bytes"])
            if edit == "bytes":
                non_utf8 = True
            elif edit in ("token", "range") and toks:
                new = rng.choice(BAD_TOKENS) if edit == "token" else str(rng.choice([-1, q - 1, q, n, 10**6]))
                toks[rng.randrange(len(toks))] = new
                lines[at - 1] = " ".join(toks)
            elif edit == "drop" and toks:
                lines[at - 1] = " ".join(toks[:-1])
            elif edit == "dup" and errors:
                lines.insert(at, f"{toks[0] if toks else 0} 0")
            else:
                lines.insert(at, rng.choice(BAD_LINES))
        raw = "\n".join(lines).encode() + b"\n"
        if non_utf8:
            cut = rng.randrange(len(raw))
            raw = raw[:cut] + rng.choice([b"\xff", b"\xc3", b"\x00", b"\xef\xbb\xbf"]) + raw[cut:]
        yield preset, errors, raw


def test_input_file_fuzz_exits_cleanly(tmp_path):
    # malformed word and error files exit with a code, never a traceback,
    # also with asserts compiled out; trace-arch reads them on the small
    # elliptic code only, where a run's CSV stays small
    argvs = []
    for k, (preset, errors, raw) in enumerate(fuzzed_input_files(200, seed=0)):
        path = tmp_path / f"in{k}.txt"
        path.write_bytes(raw)
        flag = ["--errors"] if errors else []
        argvs.append(["decode", preset, str(path), *flag])
        if preset == "elliptic_gf16":
            arch = list(archsim.SIMULATORS)[k % 3]
            argvs.append(["trace-arch", preset, str(path), os.devnull, "--arch", arch, *flag])
    codes = fuzz_exit_codes(argvs)
    assert set(codes) <= {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_NOT_GENERIC, cli.EXIT_FAILURE}


@pytest.mark.parametrize("line", ["99 3", "24 3", "-1 3", "0 40", "0 15", "0 -1"])
@pytest.mark.parametrize("command", ["decode", "trace-arch"])
def test_error_file_out_of_range(tmp_path, capsys, command, line):
    errfile = tmp_path / "errs.txt"
    errfile.write_text(f"{line}\n")
    extra = [str(tmp_path / "t.csv"), "--arch", "inverse_free"] if command == "trace-arch" else []
    code, out, err = run_cli(capsys, command, "elliptic_gf16", str(errfile), *extra, "--errors")
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: error ")
    assert "status:" not in out
    codespec, _ = cli.load_code("elliptic_gf16")
    with pytest.raises(cli.SpecError):
        cli.read_errors(str(errfile), codespec)


@pytest.mark.parametrize("token", ["1_0", "+3", "\u0663", "3.0", "0x3"])
@pytest.mark.parametrize("errors", [True, False])
def test_input_tokens_strict(tmp_path, capsys, token, errors):
    # only ASCII -?[0-9]+ is a log integer: int() alone reads 1_0 as 10,
    # +3 as 3 and the Arabic-Indic digit three as 3
    code_spec, _ = cli.load_code("elliptic_gf16")
    path = tmp_path / "in.txt"
    if errors:
        path.write_text(f"{token} 2\n", encoding="utf-8")
    else:
        path.write_text(" ".join([token] + ["-1"] * (code_spec.n - 1)) + "\n", encoding="utf-8")
    flag = ["--errors"] if errors else []
    code, out, err = run_cli(capsys, "decode", "elliptic_gf16", str(path), *flag)
    assert code == cli.EXIT_PARSE
    assert err.startswith(f"error: cannot read {'error' if errors else 'word'} file ")
    assert "status:" not in out


def test_decode_word_length_checked(tmp_path, capsys):
    wordfile = tmp_path / "short.txt"
    wordfile.write_text("0 1 2\n")
    code, _, err = run_cli(capsys, "decode", "elliptic_gf16", str(wordfile))
    assert code == cli.EXIT_PARSE


def test_decode_dump_state(tmp_path, capsys):
    errfile = bundled_error_file("elliptic_gf16")
    dump = tmp_path / "dump.jsonl"
    code, _, _ = run_cli(
        capsys, "decode", "elliptic_gf16", errfile, "--errors", "--dump-state", str(dump)
    )
    assert code == cli.EXIT_OK
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(records) == 8 + 2
    assert records[0]["N"] == 0 and records[-1]["N"] == 9
    assert set(records[0]) == {"N", "s1", "c1", "d", "e", "f", "g", "v", "w"}


# sha256 prefixes of the bundled-pattern --dump-state files, recorded with
# the dict-based BMS state; the Z-array state must reproduce them byte for byte
DUMP_DIGESTS = {
    ("elliptic_gf16", "inverse_free"): "a4d8305ef7e69108",
    ("elliptic_gf16", "division"): "6829ffba1ea20fc2",
    ("klein_gf8", "inverse_free"): "d18a674d26db6271",
    ("klein_gf8", "division"): "2f674cbce24acebd",
    ("hermitian_gf16", "inverse_free"): "f725b6ec519d76b6",
    ("hermitian_gf16", "division"): "90ada837e8c64a82",
}


@pytest.mark.parametrize("preset,mode", sorted(DUMP_DIGESTS))
def test_dump_state_bytes_pinned(tmp_path, capsys, preset, mode):
    dump = tmp_path / "dump.jsonl"
    code, _, _ = run_cli(
        capsys, "decode", preset, bundled_error_file(preset), "--errors",
        "--mode", mode, "--dump-state", str(dump),
    )
    assert code == cli.EXIT_OK
    assert hashlib.sha256(dump.read_bytes()).hexdigest()[:16] == DUMP_DIGESTS[preset, mode]


# sha256 prefixes of the bundled-pattern trace-arch CSVs, recorded with the
# two copies of the simulator control that preceded the shared controller
CSV_DIGESTS = {
    ("inverse_free", "elliptic_gf16"): "7f82c657632e0cf8",
    ("serial", "klein_gf8"): "66d223dd50254419",
    ("serial_inverse_free", "hermitian_gf16"): "9c7f844d9afd6a54",
    ("inverse_free", "klein_gf8"): "10613de55d2f4c32",
    # recorded with the shared serial slot rule, the first to wire these pairings
    ("serial", "hermitian_gf16"): "972ed39e606d0be7",
    ("serial_inverse_free", "klein_gf8"): "7fd50399cb61de37",
    # recorded with the per-clock snapshot dicts, before a kept run stored
    # one record per loop
    ("inverse_free", "hermitian_gf16"): "bf2c67deba8b1c91",
    ("serial", "elliptic_gf16"): "fb1f25ec0d44bd56",
    ("serial_inverse_free", "elliptic_gf16"): "9aad071c3fd9904d",
}


@pytest.mark.parametrize(
    "arch,preset,mode",
    [
        ("inverse_free", "elliptic_gf16", "inverse_free"),
        ("serial", "klein_gf8", "division"),
        ("serial_inverse_free", "hermitian_gf16", "inverse_free"),
        ("inverse_free", "klein_gf8", "inverse_free"),
        ("serial", "hermitian_gf16", "division"),
        ("serial_inverse_free", "klein_gf8", "inverse_free"),
        ("inverse_free", "hermitian_gf16", "inverse_free"),
        ("serial", "elliptic_gf16", "division"),
        ("serial_inverse_free", "elliptic_gf16", "inverse_free"),
    ],
)
def test_boundary_dumps_match_dump_state(tmp_path, capsys, arch, preset, mode):
    # the boundary dumps equal the decoder's state dumps, and the per-clock
    # register CSV is pinned byte for byte
    errfile = bundled_error_file(preset)
    dump, bounds, trace = tmp_path / "dump.jsonl", tmp_path / "bounds.jsonl", tmp_path / "t.csv"
    run_cli(capsys, "decode", preset, errfile, "--errors", "--mode", mode, "--dump-state", str(dump))
    code, _, _ = run_cli(
        capsys, "trace-arch", preset, errfile, str(trace),
        "--arch", arch, "--errors", "--boundary-dumps", str(bounds),
    )
    assert code == cli.EXIT_OK
    assert bounds.read_bytes() == dump.read_bytes()
    assert hashlib.sha256(trace.read_bytes()).hexdigest()[:16] == CSV_DIGESTS[arch, preset]


def test_trace_arch_elliptic(tmp_path, capsys):
    errfile = bundled_error_file("elliptic_gf16")
    out_csv = tmp_path / "trace.csv"
    dumps = tmp_path / "bounds.jsonl"
    code, out, _ = run_cli(
        capsys, "trace-arch", "elliptic_gf16", errfile, str(out_csv),
        "--arch", "inverse_free", "--errors", "--boundary-dumps", str(dumps),
    )
    assert code == cli.EXIT_OK
    assert "period: 11" in out
    assert "total_clocks: 99" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "clock,block,reg_name,index,value_log,switch_states"
    assert len(lines) == 1 + 99 * (2 * 10 + 2 * 11)
    assert len(dumps.read_text().splitlines()) == 10


def test_trace_arch_divergence_exit_code(tmp_path, capsys, monkeypatch):
    # registers that disagree with the reference BMS state stop the run
    init_state = bms.init_state

    def skewed(*args, **kwargs):
        st = init_state(*args, **kwargs)
        st.vf[0] ^= (st.vf[0] & 15) or 1  # clear a nonzero v head, else set it to 1
        return st

    monkeypatch.setattr(bms, "init_state", skewed)
    code, _, err = run_cli(
        capsys, "trace-arch", "elliptic_gf16", bundled_error_file("elliptic_gf16"),
        str(tmp_path / "t.csv"), "--arch", "inverse_free", "--errors",
    )
    assert code == cli.EXIT_ORACLE_MISMATCH
    assert err.startswith("oracle-equivalence failure: inverse_free: boundary N=0 ")
    assert "at 'v'" in err


@pytest.mark.parametrize(
    "alias,existing",
    [("same-path", True), ("same-path", False), ("symlink", True), ("symlink", False), ("hard-link", True)],
    ids=["same-path", "same-path-new", "symlink", "symlink-dangling", "hard-link"],
)
def test_trace_arch_outputs_in_one_file_refused(tmp_path, capsys, alias, existing):
    # the CSV and the dumps written to one regular file would overwrite each
    # other: the pair is refused before either is opened
    trace = tmp_path / "t.csv"
    if existing:
        trace.write_text("kept\n")
    dumps = trace if alias == "same-path" else tmp_path / "alias"
    if alias == "symlink":
        dumps.symlink_to(trace)
    elif alias == "hard-link":
        os.link(trace, dumps)
    code, out, err = run_cli(
        capsys, "trace-arch", "elliptic_gf16", bundled_error_file("elliptic_gf16"), str(trace),
        "--arch", "inverse_free", "--errors", "--boundary-dumps", str(dumps),
    )
    assert code == cli.EXIT_PARSE and out == ""
    assert err == f"error: the trace {trace} and --boundary-dumps {dumps} are one file\n"
    # a file that was there is left untouched, and none is created
    assert trace.read_text() == "kept\n" if existing else not trace.exists()


def test_trace_arch_outputs_on_one_device(capsys):
    # a device named twice is not one regular file: both outputs go to it
    if not os.path.exists(os.devnull):
        pytest.skip(f"needs {os.devnull}")
    code, out, _ = run_cli(
        capsys, "trace-arch", "elliptic_gf16", bundled_error_file("elliptic_gf16"), os.devnull,
        "--arch", "inverse_free", "--errors", "--boundary-dumps", os.devnull,
    )
    assert code == cli.EXIT_OK and "boundaries_checked: 10" in out


def test_trace_arch_klein_serial(tmp_path, capsys):
    errfile = bundled_error_file("klein_gf8")
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "trace-arch", "klein_gf8", errfile, str(out_csv), "--arch", "serial", "--errors"
    )
    assert code == cli.EXIT_OK
    assert "period: 54" in out


def test_trace_arch_hermitian_serial_if(tmp_path, capsys):
    errfile = bundled_error_file("hermitian_gf16")
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "trace-arch", "hermitian_gf16", errfile, str(out_csv),
        "--arch", "serial_inverse_free", "--errors",
    )
    assert code == cli.EXIT_OK
    assert "period: 112" in out


@pytest.fixture
def remove_only_in(monkeypatch, tmp_path):
    """Let os.remove delete nothing outside tmp_path, so that a cleanup
    aimed at a device node fails the test instead of deleting the node."""
    real_remove = os.remove

    def remove(path):
        assert os.path.dirname(os.path.abspath(path)) == str(tmp_path), path
        real_remove(path)

    monkeypatch.setattr(os, "remove", remove)


@pytest.mark.usefixtures("remove_only_in")
@pytest.mark.parametrize(
    "argv,failed,errnum",
    [
        (["decode", "elliptic_gf16", "{err}", "--errors", "--dump-state", "{bad}"], "{bad}", errno.ENOENT),
        (["trace-arch", "elliptic_gf16", "{err}", "{bad}", "--arch", "serial", "--errors"], "{bad}", errno.ENOENT),
        (["trace-arch", "elliptic_gf16", "{err}", "{csv}", "--arch", "inverse_free", "--errors",
          "--boundary-dumps", "{bad}"], "{bad}", errno.ENOENT),
        # a device given as the CSV is not this run's output to remove
        (["trace-arch", "elliptic_gf16", "{err}", os.devnull, "--arch", "inverse_free", "--errors",
          "--boundary-dumps", "{bad}"], "{bad}", errno.ENOENT),
        # the CSV is written while the dumps file is open too; the error is the CSV's
        (["trace-arch", "elliptic_gf16", "{err}", "/dev/full", "--arch", "inverse_free", "--errors",
          "--boundary-dumps", "{csv}"], "/dev/full", errno.ENOSPC),
        (["gen-errors", "elliptic_gf16", "{bad}", "--t", "3"], "{bad}", errno.ENOENT),
    ],
    ids=["decode-dump-state", "trace-arch-csv", "trace-arch-boundary-dumps", "trace-arch-devnull-csv",
         "trace-arch-csv-write", "gen-errors"],
)
def test_unwritable_output_exits_cleanly(tmp_path, capsys, argv, failed, errnum):
    # an unwritable output path is an error message naming it, not a traceback
    devices = [arg for arg in argv if arg.startswith("/dev/")]
    if not all(os.path.exists(dev) for dev in devices):
        pytest.skip(f"needs {devices}")
    fill = {"err": bundled_error_file("elliptic_gf16"), "bad": str(tmp_path / "missing" / "out.txt"),
            "csv": str(tmp_path / "t.csv")}
    code, out, err = run_cli(capsys, *(arg.format(**fill) for arg in argv))
    assert code == cli.EXIT_PARSE
    assert err == f"error: cannot write {failed.format(**fill)}: {os.strerror(errnum)}\n"
    assert out == ""
    if argv[0] == "trace-arch":
        # both outputs are opened before either is written: the run leaves no file behind
        assert list(tmp_path.iterdir()) == []
    assert all(stat.S_ISCHR(os.stat(dev).st_mode) for dev in devices)


def test_stats_generic_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "stats-generic", "elliptic_gf16", "--t", "2", "--trials", "60", "--seed", "9")
    assert code == cli.EXIT_OK
    code, out2, _ = run_cli(capsys, "stats-generic", "elliptic_gf16", "--t", "2", "--trials", "60", "--seed", "9")
    assert out1 == out2
    assert "heuristic (q-1)/q: 0.937500" in out1


def test_bench_rows(capsys):
    code, out, _ = run_cli(capsys, "bench", "elliptic_gf16")
    assert code == cli.EXIT_OK
    rows = {line.split()[0]: line.split() for line in out.splitlines()[2:]}
    assert rows["serial"][1:3] == ["2", "1"]
    assert rows["inverse_free"][2] == "0"
    assert rows["inverse_free"][5] == str(9 * 11)
    assert rows["serial"][5] == str(9 * 22)
    assert rows["koetter"][1:3] == ["6", "2"]


@pytest.mark.parametrize(
    "preset,serial,serial_if", [("klein_gf8", 864, 912), ("hermitian_gf16", 2700, 2800)]
)
def test_bench_measures_every_simulator(capsys, preset, serial, serial_if):
    code, out, _ = run_cli(capsys, "bench", preset)
    assert code == cli.EXIT_OK
    rows = {line.split()[0]: line.split() for line in out.splitlines()[2:]}
    assert rows["serial"][5] == str(serial)
    assert rows["serial_inverse_free"][5] == str(serial_if)


def test_gen_errors(tmp_path, capsys):
    out = tmp_path / "errs.txt"
    code, _, _ = run_cli(capsys, "gen-errors", "klein_gf8", str(out), "--t", "3", "--seed", "5", "--generic")
    assert code == cli.EXIT_OK
    codespec, _ = cli.load_code("klein_gf8")
    locs, vals = cli.read_errors(str(out), codespec)
    assert len(locs) == 3 and all(v != ZERO for v in vals)
    out2 = tmp_path / "errs2.txt"
    run_cli(capsys, "gen-errors", "klein_gf8", str(out2), "--t", "3", "--seed", "5", "--generic")
    assert out.read_text() == out2.read_text()


def test_gen_errors_generic_gives_up(tmp_path, capsys, monkeypatch):
    # n = 24 on the elliptic code: the only weight-24 set is not generic
    monkeypatch.setattr(cli, "GENERIC_DRAWS", 3)
    out = tmp_path / "errs.txt"
    code, _, err = run_cli(capsys, "gen-errors", "elliptic_gf16", str(out), "--t", "24", "--generic")
    assert code == cli.EXIT_PARSE
    assert err == "error: no generic pattern of weight t=24 in 3 draws\n"
    assert not out.exists()


def test_load_code_presets_and_paths(tmp_path):
    for preset in ("elliptic_gf16", "klein_gf8", "hermitian_gf16"):
        codespec, digest = cli.load_code(preset)
        assert len(digest) == 16
    # the same JSON via an explicit path parses identically
    from importlib import resources

    raw = resources.files("agbms").joinpath("presets/klein_gf8.json").read_bytes()
    p = tmp_path / "spec.json"
    p.write_bytes(raw)
    codespec, _ = cli.load_code(str(p))
    assert codespec.n == 23


@pytest.mark.parametrize(
    "argv,low,t",
    [
        (["gen-errors"], 0, -1),
        (["gen-errors"], 0, 25),
        (["gen-errors", "--generic"], 1, 0),
        (["stats-generic"], 1, 0),
        (["stats-generic"], 1, 25),
    ],
)
def test_error_weight_out_of_range(tmp_path, capsys, argv, low, t):
    # n = 24 on the elliptic code; a genericity test needs t >= 1
    out = tmp_path / "errs.txt"
    command, *flags = argv
    files = [str(out)] if command == "gen-errors" else []
    code, stdout, err = run_cli(capsys, command, "elliptic_gf16", *files, "--t", str(t), *flags)
    assert code == cli.EXIT_PARSE and stdout == ""
    assert err == f"error: t={t} outside the accepted range [{low}, 24]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,t", [("gen-errors", 0), ("gen-errors", 24), ("stats-generic", 1), ("stats-generic", 24)]
)
def test_error_weight_range_ends(tmp_path, capsys, command, t):
    out = tmp_path / "errs.txt"
    if command == "gen-errors":
        code, _, _ = run_cli(capsys, command, "elliptic_gf16", str(out), "--t", str(t))
        assert len(cli.read_errors(str(out), cli.load_code("elliptic_gf16")[0])[0]) == t
    else:
        code, stdout, _ = run_cli(capsys, command, "elliptic_gf16", "--t", str(t), "--trials", "3")
        assert "trials: 3" in stdout
    assert code == cli.EXIT_OK


# a Klein quartic and a C_2^3 curve with an xy term: both search their
# points by the q^2 scan
SCAN_CURVES = {
    "klein": {"a": 3, "b": 2, "e": 0, "chi": [], "genus": 3, "klein": True},
    "xy_term": {"a": 2, "b": 3, "e": 0, "chi": [[1, 1, 3], [0, 1, 0]], "genus": 1, "klein": False},
}
FIELDS = {10: 0b10000001001, 11: 0b100000000101, 16: 0b10000000000101101}


@pytest.mark.parametrize("w", [11, 16])
@pytest.mark.parametrize("curve", sorted(SCAN_CURVES))
def test_point_scan_refused_above_its_bound(tmp_path, capsys, monkeypatch, curve, w):
    # such a spec over a field larger than SCAN_MAX_Q = 2^10 exits 1 with a
    # message before the scan evaluates D at any point; at 2^10 the scan
    # starts (and is stopped here at its first evaluation)
    assert curve_mod.SCAN_MAX_Q == 1 << 10
    calls = []
    monkeypatch.setattr(curve_mod.CurveSpec, "equation_at", lambda *args: calls.append(args) or 1 / 0)

    def spec(width):
        path = tmp_path / f"spec{width}.json"
        doc = {"field": {"w": width, "prim_poly": FIELDS[width]}, "curve": SCAN_CURVES[curve], "code": {"m": 12}}
        path.write_text(json.dumps(doc))
        return str(path)

    code, out, err = run_cli(capsys, "decode", spec(w), bundled_error_file("klein_gf8"), "--errors")
    assert code == cli.EXIT_PARSE and out == "" and calls == []
    assert err.startswith("error: bad code spec") and f"refused above q = 1024: q = {1 << w}" in err
    with pytest.raises(ZeroDivisionError):
        cli.main(["decode", spec(10), bundled_error_file("klein_gf8"), "--errors"])
    assert len(calls) == 1
