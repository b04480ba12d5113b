import json

import pytest

from agbms import cli
from agbms.gf import ZERO


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decode_golden_error_file(capsys):
    errfile = cli.bundled_error_file("elliptic_gf16")
    code, out, _ = run_cli(capsys, "decode", "elliptic_gf16", errfile, "--errors")
    assert code == cli.EXIT_OK
    assert "status: Success" in out
    assert "error: 4 6" in out and "error: 12 8" in out and "error: 23 11" in out
    assert out.startswith("# spec_sha256=")


def test_decode_klein_division(capsys):
    errfile = cli.bundled_error_file("klein_gf8")
    code, out, _ = run_cli(capsys, "decode", "klein_gf8", errfile, "--errors", "--mode", "division")
    assert code == cli.EXIT_OK
    assert "status: Success" in out


def test_decode_zero_word(tmp_path, capsys):
    codespec, _ = cli.load_code("elliptic_gf16")
    wordfile = tmp_path / "word.txt"
    cli.write_word(str(wordfile), codespec.zero_word())
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


def test_decode_parse_error(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "decode", str(bad), "whatever")
    assert code == cli.EXIT_PARSE
    assert "error:" in err


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


def test_decode_word_length_checked(tmp_path, capsys):
    wordfile = tmp_path / "short.txt"
    wordfile.write_text("0 1 2\n")
    code, _, err = run_cli(capsys, "decode", "elliptic_gf16", str(wordfile))
    assert code == cli.EXIT_PARSE


def test_decode_dump_state(tmp_path, capsys):
    errfile = cli.bundled_error_file("elliptic_gf16")
    dump = tmp_path / "dump.jsonl"
    code, _, _ = run_cli(
        capsys, "decode", "elliptic_gf16", errfile, "--errors", "--dump-state", str(dump)
    )
    assert code == cli.EXIT_OK
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(records) == 8 + 2
    assert records[0]["N"] == 0 and records[-1]["N"] == 9
    assert set(records[0]) == {"N", "s1", "c1", "d", "e", "f", "g", "v", "w"}


def test_trace_arch_elliptic(tmp_path, capsys):
    errfile = cli.bundled_error_file("elliptic_gf16")
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


def test_trace_arch_klein_serial(tmp_path, capsys):
    errfile = cli.bundled_error_file("klein_gf8")
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "trace-arch", "klein_gf8", errfile, str(out_csv), "--arch", "serial", "--errors"
    )
    assert code == cli.EXIT_OK
    assert "period: 54" in out


def test_trace_arch_hermitian_serial_if(tmp_path, capsys):
    errfile = cli.bundled_error_file("hermitian_gf16")
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "trace-arch", "hermitian_gf16", errfile, str(out_csv),
        "--arch", "serial_inverse_free", "--errors",
    )
    assert code == cli.EXIT_OK
    assert "period: 112" in out


def test_trace_arch_incompatible(tmp_path, capsys):
    errfile = cli.bundled_error_file("hermitian_gf16")
    code, _, err = run_cli(
        capsys, "trace-arch", "hermitian_gf16", errfile, str(tmp_path / "t.csv"),
        "--arch", "serial", "--errors",
    )
    assert code == cli.EXIT_PARSE


def test_stats_generic_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "stats-generic", "elliptic_gf16", "--t", "2", "--trials", "60", "--seed", "9")
    assert code == cli.EXIT_OK
    code, out2, _ = run_cli(capsys, "stats-generic", "elliptic_gf16", "--t", "2", "--trials", "60", "--seed", "9")
    assert out1 == out2
    assert "expected: 0.9375" in out1


def test_bench_rows(capsys):
    code, out, _ = run_cli(capsys, "bench", "elliptic_gf16")
    assert code == cli.EXIT_OK
    rows = {line.split()[0]: line.split() for line in out.splitlines()[2:]}
    assert rows["serial"][1:3] == ["2", "1"]
    assert rows["inverse_free"][2] == "0"
    assert rows["inverse_free"][5] == str(9 * 11)
    assert rows["serial"][5] == str(9 * 22)
    assert rows["koetter"][1:3] == ["6", "2"]


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
