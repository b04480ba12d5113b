"""Command-line front end: decode, trace-arch, stats-generic, bench, gen-errors.

File conventions (all plain text, log-encoded integers, -1 for zero):
  code spec   JSON with field / curve / code sections; the three bundled
              presets (elliptic_gf16, klein_gf8, hermitian_gf16) can be
              named in place of a path.
  word file   whitespace-separated log integers, one word.
  error file  one "index value_log" pair per line.

Every output record starts with a provenance line carrying the sha256 of
the spec file and the seed, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import random
import re
import sys
from importlib import resources

from . import archsim, bms, decoder, oracle
from .agcode import CodeSpec, Word
from .curve import CurveSpec
from .gf import GF

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_GENERIC = 2
EXIT_FAILURE = 3
EXIT_ORACLE_MISMATCH = 4

# location sets ``gen-errors --generic`` draws before it gives up; some
# weights admit no generic set at all (t = n on the elliptic code)
GENERIC_DRAWS = 100


class SpecError(ValueError):
    pass


def _spec_bytes(path: str) -> bytes:
    pkg = resources.files("agbms").joinpath(f"presets/{path}.json")
    if pkg.is_file():
        return pkg.read_bytes()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read code spec {path!r}: {exc}") from exc


def load_code(path: str) -> tuple[CodeSpec, str]:
    """Parse a code-spec file (or bundled preset name); returns the code and
    the sha256 prefix of the raw spec bytes for provenance lines."""
    raw = _spec_bytes(path)
    digest = hashlib.sha256(raw).hexdigest()[:16]
    try:
        doc = json.loads(raw)
        if type(doc) is not dict:
            raise SpecError("the spec is not a JSON object")
        for section in ("field", "curve", "code"):
            if type(doc[section]) is not dict:
                raise SpecError(f"section {section!r} is not a JSON object")
        fld = GF(doc["field"]["w"], doc["field"]["prim_poly"])
        cs = doc["curve"]
        triples = cs.get("chi", [])
        chi = {(n1, n2): c for n1, n2, c in triples}
        if len(chi) != len(triples):  # also (true, 0) onto (1, 0)
            raise SpecError(f"repeated chi monomial in {triples!r}")
        curve = CurveSpec(
            a=cs["a"],
            b=cs["b"],
            e=cs["e"],
            chi=chi,
            genus=cs["genus"],
            klein=cs.get("klein", False),
        )
        code = CodeSpec(curve, fld, m=doc["code"]["m"])
        t = doc["code"].get("t", code.t_generic)
        if type(t) is not int or t != code.t_generic:
            raise SpecError(f"t={t!r} is not t_generic={code.t_generic}")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: a deeply nested spec
        raise SpecError(f"bad code spec {path!r}: {exc}") from exc
    return code, digest


def _log_token(tok: str) -> int:
    """An ASCII integer token, -?[0-9]+; int() alone would also take 1_0,
    +3 and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", tok):
        raise ValueError(f"{tok!r} is not an integer")
    return int(tok)


def read_word(path: str, code: CodeSpec) -> Word:
    try:
        with open(path) as fh:
            symbols = [_log_token(tok) for tok in fh.read().split()]
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read word file {path!r}: {exc}") from exc
    if len(symbols) != code.n:
        raise SpecError(f"word length {len(symbols)} != code length {code.n}")
    if any(s < -1 or s >= code.fld.q - 1 for s in symbols):
        raise SpecError("word symbols outside log range")
    return Word(symbols, "received")


@contextlib.contextmanager
def writing(path: str):
    """An OSError in the body becomes a SpecError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def output(path: str, newline: str | None = None):
    """An output file open for writing, under ``writing(path)``.  If the
    body fails once the file is open (another output cannot be opened,
    say), the file is removed when this call created it as a regular file,
    so a failed command leaves no output behind; a file that was there
    before, or a device such as /dev/null, is left as it is."""
    created = not os.path.lexists(path)
    with writing(path):
        try:
            with open(path, "w", newline=newline) as fh:
                yield fh
        except Exception:
            if created and os.path.isfile(path):
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise


def _same_regular_file(a: str, b: str) -> bool:
    """Whether paths a and b name one regular file: one that exists, by the
    same path, a symlink or a hard link, or one that opening both would
    create.  A device such as /dev/null named twice is not one."""
    try:
        return os.path.samefile(a, b) and os.path.isfile(a)
    except OSError:  # a path that does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def read_errors(path: str, code: CodeSpec) -> tuple[list[int], list[int]]:
    locs, vals = [], []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                j, v = line.split()
                locs.append(_log_token(j))
                vals.append(_log_token(v))
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read error file {path!r}: {exc}") from exc
    if any(not 0 <= j < code.n for j in locs):
        raise SpecError(f"error locations outside [0, {code.n})")
    if any(not 0 <= v < code.fld.q - 1 for v in vals):
        raise SpecError(f"error values outside the nonzero log range [0, {code.fld.q - 1})")
    return locs, vals


def read_received(args, code: CodeSpec) -> Word:
    """The received word: ``args.received`` read as a word file, or with
    ``--errors`` as an error pattern injected into the zero codeword."""
    if args.errors:
        locs, vals = read_errors(args.received, code)
        return code.inject_errors(code.zero_word(), locs, vals)
    return read_word(args.received, code)


# ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    code, digest = load_code(args.spec)
    received = read_received(args, code)

    if args.dump_state:
        synd = code.syndromes(received)
        _, records = bms.run(code, synd, args.mode, record=True)
        with output(args.dump_state) as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")

    res = decoder.decode(code, received, mode=args.mode)
    print(f"# spec_sha256={digest} seed=-")
    print(f"status: {res.status}")
    if res.detail:
        print(f"detail: {res.detail}")
    for j, v in zip(res.error_locs, res.error_vals):
        print(f"error: {j} {v}")
    if res.corrected is not None:
        print("corrected: " + " ".join(str(s) for s in res.corrected.symbols))
    return {decoder.SUCCESS: EXIT_OK, decoder.NOT_GENERIC: EXIT_NOT_GENERIC}.get(
        res.status, EXIT_FAILURE
    )


def cmd_trace_arch(args) -> int:
    if args.boundary_dumps and _same_regular_file(args.out, args.boundary_dumps):
        # the dumps would overwrite the CSV in the one file
        raise SpecError(f"the trace {args.out} and --boundary-dumps {args.boundary_dumps} are one file")
    code, digest = load_code(args.spec)
    synd = code.syndromes(read_received(args, code))
    try:
        trace = archsim.SIMULATORS[args.arch](code, synd)
    except AssertionError as exc:
        print(f"oracle-equivalence failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH

    dumps = output(args.boundary_dumps) if args.boundary_dumps else contextlib.nullcontext()
    # both outputs are open before either is written
    with output(args.out, newline="") as fh, dumps as dumps_fh:
        # the dumps context encloses these writes: their errors name the CSV
        with writing(args.out):
            writer = csv.writer(fh)
            writer.writerow(["clock", "block", "reg_name", "index", "value_log", "switch_states"])
            log = code.fld.log  # the traced registers hold bit-vector values
            for snap in trace.clocks():
                switches = ";".join(f"{k}={int(v)}" for k, v in sorted(snap["switches"].items()))
                for reg_name, values in snap["registers"].items():
                    block = reg_name.split(".")[0] if "." in reg_name else "-"
                    for idx, val in enumerate(values):
                        writer.writerow([snap["clock"], block, reg_name, idx, log[val], switches])
        if args.boundary_dumps:
            for st in trace.boundary_states:
                dumps_fh.write(json.dumps(bms.state_record(st, code)) + "\n")
    print(f"# spec_sha256={digest} seed=-")
    print(f"architecture: {trace.architecture}")
    print(f"period: {trace.period}")
    print(f"total_clocks: {trace.total_clocks}")
    print(f"boundaries_checked: {len(trace.boundary_states)}")
    return EXIT_OK


def cmd_stats_generic(args) -> int:
    code, digest = load_code(args.spec)
    rep = oracle.generic_ratio(code, args.t, args.trials, args.seed)
    print(f"# spec_sha256={digest} seed={args.seed}")
    print(f"trials: {rep['trials']}")
    print(f"hits: {rep['hits']}")
    print(f"estimate: {rep['estimate']:.6f}")
    print(f"heuristic (q-1)/q: {rep['heuristic']:.6f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    code, digest = load_code(args.spec)
    synd = code.syndromes(code.zero_word())
    sims = archsim.SIMULATORS.items()
    measured = {arch: sim(code, synd).total_clocks for arch, sim in sims}
    print(f"# spec_sha256={digest} seed=-")
    print(f"{'architecture':<22}{'multipliers':>12}{'inverters':>10}{'registers':>10}{'time':>8}{'measured':>10}")
    for arch in list(archsim.CLOSED_FORM_ONLY) + list(archsim.SIMULATORS):
        est = archsim.resources(arch, code)
        print(
            f"{est.architecture:<22}{est.multipliers:>12}{est.inverters:>10}"
            f"{est.registers:>10}{est.time:>8}{measured.get(arch, '-'):>10}"
        )
    return EXIT_OK


def cmd_gen_errors(args) -> int:
    code, digest = load_code(args.spec)
    oracle.check_weight(code, args.t, args.generic)
    rng = random.Random(args.seed)
    locs = sorted(rng.sample(range(code.n), args.t))
    vals = [rng.randrange(code.fld.q - 1) for _ in range(args.t)]
    if args.generic:
        draws = 1
        while not oracle.is_generic(code, locs).is_generic:
            if draws == GENERIC_DRAWS:
                raise SpecError(f"no generic pattern of weight t={args.t} in {draws} draws")
            locs = sorted(rng.sample(range(code.n), args.t))
            draws += 1
    with output(args.out) as fh:
        fh.write(f"# spec_sha256={digest} seed={args.seed}\n")
        for j, v in zip(locs, vals):
            fh.write(f"{j} {v}\n")
    print(f"# spec_sha256={digest} seed={args.seed}")
    print(f"wrote {args.t} errors to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="agbms", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode a received word")
    p.add_argument("spec")
    p.add_argument("received")
    p.add_argument("--mode", choices=[bms.INVERSE_FREE, bms.DIVISION], default=bms.INVERSE_FREE)
    p.add_argument("--errors", action="store_true", help="received file is an error pattern")
    p.add_argument("--dump-state", metavar="PATH", help="write per-N BMS state dumps")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("trace-arch", help="simulate a decoder architecture, write a CSV trace")
    p.add_argument("spec")
    p.add_argument("received")
    p.add_argument("out")
    p.add_argument("--arch", choices=list(archsim.SIMULATORS), required=True)
    p.add_argument("--errors", action="store_true", help="received file is an error pattern")
    p.add_argument("--boundary-dumps", metavar="PATH")
    p.set_defaults(func=cmd_trace_arch)

    p = sub.add_parser("stats-generic", help="estimate the generic-error ratio")
    p.add_argument("spec")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_stats_generic)

    p = sub.add_parser("bench", help="architecture resource/latency comparison")
    p.add_argument("spec")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-errors", help="write a random error-pattern file")
    p.add_argument("spec")
    p.add_argument("out")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generic", action="store_true", help="resample until the pattern is generic")
    p.set_defaults(func=cmd_gen_errors)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
