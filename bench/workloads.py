"""Seeded inputs and timed operations of the benchmark workloads.

Every input is generated up front from the workload seed and handed to
the program as plain data (symbol lists, syndrome tables, error files).
An *op* is one received word taken through the workload's pipeline:

* ``decode_generic`` -- ``decoder.decode`` (inverse-free) on a pooled
  codeword plus a generic error pattern of weight exactly ``t_generic``;
* ``fer_sweep`` -- ``CodeSpec.encode`` of a random message, then
  ``inject_errors`` with a weight in 0..t_generic+2, then ``decode`` in
  ``inverse_free`` or ``division`` mode;
* ``arch_sim`` -- every simulated architecture that the five benchmark
  pairs assign to the word's preset, run on its syndromes without
  snapshots.

A round is one pass over the whole input pool, presets interleaved, so
every round of a run does the same work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

PRESETS = ("elliptic_gf16", "klein_gf8", "hermitian_gf16")
INVERSE_FREE = "inverse_free"
DIVISION = "division"
SERIAL = "serial"
SERIAL_INVERSE_FREE = "serial_inverse_free"

# The five (architecture, preset) pairs of arch_sim, by preset.
ARCH_PAIRS = {
    "elliptic_gf16": (INVERSE_FREE,),
    "klein_gf8": (INVERSE_FREE, SERIAL),
    "hermitian_gf16": (INVERSE_FREE, SERIAL_INVERSE_FREE),
}
PAIRS = tuple((arch, preset) for preset in PRESETS for arch in ARCH_PAIRS[preset])
SIM_FUNCS = {
    INVERSE_FREE: "sim_inverse_free",
    SERIAL: "sim_serial",
    SERIAL_INVERSE_FREE: "sim_serial_inverse_free",
}
# Statistics of one simulation that must repeat bit for bit.
SIM_STATS = ("total_clocks", "mult_uses", "inv_uses", "max_mults_per_clock", "boundaries_checked")

WORKLOADS = ("decode_generic", "fer_sweep", "arch_sim")
POOL = 200  # words per preset in one round: at least 10 lie beyond p95
CODEWORD_POOL = 4  # distinct codewords per preset in decode_generic

API_MODULES = ("agcode", "archsim", "bms", "cli", "decoder", "gf", "linalg", "oracle")


def import_api() -> SimpleNamespace:
    """Import the agbms modules afresh, dropping any earlier import, so
    that every call pays (and times) the full module set-up."""
    for name in [m for m in sys.modules if m == "agbms" or m.startswith("agbms.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"agbms.{m}") for m in API_MODULES})


@dataclass
class Inp:
    """One op's input.  ``sent`` is the codeword the op must recover."""

    preset: str
    mode: str = INVERSE_FREE
    weight: int = 0
    generic: bool | None = None  # None: weight above t_generic, not classified
    message: list[int] = field(default_factory=list)
    sent: list[int] = field(default_factory=list)
    received: list[int] = field(default_factory=list)
    locs: list[int] = field(default_factory=list)
    vals: list[int] = field(default_factory=list)
    synd: dict = field(default_factory=dict)
    errors_file: str = ""  # arch_sim: the pattern as a trace-arch error file
    key: tuple = ()  # (preset, index in the preset's pool)


def _generic_locs(api, code, rng: random.Random, weight: int) -> list[int]:
    while True:
        locs = sorted(rng.sample(range(code.n), weight))
        if api.oracle.is_generic(code, locs).is_generic:
            return locs


def _nonzero_vals(code, rng: random.Random, weight: int) -> list[int]:
    return [rng.randrange(code.fld.q - 1) for _ in range(weight)]


def _message(code, rng: random.Random) -> list[int]:
    return [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]


def generate(api, codes: dict, workload: str, seed: int, scratch: str) -> list[list[Inp]]:
    """The seed's input pool, as one list per preset."""
    pools = []
    for preset in PRESETS:
        code = codes[preset]
        t = code.t_generic
        rng = random.Random(f"{seed}/{workload}/{preset}")
        pool: list[Inp] = []
        if workload == "decode_generic":
            cws = [code.encode(_message(code, rng)).symbols for _ in range(CODEWORD_POOL)]
            for _ in range(POOL):
                sent = rng.choice(cws)
                locs = _generic_locs(api, code, rng, t)
                vals = _nonzero_vals(code, rng, t)
                rx = code.inject_errors(api.agcode.Word(sent), locs, vals).symbols
                pool.append(Inp(preset, INVERSE_FREE, t, True, sent=sent, received=rx, locs=locs, vals=vals))
        elif workload == "fer_sweep":
            # Stratified: each weight in 0..t+2 and each mode gets an equal
            # share of the pool (within one), in independent seeded orders,
            # so that the mix does not change from seed to seed.
            modes = [(INVERSE_FREE, DIVISION)[i % 2] for i in range(POOL)]
            weights = [i % (t + 3) for i in range(POOL)]
            rng.shuffle(modes)
            rng.shuffle(weights)
            for mode, weight in zip(modes, weights):
                msg = _message(code, rng)
                locs = rng.sample(range(code.n), weight)
                vals = _nonzero_vals(code, rng, weight)
                generic = None
                if weight == 0:
                    generic = True
                elif weight <= t:
                    generic = api.oracle.is_generic(code, sorted(locs)).is_generic
                sent = code.encode(msg).symbols
                rx = code.inject_errors(api.agcode.Word(sent), locs, vals).symbols
                pool.append(Inp(preset, mode, weight, generic, msg, sent, rx, locs, vals))
        else:
            for j in range(POOL):
                locs = _generic_locs(api, code, rng, t)
                vals = _nonzero_vals(code, rng, t)
                rx = code.inject_errors(code.zero_word(), locs, vals)
                inp = Inp(preset, INVERSE_FREE, t, True, sent=code.zero_word().symbols,
                          received=rx.symbols, locs=locs, vals=vals, synd=code.syndromes(rx))
                if j == 0:  # the traced run also sends this word through trace-arch
                    inp.errors_file = os.path.join(scratch, f"{preset}.err")
                    with open(inp.errors_file, "w") as fh:
                        fh.writelines(f"{loc} {val}\n" for loc, val in zip(locs, vals))
                pool.append(inp)
        for j, inp in enumerate(pool):
            inp.key = (preset, j)
        pools.append(pool)
    return pools


def round_order(pools: list[list[Inp]]) -> list[Inp]:
    """One round: every input once, presets interleaved."""
    return [inp for group in zip(*pools) for inp in group]


def describe(pools: list[list[Inp]], workload: str) -> dict:
    """Generation statistics that pin down what the seed produced."""
    out = {}
    for pool in pools:
        weights: dict[int, int] = {}
        modes: dict[str, int] = {}
        for inp in pool:
            weights[inp.weight] = weights.get(inp.weight, 0) + 1
            modes[inp.mode] = modes.get(inp.mode, 0) + 1
        classified = [inp.generic for inp in pool if inp.generic is not None]
        entry = {
            "pool": len(pool),
            "weight_hist": {str(w): c for w, c in sorted(weights.items())},
            "generic_fraction": round(sum(classified) / len(classified), 4),
            "modes": modes,
        }
        if workload == "decode_generic":
            entry["codeword_pool"] = len({tuple(inp.sent) for inp in pool})
        out[pool[0].preset] = entry
    return out


# ---------------------------------------------------------------------------
# timed operations: each returns the raw outputs, checked after the op


def op_decode(api, codes, inp: Inp):
    word = api.agcode.Word(inp.received, "received")
    return api.decoder.decode(codes[inp.preset], word, mode=inp.mode)


def op_fer(api, codes, inp: Inp):
    code = codes[inp.preset]
    cw = code.encode(inp.message)
    rx = code.inject_errors(cw, inp.locs, inp.vals)
    return cw.symbols, rx.symbols, api.decoder.decode(code, rx, mode=inp.mode)


def op_arch_sim(api, codes, inp: Inp):
    out = []
    for arch in ARCH_PAIRS[inp.preset]:
        sim = getattr(api.archsim, SIM_FUNCS[arch])
        out.append(sim_stats(sim(codes[inp.preset], inp.synd, keep_snapshots=False)))
    return out


OPS = {"decode_generic": op_decode, "fer_sweep": op_fer, "arch_sim": op_arch_sim}


def sim_stats(trace) -> list[int]:
    return [
        trace.total_clocks,
        trace.mult_uses,
        trace.inv_uses,
        trace.max_mults_per_clock,
        len(trace.boundary_states),
    ]


# ---------------------------------------------------------------------------
# trace-arch, the user's trace path, called in-process


def _trace_paths(scratch: str, arch: str) -> tuple[str, str]:
    return os.path.join(scratch, f"{arch}.csv"), os.path.join(scratch, f"{arch}.jsonl")


def trace_arch(api, inp: Inp, arch: str, scratch: str) -> tuple[int, str]:
    """``agbms trace-arch`` with a CSV and boundary dumps; returns the exit
    code and what it printed."""
    csv_path, dump_path = _trace_paths(scratch, arch)
    argv = ["trace-arch", inp.preset, inp.errors_file, csv_path, "--arch", arch,
            "--errors", "--boundary-dumps", dump_path]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = api.cli.main(argv)
    return rc, buf.getvalue()


def trace_arch_stats(stdout: str) -> list[int | None]:
    """total_clocks and boundaries_checked as ``trace-arch`` printed them."""
    printed = dict(line.partition(": ")[::2] for line in stdout.splitlines())
    return [int(printed[k]) if k in printed else None for k in ("total_clocks", "boundaries_checked")]


def collect_trace(scratch: str, arch: str) -> int:
    """Bytes ``trace-arch`` wrote for ``arch``; removes the files, so that
    the next call writes new ones instead of truncating these."""
    size = 0
    for path in _trace_paths(scratch, arch):
        size += os.path.getsize(path)
        os.remove(path)
    return size
