"""Seeded benchmark of the agbms decoder toolkit.

Run from the repository root:

    python3 bench/run.py --workload decode_generic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke
    python3 bench/run.py --write-golden 0-31,7919

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import contract
import hostspeed
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden_archsim.json"

MIN_ROUNDS = 2  # every word is timed at least this many times per run
SETUP_REPS = 11  # set-up is measured this many times and reported as the median


def _percentile(xs: list[float], q: int) -> float:
    """q-th percentile, inclusive method."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _load_golden(seed: int) -> dict | None:
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text())["seeds"].get(str(seed))


class Classifier:
    """Applies the contract to each op as it completes (outside the timed
    region) and keeps only failure reasons, so memory does not grow with
    the number of ops.  Simulator statistics must repeat on every round and,
    where the seed has committed values, sum to them over the pool."""

    def __init__(self, workload: str, checkers: dict, golden: dict | None):
        self.workload = workload
        self.checkers = checkers
        self.golden = golden
        self.reasons: dict[str, int] = {}
        self.first: dict[tuple, list[int]] = {}
        self.ops = {p: 0 for p in wl.PRESETS}
        self.failed = {p: 0 for p in wl.PRESETS}

    def fail(self, preset: str, reason: str, n: int = 1) -> None:
        self.failed[preset] += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    def add(self, inp, out) -> None:
        self.ops[inp.preset] += 1
        reason = None
        if isinstance(out, BaseException):
            reason = f"raised {type(out).__name__}: {out}"
        elif self.workload == "decode_generic":
            reason = self.checkers[inp.preset].decode(inp, out)
        elif self.workload == "fer_sweep":
            reason = self.checkers[inp.preset].fer(inp, out)
        else:
            for arch, stats in zip(wl.ARCH_PAIRS[inp.preset], out):
                if self.first.setdefault((arch, inp.key), stats) != stats:
                    reason = f"{arch}.{inp.preset}: simulated statistics changed between rounds"
                    break
        if reason:
            self.fail(inp.preset, reason)

    def finish(self) -> dict[str, int]:
        """Failure reasons with the number of ops failed for each; empty
        when every op kept the contract.  A pool sum that differs from the
        committed one fails every op on that preset."""
        if self.golden is not None:
            for arch, preset in wl.PAIRS:
                obs = [v for (a, (p, _)), v in self.first.items() if (a, p) == (arch, preset)]
                if [sum(col) for col in zip(*obs)] != self.golden[f"{arch}.{preset}"]:
                    reason = f"{arch}.{preset}: simulated statistics differ from the committed values"
                    self.fail(preset, reason, self.ops[preset] - self.failed[preset])
        return {r: n for r, n in self.reasons.items() if n}


class Context:
    """Generated inputs plus the code objects they were generated with."""

    def __init__(self, workload: str, seed: int, scratch: str):
        self.workload = workload
        self.scratch = scratch
        self.api = wl.import_api()
        self.codes = {p: self.api.cli.load_code(p)[0] for p in wl.PRESETS}
        self.pools = wl.generate(self.api, self.codes, workload, seed, scratch)
        self.order = wl.round_order(self.pools)
        self.op = wl.OPS[workload]
        self.checkers = {p: contract.Checker(c) for p, c in self.codes.items()}
        self.golden = _load_golden(seed) if workload == "arch_sim" else None

    def classifier(self) -> Classifier:
        return Classifier(self.workload, self.checkers, self.golden)

    def setup_once(self) -> float:
        """Import agbms, load every preset and run one warm-up op per
        preset; returns the wall time and keeps the fresh modules."""
        t0 = time.perf_counter()
        api = wl.import_api()
        codes = {p: api.cli.load_code(p)[0] for p in wl.PRESETS}
        for pool in self.pools:
            self.op(api, codes, pool[0])
        elapsed = time.perf_counter() - t0
        self.api, self.codes = api, codes
        return elapsed


def run_timed(ctx: Context, seconds: float) -> tuple[dict, dict, list[str]]:
    """Untraced run: the end-to-end metrics."""
    setup_s = statistics.median(hostspeed.scale() * ctx.setup_once() for _ in range(SETUP_REPS))

    best: dict[tuple, float] = {}
    clocks: dict[tuple, int] = {}
    classifier = ctx.classifier()
    attempted = 0
    rounds = 0
    last = 0.0
    deadline = time.perf_counter() + seconds
    # Whole rounds only: stop when another round would overrun --seconds.
    while rounds < MIN_ROUNDS or time.perf_counter() + last <= deadline:
        r0 = time.perf_counter()
        for inp in ctx.order:
            scale = hostspeed.scale()
            t0 = time.perf_counter()
            try:
                out = ctx.op(ctx.api, ctx.codes, inp)
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = exc
            dt = (time.perf_counter() - t0) * scale
            best[inp.key] = min(dt, best.get(inp.key, dt))
            if ctx.workload == "arch_sim" and not isinstance(out, BaseException):
                clocks[inp.key] = sum(stats[0] for stats in out)
            classifier.add(inp, out)
            attempted += 1
        last = time.perf_counter() - r0
        rounds += 1

    reasons = classifier.finish()
    failed = sum(reasons.values())

    # Each word's latency is its best rescaled time over the rounds; the
    # quantiles run over the words.
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "words_per_s": _metric(len(best) / sum(best.values()), "1/s"),
    }
    words = {}
    for preset in wl.PRESETS:
        lat = [dt * 1e3 for (p, _), dt in best.items() if p == preset]
        words[preset] = len(lat)
        metrics[f"latency_p50_ms.{preset}"] = _metric(statistics.median(lat), "ms")
        metrics[f"latency_p95_ms.{preset}"] = _metric(_percentile(lat, 95), "ms")

    info = {"rounds": rounds, "words_per_preset": words, "error_rate": failed / attempted}
    if ctx.workload == "arch_sim":
        info["clocks_per_s"] = sum(clocks.values()) / sum(best.values())
        info["golden"] = "checked" if ctx.golden is not None else "absent for this seed"
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info, sorted(reasons)


def _traced_op(ctx: Context, inp, tr: tracing.Tracer, classifier: Classifier) -> tuple | None:
    """One op with spans around every layer call, then the attribution
    probes, which run outside the op span.  Returns the decode summary for
    the decode workloads (compared with the untraced decode)."""
    api, code = ctx.api, ctx.codes[inp.preset]
    summary = None
    with tr.span("op"):
        if ctx.workload == "decode_generic":
            summary = tracing.replay_decode(api, code, api.agcode.Word(inp.received, "received"), inp.mode, tr)
        elif ctx.workload == "fer_sweep":
            with tr.span("agcode.encode"):
                cw = code.encode(inp.message)
            with tr.span("agcode.inject_errors"):
                rx = code.inject_errors(cw, inp.locs, inp.vals)
            summary = tracing.replay_decode(api, code, rx, inp.mode, tr)
        else:
            for arch in wl.ARCH_PAIRS[inp.preset]:
                sim = getattr(api.archsim, wl.SIM_FUNCS[arch])
                with tr.span(f"archsim.{arch}.{inp.preset}"):
                    trace = sim(code, inp.synd, keep_snapshots=False)
                for name, val in zip(wl.SIM_STATS, wl.sim_stats(trace)):
                    tr.count(f"archsim.{arch}.{inp.preset}.{name}", val)

    if summary is not None:
        tr.count(f"decoder.status.{summary[0]}")
        tr.count("decoder.decodes")
    if ctx.workload == "fer_sweep":
        # what encode calls before its own solve loop, timed as separate calls
        with tr.span("agcode.parity_check_matrix"):
            h = code.parity_check_matrix()
        with tr.span("linalg.rref"):
            api.linalg.rref(code.fld, h)
    if ctx.workload == "arch_sim":
        for arch in wl.ARCH_PAIRS[inp.preset]:
            sim = getattr(api.archsim, wl.SIM_FUNCS[arch])
            mode = api.bms.DIVISION if arch == wl.SERIAL else api.bms.INVERSE_FREE
            with tr.span("archsim.ref_bms"):
                api.bms.run(code, inp.synd, mode, record=True)
            with tr.span("archsim.with_snapshots"):
                trace = sim(code, inp.synd, keep_snapshots=True)
            if inp.errors_file:
                with tr.span("cli.trace_arch"):
                    rc, stdout = wl.trace_arch(api, inp, arch, ctx.scratch)
                tr.count(f"cli.trace_bytes.{arch}.{inp.preset}", wl.collect_trace(ctx.scratch, arch))
                stats = wl.sim_stats(trace)
                if rc != 0 or wl.trace_arch_stats(stdout) != [stats[0], stats[4]]:
                    classifier.fail(inp.preset, f"{arch}.{inp.preset}: trace-arch exit {rc}, printed {stdout!r}")
    return summary


def run_traced(ctx: Context, seconds: float, spans_path: str) -> tuple[dict, dict, list[str]]:
    """Traced run: pass after pass over the pool, each word untraced and
    then traced; the per-layer metrics come from the spans and counters."""
    tr = tracing.Tracer()
    plain_time = 0.0
    classifier = ctx.classifier()
    attempted = 0
    pass_counts: list[dict] = []
    last = 0.0
    deadline = time.perf_counter() + seconds
    # Whole passes only: stop when another pass would overrun --seconds.
    while not pass_counts or time.perf_counter() + last <= deadline:
        p0 = time.perf_counter()
        before = dict(tr.counts)
        # Untraced and traced back to back, so both see the same host state.
        for inp in ctx.order:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = ctx.op(ctx.api, ctx.codes, inp)
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = exc
            plain_time += time.perf_counter() - t0
            classifier.add(inp, out)
            tr.op = attempted
            try:
                summary = _traced_op(ctx, inp, tr, classifier)
            except Exception as exc:
                classifier.fail(inp.preset, f"traced op raised {type(exc).__name__}: {exc}")
                continue
            if summary is not None and not isinstance(out, BaseException):
                res = out if ctx.workload == "decode_generic" else out[2]
                if summary != tracing.decode_summary(res):
                    classifier.fail(inp.preset, "replay differs from decoder.decode")
        pass_counts.append({k: v - before.get(k, 0) for k, v in tr.counts.items()})
        last = time.perf_counter() - p0

    reasons = classifier.finish()
    if any(c != pass_counts[0] for c in pass_counts):
        reasons["field-operation or simulator counts differ between passes"] = 1
    failed = sum(reasons.values())
    tr.write(spans_path)

    dur, calls = tr.totals()
    counts = pass_counts[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def per_call_us(span: str) -> float:
        return dur[span] / calls[span] * 1e6 if span in calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    op_ids = {i for i, s in enumerate(tr.spans) if s[0] == "op"}
    traced_time = sum(tr.spans[i][2] - tr.spans[i][1] for i in op_ids)
    covered = sum(end - start for _, start, end, parent, _ in tr.spans if parent in op_ids)
    values: dict[str, float] = {
        "decoder.closed_form_ok_ratio": ratio(
            counts.get("decoder.closed_form_ok", 0), counts.get("decoder.closed_form_attempts", 0)
        ),
        "decoder.reached_chien_ratio": ratio(
            counts.get("decoder.reached_chien", 0), counts.get("decoder.decodes", 0)
        ),
        "trace.overhead_ratio": ratio(traced_time, plain_time),
        "trace.unattributed_ratio": ratio(plain_time - covered, plain_time),
        "cli.trace_mb": sum(v for k, v in counts.items() if k.startswith("cli.trace_bytes.")) / 1e6,
    }
    for mode in (wl.INVERSE_FREE, wl.DIVISION):
        values[f"bms.run.us.{mode}"] = per_call_us(f"bms.run.{mode}")
    sims = [f"archsim.{arch}.{preset}" for arch, preset in wl.PAIRS]
    sim_time = sum(dur.get(s, 0.0) for s in sims)
    values["archsim.snapshots.us"] = ratio(
        dur.get("archsim.with_snapshots", 0.0) - sim_time, sum(calls.get(s, 0) for s in sims)
    ) * 1e6
    all_clocks = 0
    for s in sims:
        clocks = counts.get(f"{s}.total_clocks", 0) * len(pass_counts)
        all_clocks += clocks
        values[f"{s}.clocks_per_s"] = ratio(clocks, dur.get(s, 0.0))
    values["archsim.clocks_per_s"] = ratio(all_clocks, sim_time)

    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            val = values[name]
        elif name.endswith(".us"):
            val = per_call_us(name[: -len(".us")])
        else:
            val = counts.get(name, 0)
        metrics[name] = _metric(val, m["unit"])

    info = {"passes": len(pass_counts), "spans": len(tr.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
    if ctx.workload == "arch_sim":
        info["golden"] = "checked" if ctx.golden is not None else "absent for this seed"
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info, sorted(reasons)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list[str]]:
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}-{workload}"
    scratch.mkdir()
    try:
        ctx = Context(workload, seed, str(scratch))
        gen = wl.describe(ctx.pools, workload)
        if trace:
            result, info, reasons = run_traced(ctx, seconds, str(OUT / f"spans-{workload}-{seed}.jsonl"))
        else:
            result, info, reasons = run_timed(ctx, seconds)
        info["inputs"] = gen
        return result, info, reasons
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(workload: str, seed: int, result: dict, info: dict, reasons: list[str]) -> None:
    print(f"workload {workload} seed {seed}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for key, val in info.items():
        print(f"{key} {json.dumps(val)}")
    for reason in reasons:
        print(f"failure {reason}")
    print(json.dumps(result))


# ---------------------------------------------------------------------------


def write_golden(seeds: list[int]) -> None:
    """Record, per seed and (architecture, preset) pair, the exact simulator
    statistics summed over the seed's arch_sim pool."""
    doc = {"about": "arch_sim pool sums per architecture.preset: " + ", ".join(wl.SIM_STATS), "seeds": {}}
    OUT.mkdir(exist_ok=True)
    for seed in seeds:
        scratch = OUT / f"tmp-{os.getpid()}-golden"
        scratch.mkdir()
        try:
            ctx = Context("arch_sim", seed, str(scratch))
            sums = {f"{a}.{p}": [0] * len(wl.SIM_STATS) for a, p in wl.PAIRS}
            for inp in ctx.order:
                for arch, stats in zip(wl.ARCH_PAIRS[inp.preset], ctx.op(ctx.api, ctx.codes, inp)):
                    key = f"{arch}.{inp.preset}"
                    sums[key] = [a + b for a, b in zip(sums[key], stats)]
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        doc["seeds"][str(seed)] = sums
        print(f"seed {seed} done", file=sys.stderr)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def smoke() -> int:
    """Every BENCHMARK.json metric is printed with its unit on every
    workload, and planted faults are counted as failed ops."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, _, reasons = run_workload(w["name"], 1, 0.1, trace)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace={int(trace)}: metrics {sorted(set(got) ^ set(want))} differ")
            if not result["correct"] or reasons:
                problems.append(f"{w['name']} trace={int(trace)}: {reasons}")

    scratch = OUT / f"tmp-{os.getpid()}-smoke"
    scratch.mkdir(parents=True)
    try:
        ctx = Context("decode_generic", 1, str(scratch))
        inp = ctx.order[0]
        res = wl.op_decode(ctx.api, ctx.codes, inp)
        res.corrected.symbols[0] = 0 if res.corrected.symbols[0] == -1 else -1
        classifier = ctx.classifier()
        classifier.add(inp, res)
        if classifier.finish() != {"miscorrection": 1}:
            problems.append("a planted miscorrection was not counted as a failed op")
        ctx = Context("arch_sim", 1, str(scratch))
        inp = ctx.order[0]
        stats = wl.op_arch_sim(ctx.api, ctx.codes, inp)
        planted = [list(s) for s in stats]
        planted[0][wl.SIM_STATS.index("boundaries_checked")] += 1
        classifier = Classifier("arch_sim", ctx.checkers, None)
        classifier.add(inp, stats)
        classifier.add(inp, planted)
        if sum(classifier.finish().values()) != 1:
            problems.append("a planted boundary-statistic change was not counted as a failed op")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test the benchmark and exit")
    ap.add_argument("--write-golden", metavar="SEEDS", help="record exact simulator statistics, e.g. 0-31,7919")
    args = ap.parse_args(argv)

    if not (SRC / "agbms" / "__init__.py").is_file():
        print(f"error: agbms sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.write_golden:
        write_golden(_parse_seeds(args.write_golden))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result, info, reasons = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, result, info, reasons)
    return 0


if __name__ == "__main__":
    sys.exit(main())
