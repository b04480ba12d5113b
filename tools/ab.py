"""Paired A/B timing of two source trees on one benchmark workload.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload W --seed S --pairs N

Each tree's ``src/agbms`` is imported afresh through this repository's
``bench/workloads.py`` (only read), and each tree generates the seed's
inputs: the two pools must be equal before anything else runs.  Both trees
must give identical decode summaries or simulator statistics on
every input before any timing; on the two decode workloads both must also
charge the same field operations (muls, invs, adds) to an ``OpCounter``
when they decode each input's received word.  Each pair times one whole-pool pass per
tree, alternating which goes first.  Every timed pass runs in a fresh child
process that imports only its own tree, reads the pool the parent checked,
warms the tree up with one untimed pass and times the next, so no process
state one tree leaves behind can favour either tree.  Printed are each
side's median and quartiles, the parent/change time ratio and the pairs the
change won, and the same ratio per preset, over each preset's share of the
same passes (each op is timed, and a preset's time is the sum over its ops).

Times are process CPU time (``time.process_time``), not wall time: on a
shared 2-core virtual machine wall time also counts the steal time other
guests take, which moves from pass to pass and would blur a paired ratio.

The A/A floor: one tree against itself, 10 pairs on ``decode_generic``
(seed 1, shared 2-core Intel Xeon VM), read x1.008 with the "change"
winning 8/10 pairs.  So a ratio under about 2% read off one 10-pair run
is not a measured change, however many pairs it wins.
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads as wl  # noqa: E402


def load(tree: str):
    """A fresh import of the tree's agbms and its preset codes."""
    src = Path(tree).resolve() / "src"
    if not (src / "agbms").is_dir():
        sys.exit(f"{tree}: no src/agbms to import")
    sys.path.insert(0, str(src))
    try:
        api = wl.import_api()
    finally:
        sys.path.pop(0)
    return api, {p: api.cli.load_code(p)[0] for p in wl.PRESETS}


def op_counts(api, codes, inp) -> tuple[int, int, int]:
    """What ``decoder.decode`` charges on the input's received word."""
    ctr = api.gf.OpCounter()
    api.decoder.decode(codes[inp.preset], api.agcode.Word(inp.received, "received"), mode=inp.mode, ctr=ctr)
    return ctr.muls, ctr.invs, ctr.adds


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4, method="inclusive")


def ratio_line(parent: list[float], change: list[float]) -> str:
    """The pairs' parent/change time ratio and the pairs the change won."""
    r1, rm, r3 = quartiles([a / b for a, b in zip(parent, change)])
    wins = sum(b < a for a, b in zip(parent, change))
    return f"median x{rm:.3f}, quartiles x{r1:.3f}-x{r3:.3f}; change won {wins}/{len(parent)} pairs"


def timed_pass(tree: str, workload: str, pool: str) -> None:
    """A child's one timed pass: the tree's pass over the pickled pool after
    one untimed warm-up pass, printed as JSON, the whole pass and each
    preset's sum over its ops, in process CPU seconds."""
    api, codes = load(tree)
    with open(pool, "rb") as fh:
        order = pickle.load(fh)
    op, clock = wl.OPS[workload], time.process_time
    for inp in order:
        op(api, codes, inp)
    spent = dict.fromkeys(wl.PRESETS, 0.0)
    t0 = clock()
    for inp in order:
        t1 = clock()
        op(api, codes, inp)
        spent[inp.preset] += clock() - t1
    print(json.dumps({"total": clock() - t0, "presets": spent}))


def main() -> None:
    if sys.argv[1:2] == ["--timed-pass"]:  # a child: TREE WORKLOAD POOL
        return timed_pass(*sys.argv[2:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    sides = [load(args.parent), load(args.change)]
    op = wl.OPS[args.workload]
    counted = op is not wl.op_arch_sim  # the ops that decode, whose field operations are counted
    with tempfile.TemporaryDirectory() as scratch:
        # each tree builds the pool (is_generic picks its locations), into
        # one scratch directory, so the two pools name the same error files
        orders = [wl.round_order(wl.generate(*side, args.workload, args.seed, scratch)) for side in sides]
        if orders[0] != orders[1]:
            key = next((a.key for a, b in zip(*orders) if a != b), None)
            sys.exit(f"trees build different input pools: first at input {key}")
        order = orders[0]
        for inp in order:  # the check pass; each timed child warms its own tree up
            outs = [repr(op(api, codes, inp)) for api, codes in sides]
            if outs[0] != outs[1]:
                sys.exit(f"trees differ on input {inp.key}:\n  parent {outs[0]}\n  change {outs[1]}")
            if counted:
                counts = [op_counts(api, codes, inp) for api, codes in sides]
                if counts[0] != counts[1]:
                    sys.exit(f"trees charge other (muls, invs, adds) on input {inp.key}: {counts[0]} != {counts[1]}")
        pool = str(Path(scratch) / "pool.pickle")
        with open(pool, "wb") as fh:
            pickle.dump(order, fh)
        times: list[list[float]] = [[], []]
        by_preset: list[dict[str, list[float]]] = [{p: [] for p in wl.PRESETS} for _ in sides]
        for p in range(args.pairs):
            for s in ((0, 1), (1, 0))[p % 2]:  # alternate which tree goes first
                tree = (args.parent, args.change)[s]
                cmd = [sys.executable, __file__, "--timed-pass", tree, args.workload, pool]
                child = subprocess.run(cmd, capture_output=True, text=True)
                if child.returncode:
                    sys.exit(f"timed pass of {tree} failed:\n{child.stderr}")
                out = json.loads(child.stdout)
                times[s].append(out["total"])
                for preset, t in out["presets"].items():
                    by_preset[s][preset].append(t)
    same = "pools, outputs and op counts" if counted else "pools and outputs"
    print(f"{args.workload} seed {args.seed}: {len(order)} inputs, identical {same} on both trees")
    (p1, pm, p3), (c1, cm, c3) = quartiles(times[0]), quartiles(times[1])
    print(f"  parent pass: median {pm:.4f} s, quartiles {p1:.4f}-{p3:.4f} s")
    print(f"  change pass: median {cm:.4f} s, quartiles {c1:.4f}-{c3:.4f} s")
    print(f"  parent/change: {ratio_line(*times)}")
    print(f"  median gain {pm - cm:.4f} s against the parent's quartile spread {p3 - p1:.4f} s")
    for preset in wl.PRESETS:
        print(f"  {preset} parent/change: {ratio_line(by_preset[0][preset], by_preset[1][preset])}")


if __name__ == "__main__":
    main()
