"""Spans recorded around the public calls of each layer, and a stage-by-
stage replay of ``decoder.decode`` that records them.

The program is not edited: the replay makes the same public calls that
``decoder.decode`` makes, in the same order, and the simulator and CLI
entry points are timed from outside.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

ZERO = -1  # log encoding of the field's zero


class Tracer:
    """Spans (name, start, end, parent, op) plus per-name counters."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed duration and number of spans per name."""
        dur: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, _, _ in self.spans:
            dur[name] = dur.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
        return dur, calls

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                fh.write(json.dumps(rec) + "\n")


def replay_decode(api, code, received, mode: str, tr: Tracer):
    """``decoder.decode`` stage by stage, with a span around every stage
    and fresh ``OpCounter``s for BMS and the closed-form error values.

    Returns (status, locs, vals, corrected symbols or None), which the
    caller compares with what ``decoder.decode`` itself returned.
    """
    dec, bms = api.decoder, api.bms
    with tr.span("agcode.syndromes"):
        synd = code.syndromes(received)
    bms_ctr = api.gf.OpCounter()
    with tr.span(f"bms.run.{mode}"):
        state, _ = bms.run(code, synd, mode, ctr=bms_ctr)
    if mode == bms.INVERSE_FREE and bms_ctr.invs != 0:
        raise AssertionError("inverse-free BMS performed a field inversion")
    # BMS additions are not reported: bms._zadd never passes the counter on.
    tr.count(f"bms.run.muls.{mode}", bms_ctr.muls)
    tr.count(f"bms.run.invs.{mode}", bms_ctr.invs)
    with tr.span("bms.extract_locators"):
        basis = bms.extract_locators(state, code)

    delta = bms.delta_set(code, state.s1)
    if len(delta) > code.t_generic:
        return dec.NOT_GENERIC, [], [], None
    tr.count("decoder.reached_chien")
    with tr.span("decoder.chien_search"):
        locs = dec.chien_search(basis, code)
    if len(locs) != len(delta):
        return dec.NOT_GENERIC, [], [], None
    if not locs:
        if any(u != ZERO for u in synd.values()):
            return dec.NOT_GENERIC, [], [], None
        return dec.SUCCESS, [], [], received.symbols[:]

    def apply(vals):
        corrected = received.symbols[:]
        for j, v in zip(locs, vals):
            corrected[j] = code.fld.add(corrected[j], v)
        with tr.span("decoder.recheck"):
            check = code.syndromes(api.agcode.Word(corrected, "codeword"))
        return None if any(u != ZERO for u in check.values()) else corrected

    closed_form_error = None
    ev_ctr = api.gf.OpCounter()
    tr.count("decoder.closed_form_attempts")
    try:
        with tr.span("decoder.error_values"):
            vals = dec.error_values(locs, basis, code, ev_ctr)
        corrected = apply(vals)
        if corrected is not None:
            tr.count("decoder.closed_form_ok")
            return dec.SUCCESS, locs, vals, corrected
    except (ZeroDivisionError, ValueError) as exc:
        closed_form_error = str(exc)
    finally:
        tr.count("decoder.error_values.muls", ev_ctr.muls)
        tr.count("decoder.error_values.invs", ev_ctr.invs)
        tr.count("decoder.error_values.adds", ev_ctr.adds)

    with tr.span("decoder.error_values_interpolation"):
        fallback = dec.error_values_interpolation(locs, code, synd)
    if fallback is not None:
        corrected = apply(fallback)
        if corrected is not None:
            return dec.SUCCESS, locs, fallback, corrected
    if closed_form_error is not None:
        return dec.FAILURE, [], [], None
    return dec.NOT_GENERIC, [], [], None


def decode_summary(res) -> tuple:
    """The parts of a DecodeResult the replay must reproduce."""
    corrected = res.corrected.symbols if res.corrected is not None else None
    return res.status, list(res.error_locs), list(res.error_vals), corrected
