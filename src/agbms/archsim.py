"""Clock-accurate shift-register models of the three decoder architectures.

All three push one value into every register line per clock and pop one off
the front; polynomial coefficients circulate and the controller only latches
scalars (discrepancy and head values) at fixed clock phases and flips the
preserve/update switches once per N-loop.  The published register tables are
not available as text, so each simulator derives its own layout from the
stated line lengths and validates itself ("oracle equivalence"): each
simulator steps a software BMS state alongside its registers, and at every
N-boundary it packs its register lines into the state's packed v|f and w|g
words (``bms.BmsState``) and requires them, with (s, c), to equal that
state's, as ints.  Register values are held in bit-vector form, so a line
input is e*x ^ d*y with no per-op field call, and they are converted to
logs only for snapshots (and so the CSV).  The boundary record it keeps is
``bms.state_record`` of that state, so ``--boundary-dumps`` and
``--dump-state`` share one format; a divergence names the first of s, c,
v, f, w, g that differs, in that record's form.

Layouts (period P = length of the w/g line):

* inverse-free: a independent blocks, per block a (m+2)-register v/f line
  and an (m+3)-register w/g line, P = m+3.  During loop N the v/f line
  streams v_N exponents N..m (phases 0..m-N) followed by the f coefficients
  (exponent h at phase m+1-N+h); the w/g line streams w exponents N..m+1
  then g (exponent h at phase m+1-N+h, i.e. the g head written at loop M
  stays pinned at phase m+1-M).  The one-register length difference makes
  every recirculated w/g value re-emerge one exponent higher -- the Z-shift
  costs no hardware -- while v/f values drift one phase down per loop,
  which retires the consumed v head and opens one new f slot.

* serial and serial inverse-free: one v/f line of a(m+2)-1 registers plus
  a one-value exchange register and a c_v-deep supplementary FIFO on the
  v/f push path, one w/g line of P = a(m+2)+a+c_v registers.  Coefficients
  interleave a columns per exponent (slot k = clock mod a) under one slot
  rule for both modes and every curve: in loop N, v/f slot k carries
  column b^-1 (N+k) mod a and w/g slot k column -b^-1 k mod a, which is
  ibar of that v/f column.  The v/f assignment thus rotates one slot per
  loop, and the exchange register carries the wrapping slot-0 value across
  the seam (held for a clocks, reinserted at the next slot-0 clock).  The
  mode picks only the name and c_v: 0 for division updates (``serial``),
  a for inverse-free ones (``serial_inverse_free``), whose FIFO holds the
  a freshly updated head coefficients while the first exponent group of a
  loop streams by; with the a-deep bank latching the w head values that
  makes 2 c_v supplementary registers, needed when several columns jump
  degree in the same loop.

Zero-setting: a recirculated w/g value whose slot would fall between the
live w window and the pinned g window next loop is replaced by zero at the
line input, otherwise stale values would corrupt the f updates.

One controller, two datapaths: the rules above are written once, in
``_Controller``, per lane -- the pair of columns (i, ibar(i, N)) that meet
at one multiplier pair in loop N.  A datapath only moves values: the
per-block lines of ``sim_inverse_free`` clock all a lanes at once, the one
interleaved line of ``_sim_serial_core`` clocks one lane per clock and
routes its v/f input through the exchange register and the supplementary
segment.  Each hands the controller the values leaving its lines and says,
at a boundary, which (column, exponent group, value) each register holds;
the controller latches d and e at the head group, flips the lane's switch,
decides both line inputs, and rebuilds and checks the state.  Its s and c
are updated in place at the latch, lane by lane, exactly as ``bms.step``
updates its state (its docstring says why that is exact).  The w/g
zero-setting uses the same windows as the read-back, one loop ahead.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from . import bms
from .agcode import CodeSpec
from .curve import Mono
from .gf import ZERO

INVERSE_FREE = bms.INVERSE_FREE
SERIAL = "serial"
SERIAL_INVERSE_FREE = "serial_inverse_free"
CLOSED_FORM_ONLY = ("systolic", "koetter", "parallel_bms")


@dataclass
class RegisterFile:
    """Register inventory of one simulated architecture instance."""

    vf: int
    wg: int
    disc_regs: int
    head_regs: int
    exch_regs: int = 0
    supp_regs: int = 0

    @property
    def polynomial_total(self) -> int:
        return self.vf + self.wg


@dataclass
class ArchTrace:
    architecture: str
    period: int
    total_clocks: int
    registers: RegisterFile
    boundary_states: list[dict] = field(default_factory=list)
    snapshots: list[dict] = field(default_factory=list)
    mult_uses: int = 0
    inv_uses: int = 0
    max_mults_per_clock: int = 0


@dataclass
class ResourceEstimate:
    architecture: str
    multipliers: int
    inverters: int
    registers: int
    time: int
    measured_clocks: int | None = None


class _Controller:
    """Latches, switches, line inputs and boundary checks of one simulated
    run, per lane (see the module docstring); it fills in ``trace``.
    Register values are in bit-vector form; the latches hold logs."""

    def __init__(self, trace: ArchTrace, code: CodeSpec, synd: dict[Mono, int], mode: str):
        cv = code.curve
        self.arch, self.trace, self.code, self.synd = trace.architecture, trace, code, synd
        self.fld, self.l_of, self.m = code.fld, cv.l_of, code.m
        self.division = mode == bms.DIVISION
        self.s1 = [cv.basis_start(i)[0] for i in range(cv.a)]
        self.c1 = [x - 1 for x in self.s1]
        self.M: list[int | None] = [None] * cv.a  # loop of the last g replacement per column
        # per-lane latches and switch
        self.d = [ZERO] * cv.a
        self.e = [ZERO] * cv.a
        self.dinv = [ZERO] * cv.a
        self.replace = [False] * cv.a
        self.ref = bms.init_state(code, synd, mode)

    def vf_init(self, i: int, g: int) -> int:
        """Value of column i at exponent group g of the v/f line before loop
        0: the syndrome, then f = 1, then zero."""
        if g <= self.m:
            l = self.l_of(i, g)
            return self.fld.to_vec(self.synd[l]) if l is not None else 0
        return 1 if g == self.m + 1 else 0

    def clock(self, N: int, g: int, lane: int, i: int, j: int, x: int, y: int) -> tuple[int, int, int]:
        """One clock of a lane at exponent group g of loop N; x and y left
        the v/f line of column i and the w/g line of column j.  Returns the
        v/f input, the w/g input and the multipliers used."""
        fld = self.fld
        exp, log, qm1 = fld.exp, fld.log, fld.q - 1
        d = self.d[lane]
        if g == 0:
            # head group: latch d and e, set the switch, update the degrees
            # in place (exact for the reason given in bms.step)
            s1, c1 = self.s1, self.c1
            l = self.l_of(i, N)
            d = self.d[lane] = log[x] if (l is not None and s1[i] <= l[0]) else ZERO
            self.e[lane] = log[y]
            upd = self.replace[lane] = d != ZERO and s1[i] < l[0] - c1[j]
            if upd:
                if self.division:
                    self.dinv[lane] = fld.inv_chain(d)
                    self.trace.inv_uses += 1
                s1[i], c1[j] = l[0] - c1[j], l[0] - s1[i]
                self.M[j] = N

        # w/g push: recirculate y (the one-exponent relabel is free) or take
        # the updated column from the v/f stream (switch B); a value that
        # lands in neither window of the next loop is zero-set
        mults = 0
        if self._wg_window(N + 1, j, g) is None:
            w_in = 0
        elif not self.replace[lane]:
            w_in = y
        elif self.division:
            w_in = x and exp[(self.dinv[lane] + log[x]) % qm1]
            mults = 1
        else:
            w_in = x

        # v/f push: e*x ^ d*y (x alone in division mode)
        if g == 0:
            v_in = 0  # mod Z^N deletion retires the consumed head
        else:
            if self.division:
                v_in = x
                mults += 1
            else:
                e = self.e[lane]
                v_in = exp[(e + log[x]) % qm1] if x and e != ZERO else 0
                mults += 2
            if y and d != ZERO:
                v_in ^= exp[(d + log[y]) % qm1]
        return v_in, w_in, mults

    def loops(self, readback) -> Iterator[int]:
        """Loop indices 0..m, with a boundary check before each loop and
        after the last; ``readback(N)`` gives the v/f and w/g registers as
        (column, exponent group, value) triples."""
        for N in range(self.m + 2):
            self._boundary(N, *readback(N))
            if N <= self.m:
                yield N

    def _boundary(self, N: int, vf_regs, wg_regs) -> None:
        """Pack the registers into the lines of a ``bms`` state, require them
        to equal the reference BMS state's at the same N, record that state,
        and step the reference to the next loop."""
        m, ref, w = self.m, self.ref, self.fld.w
        L = m + 2  # lanes per polynomial; f and g sit in the upper half
        vf, wg = [0] * len(self.M), [0] * len(self.M)
        for col, g, val in vf_regs:
            if val:
                h = N + g if g <= m - N else L + self._lane(N, g - (m + 1) + N)
                vf[col] |= val << h * w
        for col, g, val in wg_regs:
            if not val:
                continue
            key = self._wg_window(N, col, g)
            if key is None:
                raise AssertionError(
                    f"{self.arch}: boundary N={N}: stale w/g register "
                    f"(column {col}, group {g}) not zeroed"
                )
            h = N + g if key == "w" else L + self._lane(N, g - (m + 1) + N)
            wg[col] |= val << h * w
        if (self.s1, self.c1, vf, wg) != (ref.s1, ref.c1, ref.vf, ref.wg):
            got = bms.state_record(replace(ref, s1=self.s1, c1=self.c1, vf=vf, wg=wg), self.code)
            want = bms.state_record(ref, self.code)
            key = next(k for k in ("s1", "c1", "v", "f", "w", "g") if got[k] != want[k])
            raise AssertionError(
                f"{self.arch}: boundary N={N} register state diverges from the reference "
                f"BMS state at {key!r}: architecture {got[key]!r} vs reference {want[key]!r}"
            )
        self.trace.boundary_states.append(bms.state_record(ref, self.code))
        if N <= m:
            bms.step(ref, self.code)

    def _wg_window(self, N: int, j: int, g: int) -> str | None:
        """Which window of w/g column j holds exponent group g at loop N:
        "w" (the live w exponents N..m, and the head at N = m+1), "g" (the g
        coefficients, pinned since the loop M[j] of the last replacement)
        or None (a slot that must hold zero)."""
        if g == 0 or N + g <= self.m:
            return "w"
        Mj = self.M[j]
        if Mj is not None and g >= self.m + 1 - Mj:
            return "g"
        return None

    def _lane(self, N: int, h: int) -> int:
        """Exponent h of a rebuilt f or g coefficient; a nonzero register
        that maps past the top exponent should have been retired."""
        if h > self.m + 1:
            raise AssertionError(f"{self.arch}: boundary N={N}: coefficient at Z^{h} above the top exponent")
        return h

    def logs(self, regs: list[int]) -> list[int]:
        """Log form of a register line, for snapshots."""
        log = self.fld.log
        return [log[x] for x in regs]


# ---------------------------------------------------------------------------
# inverse-free architecture (a blocks)
# ---------------------------------------------------------------------------


def sim_inverse_free(code: CodeSpec, synd: dict[Mono, int], keep_snapshots: bool = True) -> ArchTrace:
    cv = code.curve
    a, m = cv.a, code.m
    P = m + 3
    trace = ArchTrace(
        INVERSE_FREE,
        period=P,
        total_clocks=(m + 1) * P,
        registers=RegisterFile(vf=a * (m + 2), wg=a * P, disc_regs=a, head_regs=a),
    )
    ctl = _Controller(trace, code, synd, bms.INVERSE_FREE)

    # one v/f and one w/g line per block; wg lines are indexed by the logical
    # w/g column j, physically homed at block ibar(j, N) for the current loop
    vf = [[ctl.vf_init(i, p) for p in range(m + 2)] for i in range(a)]
    wg = [[1] + [0] * (m + 2) for _ in range(a)]  # w = 1

    def readback(N: int):
        return (
            [(i, p, val) for i in range(a) for p, val in enumerate(vf[i])],
            [(j, p, val) for j in range(a) for p, val in enumerate(wg[j])],
        )

    for N in ctl.loops(readback):
        pair = [cv.ibar(i, N) for i in range(a)]
        for p in range(P):
            mults = 0
            for i, j in enumerate(pair):
                v_in, w_in, used = ctl.clock(N, p, i, i, j, vf[i].pop(0), wg[j].pop(0))
                vf[i].append(v_in)
                wg[j].append(w_in)
                mults += used
            trace.mult_uses += mults
            trace.max_mults_per_clock = max(trace.max_mults_per_clock, mults)
            if keep_snapshots:
                trace.snapshots.append(
                    {
                        "clock": N * P + p,
                        "registers": {
                            **{f"block{i}.vf": ctl.logs(vf[i]) for i in range(a)},
                            **{f"block{i}.wg": ctl.logs(wg[pair[i]]) for i in range(a)},
                        },
                        "switches": {
                            "disc_latch_down": p == 0,
                            **{f"block{i}.update": ctl.replace[i] for i in range(a)},
                        },
                    }
                )
    return trace


# ---------------------------------------------------------------------------
# serial architectures (single structure, a columns interleaved per exponent)
# ---------------------------------------------------------------------------


def _sim_serial_core(
    code: CodeSpec,
    synd: dict[Mono, int],
    mode: str,
    keep_snapshots: bool,
) -> ArchTrace:
    cv = code.curve
    a, m = cv.a, code.m
    arch, c_v = (SERIAL, 0) if mode == bms.DIVISION else (SERIAL_INVERSE_FREE, a)
    P = a * (m + 2) + a + c_v

    def vf_cols(N: int) -> list[int]:
        # one slot rotation per loop: slot k of loop N+1 is slot k+1 of loop N
        return [cv.b_inv * (N + k) % a for k in range(a)]

    # w/g slot k holds ibar of v/f slot k, the same column in every loop
    wg_cols = [-cv.b_inv * k % a for k in range(a)]

    L = a * (m + 2) - 1
    trace = ArchTrace(
        arch,
        period=P,
        total_clocks=(m + 1) * P,
        registers=RegisterFile(
            vf=L,
            wg=P,
            disc_regs=a,
            head_regs=a,
            exch_regs=1,
            supp_regs=2 * c_v,
        ),
    )
    ctl = _Controller(trace, code, synd, mode)

    vf0 = vf_cols(0)
    vf_all = [ctl.vf_init(vf0[phase % a], phase // a) for phase in range(L + c_v + 1)]
    line, fifo, exch = vf_all[:L], vf_all[L:-1], vf_all[-1]
    wgline = [1] * a + [0] * (P - a)  # w = 1 per column

    def readback(N: int):
        cols = vf_cols(N)
        return (
            [(cols[ph % a], ph // a, val) for ph, val in enumerate(line + fifo + [exch])],
            [(wg_cols[ph % a], ph // a, val) for ph, val in enumerate(wgline)],
        )

    for N in ctl.loops(readback):
        lanes = list(zip(range(a), vf_cols(N), wg_cols))
        for g in range(P // a):
            for k, i, j in lanes:
                v_in, w_in, mults = ctl.clock(N, g, k, i, j, line.pop(0), wgline.pop(0))
                wgline.append(w_in)
                # slot-0 values wrap to the last slot and detour through the
                # exchange register (held for a clocks); the rest re-enter directly
                if k == 0:
                    v_in, exch = exch, v_in
                if c_v:
                    fifo.append(v_in)
                    v_in = fifo.pop(0)
                line.append(v_in)
                trace.mult_uses += mults
                trace.max_mults_per_clock = max(trace.max_mults_per_clock, mults)
                if keep_snapshots:
                    trace.snapshots.append(
                        {
                            "clock": N * P + g * a + k,
                            "registers": {
                                name: ctl.logs(regs)
                                for name, regs in (("vf", line), ("wg", wgline), ("exch", [exch]), ("supp", fifo))
                            },
                            "switches": {"exchange_down": k == 0, "head_latch": g == 0, "update": ctl.replace[k]},
                        }
                    )
    return trace


def sim_serial(code: CodeSpec, synd: dict[Mono, int], keep_snapshots: bool = True) -> ArchTrace:
    return _sim_serial_core(code, synd, bms.DIVISION, keep_snapshots)


def sim_serial_inverse_free(
    code: CodeSpec, synd: dict[Mono, int], keep_snapshots: bool = True
) -> ArchTrace:
    return _sim_serial_core(code, synd, bms.INVERSE_FREE, keep_snapshots)


SIMULATORS = {
    INVERSE_FREE: sim_inverse_free,
    SERIAL: sim_serial,
    SERIAL_INVERSE_FREE: sim_serial_inverse_free,
}
SIMULATED = tuple(SIMULATORS)


# ---------------------------------------------------------------------------
# resource accounting
# ---------------------------------------------------------------------------


def resources(architecture: str, code: CodeSpec, measured: int | None = None) -> ResourceEstimate:
    """Closed-form operator/register counts and running times per
    architecture family, with the measured clock count alongside for the
    simulated ones (the closed forms keep their stated constants; the
    simulated inverse-free period is m+3, and both are reported)."""
    a, m = code.curve.a, code.m
    lam4 = 2 * (m + 1) - 4 + 4 * a  # 4*lambda with lambda = (m+1)/2 - 1 + a
    table = {
        "systolic": (2 * a * m, a * m // 2, (4 * m + 9) * a // 2, m + 1),
        "koetter": (3 * a, a, a * (lam4 + 5), (m + 3) * (m + 1)),
        "parallel_bms": (2 * a, a, 2 * a * (m + 2), (m + 1) * (m + 2)),
        INVERSE_FREE: (2 * a, 0, 2 * a * (m + 2), (m + 1) * (m + 2)),
        SERIAL: (2, 1, 2 * a * (m + 2), a * (m + 1) * (m + 2)),
        SERIAL_INVERSE_FREE: (2, 0, 2 * a * (m + 2), a * (m + 1) * (m + 2)),
    }
    if architecture not in table:
        raise ValueError(f"unknown architecture {architecture!r}")
    mult, inv, reg, time = table[architecture]
    return ResourceEstimate(architecture, mult, inv, reg, time, measured)
