"""Clock-accurate shift-register models of the three decoder architectures.

All three push one value into every register line per clock and pop one off
the front; polynomial coefficients circulate and the controller only latches
scalars (discrepancy and head values) at fixed clock phases and flips the
preserve/update switches once per N-loop.  The published register tables are
not available as text, so each simulator derives its own layout from the
stated line lengths and validates itself ("oracle equivalence"): each
simulator runs a software BMS state alongside its registers (one
``bms.loops`` generator per run, advanced one loop per boundary), and at
every N-boundary it requires its register words, with (s, c) and M, to
equal that state's v/f and w/g words (``bms.BmsState``, which holds them in
the inverse-free register layout), as ints.  Register values are held in
bit-vector form, also in the traced clocks, which read each line from
its output end to its input end; the CLI writes them to the CSV as logs.  A
run copies no state at its boundaries: ``ArchTrace.boundary_states``
counts the boundaries checked and, the first time one of its states is
read, replays one ``bms.loops`` run from a copy of the run's initial
reference state, copying the state at each yield up to that count
(``_Replay``).  Those states are the register states
too, because the check at each of those boundaries passed.
``--boundary-dumps`` writes ``bms.state_record`` of each, so it shares
``--dump-state``'s format, and a divergence names the first of s, c, v, f,
w, g that differs, in that record's form.

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

* serial and serial inverse-free: one v/f line of a(m+2)-1 registers fed
  through a c_v-deep supplementary FIFO, plus a one-value exchange register,
  and one w/g line of P = a(m+2)+a+c_v registers.  The FIFO takes one value
  and gives one at every clock, in series with the line, so the two are one
  shift register whose last c_v registers are the FIFO (a traced clock
  names them ``supp`` and the first a(m+2)-1 ``vf``).  Coefficients
  interleave a columns per exponent (slot k = clock mod a) under one slot
  rule for both modes and every curve: in loop N, v/f slot k carries column b^-1 (N+k) mod
  a and w/g slot k column -b^-1 k mod a, which is ibar of that v/f column.
  The v/f assignment thus rotates one slot per loop, and the exchange
  register carries the wrapping slot-0 value across the seam (held for a
  clocks, reinserted at the next slot-0 clock).  The mode picks only the
  name and c_v: 0 for division updates (``serial``), a for inverse-free ones
  (``serial_inverse_free``), whose FIFO holds the a freshly updated head
  coefficients while the first exponent group of a loop streams by; with the
  a-deep bank latching the w head values that makes 2 c_v supplementary
  registers, needed when several columns jump degree in the same loop.

Zero-setting: a recirculated w/g value whose slot would fall between the
live w window and the pinned g window next loop is replaced by zero at the
line input, otherwise stale values would corrupt the f updates.

Register words: the controller holds each line as one packed int of ``gf``
lanes per column, as ``bms.BmsState`` holds them, register p counted from
the output end in lane p; a line gives one register and takes one per
clock, so over a loop it gives its lanes in order and the lanes it takes
line up behind them.  A column's w/g word has G groups, the clocks a lane
takes per loop, and its v/f word G-1: G = P for an inverse-free block; on
the serial line a column is one slot (stride a: slot k of group g is phase
g*a + k), G = P/a, and its v/f word covers the line, the FIFO and the
exchange register.

One controller, two datapaths: the rules above are written once, in
``_Controller``, per lane -- the pair of columns (i, ibar(i, N)) that meet
at one multiplier pair in loop N.  ``_Controller.run(lanes, fold)`` runs
every loop of every simulator, and its loop body is the one lane rule,
inline as ``bms.loops`` holds its lane: in loop N lane k pairs v/f column
i with w/g column j, (i, j, l) = lanes[N][k] with l the gate of column i,
and writes its inputs back to the same two columns in place (each column
is read and written by one lane per loop).  A lane reads the v head and
the w head as lane 0 of its two words and latches d (behind the one gate
comparison of ``bms.loops``, s1^(i) <= l) and e (d^-1 too in division
mode) as product rows: a table per constant mapping every bit-vector v to
vec(c*v), built from the field's exp/log tables the first time a latch
meets c and kept on the code (``_product_row``, in one ``gf.Memo`` per
code, ``_rows``; no q x q table, and independent of ``gf``'s ``scale``
tables, so the boundary check compares two multipliers); it sets the
lane's preserve/update switch, which no record keeps: M_j = N says it was
set.  It updates s and c in place, lane by lane in the order of the
clocks, exactly as a ``bms.loops`` loop updates its state (its docstring
says why that is exact), and keeps M_j, the loop of its w/g column's last
g replacement (-1 before any).  Its v/f inputs are e*(x >> lane) ^ d*(y >>
lane) with x and y the words its lines give -- at most two whole-word maps
through product rows (``GF.lookup``: a ``bytes.translate`` on one-byte
lanes, unpack, row and pack on two-byte ones) and one XOR; up to w = 4
(GF(8) and GF(16)) a lane that maps both makes it as one map of (x | y <<
4) >> lane, whose byte k holds lane k+1 of both words, through the
256-byte pair row of (e, d), built from the two product rows and kept on
the code in a second ``gf.Memo`` (``_pair_row``, in ``_pairs``; never
``gf``'s merge or pair rows).  Its w/g inputs are y, or after an update
d^-1 * x in division mode and x unscaled in inverse-free mode, ANDed with
``zero[N][M_j]`` read after the update, which clears the groups zero-set
one loop ahead.  That mask table is kept per code and per group count
(``_zero_masks``), built once from ``_stale``, the one rule for those
groups, with -1 where there are none, so a column never replaced (M_j =
-1) reads the last entry of its row.  Each of these per-code tables is a
plain builder read through ``CodeSpec.table``, which keys it by the
builder and its arguments.  Every lane's peak is vm, its v/f multipliers
per clock, but a division update's, vm+1, which also charges one w/g
multiplier at every group it does not zero-set; ``fold`` turns a loop's
peaks into its multipliers per clock (``sum`` for the parallel blocks,
``max`` for the one shared multiplier pair) and is made only on the loops
that take a division update, and once on the all-vm peaks.  The vm v/f
multipliers every lane charges at each group past the head in every loop
are summed once, at the end of the run.  A multiplier whose constant is 0
or alpha^0 makes no map, so a lane that latches d = 0 and e = alpha^0 is a
plain shift; the boundary check thus still compares two multipliers on
every constant but 0 and alpha^0, where ``bms.loops`` passes its input
through as well.  A pair row is one multiplier pair, built from this
module's product rows, so the check compares it with ``GF.merge``, not
with itself.

A datapath keeps only its wiring -- line lengths, its lane tuples and its
layout -- and hands them to the controller.  The lane tuples are built
once per code and kept on it (``_lanes``), both from ``bms``' own lane
triples: ``sim_inverse_free`` puts lane i on block i, with the pair (i,
ibar(i, N)); the serial table, which both serial modes share, is the slot
rule, which is only the order of those triples: the exchange register and
the FIFO rotate the v/f slots, so after loop N slot k carries the column
of slot k+1 and slot a-1 lane 0's, which wraps through the exchange
register (a one-place shift of the slot-0 column) and the FIFO; each w/g
slot keeps its column.  ``run`` counts each loop's P clocks as it runs it.
At a boundary the controller compares its live column words as they
stand, with (s, c) and M, with the reference state's, which keeps M the
same way, so the switch states the replay shows are the controller's own.
A register word and a ``bms`` word share one layout, register p in lane
p, so nothing is placed, packed or unpacked.  That equality is the whole
check: the reference holds zero on every lane of a zero-set group or of a
group past the top exponent, so a register left nonzero there diverges at
f or g.

A run stores nothing per loop, and every run can be traced.
``ArchTrace.clocks`` is the one place that builds register windows, and
it reads them off the replayed boundary states, so the replay costs
nothing until ``clocks`` or ``--boundary-dumps`` reads it, and one replay
serves both.  ``clocks`` unpacks each boundary once and hands the columns
before and after each loop, with the M after it, to the datapath's layout
(``ArchTrace.layout``), which names each line as what it gives then what
it takes over the loop, with where its registers start in that sequence
and how many it has; the registers after clock t are the slice
[t+1+first : t+1+first+length].  A lane's update switch of loop N is set
iff its w/g column j has M_j = N after the loop.  The serial FIFO starts
past the line's L registers in the same sequence, and the exchange
register is its held values, each repeated a times, starting at -1.  No
per-clock container is built until ``clocks`` is iterated.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice, pairwise

from . import bms
from .agcode import CodeSpec
from .curve import Mono
from .gf import GF, ZERO, Memo

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


@dataclass
class ArchTrace:
    """One simulated run.  ``total_clocks`` counts the clocks the datapath
    ran: each N-loop adds its P = ``period`` clocks.  ``boundary_states``
    is the ``bms.BmsState`` of every boundary checked, replayed the first
    time one is read (``_Replay``); each equals the run's register state
    there, since its check passed.  ``layout`` is the datapath's (unpack,
    G, lines): a boundary's v/f words unpack to G-1 lanes and its w/g
    words to G, and lines(N, gave, took, M) gives loop N's lines and
    switch function from the unpacked columns before and after it and the
    M after it.  ``clocks`` reads consecutive boundary states clock by
    clock; the run keeps no other record of its loops."""

    architecture: str
    period: int
    registers: RegisterFile
    total_clocks: int = 0
    boundary_states: Sequence[bms.BmsState] = field(default_factory=list)
    layout: tuple = field(default=(), compare=False)
    mult_uses: int = 0
    inv_uses: int = 0
    max_mults_per_clock: int = 0

    def clocks(self) -> Iterator[dict]:
        """The registers and switch states after every clock, built as they
        are read from consecutive ``boundary_states``, each unpacked once.
        A line is (what it gives then what it takes, first, length): after
        clock t of its loop it holds the slice [t+1+first : t+1+first+length],
        what it has not yet given and then what it took; ``switches(t)``
        gives the switch states."""
        unpack, G, lines = self.layout
        states = self.boundary_states
        columns = (([unpack(x, G - 1) for x in st.vf], [unpack(y, G) for y in st.wg]) for st in states)
        for N, (gave, took) in enumerate(pairwise(columns)):
            regs, switches = lines(N, gave, took, states[N + 1].M)
            for t in range(self.period):
                window = {name: s[t + 1 + first : t + 1 + first + n] for name, (s, first, n) in regs.items()}
                yield {"clock": N * self.period + t, "registers": window, "switches": switches(t)}


@dataclass
class ResourceEstimate:
    architecture: str
    multipliers: int
    inverters: int
    registers: int
    time: int


def _product_row(fld: GF, c: int) -> bytes | list[int]:
    """The product row of constant c (a log, ZERO included): every
    bit-vector v mapped to vec(c*v), so the zero constant's row is all
    zeros.  A row is in the table form ``GF.lookup`` reads, which the
    field's lane width picks: 256 bytes on one-byte lanes (q <= 256), a
    list of q values on two-byte lanes.  Built the first time a latch
    meets c and kept on the code (a ``gf.Memo``)."""
    exp, qm1 = fld.exp, fld.q - 1
    row = [0] * fld.q if c == ZERO else [0] + [exp[(c + l) % qm1] for l in fld.log[1:]]
    return bytes(row).ljust(256, b"\0") if fld.q <= 256 else row


def _pair_row(rows: Memo, key: tuple[int, int]) -> bytes:
    """The pair row of constants (e, d), for fields of w <= 4, where a lane
    value fits four bits: byte x | y << 4 mapped to vec(e*x) ^ vec(d*y),
    read off the product rows ``rows``.  Built the first time a lane maps
    both through (e, d) and kept on the code (a ``gf.Memo``)."""
    e, d = key
    e_row, d_row = rows[e][:16], rows[d][:16]
    return bytes(ex ^ dy for dy in d_row for ex in e_row)


def _stale(m: int, groups: int, N: int, Mj: int) -> range:
    """Groups of a w/g column that must hold zero at loop N: past the live w
    window (the head and exponents N..m) and below the g window (pinned
    since the loop Mj of the column's last replacement, -1 before any).  A
    lane zero-sets them one loop ahead; the reference state holds zero on
    their g lanes, so the boundary equality catches one left nonzero."""
    return range(max(1, m + 1 - N), groups if Mj < 0 else m + 1 - Mj)


def _zero_masks(code: CodeSpec, groups: int) -> list[list[int]]:
    """The zero-set masks of a w/g line of ``groups`` groups, read as
    ``code.table(_zero_masks, groups)``: ``zero[N][Mj]`` is the AND mask
    that clears the groups ``_stale(m, groups, N + 1, Mj)`` names in a
    lane's w/g word at loop N, -1 where it names none; Mj runs 0..m and
    then -1, so a column never replaced reads the last entry."""
    m, lb = code.m, code.fld.lane_bits
    stale = [[_stale(m, groups, N + 1, Mj) for Mj in [*range(m + 1), -1]] for N in range(m + 1)]
    return [[~((1 << len(z) * lb) - 1 << z.start * lb) for z in row] for row in stale]  # ~0 = -1


def _rows(code: CodeSpec) -> Memo:
    """The code's product rows (``_product_row``), one ``gf.Memo`` that
    every simulator of the code shares."""
    return Memo(code.fld, _product_row)


def _pairs(code: CodeSpec) -> Memo | None:
    """The code's pair rows (``_pair_row``) over its product rows, a second
    ``gf.Memo``; None above w = 4."""
    return Memo(code.table(_rows), _pair_row) if code.fld.w <= 4 else None


def _lanes(code: CodeSpec, serial: bool) -> list[list[tuple[int, int, int]]]:
    """The lane tuples of a datapath, read as ``code.table(_lanes,
    serial)``: per loop N, in lane order, ``bms``' (i, j, l) of every lane
    -- v/f column i, w/g column j = ibar(i, N) and l = l^(i)'s first
    component at N, -1 at a gap.  The inverse-free blocks take them as
    they stand, lane i on block i.  The serial table is the slot rule, the
    same in both modes: in loop N slot k carries the lane of v/f column
    b^-1 (N+k) mod a, whose w/g column is then -b^-1 k mod a, so the v/f
    assignment rotates one slot per loop (slot k of loop N+1 is slot k+1
    of loop N) and each w/g slot keeps its column."""
    a, b = code.curve.a, code.curve.b_inv
    loops = [loop for _, loop, _ in bms.gate_table(code).loop]
    return [[loop[b * (N + k) % a] for k in range(a)] for N, loop in enumerate(loops)] if serial else loops


def _fields(st: bms.BmsState) -> tuple:
    """A state's mode and N and copies of its lists, the arguments of a
    ``bms.BmsState`` equal to it."""
    return st.mode, st.N, st.s1[:], st.c1[:], st.vf[:], st.wg[:], st.M[:]


class _Replay(Sequence):
    """``ArchTrace.boundary_states``: the reference state at each of the
    ``checked`` boundaries of a run, of which the run copies none.  The
    first time a state is read, one ``bms.loops`` run from ``start``, the
    run's initial reference state (copied, so the reference run's updates
    and a caller's later edits of its syndromes change nothing), is copied
    at each of its first ``checked`` yields.  Each state equals the register
    state of its boundary, because the check there passed."""

    def __init__(self, ref: bms.BmsState, code: CodeSpec):
        self.code, self.checked, self.states = code, 0, None
        self.start = _fields(ref)

    def __len__(self) -> int:
        return self.checked

    def __getitem__(self, k):
        if self.states is None:
            st = bms.BmsState(*self.start)  # runs once, so it may update start's lists
            self.states = [bms.BmsState(*_fields(st)) for _ in islice(bms.loops(st, self.code), self.checked)]
        return self.states[k]


class _Controller:
    """Latches, switches, line inputs and boundary checks of one simulated
    run (see the module docstring); it fills in ``trace``.  ``groups`` is
    the number of clocks a lane takes per loop (the w/g line's exponent
    groups).  A line is a word of ``gf`` lanes, register p from the output
    end in lane p, in bit-vector form; the latched e, d and d^-1 are
    product rows (``_product_row``), and (e, d) a pair row (``_pair_row``)
    up to w = 4, kept on the code."""

    def __init__(self, trace: ArchTrace, code: CodeSpec, synd: dict[Mono, int], mode: str, groups: int):
        self.arch, self.trace, self.code, self.synd = trace.architecture, trace, code, synd
        self.m, self.lb, self.groups = code.m, code.fld.lane_bits, groups
        self.division = mode == bms.DIVISION
        self.gates = bms.gate_table(code)
        self.zero, self.rows, self.pairs = code.table(_zero_masks, groups), code.table(_rows), code.table(_pairs)
        self.ref = bms.init_state(code, synd, mode)
        self.ref_loops = bms.loops(self.ref, code)  # one reference run, advanced a loop per boundary
        self.replay = trace.boundary_states = _Replay(self.ref, code)
        self.s1, self.c1 = self.ref.s1[:], self.ref.c1[:]
        self.M = [-1] * code.curve.a  # loop of the last g replacement per column, -1 before any

    def initial_registers(self) -> tuple[list[int], list[int]]:
        """The v/f and w/g words of every column before loop 0: column i
        holds the syndromes at the v lanes of its seed (the ``bms`` gate
        table's ``seed``, a gap lane reading 0), then f = 1 at lane m+1;
        w = 1."""
        vecs = dict(zip(self.synd, map(self.code.fld.vec.__getitem__, self.synd.values())))
        vecs[None] = 0  # the gap lanes'
        pack, f_one = self.code.fld.pack, self.gates.f_one
        vf = [pack(seed(vecs)) | f_one for seed in self.gates.seed]
        return vf, [1] * len(vf)

    def run(self, lanes: Sequence[Sequence[tuple[int, int, int]]], fold: Callable) -> ArchTrace:
        """Every loop of the run, with a boundary check before each loop
        and after the last, on the column words as they stand.  In loop N
        lane k pairs v/f column i with w/g column j, (i, j, l) =
        lanes[N][k] with l = l^(i)'s first component at N, for N = 0..m;
        its inputs go to the same two columns, in place, as ``bms.loops``
        updates its state (each column is read and written by one lane).

        The lane rule is written here once.  At the head group, from the v
        head (lane 0 of x, the v/f word) and the w head (lane 0 of y, the
        w/g word), a lane latches d, behind the gate s1^(i) <= l of
        ``bms.loops``, and e (alpha^0 in division mode), sets the switch,
        updates the degrees and M_j and charges a division update's w/g
        multipliers.  Its v/f inputs are e*x ^ d*y over the groups past the
        head and its w/g inputs, after an update d^-1 * x (x unscaled in
        inverse-free mode), else y, ANDed with the zero-set mask of
        (N, M_j).  A constant alpha^0 or 0 maps nothing: a lane with d = 0
        and e = alpha^0 is a plain shift.  Up to w = 4 a lane that maps both
        x and y maps x | y << 4 once, through the pair row of (e, d).

        Each loop counts its P clocks.  Every lane's peak is vm, its v/f
        multipliers per clock, but a division update's, vm + 1, so ``fold``
        of the peaks (the loop's multipliers per clock) is made only on a
        loop that takes one; the vm v/f multipliers that every lane charges
        at each group past the head in every loop are summed once, at the
        end.  Nothing is stored per loop."""
        trace, m, groups, a, P = self.trace, self.m, self.groups, len(self.M), self.trace.period
        fld, s1, c1, M, zero, rows, pairs = self.code.fld, self.s1, self.c1, self.M, self.zero, self.rows, self.pairs
        log, lookup, inv_chain, lb, head = fld.log, fld.lookup, fld.inv_chain, self.lb, fld.q - 1
        division = self.division
        vm = 1 if division else 2  # v/f multipliers per lane clock past the head
        vf, wg = self.initial_registers()
        for N, loop in enumerate(lanes):
            self._boundary(N, vf, wg)
            trace.total_clocks += P
            mask, ups = zero[N], 0
            for i, j, l in loop:
                x, y, s = vf[i], wg[j], s1[i]
                d = log[x & head] if s <= l else ZERO
                e = 0 if division else log[y & head]  # division mode keeps v: e = 1
                w = y
                if d != ZERO and s < l - c1[j]:  # the update switch
                    w = x  # an inverse-free update takes v unscaled
                    if division:
                        w = lookup(x, rows[inv_chain(d)])
                        ups += 1
                    s1[i], c1[j] = l - c1[j], l - s
                    M[j] = N
                wg[j] = w & mask[M[j]]
                if d == ZERO:
                    vf[i] = x >> lb if e == 0 else lookup(x >> lb, rows[e])
                elif e == 0:
                    vf[i] = x >> lb ^ lookup(y >> lb, rows[d])
                elif pairs is not None:  # byte k holds lane k of both words
                    vf[i] = lookup((x | y << 4) >> lb, pairs[e, d])
                else:
                    vf[i] = lookup(x >> lb, rows[e]) ^ lookup(y >> lb, rows[d])
            if ups:
                # a scaled w/g input takes one more multiplier at every group
                # it does not zero-set -- at most group m-N, since its M is
                # N -- so all lanes of a clock reach their peaks together
                trace.inv_uses += ups
                trace.mult_uses += ups * (groups - len(_stale(m, groups, N + 1, N)))
                peak = fold([vm + 1] * ups + [vm] * (a - ups))
                trace.max_mults_per_clock = max(trace.max_mults_per_clock, peak)
        self._boundary(m + 1, vf, wg)
        trace.mult_uses += len(lanes) * a * vm * (groups - 1)
        trace.max_mults_per_clock = max(trace.max_mults_per_clock, fold([vm] * a))
        return trace

    def _boundary(self, N: int, vf: list[int], wg: list[int]) -> None:
        """Advance the reference BMS run to loop N (the controller's one
        ``bms.loops`` generator runs the loop before it), require the
        register words, with (s, c) and M, to equal the reference state's
        as they stand, and count the boundary (``_Replay`` replays its state
        when it is read; nothing is copied here).  The equality covers every
        register: the reference holds zero on the lanes of the groups
        ``_stale`` names and on every lane past its top, so a register left
        nonzero there diverges at f or g like any other.  M is compared too
        (and named last), so the switch states ``ArchTrace.clocks`` reads
        off the replayed M are the controller's own."""
        next(self.ref_loops)  # the reference at loop N
        ref = self.ref
        if vf != ref.vf or wg != ref.wg or self.s1 != ref.s1 or self.c1 != ref.c1 or self.M != ref.M:
            mine = bms.BmsState(ref.mode, ref.N, self.s1, self.c1, vf, wg, self.M)
            got, want = ({**bms.state_record(st, self.code), "M": st.M} for st in (mine, ref))
            key = next(k for k in ("s1", "c1", "v", "f", "w", "g", "M") if got[k] != want[k])
            raise AssertionError(
                f"{self.arch}: boundary N={N} register state diverges from the reference "
                f"BMS state at {key!r}: architecture {got[key]!r} vs reference {want[key]!r}"
            )
        self.replay.checked += 1


# ---------------------------------------------------------------------------
# inverse-free architecture (a blocks)
# ---------------------------------------------------------------------------


def sim_inverse_free(code: CodeSpec, synd: dict[Mono, int], keep_snapshots: bool = False) -> ArchTrace:
    a, m = code.curve.a, code.m
    P, V = m + 3, m + 2
    trace = ArchTrace(INVERSE_FREE, P, RegisterFile(vf=a * V, wg=a * P, disc_regs=a, head_regs=a))
    ctl = _Controller(trace, code, synd, bms.INVERSE_FREE, P)
    ibar = ctl.gates.ibar  # lane i is block i; the w/g column j = ibar(i, N) is homed there in loop N

    def lines(N: int, gave: tuple, took: tuple, M: list[int]) -> tuple[dict, Callable]:
        # a v/f line gives its V registers, then the 0 it took at clock 0
        # (the head retired, mod Z^N); a w/g line gives its P registers and
        # takes them back (the one-exponent relabel is free) or the updated
        # column (switch B)
        (gave_v, gave_w), (took_v, took_w) = gave, took
        regs = {f"block{i}.vf": (gave_v[i] + [0] + took_v[i], 0, V) for i in range(a)}
        regs |= {f"block{i}.wg": (gave_w[j] + took_w[j], 0, P) for i, j in enumerate(ibar[N])}
        ups = {f"block{i}.update": M[j] == N for i, j in enumerate(ibar[N])}
        return regs, lambda t: {"disc_latch_down": t == 0, **ups}

    trace.layout = code.fld.unpack, P, lines
    return ctl.run(code.table(_lanes, False), sum)


# ---------------------------------------------------------------------------
# serial architectures (single structure, a columns interleaved per exponent)
# ---------------------------------------------------------------------------


def _sim_serial_core(code: CodeSpec, synd: dict[Mono, int], mode: str) -> ArchTrace:
    a, m = code.curve.a, code.m
    arch, c_v = (SERIAL, 0) if mode == bms.DIVISION else (SERIAL_INVERSE_FREE, a)
    P = a * (m + 2) + a + c_v
    G = P // a  # exponent groups per loop
    slots = code.table(_lanes, True)  # (v/f, w/g columns, l) on slot k in loop N

    L = a * (m + 2) - 1
    trace = ArchTrace(arch, P, RegisterFile(vf=L, wg=P, disc_regs=a, head_regs=a, exch_regs=1, supp_regs=2 * c_v))
    ctl = _Controller(trace, code, synd, mode, G)

    def interleave(cols: list[list[int]], order) -> list[int]:
        """The registers of one line, slot k of group g at phase g*a + k:
        value g of column order[k]."""
        line = [0] * (a * len(cols[0]))
        for k, i in enumerate(order):
            line[k::a] = cols[i]
        return line

    def lines(N: int, gave: tuple, took: tuple, M: list[int]) -> tuple[dict, Callable]:
        # the v/f path gives its L + c_v + 1 registers, then the a zeros it
        # took in the loop's first clocks (no product at the head group),
        # then what its line and FIFO take: the next loop's slots, which
        # rotate by one, but its last register, the exchange register, which
        # holds 0 and then lane 0's column (slot a-1 of the next path), each
        # for a clocks; the w/g line gives its P registers
        (gave_v, gave_w), (took_v, took_w) = gave, took
        vs, ws, _ = zip(*slots[N])
        path = interleave(gave_v, vs) + [0] * a + interleave(took_v, vs[1:] + vs[:1])[:-1]
        regs = {
            "vf": (path, 0, L),
            "wg": (interleave(gave_w, ws) + interleave(took_w, ws), 0, P),
            "exch": ([v for v in (0, *took_v[vs[0]]) for _ in range(a)], -1, 1),
            "supp": (path, L, c_v),
        }
        return regs, lambda t: {"exchange_down": t % a == 0, "head_latch": t < a, "update": M[ws[t % a]] == N}

    trace.layout = code.fld.unpack, G, lines
    return ctl.run(slots, max)


def sim_serial(code: CodeSpec, synd: dict[Mono, int], keep_snapshots: bool = False) -> ArchTrace:
    return _sim_serial_core(code, synd, bms.DIVISION)


def sim_serial_inverse_free(code: CodeSpec, synd: dict[Mono, int], keep_snapshots: bool = False) -> ArchTrace:
    return _sim_serial_core(code, synd, bms.INVERSE_FREE)


SIMULATORS = {
    INVERSE_FREE: sim_inverse_free,
    SERIAL: sim_serial,
    SERIAL_INVERSE_FREE: sim_serial_inverse_free,
}


# ---------------------------------------------------------------------------
# resource accounting
# ---------------------------------------------------------------------------


def resources(architecture: str, code: CodeSpec) -> ResourceEstimate:
    """Closed-form operator/register counts and running times per
    architecture family.  The closed forms keep their stated constants:
    the inverse-free time counts m+2 clocks per loop, while the simulated
    period is m+3 (``ArchTrace.total_clocks``)."""
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
    return ResourceEstimate(architecture, mult, inv, reg, time)
