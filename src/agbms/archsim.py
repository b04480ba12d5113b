"""Clock-accurate shift-register models of the three decoder architectures.

All three push one value into every register line per clock and pop one off
the front; polynomial coefficients circulate and the controller only latches
scalars (discrepancy and head values) at fixed clock phases and flips the
preserve/update switches once per N-loop.  The published register tables are
not available as text, so each simulator derives its own layout from the
stated line lengths and validates itself ("oracle equivalence"): each
simulator steps a software BMS state alongside its registers, and at every
N-boundary it rebuilds (s, c) and the f, g, v, w Z-arrays (``bms.ZArray``)
from its register lines and requires them to equal that state's, element
for element.  The boundary record it keeps is ``bms.state_record`` of that
state, so ``--boundary-dumps`` and ``--dump-state`` share one format.

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

* serial (division updates): one v/f line of a(m+2)-1 registers plus a
  one-value exchange register, one w/g line of a(m+2)+a registers,
  P = a(m+2)+a.  Coefficients interleave a columns per exponent (slot
  k = clock mod a); the column-to-slot assignment of the v/f stream rotates
  one slot per loop and the exchange register carries the wrapping slot-0
  value across the seam (held for a clocks, reinserted at the next slot-0
  clock).

* serial inverse-free: same single-line idea with inverse-free updates,
  v/f line of a(m+2)-1 registers, w/g ring of a(m+2)+2a registers,
  P = a(m+2)+2a.  The extra 2a registers are the supplementary ones: an
  a-deep segment on the v/f push path (it holds the a freshly updated head
  coefficients while the first exponent group of a loop streams by) plus
  the a-deep bank latching the w head values; both are needed when several
  columns jump degree in the same loop.

Zero-setting: a recirculated w/g value whose slot would fall between the
live w window and the pinned g window next loop is replaced by zero at the
line input, otherwise stale values would corrupt the f updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import bms
from .agcode import CodeSpec
from .curve import Mono
from .gf import ZERO

INVERSE_FREE = bms.INVERSE_FREE
SERIAL = "serial"
SERIAL_INVERSE_FREE = "serial_inverse_free"
CLOSED_FORM_ONLY = ("systolic", "koetter", "parallel_bms")


class ArchCompatError(ValueError):
    """Architecture and code layout cannot be wired together."""


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


def _boundary(arch: str, code: CodeSpec, got: dict, ref: bms.BmsState, trace: ArchTrace) -> None:
    """Require the state rebuilt from the registers to equal the reference
    BMS state at the same N, record that state, and step the reference to
    the next loop."""
    for key in ("s1", "c1", "v", "f", "w", "g"):
        want = getattr(ref, key)
        if got[key] != want:
            raise AssertionError(
                f"{arch}: boundary N={ref.N} register state diverges from the reference "
                f"BMS state at {key!r}: architecture {got[key]!r} vs reference {want!r}"
            )
    trace.boundary_states.append(bms.state_record(ref, code))
    if ref.N <= ref.top:
        bms.step(ref, code)


def _put(arch: str, N: int, zp: bms.ZArray, h: int, val: int) -> None:
    """Store a rebuilt coefficient at Z^h; a nonzero register that maps past
    the Z-array's top exponent should have been retired."""
    if h < len(zp):
        zp[h] = val
    elif val != ZERO:
        raise AssertionError(f"{arch}: boundary N={N}: coefficient at Z^{h} above the top exponent")


def _empty_state(a: int, m: int, s1: list[int], c1: list[int]) -> dict:
    zeros = {key: [[ZERO] * (m + 2) for _ in range(a)] for key in ("v", "f", "w", "g")}
    return {"s1": s1[:], "c1": c1[:], **zeros}


# ---------------------------------------------------------------------------
# inverse-free architecture (a blocks)
# ---------------------------------------------------------------------------


def sim_inverse_free(code: CodeSpec, synd: dict[Mono, int], keep_snapshots: bool = True) -> ArchTrace:
    cv = code.curve
    fld = code.fld
    a, m = cv.a, code.m
    P = m + 3
    ref = bms.init_state(code, synd, bms.INVERSE_FREE)

    # one v/f and one w/g line per block; wg lines are indexed by the logical
    # w/g column j, physically homed at block ibar(j, N) for the current loop
    vf: list[list[int]] = []
    for i in range(a):
        line = [ZERO] * (m + 2)
        for p in range(m + 1):
            l = cv.l_of(i, p)
            if l is not None and synd[l] != ZERO:
                line[p] = synd[l]
        line[m + 1] = 0  # f = 1
        vf.append(line)
    wg: list[list[int]] = [[0] + [ZERO] * (m + 2) for _ in range(a)]

    s1 = [cv.basis_start(i)[0] for i in range(a)]
    c1 = [x - 1 for x in s1]
    M: list[int | None] = [None] * a
    d_lat = [ZERO] * a
    e_lat = [ZERO] * a
    replace = [False] * a

    trace = ArchTrace(
        INVERSE_FREE,
        period=P,
        total_clocks=(m + 1) * P,
        registers=RegisterFile(vf=a * (m + 2), wg=a * P, disc_regs=a, head_regs=a),
    )

    def reconstruct(N: int) -> dict:
        got = _empty_state(a, m, s1, c1)
        for i in range(a):
            for p, val in enumerate(vf[i]):
                if p <= m - N:
                    got["v"][i][N + p] = val
                else:
                    got["f"][i][p - (m + 1) + N] = val
        for j in range(a):
            for p, val in enumerate(wg[j]):
                if p == 0 or N + p <= m:
                    got["w"][j][N + p] = val
                elif M[j] is not None and p >= m + 1 - M[j]:
                    _put(INVERSE_FREE, N, got["g"][j], p - (m + 1) + N, val)
                elif val != ZERO:
                    raise AssertionError(
                        f"{INVERSE_FREE}: boundary N={N}: stale w/g register {p} not zeroed"
                    )
        return got

    for clo in range(trace.total_clocks):
        N, p = divmod(clo, P)
        if p == 0:
            _boundary(INVERSE_FREE, code, reconstruct(N), ref, trace)
            # latch discrepancies/heads and set this loop's switches
            for i in range(a):
                l = cv.l_of(i, N)
                d_lat[i] = vf[i][0] if (l is not None and s1[i] <= l[0]) else ZERO
            for j in range(a):
                e_lat[j] = wg[j][0]
            pend = []
            for i in range(a):
                j = cv.ibar(i, N)
                l = cv.l_of(i, N)
                upd = d_lat[i] != ZERO and s1[i] < l[0] - c1[j]
                replace[j] = upd
                if upd:
                    pend.append((i, j, l[0] - c1[j], l[0] - s1[i]))
            for i, j, ns, nc in pend:
                s1[i] = ns
                c1[j] = nc
                M[j] = N

        xs = [vf[i].pop(0) for i in range(a)]
        ys = [wg[j].pop(0) for j in range(a)]
        mults = 0
        for i in range(a):
            j = cv.ibar(i, N)
            if p == 0:
                vf[i].append(ZERO)  # mod Z^N: the consumed head is not recirculated
            else:
                vf[i].append(fld.add(fld.mul(e_lat[j], xs[i]), fld.mul(d_lat[i], ys[j])))
                mults += 2
        for j in range(a):
            i = cv.ibar(j, N)
            live_w = p <= m - N - 1 or (N == m and p == 0)
            if replace[j]:
                live_g = p >= m + 1 - N
                # switch B: w <- Zv / g <- Zf via the vf stream
                wg[j].append(xs[i] if (live_w or live_g) else ZERO)
            else:
                live_g = M[j] is not None and p >= m + 1 - M[j]
                wg[j].append(ys[j] if (live_w or live_g) else ZERO)
        trace.mult_uses += mults
        trace.max_mults_per_clock = max(trace.max_mults_per_clock, mults)
        if keep_snapshots:
            trace.snapshots.append(
                {
                    "clock": clo,
                    "registers": {
                        **{f"block{i}.vf": vf[i][:] for i in range(a)},
                        **{f"block{i}.wg": wg[cv.ibar(i, N)][:] for i in range(a)},
                    },
                    "switches": {
                        "disc_latch_down": p == 0,
                        **{f"block{i}.update": replace[cv.ibar(i, N)] for i in range(a)},
                    },
                }
            )

    _boundary(INVERSE_FREE, code, reconstruct(m + 1), ref, trace)
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
    fld = code.fld
    a, m = cv.a, code.m
    binv = cv.b_inv

    if mode == bms.DIVISION:
        # Klein-style (ibar, i) layout: v/f slot k holds column ibar(N, k),
        # w/g slot k holds column k.  One wrap slot per loop needs b^-1 = a-1.
        if binv != (a - 1) % a:
            raise ArchCompatError("serial layout needs b^-1 = a-1 (mod a), e.g. Klein")
        arch = SERIAL
        c_v = 0
        P = a * (m + 2) + a

        def vf_obj(N: int, k: int) -> int:
            return (binv * N - k) % a

        def wg_obj(k: int) -> int:
            return k

    else:
        # C_a^b (i, ibar) layout with i + ibar = b^-1 N (mod a); the rotation
        # is one slot per loop only when b = 1 (mod a), e.g. Hermitian y^4+y=x^5.
        if binv != 1:
            raise ArchCompatError("serial inverse-free layout needs b = 1 (mod a)")
        if cv.klein:
            raise ArchCompatError("serial inverse-free layout is for C_a^b curves")
        arch = SERIAL_INVERSE_FREE
        c_v = a
        P = a * (m + 2) + 2 * a

        def vf_obj(N: int, k: int) -> int:
            return (k + N) % a

        def wg_obj(k: int) -> int:
            return (-k) % a

    L = a * (m + 2) - 1
    ref = bms.init_state(code, synd, mode)

    def init_value(phase: int) -> int:
        g, k = divmod(phase, a)
        if g <= m:
            l = cv.l_of(vf_obj(0, k), g)
            return synd[l] if (l is not None and synd[l] != ZERO) else ZERO
        if g == m + 1:
            return 0  # f = 1
        return ZERO

    line = [init_value(p) for p in range(L)]
    fifo = [init_value(L + i) for i in range(c_v)]
    exch = init_value(L + c_v)

    wgline = [ZERO] * P
    for k in range(a):
        wgline[k] = 0  # w = 1 per column

    s1 = [cv.basis_start(i)[0] for i in range(a)]
    c1 = [x - 1 for x in s1]
    M: list[int | None] = [None] * a
    d_lat = [ZERO] * a  # per slot
    e_lat = [ZERO] * a
    dinv_lat = [ZERO] * a
    replace = [False] * a

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
            supp_regs=2 * a if arch == SERIAL_INVERSE_FREE else 0,
        ),
    )

    def reconstruct(N: int) -> dict:
        got = _empty_state(a, m, s1, c1)
        for phase, val in enumerate(line + fifo + [exch]):
            if val == ZERO:
                continue
            g, k = divmod(phase, a)
            obj = vf_obj(N, k)
            if g <= m - N:
                got["v"][obj][N + g] = val
            else:
                _put(arch, N, got["f"][obj], g - (m + 1) + N, val)
        for phase, val in enumerate(wgline):
            g, k = divmod(phase, a)
            obj = wg_obj(k)
            if g == 0 or N + g <= m:
                got["w"][obj][N + g] = val
            elif M[obj] is not None and g >= m + 1 - M[obj]:
                _put(arch, N, got["g"][obj], g - (m + 1) + N, val)
            elif val != ZERO:
                raise AssertionError(
                    f"{arch}: boundary N={N}: stale w/g register at phase {phase} not zeroed"
                )
        return got

    for clo in range(trace.total_clocks):
        N, phase = divmod(clo, P)
        g, k = divmod(phase, a)
        if phase == 0:
            _boundary(arch, code, reconstruct(N), ref, trace)

        x = line.pop(0)
        y = wgline.pop(0)

        mults = 0
        if phase < a:
            # head clocks: latch this pair's discrepancy and head values and
            # set its preserve/update switch for the whole loop
            j = vf_obj(N, k)  # locator column streaming in this slot
            p_obj = wg_obj(k)  # auxiliary column of this slot
            l = cv.l_of(j, N)
            d_lat[k] = x if (l is not None and s1[j] <= l[0]) else ZERO
            e_lat[k] = y
            upd = d_lat[k] != ZERO and s1[j] < l[0] - c1[p_obj]
            replace[k] = upd
            if upd:
                if mode == bms.DIVISION:
                    dinv_lat[k], _ = fld.inv_chain(d_lat[k])
                    trace.inv_uses += 1
                new_s1 = l[0] - c1[p_obj]
                c1[p_obj] = l[0] - s1[j]
                s1[j] = new_s1
                M[p_obj] = N

        # w/g push: recirculate (the one-exponent relabel is free), take the
        # updated column from the v/f stream, or zero a stale slot
        p_obj = wg_obj(k)
        live_w = g <= m - N - 1 or (N == m and g == 0)
        if replace[k]:
            live_g = g >= m + 1 - N
            if not (live_w or live_g):
                wgline.append(ZERO)
            elif mode == bms.DIVISION:
                wgline.append(fld.mul(dinv_lat[k], x))
                mults += 1
            else:
                wgline.append(x)
        else:
            live_g = M[p_obj] is not None and g >= m + 1 - M[p_obj]
            wgline.append(y if (live_w or live_g) else ZERO)

        # v/f push
        if g == 0:
            newval = ZERO  # mod Z^N deletion retires the consumed head
        elif mode == bms.DIVISION:
            newval = fld.add(x, fld.mul(d_lat[k], y))
            mults += 1
        else:
            newval = fld.add(fld.mul(e_lat[k], x), fld.mul(d_lat[k], y))
            mults += 2

        # slot-0 values wrap to the last slot and detour through the exchange
        # register (held for a clocks); everything else re-enters directly
        if k == 0:
            intake = exch
            exch = newval
        else:
            intake = newval
        if c_v:
            fifo.append(intake)
            line.append(fifo.pop(0))
        else:
            line.append(intake)

        trace.mult_uses += mults
        trace.max_mults_per_clock = max(trace.max_mults_per_clock, mults)
        if keep_snapshots:
            trace.snapshots.append(
                {
                    "clock": clo,
                    "registers": {"vf": line[:], "wg": wgline[:], "exch": [exch], "supp": fifo[:]},
                    "switches": {
                        "exchange_down": k == 0,
                        "head_latch": phase < a,
                        "update": replace[k],
                    },
                }
            )

    _boundary(arch, code, reconstruct(m + 1), ref, trace)
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
