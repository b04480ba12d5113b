"""Parallel Berlekamp-Massey-Sakata iteration, inverse-free and division forms.

The state carries, per column index i in [0, a): the minimal degree s^(i)
(stored as its first component, the second is always i), the auxiliary span
c^(i), and four polynomials in a formal variable Z -- f (locator
coefficients), g (auxiliary), v (syndrome combination whose coefficient at
Z^N is the discrepancy), w (auxiliary for v).  One ``step`` consumes loop
index N: discrepancies are read off v and w heads, then each lane -- column
i paired with ibar(i, N) -- updates its columns in place (``step`` says why
that is exact).

Inverse-free mode scales instead of dividing (f <- e*f - d*g) and performs
no field inversions at all; division mode is the classical parallel form
(f <- f - d*g with the replaced g, w scaled by d^-1) kept as a cross-check
oracle and as the update rule of the serial architecture.

Each column's polynomials live in two packed words (``gf`` lanes of
``lane_bits`` bits, one byte up to GF(2^8) and two above, bit-vector form,
L = top+2 lanes per polynomial): ``vf`` holds v in lanes 0..L-1 and f in
lanes L..2L-1, ``wg`` holds w and g the same way -- the inverse-free
architecture's (m+2)-register v/f line and (m+3)-register w/g line.  Since
f and v take the same scale and the same merge partner (g and w), a lane
update is two ``GF.scale`` calls and one XOR; a scale is one
``bytes.translate`` of the word's bytes on one-byte lanes and w masked
multiplies on two-byte lanes, and ``gf`` alone picks which.  Every live
exponent fits: f and g stay at or below N, v holds [N, top], and w holds
[N, top] plus, after the last loop, its head at top+1 (e_{m+1}, which the
error-value formula consumes).  Exponents above top are dead otherwise --
they are never read as discrepancies and never feed a lower exponent,
since all updates combine equal exponents -- so the Z-shift
``(x << lane_bits) & keep`` drops the top+1 lane of each half, and w's
top+1 lane is cleared on every loop but the last, exactly as the
architectures zero-set their w/g lines.  Every lane offset is a multiple
of ``lane_bits``; the field degree w sets no offset.  Log form appears
only at the boundary: ``discrepancies`` and ``state_record`` unpack, and
``extract_locators`` reads only the lead and head lanes, handing f and g
on to the decoder as packed words.  The gates of a code -- l^(i) and ibar per loop, the
seed lanes and the masks -- are built once per window size and kept on the
code (``CodeSpec.tables``), so no curve lookup happens per decoded word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .agcode import CodeSpec
from .curve import Mono
from .gf import ZERO, OpCounter

INVERSE_FREE = "inverse_free"
DIVISION = "division"


class _Gates:
    """Per-code tables of one window size ``top``: per loop N the first
    component of l^(i) (None at a gap; N up to top+1, which the final
    record reads), ibar(i, N) and the AND masks of the step, and the v
    seed lanes of every column."""

    def __init__(self, code: CodeSpec, top: int):
        cv, fld = code.curve, code.fld
        a, lb = cv.a, fld.lane_bits
        self.L = L = top + 2
        self.l1 = [[None if (l := cv.l_of(i, N)) is None else l[0] for i in range(a)] for N in range(top + 2)]
        self.ibar = [[cv.ibar(i, N) for i in range(a)] for N in range(top + 1)]
        # (lane, syndrome index) of every v coefficient of column i
        self.seed = [[(cv.pole_order(l), l) for l in cv.phi(i, a, top)] for i in range(a)]
        self.s1 = [cv.basis_start(i)[0] for i in range(a)]
        lane, full = (1 << lb) - 1, (1 << 2 * L * lb) - 1
        self.head_clear = [full ^ lane << N * lb for N in range(top + 1)]  # mod Z^N
        shift_keep = full ^ lane << L * lb  # w's top+1 lane must not become g's lane 0
        self.shift_keep = [shift_keep ^ (lane << (L - 1) * lb if N != top else 0) for N in range(top + 1)]


def gate_table(code: CodeSpec, top: int) -> _Gates:
    """The gates of window size ``top``, built on first use and kept on the
    code; the simulators read l^(i), ibar and the seed lanes from them too."""
    gates = code.tables.get(("bms", top))
    if gates is None:
        gates = code.tables["bms", top] = _Gates(code, top)
    return gates


def _support(code: CodeSpec, order: int) -> tuple[list[tuple[Mono, int]], int]:
    """Ring monomials n with o(n) <= order, each with its lane order - o(n),
    and the mask of those lanes; built once per order and kept on the code."""
    sup = code.tables.get(("support", order))
    if sup is None:
        cv, lb = code.curve, code.fld.lane_bits
        monos = [(n, order - cv.pole_order(n)) for n in cv.phi(0, cv.a, order)]
        mask = 0
        for _, h in monos:
            mask |= (1 << lb) - 1 << h * lb
        sup = code.tables["support", order] = (monos, mask)
    return sup


@dataclass
class BmsState:
    mode: str
    N: int
    top: int  # largest syndrome exponent fed to v at N = 0
    s1: list[int]
    c1: list[int]
    vf: list[int]  # per column: v in lanes 0..top+1, f in lanes top+2..2top+3
    wg: list[int]  # per column: w in lanes 0..top+1, g in lanes top+2..2top+3
    M: list[int | None] = field(default_factory=list)  # step of last g replacement
    tlabel: list[Mono | None] = field(default_factory=list)  # degree label of g


@dataclass
class LocatorOutput:
    """Extracted bivariate basis: candidates F^(i), auxiliaries G^(i),
    their leading coefficients, and the head values e^(i) used by the
    error-value formula.

    Each polynomial stays packed as a (word, pole order) pair: lane h of
    the word holds the coefficient of the ring monomial of pole order
    order - h, so lane 0 is the leading one.  A zero polynomial is (0, -1).
    """

    F: list[tuple[int, int]]
    G: list[tuple[int, int]]
    lead_F: list[int]
    head_e: list[int]
    mode: str


def init_state(code: CodeSpec, synd: dict[Mono, int], mode: str, top: int | None = None) -> BmsState:
    """Step 0.  ``top`` widens the v window for test runs fed syndromes
    beyond m (Appendix-B style); decoding always uses top = m.

    Column i is seeded with the window-i syndrome rows: the coefficient at
    Z^N is u at the unique monomial of pole order N with i <= n2 < i+a.
    Only column 0 reads the canonical rows; the higher columns are what the
    extra rows of the Phi(2a-1, m) table exist for -- seeding them with the
    canonical rows instead breaks the agreement between the v head and the
    direct discrepancy of F^(i) as soon as the representatives differ.
    """
    if mode not in (INVERSE_FREE, DIVISION):
        raise ValueError(f"unknown mode {mode!r}")
    if top is None:
        top = code.m
    gates = gate_table(code, top)
    exp, lb = code.fld.exp, code.fld.lane_bits
    f_one = 1 << gates.L * lb  # f = 1
    vf = []
    for seed in gates.seed:
        x = f_one
        for lane, l in seed:
            u = synd.get(l)
            if u is None:
                raise ValueError(f"syndrome table missing u_{l}")
            if u != ZERO:
                x |= exp[u] << lane * lb
        vf.append(x)
    a = len(vf)
    return BmsState(
        mode=mode,
        N=0,
        top=top,
        s1=gates.s1[:],
        c1=[x - 1 for x in gates.s1],
        vf=vf,
        wg=[1] * a,  # w = 1, g = 0
        M=[None] * a,
        tlabel=[None] * a,
    )


def discrepancies(state: BmsState, code: CodeSpec) -> tuple[list[int], list[int]]:
    """Step 1 at the current N: the discrepancies d^(i) (v heads, zero
    where column i has no l^(i) or s1^(i) exceeds it) and the w heads e^(i)."""
    fld = code.fld
    log, lane, shift = fld.log, fld.q - 1, state.N * fld.lane_bits
    l1 = gate_table(code, state.top).l1[state.N]
    d = [
        ZERO if l is None or s > l else log[x >> shift & lane]
        for x, s, l in zip(state.vf, state.s1, l1)
    ]
    return d, [log[x >> shift & lane] for x in state.wg]


def step(state: BmsState, code: CodeSpec, ctr: OpCounter | None = None) -> None:
    """One N-loop: Step 1 (discrepancies), then Step 2 lane by lane, in place.

    Lane i pairs column i with ib = ibar(i, N), as one multiplier pair of
    the parallel architecture does: it reads and writes vf and s1 of
    column i and wg, c1, M and tlabel of column ib, and nothing else.
    ibar(., N) is a bijection of the columns, so in each loop every column
    is read and written by exactly one lane, no lane sees another lane's
    new values, and the in-place update equals one from a pre-step copy.
    Within a lane every old value is read before it is overwritten.

    ``ctr`` is charged one mul per nonzero lane scaled and one mul and one
    add per nonzero lane merged in, as a coefficient-wise update would be;
    ``GF.scale`` counts the nonzero lanes it multiplies, on either codec.
    """
    fld = code.fld
    gates = gate_table(code, state.top)
    N, lb = state.N, fld.lane_bits
    vf, wg, s1, c1 = state.vf, state.wg, state.s1, state.c1
    scale = fld.scale
    inverse_free = state.mode == INVERSE_FREE
    d, e = discrepancies(state, code)
    l1, clear, keep = gates.l1[N], gates.head_clear[N], gates.shift_keep[N]
    muls = adds = 0
    for i, ib in enumerate(gates.ibar[N]):
        x, y, di = vf[i], wg[ib], d[i]
        new = x
        if inverse_free:
            new, k = scale(x, e[ib])
            muls += k
        if di != ZERO:
            yd, k = scale(y, di)
            new ^= yd
            muls += k
            adds += k
        vf[i] = new & clear  # mod Z^N: the consumed head is deleted explicitly
        # a nonzero discrepancy implies that l^(i) exists
        if di != ZERO and s1[i] < l1[i] - c1[ib]:
            if not inverse_free:
                x, k = scale(x, fld.inv_chain(di, ctr))
                muls += k
            # f and v are zero at top+1, so shifting after the scale loses
            # nothing and charges the muls a scale after the shift would
            wg[ib] = x << lb & keep
            state.M[ib], state.tlabel[ib] = N, (s1[i], i)
            s1[i], c1[ib] = l1[i] - c1[ib], l1[i] - s1[i]
        else:
            wg[ib] = y << lb & keep
    if ctr is not None:
        ctr.muls += muls
        ctr.adds += adds
    state.N = N + 1


def state_record(state: BmsState, code: CodeSpec) -> dict:
    """One dump record: per-i control values, the Step-1 values at the
    current N, and the (exponent, log) lists of the nonzero coefficients.
    The ``--dump-state`` and ``--boundary-dumps`` files hold these."""
    d, e = discrepancies(state, code)
    terms = code.fld.terms
    shift = (state.top + 2) * code.fld.lane_bits
    low = (1 << shift) - 1
    return {
        "N": state.N,
        "s1": state.s1[:],
        "c1": state.c1[:],
        "d": d,
        "e": e,
        "f": [terms(x >> shift) for x in state.vf],
        "g": [terms(x >> shift) for x in state.wg],
        "v": [terms(x & low) for x in state.vf],
        "w": [terms(x & low) for x in state.wg],
    }


def run(
    code: CodeSpec,
    synd: dict[Mono, int],
    mode: str,
    n_max: int | None = None,
    ctr: OpCounter | None = None,
    record: bool = False,
) -> tuple[BmsState, list[dict]]:
    """Iterate steps for N = 0..n_max (default m).  With ``record`` the
    returned list holds one record per N plus the final state."""
    if n_max is None:
        n_max = code.m
    state = init_state(code, synd, mode, top=n_max)
    records: list[dict] = []
    while state.N <= n_max:
        if record:
            records.append(state_record(state, code))
        step(state, code, ctr)
    if record:
        records.append(state_record(state, code))
    return state, records


def extract_poly(code: CodeSpec, zp: int, deg: Mono, offset: int = 0) -> tuple[int, int]:
    """A packed line, lane h holding the coefficient at Z^h, as the
    polynomial (word, o(deg)) of ``LocatorOutput``.

    The coefficient of monomial n sits at exponent offset + o(deg) - o(n);
    offset is 0 for f and N - M for g, so the word is the line shifted
    down by offset lanes.  Any nonzero coefficient at an exponent that
    corresponds to no basis monomial would mean the update arithmetic
    leaked outside the function ring, so that raises AssertionError.
    """
    fld = code.fld
    lb, order = fld.lane_bits, code.curve.pole_order(deg)
    stray = zp & ~(_support(code, order)[1] << offset * lb)
    if stray:
        raise AssertionError(f"coefficients outside the monomial support: {dict(fld.terms(stray))}")
    return zp >> offset * lb, order


def extract_locators(state: BmsState, code: CodeSpec) -> LocatorOutput:
    fld = code.fld
    log, lane, lb = fld.log, fld.q - 1, fld.lane_bits
    shift = (state.top + 2) * lb  # the f and g halves
    F, G, lead, head = [], [], [], []
    for i in range(code.curve.a):
        f = state.vf[i] >> shift
        F.append(extract_poly(code, f, (state.s1[i], i)))
        if not f & lane:
            raise AssertionError(f"leading coefficient of F^({i}) must stay nonzero")
        lead.append(log[f & lane])
        head.append(log[state.wg[i] >> state.N * lb & lane])
        if state.M[i] is None:  # g has never been replaced, so it is still zero
            G.append((0, -1))
        else:
            G.append(extract_poly(code, state.wg[i] >> shift, state.tlabel[i], offset=state.N - state.M[i]))
    return LocatorOutput(F, G, lead, head, state.mode)


def delta_set(code: CodeSpec, s1: list[int]) -> list[Mono]:
    """Footprint below the basis degrees: ring monomials with n1 < s1^(n2)."""
    cv = code.curve
    bound = max(cv.pole_order((s1[i], i)) for i in range(cv.a))
    return [n for n, _ in _support(code, bound)[0] if n[0] < s1[n[1]]]
