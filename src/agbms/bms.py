"""Parallel Berlekamp-Massey-Sakata iteration, inverse-free and division forms.

The state carries, per column index i in [0, a): the minimal degree s^(i)
(stored as its first component, the second is always i), the auxiliary span
c^(i), and four polynomials in a formal variable Z -- f (locator
coefficients), g (auxiliary), v (syndrome combination whose coefficient at
Z^N is the discrepancy), w (auxiliary for v).  One generator, ``loops``,
holds the only copy of the lane update and runs every N-loop from the
state's N to m, yielding before each loop and after the last: ``run``
records at its yields, the simulators' reference advances it one loop per
boundary, and a run resumes from a state at any N.  A loop is one pass over
the lanes: each lane -- column i paired with ibar(i, N) -- reads its own
Step-1 values, the discrepancy off the v head of column i (gated by
s1^(i) <= l^(i), one comparison) and e off the w head of column
ibar(i, N), and updates its columns in place (``loops`` says why that is
exact).

Inverse-free mode scales instead of dividing (f <- e*f - d*g) and performs
no field inversions at all; division mode is the classical parallel form
(f <- f - d*g with the replaced g, w scaled by d^-1) kept as a cross-check
oracle and as the update rule of the serial architecture.

Each column's polynomials live in two packed words (``gf`` lanes of
``lane_bits`` bits, one byte up to GF(2^8) and two above, bit-vector form)
in the inverse-free architecture's register layout, the head at lane 0:
``vf`` is the (m+2)-register v/f line, v exponent k at lane k-N and f
exponent h at lane m+1-N+h, and ``wg`` the (m+3)-register w/g line, w
exponent k at lane k-N and g exponent h at lane m+1-N+h.  Lane m+1-N of
``wg`` is one register for w's m+1 and g's 0: before the last loop it is
g's and always zero, after it it holds e_{m+1}, w's head, which the
error-value formula consumes.  Since f and v take the same scale and the
same merge partner (g and w) lane for lane, a lane update is one
product: ``GF.merge`` (e*vf + d*wg) where e is not alpha^0 and d is
nonzero, else one ``GF.scale``, or none where e is alpha^0 (as it stays
while w is still Z^N, and always in division mode) and d is zero; ``gf``
alone picks how a merge or a scale is made.  Field operations are
counted, through ``GF.weight``, only when a counter is passed; a decode
that reports none computes none.  Every live exponent fits: f and g stay
at or below N, v holds [N, m], and w holds [N, m] plus, after the last
loop, its head at m+1.  Exponents above m are dead otherwise -- they are
never read as discrepancies and never feed a lower exponent, since all
updates combine equal exponents -- so moving to frame N+1 is one shift
for v/f, ``new >> lane_bits``, which retires the head, and none for w/g,
whose lanes already stand one exponent higher in the next frame (the
Z-shift); the ``keep`` mask clears w's m+1 lane on every loop but the
last, exactly as the architectures zero-set their w/g lines.  Every lane
offset is a multiple of ``lane_bits``; the field degree w sets no offset.
Log form appears only at the boundary: ``loops`` reads lane 0 of each
lane's two words, ``discrepancies`` and ``state_record`` unpack for the
dumps, mapping lanes back to exponents, and ``extract_locators`` reads
only the lead and head lanes, handing f and g on to the decoder as packed
words.  The gates of a code -- l^(i) and ibar per loop, the seeds, per
loop one tuple of the lane triples and the mask, and per final s1 the
footprint -- are built once per code and kept on the code (``_Gates``,
read through ``CodeSpec.table``, as is ``_support``, the lanes of the
monomials up to a pole order), so no curve lookup happens per decoded word
and a run binds its per-loop constants once per loop.  ``M`` holds, per
column, the loop of g's last replacement (-1 before any), from which
``extract_locators`` derives G's degree label.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import itemgetter

from .agcode import CodeSpec
from .curve import Mono
from .gf import ZERO, Memo, OpCounter

INVERSE_FREE = "inverse_free"
DIVISION = "division"


class _Gates:
    """Per-code tables: per loop N the first component of l^(i) (N up to
    m+1, which the final record reads) and ibar(i, N); the seed of every
    column, the syndrome monomial of each v lane 0..m in lane order (None
    at a gap), read by two loaders: ``seed``, one ``itemgetter`` of those
    monomials, which the simulators apply to their syndrome vectors keyed
    by monomial, and ``gather``, one of their indices in
    ``syndrome_domain`` with a gap at the trailing zero (``init_state``);
    ``loop``, one tuple per loop N of the constants ``loops`` binds: N,
    the (i, ibar(i, N), l1) triple of every lane, and ``keep``, the AND
    mask of the w/g word for frame N+1, which clears lane m-N (w's m+1 and
    g's 0 there) on every loop but the last; and ``delta``, per final s1
    (a tuple) what ``_delta`` gives.  A gap is stored as -1: s1^(i) is never
    negative, so ``s1 <= l1`` is the whole discrepancy gate, false at a
    gap."""

    def __init__(self, code: CodeSpec):
        cv, fld, m = code.curve, code.fld, code.m
        a, lb = cv.a, fld.lane_bits
        self.l1 = [[-1 if (l := cv.l_of(i, N)) is None else l[0] for i in range(a)] for N in range(m + 2)]
        self.ibar = [[cv.ibar(i, N) for i in range(a)] for N in range(m + 1)]
        index = {l: k for k, l in enumerate(code.syndrome_domain)}
        self.seed, self.gather = [], []
        for i in range(a):  # v lane N reads u at column i's monomial of pole order N, else 0
            lanes = [None] * (m + 1)
            for l in cv.phi(i, a, m):
                lanes[cv.pole_order(l)] = l
            self.seed.append(itemgetter(*lanes))
            self.gather.append(itemgetter(*(len(index) if l is None else index[l] for l in lanes)))
        self.s1 = [cv.basis_start(i)[0] for i in range(a)]
        self.f_one = 1 << (m + 1) * lb  # f = 1
        lane, full = (1 << lb) - 1, (1 << (m + 2) * lb) - 1
        self.loop = []
        for N in range(m + 1):  # w's m+1 lane kept after the last loop only
            lanes = list(zip(range(a), self.ibar[N], self.l1[N]))
            self.loop.append((N, lanes, full ^ (lane << (m - N) * lb if N != m else 0)))
        self.delta = Memo(code, _delta)  # tuple(s1) -> (Delta, Chien bound)


def gate_table(code: CodeSpec) -> _Gates:
    """The gates of the code, kept on it (``CodeSpec.table``); the
    simulators read l^(i), ibar and the seed lanes from them too."""
    return code.table(_Gates)


def _support(code: CodeSpec, order: int) -> tuple[list[tuple[Mono, int]], int]:
    """Ring monomials n with o(n) <= order, each with its lane order - o(n),
    and the mask of those lanes; read as ``code.table(_support, order)``."""
    cv, lb = code.curve, code.fld.lane_bits
    monos = [(n, order - cv.pole_order(n)) for n in cv.phi(0, cv.a, order)]
    mask = 0
    for _, h in monos:
        mask |= (1 << lb) - 1 << h * lb
    return monos, mask


@dataclass
class BmsState:
    mode: str
    N: int
    s1: list[int]
    c1: list[int]
    vf: list[int]  # per column: v exponent k at lane k-N, f exponent h at lane m+1-N+h
    wg: list[int]  # per column: w and g the same way, lane m+1-N g's until the last loop
    M: list[int] = field(default_factory=list)  # loop of the last g replacement, -1 before any
    invs: int = field(default=0, compare=False)  # division-mode inversions so far


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


def init_state(code: CodeSpec, synd: dict[Mono, int], mode: str) -> BmsState:
    """Step 0: v holds the syndromes up to m in lanes 0..m, f = 1 at lane
    m+1 and w = 1 at lane 0.

    Column i is seeded with the window-i syndrome rows: the coefficient at
    Z^N is u at the unique monomial of pole order N with i <= n2 < i+a.
    Only column 0 reads the canonical rows; the higher columns are what the
    extra rows of the Phi(2a-1, m) table exist for -- seeding them with the
    canonical rows instead breaks the agreement between the v head and the
    direct discrepancy of F^(i) as soon as the representatives differ.
    """
    if mode not in (INVERSE_FREE, DIVISION):
        raise ValueError(f"unknown mode {mode!r}")
    gates = gate_table(code)
    try:
        vecs = [*map(code.fld.vec.__getitem__, map(synd.__getitem__, code.syndrome_domain)), 0]
    except KeyError as exc:
        raise ValueError(f"syndrome table missing u_{exc.args[0]}") from None
    pack, f_one = code.fld.pack, gates.f_one
    vf = [f_one | pack(get(vecs)) for get in gates.gather]
    a = len(vf)
    return BmsState(
        mode=mode,
        N=0,
        s1=gates.s1[:],
        c1=[x - 1 for x in gates.s1],
        vf=vf,
        wg=[1] * a,  # w = 1, g = 0
        M=[-1] * a,
    )


def discrepancies(state: BmsState, code: CodeSpec) -> tuple[list[int], list[int]]:
    """Step 1 at the current N for the dumps: the discrepancies d^(i) (v
    heads, zero unless s1^(i) <= l^(i), which fails where column i has no
    l^(i), and zero after the last loop, where v is empty and lane 0 holds
    f) and the w heads e^(i).  ``loops`` reads the same lane 0 with the
    same mask and gate."""
    log, lane, live = code.fld.log, code.fld.q - 1, state.N <= code.m
    l1 = gate_table(code).l1[state.N]
    d = [log[x & lane] if live and s <= l else ZERO for x, s, l in zip(state.vf, state.s1, l1)]
    return d, [log[x & lane] for x in state.wg]


def loops(state: BmsState, code: CodeSpec, ctr: OpCounter | None = None) -> Iterator[None]:
    """Run the N-loops state.N..m in place, yielding before each loop and
    after the last; every caller runs BMS through this one generator.
    Each loop is one pass over the lanes: each lane reads its own Step-1
    values (d^(i) off the v head of column i, gated by s1^(i) <= l^(i),
    and e^(ib) off the w head of column ib, both lane 0) and runs Step 2.
    The v/f word moves to frame N+1 by one shift, which retires the head;
    the w/g word stays where it is, which is the Z-shift, under ``keep``.

    Lane i pairs column i with ib = ibar(i, N), as one multiplier pair of
    the parallel architecture does: it reads and writes vf and s1 of
    column i and wg, c1 and M of column ib, and nothing else.
    ibar(., N) is a bijection of the columns, so in each loop every column
    is read and written by exactly one lane, no lane sees another lane's
    new values -- every head is read before its lane overwrites it -- and
    the in-place update equals one from a pre-loop copy.  Within a lane
    every old value is read before it is overwritten.

    With ``ctr`` the lane is charged one mul per nonzero lane scaled and
    one mul and one add per nonzero lane merged in, as a coefficient-wise
    update would be, e = alpha^0 included, merged or not; e is never
    zero (w's head starts at alpha^0 and a replacement shifts in a v whose
    head d is nonzero), so that is weight(vf) muls in inverse-free mode.
    The counts are ``GF.weight`` reads and are made only when ``ctr`` is
    passed.  A scale by alpha^0 is never made.  Each division-mode update
    adds one to ``state.invs``, with or without ``ctr``.
    """
    fld = code.fld
    vf, wg, s1, c1, M = state.vf, state.wg, state.s1, state.c1, state.M
    log, lane, lb = fld.log, fld.q - 1, fld.lane_bits
    scale, merge, weight, inv_chain, counted = fld.scale, fld.merge, fld.weight, fld.inv_chain, ctr is not None
    inverse_free = state.mode == INVERSE_FREE
    for N, lanes, keep in gate_table(code).loop[state.N :]:
        yield
        muls = adds = 0
        for i, ib, l in lanes:
            x, y = vf[i], wg[ib]
            di = log[x & lane] if s1[i] <= l else ZERO
            e = log[y & lane] if inverse_free else 0  # division leaves f unscaled
            if di == ZERO:
                new = scale(x, e) if e else x
            elif e:
                new = merge(x, e, y, di)
            else:
                new = x ^ scale(y, di)
            if counted:
                if inverse_free:
                    muls += weight(x)  # e is never zero
                if di != ZERO:
                    k = weight(y)
                    muls += k
                    adds += k
            vf[i] = new >> lb  # mod Z^N: the head retires
            if di != ZERO and s1[i] < l - c1[ib]:
                if not inverse_free:
                    x = scale(x, inv_chain(di, ctr))
                    state.invs += 1
                    if counted:
                        muls += weight(x)
                # the scale charges every lane; ``keep`` then clears v's m
                # lane, which is w's m+1 in frame N+1
                wg[ib] = x & keep
                M[ib] = N
                s1[i], c1[ib] = l - c1[ib], l - s1[i]
            else:
                wg[ib] = y & keep
        if counted:
            ctr.muls += muls
            ctr.adds += adds
        state.N = N + 1
    yield


def state_record(state: BmsState, code: CodeSpec) -> dict:
    """One dump record: per-i control values, the Step-1 values at the
    current N, and the (exponent, log) lists of the nonzero coefficients,
    lanes mapped back to exponents: v and w at lane + N below lane m+1-N,
    f and g at lane - (m+1-N) from it, and the shared lane g's before the
    last loop and w's head after it.  Each word is unpacked once.  The
    ``--dump-state`` and ``--boundary-dumps`` files hold these."""
    d, e = discrepancies(state, code)
    fld, N = code.fld, state.N
    log, unpack, lb, split = fld.log, fld.unpack, fld.lane_bits, code.m + 1 - N

    def halves(words: list[int], top: int) -> tuple[list[list], list[list]]:
        # per word, the nonzero lanes below top as v (or w) and those from
        # top as f (or g), lowest lane first
        low, high = [], []
        for x in words:
            lanes = unpack(x, -(-x.bit_length() // lb))
            low.append([(k, log[u]) for k, u in enumerate(lanes[:top], N) if u])
            high.append([(k, log[u]) for k, u in enumerate(lanes[top:], top - split) if u])
        return low, high

    v, f = halves(state.vf, split)
    w, g = halves(state.wg, split or 1)  # after the last loop lane 0 is w's head
    return {"N": N, "s1": state.s1[:], "c1": state.c1[:], "d": d, "e": e, "f": f, "g": g, "v": v, "w": w}


def run(
    code: CodeSpec,
    synd: dict[Mono, int],
    mode: str,
    ctr: OpCounter | None = None,
    record: bool = False,
) -> tuple[BmsState, list[dict]]:
    """Run loops N = 0..m.  With ``record`` the returned list holds one
    record per N plus the final state."""
    state = init_state(code, synd, mode)
    records: list[dict] = []
    for _ in loops(state, code, ctr):
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
    stray = zp & ~(code.table(_support, order)[1] << offset * lb)
    if stray:
        raise AssertionError(f"coefficients outside the monomial support: {dict(fld.terms(stray))}")
    return zp >> offset * lb, order


def extract_locators(state: BmsState, code: CodeSpec) -> LocatorOutput:
    """F, G, their leads and the w heads e^(i) off the state at any N: f
    and g from lane m+1-N, w's head at lane 0, which G leaves out (after
    the last loop it is the shared lane, e_{m+1}, not g's 0).  G^(i) was
    last replaced in loop M = M^(i) by lane j = ibar(i, M), which left
    c1^(i) = l^(j) - s1^(j) as it stood then: its label is (l^(j) - c1^(i),
    j) with l^(j) read at M."""
    fld, gates = code.fld, gate_table(code)
    log, lane = fld.log, fld.q - 1
    split = (code.m + 1 - state.N) * fld.lane_bits
    F, G, lead, head = [], [], [], []
    for i, M in enumerate(state.M):
        f, y = state.vf[i] >> split, state.wg[i]
        F.append(extract_poly(code, f, (state.s1[i], i)))
        if not f & lane:
            raise AssertionError(f"leading coefficient of F^({i}) must stay nonzero")
        lead.append(log[f & lane])
        head.append(log[y & lane])
        if M < 0:  # g has never been replaced, so it is still zero
            G.append((0, -1))
        else:
            j = gates.ibar[M][i]
            G.append(extract_poly(code, (y & ~lane) >> split, (gates.l1[M][j] - state.c1[i], j), state.N - M))
    return LocatorOutput(F, G, lead, head, state.mode)


def _delta(code: CodeSpec, s1: tuple[int, ...]) -> tuple[tuple[Mono, ...], int | None]:
    """Delta of the basis degrees s1, the ring monomials with n1 < s1^(n2),
    and, when Delta is the generic footprint (the first |Delta| monomials
    of the basis), the top pole order m - max o(Delta) of the columns F^(i)
    its syndromes check, else None; read as ``gate_table(code).delta[s1]``."""
    cv = code.curve
    bound = max(cv.pole_order((s, i)) for i, s in enumerate(s1))
    delta = tuple(n for n, _ in code.table(_support, bound)[0] if n[0] < s1[n[1]])
    generic = delta and list(delta) == code.basis[: len(delta)]
    return delta, code.m - cv.pole_order(delta[-1]) if generic else None


def delta_set(code: CodeSpec, s1: list[int]) -> list[Mono]:
    """Footprint below the basis degrees: ring monomials with n1 < s1^(n2)."""
    return list(gate_table(code).delta[tuple(s1)][0])
