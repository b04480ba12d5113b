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

Z-polynomials are Z-arrays: lists of length top+2 indexed by exponent, ZERO
where a coefficient is absent -- the same window as the inverse-free
architecture's (m+2)-register v/f line and (m+3)-register w/g line.  Every
live exponent fits: f and g stay at or below N, v holds [N, top], and w
holds [N, top] plus, after the last loop, its head at top+1 (e_{m+1}, which
the error-value formula consumes).  Exponents above top are dead otherwise
-- they are never read as discrepancies and never feed a lower exponent,
since all updates combine equal exponents -- so the Z-shift drops the last
entry and w's top+1 entry is cleared on every loop but the last, exactly
as the architectures zero-set their w/g lines.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .agcode import CodeSpec
from .curve import BiPoly, Mono
from .gf import GF, ZERO, OpCounter

ZArray = list[int]

INVERSE_FREE = "inverse_free"
DIVISION = "division"


def _lincomb(
    fld: GF, ctr: OpCounter | None, a: int | None, p: ZArray, b: int = ZERO, q: Sequence[int] = ()
) -> ZArray:
    """a*p + b*q, with a = None leaving p unscaled.

    ``ctr`` is charged one mul per nonzero coefficient scaled and one add
    per nonzero coefficient of b*q merged in.
    """
    qm1 = fld.q - 1
    muls = 0
    if a is None:
        out = p[:]
    elif a == ZERO:
        out = [ZERO] * len(p)
    else:
        out = [ZERO if x == ZERO else (a + x) % qm1 for x in p]
        muls = len(p) - p.count(ZERO)
    merged = 0
    if b != ZERO:
        exp, log = fld.exp, fld.log
        for h, y in enumerate(q):
            if y != ZERO:
                y = (b + y) % qm1
                x = out[h]
                out[h] = y if x == ZERO else log[exp[x] ^ exp[y]]
                merged += 1
    if ctr is not None:
        ctr.muls += muls + merged
        ctr.adds += merged
    return out


def _zshift(p: ZArray) -> ZArray:
    return [ZERO] + p[:-1]


@dataclass
class BmsState:
    mode: str
    N: int
    top: int  # largest syndrome exponent fed to v at N = 0
    s1: list[int]
    c1: list[int]
    f: list[ZArray]
    g: list[ZArray]
    v: list[ZArray]
    w: list[ZArray]
    M: list[int | None] = field(default_factory=list)  # step of last g replacement
    tlabel: list[Mono | None] = field(default_factory=list)  # degree label of g


@dataclass
class LocatorOutput:
    """Extracted bivariate basis: candidates F^(i), auxiliaries G^(i),
    their leading coefficients, and the head values e^(i) used by the
    error-value formula."""

    F: list[BiPoly]
    G: list[BiPoly]
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
    cv = code.curve
    if top is None:
        top = code.m
    a = cv.a
    v = []
    for i in range(a):
        vi = [ZERO] * (top + 2)
        for l in cv.phi(i, a, top):
            if l not in synd:
                raise ValueError(f"syndrome table missing u_{l}")
            vi[cv.pole_order(l)] = synd[l]
        v.append(vi)
    s1 = [cv.basis_start(i)[0] for i in range(a)]
    return BmsState(
        mode=mode,
        N=0,
        top=top,
        s1=s1,
        c1=[x - 1 for x in s1],
        f=[[0] + [ZERO] * (top + 1) for _ in range(a)],
        g=[[ZERO] * (top + 2) for _ in range(a)],
        v=v,
        w=[[0] + [ZERO] * (top + 1) for _ in range(a)],
        M=[None] * a,
        tlabel=[None] * a,
    )


def discrepancies(state: BmsState, code: CodeSpec) -> tuple[list[int], list[int]]:
    """Step 1 at the current N: the discrepancies d^(i) (v heads, zero
    where column i has no l^(i) or s1^(i) exceeds it) and the w heads e^(i)."""
    cv = code.curve
    N = state.N
    d = [ZERO] * cv.a
    for i in range(cv.a):
        l = cv.l_of(i, N)
        if l is not None and state.s1[i] <= l[0]:
            d[i] = state.v[i][N]
    return d, [w[N] for w in state.w]


def step(state: BmsState, code: CodeSpec, ctr: OpCounter | None = None) -> None:
    """One N-loop: Step 1 (discrepancies), then Step 2 lane by lane, in place.

    Lane i pairs column i with ib = ibar(i, N), as one multiplier pair of
    the parallel architecture does: it reads and writes f, v and s1 of
    column i and g, w, c1, M and tlabel of column ib, and nothing else.
    ibar(., N) is a bijection of the columns, so in each loop every column
    is read and written by exactly one lane, no lane sees another lane's
    new values, and the in-place update equals one from a pre-step copy.
    Within a lane every old value is read before it is overwritten.
    """
    cv = code.curve
    fld = code.fld
    N, top = state.N, state.top
    f, g, v, w, s1, c1 = state.f, state.g, state.v, state.w, state.s1, state.c1
    inverse_free = state.mode == INVERSE_FREE
    d, e = discrepancies(state, code)
    for i in range(cv.a):
        ib = cv.ibar(i, N)
        fi, vi = f[i], v[i]
        scale = e[ib] if inverse_free else None
        f[i] = _lincomb(fld, ctr, scale, fi, d[i], g[ib])
        v[i] = _lincomb(fld, ctr, scale, vi, d[i], w[ib])
        v[i][N] = ZERO  # mod Z^N: the consumed head is deleted explicitly
        # a nonzero discrepancy implies that l^(i) exists
        if d[i] != ZERO and s1[i] < (l1 := cv.l_of(i, N)[0]) - c1[ib]:
            dinv = None if inverse_free else fld.inv_chain(d[i], ctr)
            # f and v are ZERO at top+1, so scaling before the shift charges
            # the muls that scaling after it would
            g[ib] = _zshift(_lincomb(fld, ctr, dinv, fi))
            w[ib] = _zshift(_lincomb(fld, ctr, dinv, vi))
            state.M[ib], state.tlabel[ib] = N, (s1[i], i)
            s1[i], c1[ib] = l1 - c1[ib], l1 - s1[i]
        else:
            g[ib] = _zshift(g[ib])
            w[ib] = _zshift(w[ib])
        if N != top:
            w[ib][top + 1] = ZERO  # w keeps its top+1 head only after the last loop
    state.N = N + 1


def state_record(state: BmsState, code: CodeSpec) -> dict:
    """One dump record: per-i control values, the Step-1 values at the
    current N, and the (exponent, log) lists of the nonzero coefficients.
    The ``--dump-state`` and ``--boundary-dumps`` files hold these."""
    d, e = discrepancies(state, code)
    return {
        "N": state.N,
        "s1": state.s1[:],
        "c1": state.c1[:],
        "d": d,
        "e": e,
        **{
            key: [[hc for hc in enumerate(p) if hc[1] != ZERO] for p in getattr(state, key)]
            for key in ("f", "g", "v", "w")
        },
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


def extract_poly(code: CodeSpec, zp: ZArray, deg: Mono, offset: int = 0) -> BiPoly:
    """Read a bivariate polynomial out of a Z-array.

    The coefficient of monomial n sits at exponent offset + o(deg) - o(n);
    offset is 0 for f and N - M for g.  Any nonzero coefficient at an
    exponent that corresponds to no basis monomial would mean the update
    arithmetic leaked outside the function ring, so that raises
    AssertionError.
    """
    cv = code.curve
    odeg = cv.pole_order(deg)
    out: BiPoly = {}
    used = set()
    for n in cv.phi(0, cv.a, odeg):
        h = offset + odeg - cv.pole_order(n)
        used.add(h)
        if h < len(zp) and zp[h] != ZERO:
            out[n] = zp[h]
    stray = {h: c for h, c in enumerate(zp) if c != ZERO and h not in used}
    if stray:
        raise AssertionError(f"coefficients outside the monomial support: {stray}")
    return out


def extract_locators(state: BmsState, code: CodeSpec) -> LocatorOutput:
    F: list[BiPoly] = []
    G: list[BiPoly] = []
    lead: list[int] = []
    head: list[int] = []
    for i in range(code.curve.a):
        F.append(extract_poly(code, state.f[i], (state.s1[i], i)))
        if state.f[i][0] == ZERO:
            raise AssertionError(f"leading coefficient of F^({i}) must stay nonzero")
        lead.append(state.f[i][0])
        head.append(state.w[i][state.N])
        if state.M[i] is None:  # g has never been replaced, so it is still zero
            G.append({})
        else:
            G.append(extract_poly(code, state.g[i], state.tlabel[i], offset=state.N - state.M[i]))
    return LocatorOutput(F, G, lead, head, state.mode)


def delta_set(code: CodeSpec, s1: list[int]) -> list[Mono]:
    """Footprint below the basis degrees: ring monomials with n1 < s1^(n2)."""
    cv = code.curve
    bound = max(cv.pole_order((s1[i], i)) for i in range(cv.a))
    return [n for n in cv.phi(0, cv.a, bound) if n[0] < s1[n[1]]]


def discrepancy_direct(code: CodeSpec, F: BiPoly, synd: dict[Mono, int], l: Mono) -> int:
    """Eq.-(3) discrepancy of F at l, computed straight from the syndrome
    table (the independent oracle for the v-head values).

    Requires every shifted index n + l^(s2) - s in the table; a missing one
    raises, since silently treating it as zero would fake the check.
    """
    cv = code.curve
    fld = code.fld
    if not F:
        return ZERO
    s = cv.poly_degree(F)
    ls = cv.l_of(s[1], cv.pole_order(l))
    if ls is None or not (ls[0] >= s[0] and ls[1] >= s[1]):
        return ZERO
    acc = ZERO
    for n, c in F.items():
        idx = (n[0] + ls[0] - s[0], n[1] + ls[1] - s[1])
        if idx not in synd:
            raise ValueError(f"syndrome table does not cover index {idx}")
        acc = fld.add(acc, fld.mul(c, synd[idx]))
    return acc
