"""Parallel Berlekamp-Massey-Sakata iteration, inverse-free and division forms.

The state carries, per column index i in [0, a): the minimal degree s^(i)
(stored as its first component, the second is always i), the auxiliary span
c^(i), and four polynomials in a formal variable Z -- f (locator
coefficients), g (auxiliary), v (syndrome combination whose coefficient at
Z^N is the discrepancy), w (auxiliary for v).  One ``step`` consumes loop
index N: discrepancies are read off v and w heads, then every column is
updated simultaneously from the pre-step snapshot, pairing column i with
ibar(i, N).

Inverse-free mode scales instead of dividing (f <- e*f - d*g) and performs
no field inversions at all; division mode is the classical parallel form
(f <- f - d*g with the replaced g, w scaled by d^-1) kept as a cross-check
oracle and as the update rule of the serial architecture.

Z-polynomials are dicts exponent -> log coefficient.  v and w are windowed:
exponents above the initial syndrome top are dead -- they are never read as
discrepancies and never feed a lower exponent, since all updates combine
equal exponents -- and dropping them keeps the software state identical to
what the shift-register architectures hold.  The one exception is the w
head (see _prune_w), which at the last loop carries e_{m+1} for the
error-value formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .agcode import CodeSpec
from .curve import BiPoly, Mono
from .gf import ZERO, OpCounter

ZPoly = dict[int, int]

INVERSE_FREE = "inverse_free"
DIVISION = "division"


def _zscale(code: CodeSpec, c: int, p: ZPoly, ctr: OpCounter | None) -> ZPoly:
    if c == ZERO:
        return {}
    return {h: code.fld.mul(c, v, ctr) for h, v in p.items()}


def _zadd(code: CodeSpec, p: ZPoly, q: ZPoly, ctr: OpCounter | None) -> ZPoly:
    """p + q; ``ctr`` is charged one add per coefficient of q merged in."""
    out = dict(p)
    for h, v in q.items():
        s = code.fld.add(out.get(h, ZERO), v, ctr)
        if s == ZERO:
            out.pop(h, None)
        else:
            out[h] = s
    return out


def _zshift(p: ZPoly) -> ZPoly:
    return {h + 1: v for h, v in p.items()}


def _prune(p: ZPoly, top: int) -> ZPoly:
    return {h: v for h, v in p.items() if h <= top}


def _prune_w(p: ZPoly, top: int, head: int) -> ZPoly:
    """w keeps exponents up to the syndrome top plus its own head.

    Entries above the top are dead weight (they feed only equal-or-higher
    exponents and are never read as discrepancies), except the head
    w_{N,N}: at the final loop that is e_{m+1}, which the error-value
    formula consumes, so it survives the cut.  The architectures implement
    the same rule as their zero-setting with a final-loop exception.
    """
    return {h: v for h, v in p.items() if h <= top or h == head}


@dataclass
class BmsState:
    mode: str
    N: int
    top: int  # largest syndrome exponent fed to v at N = 0
    s1: list[int]
    c1: list[int]
    f: list[ZPoly]
    g: list[ZPoly]
    v: list[ZPoly]
    w: list[ZPoly]
    d: list[int] = field(default_factory=list)  # discrepancies of the last step
    e: list[int] = field(default_factory=list)  # head coefficients of the last step
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
    s_final: list[Mono]
    c_final: list[Mono]
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
        vi: ZPoly = {}
        for l in cv.phi(i, a, top):
            if l not in synd:
                raise ValueError(f"syndrome table missing u_{l}")
            if synd[l] != ZERO:
                vi[cv.pole_order(l)] = synd[l]
        v.append(vi)
    s1 = [cv.basis_start(i)[0] for i in range(a)]
    return BmsState(
        mode=mode,
        N=0,
        top=top,
        s1=s1,
        c1=[x - 1 for x in s1],
        f=[{0: 0} for _ in range(a)],
        g=[{} for _ in range(a)],
        v=v,
        w=[{0: 0} for _ in range(a)],
        M=[None] * a,
        tlabel=[None] * a,
    )


def step(state: BmsState, code: CodeSpec, ctr: OpCounter | None = None) -> None:
    """One N-loop: Step 1 (discrepancies) + Step 2 (simultaneous update)."""
    cv = code.curve
    fld = code.fld
    a = cv.a
    N = state.N

    ltab = [cv.l_of(i, N) for i in range(a)]
    d = [ZERO] * a
    e = [ZERO] * a
    for i in range(a):
        l = ltab[i]
        if l is not None and state.s1[i] <= l[0]:
            d[i] = state.v[i].get(N, ZERO)
        e[i] = state.w[i].get(N, ZERO)
    state.d = d
    state.e = e

    old = state
    new_s1 = old.s1[:]
    new_c1 = old.c1[:]
    new_f: list[ZPoly] = [{}] * a
    new_g: list[ZPoly] = [{}] * a
    new_v: list[ZPoly] = [{}] * a
    new_w: list[ZPoly] = [{}] * a
    new_M = old.M[:]
    new_t = old.tlabel[:]

    for i in range(a):
        ib = cv.ibar(i, N)
        l = ltab[i]
        preserved = d[i] == ZERO or (state.s1[i] >= l[0] - state.c1[ib])

        if state.mode == INVERSE_FREE:
            new_f[i] = _zadd(
                code, _zscale(code, e[ib], old.f[i], ctr), _zscale(code, d[i], old.g[ib], ctr), ctr
            )
            vv = _zadd(code, _zscale(code, e[ib], old.v[i], ctr), _zscale(code, d[i], old.w[ib], ctr), ctr)
        else:
            new_f[i] = _zadd(code, old.f[i], _zscale(code, d[i], old.g[ib], ctr), ctr)
            vv = _zadd(code, old.v[i], _zscale(code, d[i], old.w[ib], ctr), ctr)
        vv.pop(N, None)  # mod Z^N: the consumed head is deleted explicitly
        new_v[i] = _prune(vv, old.top)

        if preserved:
            new_g[ib] = _zshift(old.g[ib])
            new_w[ib] = _prune_w(_zshift(old.w[ib]), old.top, N + 1)
        else:
            assert d[i] != ZERO
            new_s1[i] = l[0] - old.c1[ib]
            new_c1[ib] = l[0] - old.s1[i]
            if state.mode == INVERSE_FREE:
                new_g[ib] = _zshift(old.f[i])
                new_w[ib] = _prune_w(_zshift(old.v[i]), old.top, N + 1)
            else:
                dinv, _ = fld.inv_chain(d[i], ctr)
                new_g[ib] = _zscale(code, dinv, _zshift(old.f[i]), ctr)
                new_w[ib] = _prune_w(_zscale(code, dinv, _zshift(old.v[i]), ctr), old.top, N + 1)
            new_M[ib] = N
            new_t[ib] = (old.s1[i], i)

    state.s1 = new_s1
    state.c1 = new_c1
    state.f = new_f
    state.g = new_g
    state.v = new_v
    state.w = new_w
    state.M = new_M
    state.tlabel = new_t
    state.N = N + 1


def peek_discrepancies(state: BmsState, code: CodeSpec) -> tuple[list[int], list[int]]:
    """Step-1 values at the current N without mutating the state."""
    cv = code.curve
    d = [ZERO] * cv.a
    e = [ZERO] * cv.a
    for i in range(cv.a):
        l = cv.l_of(i, state.N)
        if l is not None and state.s1[i] <= l[0]:
            d[i] = state.v[i].get(state.N, ZERO)
        e[i] = state.w[i].get(state.N, ZERO)
    return d, e


def state_record(state: BmsState, code: CodeSpec, d: list[int], e: list[int]) -> dict:
    """One dump record: per-i control values plus (exponent, log) coefficient
    lists, the format trace diffing and the architecture checks consume."""
    return {
        "N": state.N,
        "s1": state.s1[:],
        "c1": state.c1[:],
        "d": d[:],
        "e": e[:],
        "f": [sorted(p.items()) for p in state.f],
        "g": [sorted(p.items()) for p in state.g],
        "v": [sorted(p.items()) for p in state.v],
        "w": [sorted(p.items()) for p in state.w],
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
            d, e = peek_discrepancies(state, code)
            records.append(state_record(state, code, d, e))
        step(state, code, ctr)
    if record:
        d, e = peek_discrepancies(state, code)
        records.append(state_record(state, code, d, e))
    return state, records


def extract_poly(code: CodeSpec, zp: ZPoly, deg: Mono, offset: int = 0) -> BiPoly:
    """Read a bivariate polynomial out of a Z-polynomial.

    The coefficient of monomial n sits at exponent offset + o(deg) - o(n);
    offset is 0 for f and N - M for g.  Any nonzero coefficient at an
    exponent that corresponds to no basis monomial would mean the update
    arithmetic leaked outside the function ring, so that is asserted.
    """
    cv = code.curve
    odeg = cv.pole_order(deg)
    out: BiPoly = {}
    used = {offset + odeg - cv.pole_order(n) for n in cv.phi(0, cv.a, odeg)}
    for n in cv.phi(0, cv.a, odeg):
        c = zp.get(offset + odeg - cv.pole_order(n), ZERO)
        if c != ZERO:
            out[n] = c
    stray = {h: c for h, c in zp.items() if c != ZERO and h not in used}
    assert not stray, f"coefficients outside the monomial support: {stray}"
    return out


def extract_locators(state: BmsState, code: CodeSpec) -> LocatorOutput:
    cv = code.curve
    a = cv.a
    F: list[BiPoly] = []
    G: list[BiPoly] = []
    lead: list[int] = []
    head: list[int] = []
    s_final: list[Mono] = []
    c_final: list[Mono] = []
    for i in range(a):
        s = (state.s1[i], i)
        s_final.append(s)
        c_final.append((state.c1[i], i))
        F.append(extract_poly(code, state.f[i], s))
        lf = state.f[i].get(0, ZERO)
        assert lf != ZERO, "leading coefficient of F must stay nonzero"
        lead.append(lf)
        head.append(state.w[i].get(state.N, ZERO))
        if not state.g[i]:
            G.append({})
        else:
            assert state.M[i] is not None and state.tlabel[i] is not None
            G.append(extract_poly(code, state.g[i], state.tlabel[i], offset=state.N - state.M[i]))
    return LocatorOutput(F, G, lead, head, s_final, c_final, state.mode)


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
