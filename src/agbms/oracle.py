"""Ground-truth checks: genericity, linear-algebra Groebner basis, ratios.

Everything here is test-side and independent of the BMS iteration: the
genericity determinant, the t x t solve for locator polynomials, brute-force
ideal membership by evaluation, the Eq.-(3) discrepancy straight from the
syndrome table, and the seeded random experiment estimating the generic
fraction (q-1)/q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .agcode import CodeSpec
from .curve import BiPoly, Mono
from .gf import ZERO


@dataclass
class GenericityReport:
    is_generic: bool
    m_t: int
    delta_set: list[Mono]


def check_weight(code: CodeSpec, t: int, generic: bool) -> None:
    """t must be the weight of an error pattern on ``code``, and at least 1
    where the pattern's genericity is tested (``m_t``)."""
    low = int(generic)
    if not low <= t <= code.n:
        raise ValueError(f"t={t} outside the accepted range [{low}, {code.n}]")


def m_t(code: CodeSpec, t: int) -> int:
    """Smallest m with dim L(m P_inf) = t, i.e. the t-th non-gap."""
    if t < 1:
        raise ValueError("t must be >= 1")
    count = 0
    m = -1
    while count < t:
        m += 1
        if code.curve.l_of(0, m) is not None:
            count += 1
    return m


def _eval_matrix(code: CodeSpec, monos: list[Mono], locs: list[int]) -> linalg.Matrix:
    return [
        [code.curve.eval_monomial(code.fld, n, code.points[j]) for n in monos] for j in locs
    ]


def footprint(code: CodeSpec, locs: list[int]) -> list[Mono]:
    """Exact delta set of I(E) by greedy rank growth over pole order.

    A monomial joins the footprint when its evaluation vector on E is
    independent of all smaller ones; exactly t = |E| monomials join.
    """
    cv = code.curve
    t = len(locs)
    delta: list[Mono] = []
    m = -1
    while len(delta) < t:
        m += 1
        n = cv.l_of(0, m)
        if n is None:
            continue
        trial = [
            [cv.eval_monomial(code.fld, nn, code.points[j]) for j in locs]
            for nn in delta + [n]
        ]
        if linalg.rank(code.fld, trial) == len(delta) + 1:
            delta.append(n)
    return delta


def is_generic(code: CodeSpec, locs: list[int]) -> GenericityReport:
    """Genericity via the t x t determinant on the first t non-gaps.

    m_t is the t-th non-gap, so Phi(0, a, m_t) holds exactly t monomials
    and the matrix is square.
    """
    t = len(locs)
    if len(set(locs)) != t:
        raise ValueError("duplicate locations")
    mt = m_t(code, t)
    monos = code.curve.phi(0, code.curve.a, mt)
    generic = linalg.det(code.fld, _eval_matrix(code, monos, locs)) != ZERO
    delta = footprint(code, locs)
    if generic != (delta == monos):
        raise AssertionError("determinant and footprint tests disagree")
    return GenericityReport(generic, mt, delta)


def groebner_la(code: CodeSpec, locs: list[int]) -> list[BiPoly]:
    """Groebner basis of I(E) for generic E by solving t x t linear systems.

    For each column i the minimal monomial s^(i) = (n1, i) outside the
    footprint Phi(a, m_t) is matched against the footprint monomials:
    f^(i) = z^(s) - sum f_l z^l with f^(i)(P) = 0 at every error point.
    """
    cv = code.curve
    t = len(locs)
    mt = m_t(code, t)
    monos = cv.phi(0, cv.a, mt)
    mat = _eval_matrix(code, monos, locs)
    out: list[BiPoly] = []
    for i in range(cv.a):
        in_col = sum(1 for n in monos if n[1] == i)
        n1 = cv.basis_start(i)[0] + in_col
        s = (n1, i)
        rhs = [code.curve.eval_monomial(code.fld, s, code.points[j]) for j in locs]
        sol = linalg.solve(code.fld, mat, rhs)
        if sol is None:
            raise ValueError("singular system: error pattern is not generic")
        poly: BiPoly = {s: 0}
        for n, c in zip(monos, sol):
            if c != ZERO:
                poly[n] = c  # char 2: subtraction is addition
        out.append(poly)
    return out


def ideal_membership(F: BiPoly, code: CodeSpec, locs: list[int]) -> bool:
    """True iff F vanishes at every listed point."""
    return all(
        code.curve.eval_poly(code.fld, F, code.points[j]) == ZERO for j in locs
    )


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


def generic_ratio(code: CodeSpec, t: int, trials: int, seed: int) -> dict:
    """Seeded estimate of the generic fraction over random t-error patterns.

    Locations decide genericity; values are drawn anyway so the same stream
    can feed decoding pipelines.  Returns a report dict with the estimate
    and the (q-1)/q reference value.
    """
    check_weight(code, t, generic=True)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    q = code.fld.q
    hits = 0
    for _ in range(trials):
        locs = rng.sample(range(code.n), t)
        _vals = [rng.randrange(q - 1) for _ in range(t)]
        if is_generic(code, locs).is_generic:
            hits += 1
    return {
        "trials": trials,
        "hits": hits,
        "estimate": hits / trials,
        "expected": (q - 1) / q,
        "seed": seed,
        "t": t,
    }
