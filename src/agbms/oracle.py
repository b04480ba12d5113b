"""Ground-truth checks the toolkit runs: genericity, footprint, ratios.

Everything here is independent of the BMS iteration: the footprint as the
pivots of one elimination (t + g evaluation columns suffice for t distinct
points, by Riemann-Roch), genericity read off that footprint, the error-weight
range check the CLI shares, and the seeded random experiment estimating
the generic fraction (q-1)/q.  The linear-algebra Groebner basis, ideal
membership by evaluation and the Eq.-(3) discrepancy, which only the tests
run, are references in ``tests/conftest.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .agcode import CodeSpec
from .curve import Mono


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


def footprint(code: CodeSpec, locs: list[int]) -> list[Mono]:
    """Exact delta set of I(E): the pivot columns of one elimination.

    The columns are the first t + g ring monomials in pole order, evaluated
    at the t = |E| points, and a monomial joins the footprint when its
    column is independent of all smaller ones: ``rref``'s pivots.  For
    t >= 1 the (t + g)-th non-gap is 2g - 1 + t, so by Riemann-Roch
    L((2g - 1 + t) P_inf) maps onto the values at any t distinct points
    and exactly t columns pivot.  Repeated locations raise ``ValueError``,
    as do fewer pivots (two indices naming one point, such as j and j - n).
    """
    t = len(locs)
    if len(set(locs)) != t:
        raise ValueError("duplicate locations")
    if t == 0:
        return []
    monos = code.curve.phi(0, code.curve.a, m_t(code, t + code.curve.genus))
    rows = [code.eval_row(n) for n in monos]
    pivots = linalg.rref(code.fld, [[row[j] for row in rows] for j in locs])[1]
    if len(pivots) != t:
        raise ValueError(f"{len(pivots)} of {t} columns pivot: the locations repeat a point")
    return [monos[c] for c in pivots]


def is_generic(code: CodeSpec, locs: list[int]) -> GenericityReport:
    """Generic iff the footprint is the first t monomials Phi(0, a, m_t).

    m_t is the t-th non-gap, so Phi(0, a, m_t) holds exactly t monomials,
    and the footprint is those exactly when the pivots of ``footprint``'s
    one elimination are its first t columns: when the t x t evaluation
    matrix of the first t non-gaps has rank t.  Raises ``ValueError`` for
    t = 0 and, from ``footprint``, for repeated locations.
    """
    mt = m_t(code, len(locs))
    delta = footprint(code, locs)
    return GenericityReport(delta == code.curve.phi(0, code.curve.a, mt), mt, delta)


def generic_ratio(code: CodeSpec, t: int, trials: int, seed: int) -> dict:
    """Seeded estimate of the generic fraction over random t-error patterns.

    Locations decide genericity; values are drawn anyway so the same stream
    can feed decoding pipelines.  Returns a report dict with the estimate
    and, under ``heuristic``, the (q-1)/q rule of thumb: it is not the exact
    generic fraction (exact enumeration gives 0.9565 on the elliptic GF(16)
    code at t = 2, against 0.9375).
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
        "heuristic": (q - 1) / q,
        "seed": seed,
        "t": t,
    }
