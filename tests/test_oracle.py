import itertools
import random

import pytest

from agbms import CodeSpec, bms, linalg, oracle
from agbms.gf import ZERO
from conftest import (
    AS_FIELDS,
    artin_schreier_codes,
    groebner_la,
    ideal_membership,
    poly_degree,
    random_pattern,
    reference_footprint,
    reference_rank,
)


def test_m_t_examples(elliptic, klein, hermitian):
    assert oracle.m_t(hermitian, 6) == 10
    assert oracle.m_t(elliptic, 1) == 0
    for code in (elliptic, klein, hermitian):
        g = code.curve.genus
        for t in range(g + 1, g + 6):
            assert oracle.m_t(code, t) == t + g - 1
    with pytest.raises(ValueError):
        oracle.m_t(elliptic, 0)


def test_single_point_generic(elliptic):
    for j in (0, 5, 17):
        rep = oracle.is_generic(elliptic, [j])
        assert rep.is_generic and rep.m_t == 0 and rep.delta_set == [(0, 0)]


def test_goldens_generic(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    for code, (locs, _, _) in [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]:
        rep = oracle.is_generic(code, locs)
        assert rep.is_generic
        assert rep.delta_set == code.curve.phi(0, code.curve.a, rep.m_t)


def non_generic_pair(code):
    for j1 in range(code.n):
        for j2 in range(j1 + 1, code.n):
            if not oracle.is_generic(code, [j1, j2]).is_generic:
                return [j1, j2]
    raise AssertionError("no non-generic pair")


def nullspace_vector(field, m):
    """One nonzero kernel vector of m, or None when the kernel is trivial."""
    red, pivots = linalg.rref(field, m)
    free = [c for c in range(len(m[0])) if c not in pivots]
    if not free:
        return None
    x = [ZERO] * len(m[0])
    x[free[0]] = 0  # alpha^0 = 1
    for r, c in enumerate(pivots):
        x[c] = red[r][free[0]]  # char 2: -v = v
    return x


def test_non_generic_dependency_gives_ideal_member(elliptic):
    locs = non_generic_pair(elliptic)
    rep = oracle.is_generic(elliptic, locs)
    assert not rep.is_generic
    assert rep.delta_set != elliptic.curve.phi(0, 2, rep.m_t)
    # the column dependency of the evaluation matrix is a polynomial in I(E)
    monos = elliptic.curve.phi(0, 2, rep.m_t)
    mat = [
        [elliptic.curve.eval_monomial(elliptic.fld, n, elliptic.points[j]) for n in monos]
        for j in locs
    ]
    vec = nullspace_vector(elliptic.fld, mat)
    assert vec is not None
    f = {n: c for n, c in zip(monos, vec) if c != ZERO}
    assert f and ideal_membership(f, elliptic, locs)
    assert elliptic.curve.pole_order(poly_degree(elliptic.curve, f)) <= rep.m_t


def test_groebner_la_vanishes(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    for code, (locs, _, _) in [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]:
        gb = groebner_la(code, locs)
        assert len(gb) == code.curve.a
        for i, f in enumerate(gb):
            assert ideal_membership(f, code, locs)
            assert poly_degree(code.curve, f)[1] == i


def test_groebner_la_degree_bound(elliptic, klein, hermitian):
    # o(f^(i)) <= t+g-1+a on generic patterns, except for columns whose
    # minimal monomial already exceeds that (possible when t <= g)
    rng = random.Random(13)
    for code in (elliptic, klein, hermitian):
        cv, g = code.curve, code.curve.genus
        for _ in range(8):
            t = rng.randint(1, code.t_generic)
            locs, _ = random_pattern(code, t, rng)
            if not oracle.is_generic(code, locs).is_generic:
                continue
            gb = groebner_la(code, locs)
            for i, f in enumerate(gb):
                bound = max(t + g - 1 + cv.a, cv.pole_order(cv.basis_start(i)))
                assert cv.pole_order(poly_degree(cv, f)) <= bound


def test_groebner_la_matches_bms_delta(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    for code, (locs, vals, recv) in [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]:
        gb = groebner_la(code, locs)
        st, _ = bms.run(code, code.syndromes(recv), bms.INVERSE_FREE)
        la_s1 = [poly_degree(code.curve, f)[0] for f in gb]
        assert st.s1 == la_s1
        assert bms.delta_set(code, st.s1) == oracle.is_generic(code, locs).delta_set


def test_groebner_la_rejects_non_generic(elliptic):
    locs = non_generic_pair(elliptic)
    with pytest.raises(ValueError):
        groebner_la(elliptic, locs)


def test_ideal_membership_trivial(elliptic):
    assert ideal_membership({}, elliptic, [0, 1, 2])
    assert not ideal_membership({(0, 0): 5}, elliptic, [0])


def test_footprint_size(elliptic, klein):
    rng = random.Random(19)
    for code in (elliptic, klein):
        for _ in range(10):
            t = rng.randint(1, 4)
            locs, _ = random_pattern(code, t, rng)
            assert len(oracle.footprint(code, locs)) == t


def test_generic_ratio_t1(elliptic):
    rep = oracle.generic_ratio(elliptic, 1, 50, seed=1)
    assert rep["estimate"] == 1.0


def test_generic_ratio_deterministic(klein):
    a = oracle.generic_ratio(klein, 3, 120, seed=42)
    b = oracle.generic_ratio(klein, 3, 120, seed=42)
    assert a == b
    c = oracle.generic_ratio(klein, 3, 120, seed=43)
    assert c["seed"] != a["seed"]


def test_generic_ratio_ballpark(elliptic):
    rep = oracle.generic_ratio(elliptic, 3, 400, seed=7)
    assert abs(rep["estimate"] - 15 / 16) < 0.08


def test_generic_ratio_pinned(elliptic, klein):
    # seeded results, pinned: the unused value draws still advance the
    # location stream, so a change in their range moves the hits; a single
    # trial is accepted, none is refused
    assert [oracle.generic_ratio(klein, 3, 1, seed=s)["hits"] for s in range(4)] == [1, 0, 1, 1]
    assert oracle.generic_ratio(klein, 3, 1, seed=1)["estimate"] == 0.0
    rep = oracle.generic_ratio(klein, 3, 120, seed=42)
    assert (rep["trials"], rep["hits"], rep["estimate"], rep["heuristic"]) == (120, 105, 0.875, 0.875)
    assert oracle.generic_ratio(elliptic, 3, 120, seed=42)["hits"] == 113
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        oracle.generic_ratio(elliptic, 3, 0, seed=1)


@pytest.mark.parametrize("t", [0, 25])
def test_generic_ratio_rejects_weight_out_of_range(elliptic, t):
    # n = 24: the message the cli gives for --t, from the same check
    with pytest.raises(ValueError, match=rf"^t={t} outside the accepted range \[1, 24\]$"):
        oracle.generic_ratio(elliptic, t, 10, seed=1)


def rank_verdict(code, locs):
    """Genericity the long way: the t x t evaluation matrix of the first t
    non-gaps has rank t under ``reference_rref``."""
    monos = code.curve.phi(0, code.curve.a, oracle.m_t(code, len(locs)))
    mat = [[code.curve.eval_monomial(code.fld, n, code.points[j]) for n in monos] for j in locs]
    return reference_rank(code.fld, mat) == len(locs)


def test_footprint_matches_reference_every_small_set(elliptic, klein):
    # every location set of weight <= 3 on n = 24 and n = 23: the footprint
    # is the greedy one, and the genericity verdict read off it is the rank
    # test's
    for code in (elliptic, klein):
        verdicts = set()
        for t in (1, 2, 3):
            for locs in itertools.combinations(range(code.n), t):
                locs = list(locs)
                delta = reference_footprint(code, locs)
                assert oracle.footprint(code, locs) == delta
                rep = oracle.is_generic(code, locs)
                assert (rep.is_generic, rep.m_t, rep.delta_set) == (rank_verdict(code, locs), oracle.m_t(code, t), delta)
                verdicts.add(rep.is_generic)
        assert verdicts == {True, False}


def test_is_generic_runs_one_rref(rref_calls, elliptic, klein, hermitian):
    rng = random.Random(28)
    for code in (elliptic, klein, hermitian):
        for t in range(1, code.t_generic + 3):
            for _ in range(5):
                rref_calls.clear()
                oracle.is_generic(code, rng.sample(range(code.n), t))
                assert len(rref_calls) == 1


def test_footprint_matches_reference_seeded(elliptic, klein, hermitian, elliptic_gf512):
    hermitian_m18 = CodeSpec(hermitian.curve, hermitian.fld, m=18)
    rng = random.Random(25)
    for code in (elliptic, klein, hermitian, elliptic_gf512, hermitian_m18):
        for t in range(1, 3 * code.t_generic + 5):
            for _ in range(4):
                locs = rng.sample(range(code.n), t)
                assert oracle.footprint(code, locs) == reference_footprint(code, locs)


@pytest.mark.parametrize("q", sorted(AS_FIELDS))
def test_footprint_matches_reference_artin_schreier(q):
    # seeded y^a + c*y = f(x) curves, one seeded location set per weight 1..n
    codes = artin_schreier_codes(q, seed=q)
    assert codes
    rng = random.Random(q)
    for code in codes:
        for t in range(1, code.n + 1):
            locs = rng.sample(range(code.n), t)
            assert oracle.footprint(code, locs) == reference_footprint(code, locs)


def test_repeated_locations_raise(elliptic, klein):
    # j - n names point j again: only the elimination sees that repeat
    for code in (elliptic, klein):
        for locs, msg in [([5, 5], "^duplicate locations$"), ([5, 9, 5], "^duplicate locations$"),
                          ([5, 5 - code.n], "repeat a point$")]:
            for check in (oracle.footprint, oracle.is_generic):
                with pytest.raises(ValueError, match=msg):
                    check(code, locs)
