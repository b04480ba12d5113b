import random

import pytest

from agbms import bms, linalg, oracle
from agbms.gf import ZERO
from conftest import random_pattern


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
    vec = linalg.nullspace_vector(elliptic.fld, mat)
    assert vec is not None
    f = {n: c for n, c in zip(monos, vec) if c != ZERO}
    assert f and oracle.ideal_membership(f, elliptic, locs)
    assert elliptic.curve.poly_order(f) <= rep.m_t


def test_groebner_la_vanishes(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    for code, (locs, _, _) in [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]:
        gb = oracle.groebner_la(code, locs)
        assert len(gb) == code.curve.a
        for i, f in enumerate(gb):
            assert oracle.ideal_membership(f, code, locs)
            assert code.curve.poly_degree(f)[1] == i


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
            gb = oracle.groebner_la(code, locs)
            for i, f in enumerate(gb):
                bound = max(t + g - 1 + cv.a, cv.pole_order(cv.basis_start(i)))
                assert cv.poly_order(f) <= bound


def test_groebner_la_matches_bms_delta(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    for code, (locs, vals, recv) in [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]:
        gb = oracle.groebner_la(code, locs)
        st, _ = bms.run(code, code.syndromes(recv), bms.INVERSE_FREE)
        la_s1 = [code.curve.poly_degree(f)[0] for f in gb]
        assert st.s1 == la_s1
        assert bms.delta_set(code, st.s1) == oracle.is_generic(code, locs).delta_set


def test_groebner_la_rejects_non_generic(elliptic):
    locs = non_generic_pair(elliptic)
    with pytest.raises(ValueError):
        oracle.groebner_la(elliptic, locs)


def test_ideal_membership_trivial(elliptic):
    assert oracle.ideal_membership({}, elliptic, [0, 1, 2])
    assert not oracle.ideal_membership({(0, 0): 5}, elliptic, [0])


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


@pytest.mark.parametrize("t", [0, 25])
def test_generic_ratio_rejects_weight_out_of_range(elliptic, t):
    # n = 24: the message the cli gives for --t, from the same check
    with pytest.raises(ValueError, match=rf"^t={t} outside the accepted range \[1, 24\]$"):
        oracle.generic_ratio(elliptic, t, 10, seed=1)
