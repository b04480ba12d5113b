"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured quantities (run with -s to see them)."""

import random
import time

import pytest

from agbms import CodeSpec, archsim, bms, decoder, oracle
from agbms.gf import GF, ZERO, OpCounter
from conftest import bipoly, full_syndromes_from_errors, ideal_membership, random_generic_pattern, random_pattern
from test_bms import (
    ELLIPTIC_F9,
    ELLIPTIC_G9,
    HERMITIAN_F25_0,
    KLEIN_F16,
    KLEIN_G16,
    check_theorem_suite,
)


def report(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_golden_elliptic(elliptic, elliptic_golden):
    locs, vals, recv = elliptic_golden
    t0 = time.monotonic()
    synd = elliptic.syndromes(recv)
    st, _ = bms.run(elliptic, synd, bms.INVERSE_FREE)
    out = bms.extract_locators(st, elliptic)
    assert [bipoly(elliptic, F) for F in out.F] == ELLIPTIC_F9
    assert [bipoly(elliptic, G) for G in out.G] == ELLIPTIC_G9
    found = decoder.chien_search(out, elliptic)
    assert found == sorted(locs)
    got_vals = decoder.error_values(found, out, elliptic)
    order = sorted(range(len(locs)), key=lambda k: locs[k])
    assert got_vals == [vals[k] for k in order] == [6, 8, 11]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"elliptic golden basis/locations/values exact in {elapsed:.3f}s")


def test_criterion_2_golden_klein(klein, klein_golden):
    locs, vals, recv = klein_golden
    t0 = time.monotonic()
    synd = klein.syndromes(recv)
    # serial architecture carries the division-mode iteration; its boundary
    # states are asserted against the reference inside the simulator
    trace = archsim.sim_serial(klein, synd)
    st, _ = bms.run(klein, synd, bms.DIVISION)
    out = bms.extract_locators(st, klein)
    Gs = [bipoly(klein, G) for G in out.G]
    assert [bipoly(klein, F) for F in out.F] == KLEIN_F16  # three locator polynomials verbatim
    # the three auxiliaries match verbatim as a set, including the zero one
    # (G_16^(1) = 0 in the published listing); this implementation indexes
    # them by the register they occupy, which pairs them with the F^(i)
    # the error-value formula needs
    assert sorted(map(sorted, (g.items() for g in Gs))) == sorted(
        map(sorted, (g.items() for g in KLEIN_G16))
    )
    assert {} in Gs
    assert Gs[0] == KLEIN_G16[0]
    res = decoder.decode(klein, recv, mode=bms.DIVISION)
    assert res.status == decoder.SUCCESS
    assert res.error_locs == sorted(locs)
    order = sorted(range(len(locs)), key=lambda k: locs[k])
    assert res.error_vals == [vals[k] for k in order]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, f"klein golden division/serial basis and error vector exact in {elapsed:.3f}s")


def test_criterion_3_golden_hermitian(hermitian, hermitian_golden):
    locs, vals, recv = hermitian_golden
    t0 = time.monotonic()
    st, _ = bms.run(hermitian, hermitian.syndromes(recv), bms.INVERSE_FREE)
    out = bms.extract_locators(st, hermitian)
    assert bipoly(hermitian, out.F[0]) == HERMITIAN_F25_0
    res = decoder.decode(hermitian, recv)
    assert res.status == decoder.SUCCESS
    order = sorted(range(len(locs)), key=lambda k: locs[k])
    assert res.error_vals == [vals[k] for k in order]
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0
    report(3, f"hermitian golden F_25^(0) and all five values exact in {elapsed:.3f}s")


def test_criterion_4_zero_inversions(elliptic, klein, hermitian):
    rng = random.Random(1001)
    trials = 0
    for code in (elliptic, klein, hermitian):
        for _ in range(1000):
            locs, vals = random_pattern(code, rng.randint(1, code.t_generic), rng)
            recv = code.inject_errors(code.zero_word(), locs, vals)
            ctr = OpCounter()
            bms.run(code, code.syndromes(recv), bms.INVERSE_FREE, ctr=ctr)
            assert ctr.invs == 0
            trials += 1
    # every inversion (evaluation phase only) costs exactly 2w-3 multiplies
    for field in (GF(3, 0b1011), GF(4, 0b10011)):
        for a in range(field.q - 1):
            ctr = OpCounter()
            field.inv_chain(a, ctr)
            assert ctr.muls == 2 * field.w - 3 and ctr.invs == 1
    report(4, f"{trials} inverse-free runs with zero inversions; inv cost 2w-3 exhaustive")


def test_criterion_5_mode_equivalence(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    rng = random.Random(2002)
    cases = [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]
    checked = 0
    for code, (glocs, gvals, grecv) in cases:
        scenarios = [(glocs, gvals)]
        while len(scenarios) < 201:
            scenarios.append(random_generic_pattern(code, rng.randint(1, code.t_generic), rng))
        for locs, vals in scenarios:
            recv = code.inject_errors(code.zero_word(), locs, vals)
            synd = code.syndromes(recv)
            _, ra = bms.run(code, synd, bms.INVERSE_FREE, record=True)
            _, rb = bms.run(code, synd, bms.DIVISION, record=True)
            assert [r["s1"] for r in ra] == [r["s1"] for r in rb]
            assert [r["c1"] for r in ra] == [r["c1"] for r in rb]
            sa, _ = bms.run(code, synd, bms.INVERSE_FREE)
            sb, _ = bms.run(code, synd, bms.DIVISION)
            assert bms.delta_set(code, sa.s1) == bms.delta_set(code, sb.s1)
            fa = bms.extract_locators(sa, code)
            fb = bms.extract_locators(sb, code)
            for F in fa.F + fb.F:
                assert ideal_membership(bipoly(code, F), code, locs)
            checked += 1
    report(5, f"{checked} scenarios: identical (s,c) trajectories, both bases vanish on E")


def test_criterion_6_theorem_suite(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    rng = random.Random(3003)
    cases = [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]
    runs = 0
    for code, (glocs, gvals, _) in cases:
        scenarios = [(glocs, gvals)]
        while len(scenarios) < 51:
            scenarios.append(random_pattern(code, rng.randint(1, code.t_generic), rng))
        for locs, vals in scenarios:
            recv = code.inject_errors(code.zero_word(), locs, vals)
            check_theorem_suite(code, locs, vals, recv, bms.INVERSE_FREE)
            runs += 1
    report(6, f"invariants (a)-(d) and s1=c1+1 hold at every N across {runs} runs")


def test_criterion_7_appendix_bc(elliptic, klein):
    rng = random.Random(4004)
    checked = 0
    for code in (elliptic, klein):
        g, a = code.curve.genus, code.curve.a
        # bms runs to N = m of its code, so each syndrome bound is the m of
        # a code on the same curve: B, and m_pat + a - 1 below
        wide = {
            m: CodeSpec(code.curve, code.fld, m)
            for t in (1, 2, 3)
            for m in (2 * t + 4 * g - 2 + a, 2 * t + 2 * g - 2 + a)
        }
        for _ in range(500):
            t = rng.randint(1, 3)
            locs, vals = random_pattern(code, t, rng)
            generic = oracle.is_generic(code, locs).is_generic
            B = 2 * t + 4 * g - 2 + a
            full = full_syndromes_from_errors(code, locs, vals, B)
            st, _ = bms.run(wide[B], full, bms.INVERSE_FREE)
            out = bms.extract_locators(st, wide[B])
            for F in out.F:
                assert ideal_membership(bipoly(code, F), code, locs)
            if generic:
                assert len(bms.delta_set(code, st.s1)) == t
                # Proposition: for generic errors N <= m+a-1 already suffices
                m_pat = 2 * t + 2 * g - 1
                full2 = full_syndromes_from_errors(code, locs, vals, m_pat + a - 1)
                st2, _ = bms.run(wide[m_pat + a - 1], full2, bms.INVERSE_FREE)
                out2 = bms.extract_locators(st2, wide[m_pat + a - 1])
                for F in out2.F:
                    assert ideal_membership(bipoly(code, F), code, locs)
                assert len(bms.delta_set(code, st2.s1)) == t
            checked += 1
    report(7, f"{checked} desk-scale patterns: V(u,B)=I(E) memberships, zero violations")


def test_criterion_8_generic_ratio(elliptic, klein):
    # exhaustive truth: 1603/1771 = 0.9051 for t=3 on the Klein code and
    # 1944/2024 = 0.9605 on the elliptic code, so the (q-1)/q heuristic is
    # good to ~0.03 here and the seeded estimates concentrate around those
    rep8 = oracle.generic_ratio(klein, 3, 4000, seed=21)
    assert abs(rep8["estimate"] - 7 / 8) <= 0.04, rep8
    rep16 = oracle.generic_ratio(elliptic, 3, 4000, seed=99)
    assert abs(rep16["estimate"] - 15 / 16) <= 0.03, rep16
    report(
        8,
        f"GF(8): {rep8['estimate']:.4f} vs 0.8750; GF(16): {rep16['estimate']:.4f} vs 0.9375",
    )


def test_criterion_9_architecture_equivalence(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    rng = random.Random(5005)
    cases = [
        (elliptic, elliptic_golden, archsim.sim_inverse_free, 11),
        (klein, klein_golden, archsim.sim_serial, 54),
        (hermitian, hermitian_golden, archsim.sim_serial_inverse_free, 112),
    ]
    sims = 0
    for code, (glocs, gvals, _), sim, period in cases:
        scenarios = [(glocs, gvals)]
        while len(scenarios) < 51:
            scenarios.append(random_generic_pattern(code, rng.randint(1, code.t_generic), rng))
        for locs, vals in scenarios:
            recv = code.inject_errors(code.zero_word(), locs, vals)
            trace = sim(code, code.syndromes(recv))
            assert trace.period == period
            assert trace.total_clocks == (code.m + 1) * period
            assert len(trace.boundary_states) == code.m + 2
            sims += 1
    report(9, f"{sims} simulations bit-equal to the reference dump at every N boundary")


def test_criterion_10_resource_table(elliptic, klein, hermitian):
    for code in (elliptic, klein, hermitian):
        a, m = code.curve.a, code.m
        assert archsim.resources(archsim.INVERSE_FREE, code).multipliers == 2 * a
        assert archsim.resources(archsim.INVERSE_FREE, code).inverters == 0
        assert archsim.resources(archsim.SERIAL, code).multipliers == 2
        assert archsim.resources(archsim.SERIAL, code).inverters == 1
        assert archsim.resources(archsim.SERIAL_INVERSE_FREE, code).multipliers == 2
        assert archsim.resources(archsim.SERIAL_INVERSE_FREE, code).inverters == 0
        for arch in (archsim.INVERSE_FREE, archsim.SERIAL, archsim.SERIAL_INVERSE_FREE):
            assert archsim.resources(arch, code).registers == 2 * a * (m + 2)
        assert archsim.resources("koetter", code).multipliers == 3 * a
        assert archsim.resources("koetter", code).inverters == a
    report(10, "closed-form multiplier/inverter/register counts exact for all rows")
