import random

import pytest

from agbms import CodeSpec, CurveSpec, archsim, bms
from agbms.gf import ZERO, OpCounter
from conftest import random_generic_pattern, random_pattern


def test_periods_and_totals(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    cases = [
        (elliptic, elliptic_golden, archsim.sim_inverse_free, 11),
        (klein, klein_golden, archsim.sim_serial, 54),
        (hermitian, hermitian_golden, archsim.sim_serial_inverse_free, 112),
    ]
    for code, (_, _, recv), sim, period in cases:
        tr = sim(code, code.syndromes(recv), keep_snapshots=False)
        assert tr.period == period
        assert tr.total_clocks == (code.m + 1) * period
        assert len(tr.boundary_states) == code.m + 2


def test_boundary_states_match_reference(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    synd = elliptic.syndromes(recv)
    tr = archsim.sim_inverse_free(elliptic, synd, keep_snapshots=False)
    _, recs = bms.run(elliptic, synd, bms.INVERSE_FREE, record=True)
    assert tr.boundary_states == recs  # the boundary records are the BMS dump records


def test_register_counts(elliptic, klein, hermitian, elliptic_golden, klein_golden, hermitian_golden):
    _, _, erecv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(erecv), keep_snapshots=False)
    assert tr.registers.vf == 2 * 10 and tr.registers.wg == 2 * 11

    _, _, krecv = klein_golden
    tr = archsim.sim_serial(klein, klein.syndromes(krecv), keep_snapshots=False)
    assert tr.registers.vf == 3 * 17 - 1 == 50
    assert tr.registers.wg == 3 * 17 + 3 == 54
    assert tr.registers.exch_regs == 1

    _, _, hrecv = hermitian_golden
    tr = archsim.sim_serial_inverse_free(hermitian, hermitian.syndromes(hrecv), keep_snapshots=False)
    assert tr.registers.vf == 103 and tr.registers.wg == 112
    assert tr.registers.polynomial_total == 215
    assert tr.registers.supp_regs == 8
    assert round(100 * tr.registers.supp_regs / tr.registers.polynomial_total, 1) == 3.7


def test_discrepancy_latch_clocks(elliptic, elliptic_golden):
    # d values are latched when the discrepancy-register switches close
    # downward, i.e. at clo = 11 N on the elliptic configuration
    _, _, recv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(recv))
    for snap in tr.snapshots:
        assert snap["switches"]["disc_latch_down"] == (snap["clock"] % 11 == 0)


def test_klein_g_head_register(klein, klein_golden):
    # the auxiliary heads written at loop 11 sit in w_g register 16
    # (1-based) when clo = 648 and 649, value alpha^4
    _, _, recv = klein_golden
    tr = archsim.sim_serial(klein, klein.syndromes(recv))
    by_clock = {s["clock"]: s for s in tr.snapshots}
    # snapshots are taken after the clock action; inspect the line one clock
    # earlier so register 16 means "pops 15 clocks after clo"
    assert by_clock[647]["registers"]["vf"] is not None
    val_648 = by_clock[647]["registers"]["wg"][15]
    val_649 = by_clock[648]["registers"]["wg"][15]
    assert val_648 == 4 and val_649 == 4


def test_hermitian_g_head_register(hermitian, hermitian_golden):
    # g head alpha^11 in w_g register 33 (1-based) at clo 2016 and 2019
    _, _, recv = hermitian_golden
    tr = archsim.sim_serial_inverse_free(hermitian, hermitian.syndromes(recv))
    by_clock = {s["clock"]: s for s in tr.snapshots}
    assert by_clock[2015]["registers"]["wg"][32] == 11
    assert by_clock[2018]["registers"]["wg"][32] == 11


def test_inverter_usage(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    _, _, erecv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(erecv), keep_snapshots=False)
    assert tr.inv_uses == 0

    _, _, hrecv = hermitian_golden
    tr = archsim.sim_serial_inverse_free(hermitian, hermitian.syndromes(hrecv), keep_snapshots=False)
    assert tr.inv_uses == 0

    # serial inverter activates exactly on the non-preserved branches
    _, _, krecv = klein_golden
    synd = klein.syndromes(krecv)
    tr = archsim.sim_serial(klein, synd, keep_snapshots=False)
    ctr = OpCounter()
    bms.run(klein, synd, bms.DIVISION, ctr=ctr)
    assert tr.inv_uses == ctr.invs > 0


def test_multiplier_budget(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    _, _, erecv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(erecv), keep_snapshots=False)
    assert tr.max_mults_per_clock <= 2 * elliptic.curve.a
    _, _, krecv = klein_golden
    tr = archsim.sim_serial(klein, klein.syndromes(krecv), keep_snapshots=False)
    assert tr.max_mults_per_clock <= 2
    _, _, hrecv = hermitian_golden
    tr = archsim.sim_serial_inverse_free(hermitian, hermitian.syndromes(hrecv), keep_snapshots=False)
    assert tr.max_mults_per_clock <= 2


def test_random_oracle_equivalence(elliptic, klein, hermitian):
    rng = random.Random(2)
    cases = [
        (elliptic, archsim.sim_inverse_free, 3),
        (klein, archsim.sim_serial, 4),
        (hermitian, archsim.sim_serial_inverse_free, 5),
    ]
    for code, sim, t in cases:
        for _ in range(10):
            locs, vals = random_pattern(code, rng.randint(1, t), rng)
            recv = code.inject_errors(code.zero_word(), locs, vals)
            sim(code, code.syndromes(recv), keep_snapshots=False)  # asserts internally


@pytest.fixture(scope="module")
def c57(gf16):
    """y^5 = alpha^2 x^7 + alpha x over GF(16), genus 12, n = 46: b^-1 = 3
    mod 5 is neither 1 nor a-1, so the slot rotation is not a plain +-k."""
    return CodeSpec(CurveSpec(a=5, b=7, e=2, chi={(1, 0): 1}, genus=12), gf16, m=30)


SIM_MODES = {
    archsim.INVERSE_FREE: bms.INVERSE_FREE,
    archsim.SERIAL: bms.DIVISION,
    archsim.SERIAL_INVERSE_FREE: bms.INVERSE_FREE,
}


@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
@pytest.mark.parametrize("code_name", ["elliptic", "klein", "hermitian", "other_elliptic", "c57"])
def test_every_simulator_on_every_code(request, arch, code_name):
    # one slot rule serves both serial modes on every b^-1 mod a: the
    # boundary records are the BMS dump records of the matching mode, and
    # the period and clock count are the closed forms
    code = request.getfixturevalue(code_name)
    a, m = code.curve.a, code.m
    period = {
        archsim.INVERSE_FREE: m + 3,
        archsim.SERIAL: a * (m + 2) + a,
        archsim.SERIAL_INVERSE_FREE: a * (m + 2) + 2 * a,
    }[arch]
    rng = random.Random(f"{arch}/{code_name}")
    for _ in range(10):
        locs, vals = random_pattern(code, rng.randint(0, code.t_generic + 2), rng, affine_only=False)
        synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
        tr = archsim.SIMULATORS[arch](code, synd, keep_snapshots=False)
        _, recs = bms.run(code, synd, SIM_MODES[arch], record=True)
        assert tr.boundary_states == recs
        assert (tr.period, tr.total_clocks) == (period, (m + 1) * period)


def test_resources_closed_forms(elliptic, klein, hermitian):
    for code in (elliptic, klein, hermitian):
        a, m = code.curve.a, code.m
        est = archsim.resources(archsim.INVERSE_FREE, code)
        assert (est.multipliers, est.inverters) == (2 * a, 0)
        assert est.registers == 2 * a * (m + 2)
        assert est.time == (m + 1) * (m + 2)
        est = archsim.resources(archsim.SERIAL, code)
        assert (est.multipliers, est.inverters) == (2, 1)
        assert est.time == a * (m + 1) * (m + 2)
        est = archsim.resources(archsim.SERIAL_INVERSE_FREE, code)
        assert (est.multipliers, est.inverters) == (2, 0)
        est = archsim.resources("koetter", code)
        assert (est.multipliers, est.inverters) == (3 * a, a)
        assert est.registers == a * (2 * (m + 1) - 4 + 4 * a + 5)
        est = archsim.resources("systolic", code)
        assert (est.multipliers, est.inverters) == (2 * a * m, a * m // 2)
        est = archsim.resources("parallel_bms", code)
        assert (est.multipliers, est.inverters) == (2 * a, a)
    with pytest.raises(ValueError):
        archsim.resources("nonsense", elliptic)


def test_measured_vs_closed_form(elliptic, elliptic_golden):
    # the simulated inverse-free period is m+3 while the closed form uses
    # m+2 per loop; both are reported, neither is forced onto the other
    _, _, recv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(recv), keep_snapshots=False)
    est = archsim.resources(archsim.INVERSE_FREE, elliptic, measured=tr.total_clocks)
    m = elliptic.m
    assert est.time == (m + 1) * (m + 2)
    assert est.measured_clocks == (m + 1) * (m + 3)


def test_trace_csv_fields(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(recv))
    assert len(tr.snapshots) == tr.total_clocks
    snap = tr.snapshots[0]
    assert set(snap) == {"clock", "registers", "switches"}
    assert {"block0.vf", "block0.wg", "block1.vf", "block1.wg"} == set(snap["registers"])
