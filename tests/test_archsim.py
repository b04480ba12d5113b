import __future__
import dataclasses
import hashlib
import inspect
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap

import pytest

from agbms import CodeSpec, archsim, bms, cli
from agbms.gf import ZERO, OpCounter
from conftest import AS_FIELDS, artin_schreier_budget_codes, bundled_error_file, random_generic_pattern, random_pattern


def test_periods_and_totals(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    cases = [
        (elliptic, elliptic_golden, archsim.sim_inverse_free, 11),
        (klein, klein_golden, archsim.sim_serial, 54),
        (hermitian, hermitian_golden, archsim.sim_serial_inverse_free, 112),
    ]
    for code, (_, _, recv), sim, period in cases:
        tr = sim(code, code.syndromes(recv))
        assert tr.period == period
        assert tr.total_clocks == (code.m + 1) * period
        assert len(tr.boundary_states) == code.m + 2


class Cut(Exception):
    """Raised to end a simulated run at a chosen boundary."""


@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
def test_total_clocks_count_the_loops_run(monkeypatch, arch):
    # each loop the controller runs adds its P clocks, so a run cut after k
    # loops (at boundary k, before its check) has clocked k * P times, not
    # the (m+1) * P of a whole run; it checked k boundaries, and its
    # boundary states replay those k records
    boundary, cut = archsim._Controller._boundary, []
    code, synd = bundled_syndromes("klein_gf8")
    _, recs = bms.run(code, synd, SIM_MODES[arch], record=True)
    for k in (0, 1, 3):

        def cutting(self, N, vf_words, wg_words, k=k):
            if N == k:
                cut.append(self.trace)
                raise Cut
            boundary(self, N, vf_words, wg_words)

        monkeypatch.setattr(archsim._Controller, "_boundary", cutting)
        with pytest.raises(Cut):
            archsim.SIMULATORS[arch](code, synd)
        tr = cut.pop()
        assert tr.total_clocks == k * tr.period
        assert len(tr.boundary_states) == k
        assert [bms.state_record(st, code) for st in tr.boundary_states] == recs[:k]


def test_boundary_states_match_reference(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    synd = elliptic.syndromes(recv)
    tr = archsim.sim_inverse_free(elliptic, synd)
    _, recs = bms.run(elliptic, synd, bms.INVERSE_FREE, record=True)
    # the boundary states are the BMS dump states
    assert [bms.state_record(st, elliptic) for st in tr.boundary_states] == recs


def test_register_counts(elliptic, klein, hermitian, elliptic_golden, klein_golden, hermitian_golden):
    _, _, erecv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(erecv))
    assert tr.registers.vf == 2 * 10 and tr.registers.wg == 2 * 11

    _, _, krecv = klein_golden
    tr = archsim.sim_serial(klein, klein.syndromes(krecv))
    assert tr.registers.vf == 3 * 17 - 1 == 50
    assert tr.registers.wg == 3 * 17 + 3 == 54
    assert tr.registers.exch_regs == 1

    _, _, hrecv = hermitian_golden
    tr = archsim.sim_serial_inverse_free(hermitian, hermitian.syndromes(hrecv))
    assert tr.registers.vf == 103 and tr.registers.wg == 112
    assert (tr.registers.vf + tr.registers.wg) == 215
    assert tr.registers.supp_regs == 8
    assert round(100 * tr.registers.supp_regs / (tr.registers.vf + tr.registers.wg), 1) == 3.7


def test_discrepancy_latch_clocks(elliptic, elliptic_golden):
    # d values are latched when the discrepancy-register switches close
    # downward, i.e. at clo = 11 N on the elliptic configuration
    _, _, recv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(recv))
    for snap in tr.clocks():
        assert snap["switches"]["disc_latch_down"] == (snap["clock"] % 11 == 0)


def test_klein_g_head_register(klein, klein_golden):
    # the auxiliary heads written at loop 11 sit in w_g register 16
    # (1-based) when clo = 648 and 649, value alpha^4
    _, _, recv = klein_golden
    tr = archsim.sim_serial(klein, klein.syndromes(recv))
    by_clock = {s["clock"]: s for s in tr.clocks()}
    # a traced clock shows the registers after its action; inspect the line
    # one clock earlier so register 16 means "pops 15 clocks after clo"
    assert by_clock[647]["registers"]["vf"] is not None
    # registers hold bit-vector values; the logs are what the paper lists
    val_648 = klein.fld.log[by_clock[647]["registers"]["wg"][15]]
    val_649 = klein.fld.log[by_clock[648]["registers"]["wg"][15]]
    assert val_648 == 4 and val_649 == 4


def test_hermitian_g_head_register(hermitian, hermitian_golden):
    # g head alpha^11 in w_g register 33 (1-based) at clo 2016 and 2019
    _, _, recv = hermitian_golden
    tr = archsim.sim_serial_inverse_free(hermitian, hermitian.syndromes(recv))
    by_clock = {s["clock"]: s for s in tr.clocks()}
    assert hermitian.fld.log[by_clock[2015]["registers"]["wg"][32]] == 11
    assert hermitian.fld.log[by_clock[2018]["registers"]["wg"][32]] == 11


def test_inverter_usage(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    _, _, erecv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(erecv))
    assert tr.inv_uses == 0

    _, _, hrecv = hermitian_golden
    tr = archsim.sim_serial_inverse_free(hermitian, hermitian.syndromes(hrecv))
    assert tr.inv_uses == 0

    # serial inverter activates exactly on the non-preserved branches
    _, _, krecv = klein_golden
    synd = klein.syndromes(krecv)
    tr = archsim.sim_serial(klein, synd)
    ctr = OpCounter()
    bms.run(klein, synd, bms.DIVISION, ctr=ctr)
    assert tr.inv_uses == ctr.invs > 0


def test_multiplier_budget(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    _, _, erecv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(erecv))
    assert tr.max_mults_per_clock <= 2 * elliptic.curve.a
    _, _, krecv = klein_golden
    tr = archsim.sim_serial(klein, klein.syndromes(krecv))
    assert tr.max_mults_per_clock <= 2
    _, _, hrecv = hermitian_golden
    tr = archsim.sim_serial_inverse_free(hermitian, hermitian.syndromes(hrecv))
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
            sim(code, code.syndromes(recv))  # asserts internally


SIM_MODES = {
    archsim.INVERSE_FREE: bms.INVERSE_FREE,
    archsim.SERIAL: bms.DIVISION,
    archsim.SERIAL_INVERSE_FREE: bms.INVERSE_FREE,
}


@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
@pytest.mark.parametrize("code_name", ["elliptic", "klein", "hermitian", "other_elliptic", "c57", "elliptic_gf512"])
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
        tr = archsim.SIMULATORS[arch](code, synd)
        _, recs = bms.run(code, synd, SIM_MODES[arch], record=True)
        assert [bms.state_record(st, code) for st in tr.boundary_states] == recs
        assert (tr.period, tr.total_clocks) == (period, (m + 1) * period)


def test_every_simulator_on_artin_schreier_codes():
    # every simulator passes every boundary check on one seeded generic word
    # of weight t_generic, on every seeded Artin-Schreier curve over GF(8),
    # GF(16) and GF(32) at every m it accepts with t_generic >= 1; the only
    # b^-1 = 3 at a = 4 (a slot rotation no preset has) is among them
    runs, rotations = 0, set()
    for q in AS_FIELDS:
        for k, code in artin_schreier_budget_codes(q):
            rng = random.Random(f"{q}/{k}/{code.m}")
            locs, vals = random_generic_pattern(code, code.t_generic, rng, affine_only=False)
            synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
            for sim in archsim.SIMULATORS.values():
                assert len(sim(code, synd).boundary_states) == code.m + 2
                runs += 1
            rotations.add((code.curve.a, code.curve.b_inv))
    assert runs == 1236 and (4, 3) in rotations


def reference_l1(code, i, N):
    """The first component of l^(i) at N, -1 where column i has none."""
    l = code.curve.l_of(i, N)
    return -1 if l is None else l[0]


def slot_wiring_faults(slots, code):
    """What breaks the serial slot rule in a slot table, slots[N][k] = (v/f
    column, w/g column, l) of slot k in loop N: v/f slot k of loop N+1 must
    carry the column of slot k+1 of loop N (slot a-1 that of slot 0, through
    the exchange register), w/g slot k one column in every loop, each slot
    the pair (i, ibar(i, N)), and l the gate of column i at N."""
    a, faults = code.curve.a, []
    for N, pairs in enumerate(slots):
        faults += [(N, k, "pair") for k, (i, j, _) in enumerate(pairs) if j != code.curve.ibar(i, N)]
        faults += [(N, k, "w/g") for k, (_, j, _) in enumerate(pairs) if j != slots[0][k][1]]
        faults += [(N, k, "gate") for k, (i, _, l) in enumerate(pairs) if l != reference_l1(code, i, N)]
        if N + 1 < len(slots):
            faults += [(N, k, "v/f") for k in range(a) if slots[N + 1][k][0] != pairs[(k + 1) % a][0]]
    return faults


def test_serial_slot_table_wiring(monkeypatch):
    # the boundary check compares columns, so it cannot see which slot a
    # column sits on: the serial slot rule is only the order of the lanes
    # and the line the CSV shows.  Every preset and every seeded
    # Artin-Schreier code (b^-1 = 3 at a = 4 among them) checks the lane
    # tuples its runs hand the controller, for the m+1 loops it runs; the
    # mutated rule b^-1 (N - k), which differs from b^-1 (N + k) only where
    # a > 2, must fail the check
    run, tables = archsim._Controller.run, []

    def recording(self, lanes, fold):
        tables.append((self.code, lanes))
        return run(self, lanes, fold)

    monkeypatch.setattr(archsim._Controller, "run", recording)
    codes = [cli.load_code(p)[0] for p in PRESETS]
    codes += [code for q in AS_FIELDS for _, code in artin_schreier_budget_codes(q)]
    for code in codes:
        for arch in (archsim.SERIAL, archsim.SERIAL_INVERSE_FREE):
            archsim.SIMULATORS[arch](code, code.syndromes(code.zero_word()))
    rotations, mutants = set(), 0
    for code, slots in tables:
        cv, m = code.curve, code.m
        assert len(slots) == m + 1 and slot_wiring_faults(slots, code) == []
        mutant = [[(cv.b_inv * (N - k) % cv.a, -cv.b_inv * k % cv.a) for k in range(cv.a)] for N in range(m + 1)]
        mutant = [[(i, j, reference_l1(code, i, N)) for i, j in row] for N, row in enumerate(mutant)]
        if cv.a > 2:
            assert slot_wiring_faults(mutant, code) != [], code.curve
            mutants += 1
        rotations.add((cv.a, cv.b_inv))
    assert len(tables) == 2 * len(codes) and mutants > 0 and (4, 3) in rotations


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


def test_resources_every_entry(elliptic, klein, hermitian):
    # every entry of every row -- multipliers, inverters, registers and
    # time -- as its formula in a and m, on the three presets (a = 2, 3, 4)
    for code in (elliptic, klein, hermitian):
        a, m = code.curve.a, code.m
        polynomial_registers = 2 * a * (m + 2)  # f, g, v, w of a columns, m+2 lanes each
        loop_clocks = (m + 1) * (m + 2)  # m+1 loops of m+2 clocks
        expected = {
            "systolic": (2 * a * m, a * m // 2, (4 * m + 9) * a // 2, m + 1),
            "koetter": (3 * a, a, a * (2 * (m + 1) - 4 + 4 * a + 5), (m + 3) * (m + 1)),
            "parallel_bms": (2 * a, a, polynomial_registers, loop_clocks),
            archsim.INVERSE_FREE: (2 * a, 0, polynomial_registers, loop_clocks),
            archsim.SERIAL: (2, 1, polynomial_registers, a * loop_clocks),
            archsim.SERIAL_INVERSE_FREE: (2, 0, polynomial_registers, a * loop_clocks),
        }
        assert set(expected) == {*archsim.CLOSED_FORM_ONLY, *archsim.SIMULATORS}
        for arch, entries in expected.items():
            est = archsim.resources(arch, code)
            assert (est.multipliers, est.inverters, est.registers, est.time) == entries, (arch, a, m)


def test_measured_vs_closed_form(elliptic, elliptic_golden):
    # the simulated inverse-free period is m+3 while the closed form uses
    # m+2 per loop; both are reported, neither is forced onto the other
    _, _, recv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(recv))
    m = elliptic.m
    assert archsim.resources(archsim.INVERSE_FREE, elliptic).time == (m + 1) * (m + 2)
    assert tr.total_clocks == (m + 1) * (m + 3)


def test_trace_csv_fields(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    tr = archsim.sim_inverse_free(elliptic, elliptic.syndromes(recv))
    snaps = list(tr.clocks())
    assert len(snaps) == tr.total_clocks
    snap = snaps[0]
    assert set(snap) == {"clock", "registers", "switches"}
    assert {"block0.vf", "block0.wg", "block1.vf", "block1.wg"} == set(snap["registers"])


# sha256 prefixes of each simulator's outputs on 20 seeded words per curve
# (weights 0..t_generic+2 over all n points): period, clock count, register
# inventory, multiplier and inverter use, and the boundary records; recorded
# with the per-call clock and triple read-back that preceded the lane plans
SIM_DIGESTS = {
    ("inverse_free", "elliptic"): "76aa5e3a6b50c9fe",
    ("inverse_free", "klein"): "dff5d304aa316d07",
    ("inverse_free", "hermitian"): "eb957f47ee77eb22",
    ("inverse_free", "other_elliptic"): "647d9cfa19d9bd9b",
    ("inverse_free", "c57"): "8ed525518a020bdd",
    ("serial", "elliptic"): "fb09eae5a505db91",
    ("serial", "klein"): "6dac2d3e523f735b",
    ("serial", "hermitian"): "08cbdd5e6a6918ce",
    ("serial", "other_elliptic"): "fc73ba5f0d2bd15d",
    ("serial", "c57"): "4dae252e3cfdde0f",
    ("serial_inverse_free", "elliptic"): "e52995818b654ace",
    ("serial_inverse_free", "klein"): "600c3ee745844ce4",
    ("serial_inverse_free", "hermitian"): "cb21cb4e87acceb4",
    ("serial_inverse_free", "other_elliptic"): "af9d54d3707e40c6",
    ("serial_inverse_free", "c57"): "9d82f74a9b6d6ac8",
}


@pytest.mark.parametrize("arch,code_name", sorted(SIM_DIGESTS))
def test_sim_outputs_pinned(request, arch, code_name):
    code = request.getfixturevalue(code_name)
    rng = random.Random(f"pin/{code_name}")
    h = hashlib.sha256()
    for k in range(20):
        locs, vals = random_pattern(code, k % (code.t_generic + 3), rng, affine_only=False)
        synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
        tr = archsim.SIMULATORS[arch](code, synd)
        out = [
            tr.period,
            tr.total_clocks,
            dataclasses.asdict(tr.registers),
            tr.mult_uses,
            tr.inv_uses,
            tr.max_mults_per_clock,
            [bms.state_record(st, code) for st in tr.boundary_states],
        ]
        h.update(json.dumps(out).encode())
    assert h.hexdigest()[:16] == SIM_DIGESTS[arch, code_name]


# Boundary faults, each injected into a correct run: the check must name it
# on every datapath.


def _skip_zero_setting(mp):
    """The w/g zero-setting is off: no lane zero-sets a group.  The
    controller reads its masks through a patched builder that builds them
    from the patched rule; a code keys a table by its builder, so the
    patched masks never stand in for the codes' own tables."""
    mp.setattr(archsim, "_stale", lambda m, groups, N, Mj: range(0))
    build = archsim._zero_masks
    mp.setattr(archsim, "_zero_masks", lambda code, groups: build(code, groups))


def _value_above_top(mp):
    """At the last boundary the top lane of the w/g word of the first
    replaced column (its last register, whose exponent lies past the top)
    holds a value."""
    boundary = archsim._Controller._boundary

    def tampered(self, N, vf_words, wg_words):
        if N == self.m + 1:
            j = next(j for j, M in enumerate(self.M) if M >= 0)  # -1: never replaced
            wg_words[j] ^= 1 << (self.groups - 1) * self.lb  # a w/g line has groups registers
        boundary(self, N, vf_words, wg_words)

    mp.setattr(archsim._Controller, "_boundary", tampered)


def _vf_tail(mp):
    """At the last boundary the top lane of column 0's v/f word (its last
    register) is flipped."""
    boundary = archsim._Controller._boundary

    def tampered(self, N, vf_words, wg_words):
        if N == self.m + 1:
            vf_words[0] ^= 1 << (self.groups - 2) * self.lb  # a v/f line has groups-1 registers
        boundary(self, N, vf_words, wg_words)

    mp.setattr(archsim._Controller, "_boundary", tampered)


def _skewed_v_head(mp):
    """The reference state's v head of column 0 is flipped (cleared if
    nonzero, else set to 1), so it no longer matches the loaded registers."""
    init_state = bms.init_state

    def skewed(code, *args, **kwargs):
        st = init_state(code, *args, **kwargs)
        st.vf[0] ^= (st.vf[0] & code.fld.q - 1) or 1
        return st

    mp.setattr(bms, "init_state", skewed)


DIVERGES = "register state diverges from the reference BMS state at"
BOUNDARY_FAULTS = {
    "zero_setting": (_skip_zero_setting, rf"boundary N=\d+ {DIVERGES} 'g'"),
    "above_top": (_value_above_top, rf"boundary N=\d+ {DIVERGES} 'g'"),
    "vf_tail": (_vf_tail, rf"boundary N=\d+ {DIVERGES} 'f'"),
    "v_head": (_skewed_v_head, rf"boundary N=0 {DIVERGES} 'v'"),
}
PRESETS = ("elliptic_gf16", "klein_gf8", "hermitian_gf16")


def bundled_syndromes(preset):
    """A preset's code and the syndromes of its bundled error pattern."""
    code, _ = cli.load_code(preset)
    locs, vals = cli.read_errors(bundled_error_file(preset), code)
    return code, code.syndromes(code.inject_errors(code.zero_word(), locs, vals))


def run_bundled(arch, preset):
    """One simulator on a preset's bundled error pattern."""
    code, synd = bundled_syndromes(preset)
    return archsim.SIMULATORS[arch](code, synd)


@dataclasses.dataclass
class Boundary:
    """The controller at boundary N of a run, copied as its check is made:
    the degrees, M and the column words, which are those after loop N-1 and
    before loop N, and how many product rows the code held then."""

    ctl: archsim._Controller
    N: int
    s1: list[int]
    c1: list[int]
    M: list[int]
    vf: list[int]
    wg: list[int]
    rows: int


def record_boundaries(mp, check=True):
    """A list that gains a ``Boundary`` at every boundary a run reaches, run
    after run; with check=False the record replaces the boundary check, so
    a run completes whatever its registers hold.  Two consecutive records
    of one run bracket one loop."""
    boundary, seen = archsim._Controller._boundary, []

    def recording(self, N, vf_words, wg_words):
        seen.append(Boundary(self, N, self.s1[:], self.c1[:], self.M[:], vf_words[:], wg_words[:], len(self.rows)))
        if check:
            boundary(self, N, vf_words, wg_words)

    mp.setattr(archsim._Controller, "_boundary", recording)
    return seen


def loops_of(seen):
    """(before, after) of every loop among the recorded boundaries."""
    return [(b, c) for b, c in itertools.pairwise(seen) if b.ctl is c.ctl]


@pytest.mark.parametrize("fault", sorted(BOUNDARY_FAULTS))
@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
def test_boundary_faults_named(monkeypatch, arch, fault):
    inject, message = BOUNDARY_FAULTS[fault]
    inject(monkeypatch)
    for preset in PRESETS:
        with pytest.raises(AssertionError, match=f"^{arch}: {message}"):
            run_bundled(arch, preset)


@pytest.fixture(scope="module")
def gf512_syndromes(elliptic_gf512):
    """A seeded generic weight-t pattern on the two-byte-lane code; every
    simulator passes every boundary on it."""
    code = elliptic_gf512
    locs, vals = random_generic_pattern(code, code.t_generic, random.Random(512))
    synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
    for sim in archsim.SIMULATORS.values():
        sim(code, synd)
    return synd


@pytest.mark.parametrize("fault", sorted(BOUNDARY_FAULTS))
@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
def test_boundary_faults_named_two_byte_lanes(monkeypatch, elliptic_gf512, gf512_syndromes, arch, fault):
    # the boundary compares words of 16-bit lanes here
    inject, message = BOUNDARY_FAULTS[fault]
    inject(monkeypatch)
    with pytest.raises(AssertionError, match=f"^{arch}: {message}"):
        archsim.SIMULATORS[arch](elliptic_gf512, gf512_syndromes)


def _fault_in_last_loop(mp, line):
    """Of the words loop m, the last, hands to boundary m+1, the v/f or w/g
    word of the datapath's lane 0 has bit 0 of lane 0 flipped; every earlier
    loop's words reach their boundaries as the loop left them."""
    boundary = archsim._Controller._boundary

    def faulty(self, N, vf_words, wg_words):
        if N == self.m + 1:
            i, j, _ = self.code.table(archsim._lanes, self.arch != archsim.INVERSE_FREE)[self.m][0]
            if line == "vf":
                vf_words[i] ^= 1
            else:
                wg_words[j] ^= 1
        boundary(self, N, vf_words, wg_words)

    mp.setattr(archsim._Controller, "_boundary", faulty)


@pytest.mark.parametrize("line,key", [("vf", "f"), ("wg", "w")])
@pytest.mark.parametrize("preset", [*PRESETS, "elliptic_gf512"])
@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
def test_last_loop_fault_named_at_final_boundary(request, monkeypatch, arch, preset, line, key):
    # the boundary after the last loop is checked too: a fault injected only
    # in loop m is named at boundary m+1, where the v/f word's lanes are all
    # f and the w/g word's lane 0 is w's m+1 head
    if preset in PRESETS:
        code, synd = bundled_syndromes(preset)
    else:
        code, synd = request.getfixturevalue(preset), request.getfixturevalue("gf512_syndromes")
    _fault_in_last_loop(monkeypatch, line)
    with pytest.raises(AssertionError, match=f"^{arch}: boundary N={code.m + 1} {DIVERGES} {key!r}"):
        archsim.SIMULATORS[arch](code, synd)


@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
def test_shared_wg_register_fault_named(monkeypatch, arch):
    # the w/g register that w's m+1 and g's exponent 0 share (lane m+1-N of
    # a w/g word) is g's before the last loop and w's head after it: a value
    # planted there is named at 'g' at boundary m // 2 and at 'w' at m+1
    boundary = archsim._Controller._boundary
    for preset in PRESETS:
        code, synd = bundled_syndromes(preset)
        for at, key in ((code.m // 2, "g"), (code.m + 1, "w")):

            def tampered(self, N, vf_words, wg_words, at=at):
                if N == at:
                    wg_words[0] ^= 1 << max(0, self.m + 1 - N) * self.lb
                boundary(self, N, vf_words, wg_words)

            monkeypatch.setattr(archsim._Controller, "_boundary", tampered)
            with pytest.raises(AssertionError, match=f"^{arch}: boundary N={at} {DIVERGES} {key!r}"):
                archsim.SIMULATORS[arch](code, synd)


def test_boundary_faults_named_under_optimize():
    # the same faults are named when asserts are compiled out
    here = pathlib.Path(__file__).resolve().parent
    script = f"""
import sys
sys.path.insert(0, {str(here)!r})
import pytest
import test_archsim as t
assert False, "asserts are on"
for arch in t.archsim.SIMULATORS:
    for fault, (inject, _) in t.BOUNDARY_FAULTS.items():
        for preset in t.PRESETS:
            mp = pytest.MonkeyPatch()
            inject(mp)
            try:
                t.run_bundled(arch, preset)
                print(arch, fault, preset, "no error", sep="|")
            except AssertionError as exc:
                print(arch, fault, preset, exc, sep="|")
            finally:
                mp.undo()
"""
    src = str(pathlib.Path(archsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout.splitlines()
    assert len(out) == len(archsim.SIMULATORS) * len(BOUNDARY_FAULTS) * len(PRESETS)
    for line in out:
        arch, fault, _, exc = line.split("|")
        assert re.match(f"{arch}: {BOUNDARY_FAULTS[fault][1]}", exc), line


@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
def test_replay_ignores_later_syndrome_edits(arch):
    # the boundary states replay from a copy of the run's initial reference
    # state, so a caller who edits its syndrome dict after the run changes
    # none of them -- though the edit changes a run made from the dict
    code, synd = bundled_syndromes("hermitian_gf16")
    _, recs = bms.run(code, synd, SIM_MODES[arch], record=True)
    tr = archsim.SIMULATORS[arch](code, synd)
    for mono in synd:
        synd[mono] = ZERO
    assert bms.run(code, synd, SIM_MODES[arch], record=True)[1] != recs
    assert [bms.state_record(st, code) for st in tr.boundary_states] == recs


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
def test_untraced_run_builds_one_state(monkeypatch, arch, preset):
    # a run copies no state at its boundaries: it builds one bms.BmsState,
    # the reference; the first read of a boundary state replays the run,
    # building its start and one copy per boundary, and a later read builds
    # none
    built = []

    class Counted(bms.BmsState):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bms, "BmsState", Counted)
    code, _ = cli.load_code(preset)
    tr = run_bundled(arch, preset)
    assert len(built) == 1 and len(tr.boundary_states) == code.m + 2
    tr.boundary_states[-1]
    assert len(built) == 1 + 1 + code.m + 2
    list(tr.boundary_states)
    assert len(built) == 1 + 1 + code.m + 2


@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
def test_default_run_keeps_no_snapshots(arch):
    # a run keeps no record of its loops: clocks() rebuilds them from the
    # boundary states, which are replayed only when first read, so a run
    # that is never traced copies no state
    code, _ = cli.load_code("hermitian_gf16")
    locs, vals = cli.read_errors(bundled_error_file("hermitian_gf16"), code)
    tr = archsim.SIMULATORS[arch](code, code.syndromes(code.inject_errors(code.zero_word(), locs, vals)))
    assert {f.name for f in dataclasses.fields(tr)}.isdisjoint({"snapshots", "records", "updates"})
    assert tr.boundary_states.states is None and len(tr.boundary_states) == code.m + 2
    assert len(list(tr.clocks())) == tr.total_clocks and tr.boundary_states.states is not None


@pytest.mark.parametrize("preset", [*PRESETS, "elliptic_gf512"])
@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
def test_snapshots_do_not_change_a_run(request, arch, preset):
    # keep_snapshots selects nothing: a run that passes it and a default run
    # give equal traces, boundary states and clocks, one per clock, on
    # one-byte lanes and on the two-byte lanes of GF(2^9); a trace with no
    # loop between two boundaries has no clocks
    if preset in PRESETS:
        code, synd = bundled_syndromes(preset)
    else:
        code, synd = request.getfixturevalue(preset), request.getfixturevalue("gf512_syndromes")
    kept, bare = (archsim.SIMULATORS[arch](code, synd, keep_snapshots=keep) for keep in (True, False))
    records = [[bms.state_record(st, code) for st in tr.boundary_states] for tr in (kept, bare)]
    assert records[0] == records[1] and len(records[0]) == code.m + 2
    clocks = list(kept.clocks())
    assert len(clocks) == kept.total_clocks and clocks == list(bare.clocks())
    # the layout holds the datapath's closures, made afresh by each run: it
    # is how clocks() reads a run, not what the run computed
    for f in dataclasses.fields(archsim.ArchTrace):
        if f.name not in ("boundary_states", "layout"):
            assert getattr(kept, f.name) == getattr(bare, f.name), f.name
    for states in ([], bare.boundary_states[:1]):
        assert list(dataclasses.replace(bare, boundary_states=states).clocks()) == []


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("arch", list(archsim.SIMULATORS))
def test_kept_run_stores_loop_records(monkeypatch, arch, preset):
    # a run stores no record of its loops and unpacks nothing: clocks()
    # unpacks each replayed boundary's 2a words once, and builds the
    # per-clock dicts only as it is read.  Every clock's update switches are
    # the controller's own, recorded at the boundary after each loop: lane
    # k, on the lane tuples the run hands the controller, updated in loop N
    # iff its w/g column j has M_j = N there.  The bundled pattern updates
    # few columns, so three seeded words past t_generic, which update more,
    # are traced too
    code, synd = bundled_syndromes(preset)
    fld, a, m, unpacked = code.fld, code.curve.a, code.m, []
    unpack, run, given = fld.unpack, archsim._Controller.run, []

    def recording(self, lanes, fold):
        given.append(lanes)
        return run(self, lanes, fold)

    monkeypatch.setattr(fld, "unpack", lambda x, n: unpacked.append(n) or unpack(x, n))
    monkeypatch.setattr(archsim._Controller, "run", recording)
    seen = record_boundaries(monkeypatch)
    rng = random.Random(f"switches/{preset}")
    errors = [random_pattern(code, code.t_generic + 2, rng, affine_only=False) for _ in range(3)]
    for synd in [synd, *(code.syndromes(code.inject_errors(code.zero_word(), *e)) for e in errors)]:
        unpacked.clear(), seen.clear(), given.clear()
        tr = archsim.SIMULATORS[arch](code, synd)
        lanes = given.pop()
        switched = {(b.N, k): c.M[j] == b.N for b, c in loops_of(seen) for k, (_, j, _) in enumerate(lanes[b.N])}
        assert unpacked == [] and len(switched) == a * (m + 1)
        assert any(switched.values()) and not all(switched.values())
        snaps = iter(tr.clocks())
        first = next(snaps)
        assert first["clock"] == 0 and len(unpacked) == 2 * 2 * a
        assert sum(1 for _ in snaps) + 1 == tr.total_clocks and len(unpacked) == 2 * a * (m + 2)
        for snap in tr.clocks():
            (N, t), sw = divmod(snap["clock"], tr.period), snap["switches"]
            if arch == archsim.INVERSE_FREE:  # lane k is block k for the whole loop
                assert [sw[f"block{k}.update"] for k in range(a)] == [switched[N, k] for k in range(a)], (N, t)
            else:  # clock t is on slot t mod a, which lane t mod a runs
                assert sw["update"] == switched[N, t % a], (N, t)


def test_serial_vf_line_shifts_through_fifo():
    # the v/f line and the supplementary FIFO behind it are one shift
    # register: every clock moves the line one register toward its output
    # and feeds it the FIFO's oldest value
    tr = run_bundled(archsim.SERIAL_INVERSE_FREE, "hermitian_gf16")
    regs = [snap["registers"] for snap in tr.clocks()]
    assert all(len(r["supp"]) == 4 for r in regs)  # c_v = a
    assert any(any(r["supp"]) for r in regs)
    for prev, cur in zip(regs, regs[1:]):
        assert cur["vf"][:-1] == prev["vf"][1:]
        assert cur["vf"][-1] == prev["supp"][0]


@pytest.mark.parametrize("preset", PRESETS)
def test_stream_snapshots_shift_every_line(preset):
    # a traced clock is the state after it: every clock moves each line
    # one register toward its output (a block's w/g line is re-homed between
    # loops), a v/f line takes 0 at clock 0 of a loop, and the serial
    # exchange register changes only on slot-0 clocks, holding its value for
    # a clocks until it re-enters the v/f path
    a = cli.load_code(preset)[0].curve.a
    tr = run_bundled(archsim.INVERSE_FREE, preset)
    snaps = list(tr.clocks())
    for prev, cur in zip(snaps, snaps[1:]):
        new_loop = cur["clock"] % tr.period == 0
        for name, regs in cur["registers"].items():
            if name.endswith(".vf") or not new_loop:
                assert regs[:-1] == prev["registers"][name][1:], (cur["clock"], name)
            if name.endswith(".vf") and new_loop:
                assert regs[-1] == 0
    for arch in (archsim.SERIAL, archsim.SERIAL_INVERSE_FREE):
        tr = run_bundled(arch, preset)
        regs = [snap["registers"] for snap in tr.clocks()]
        assert len({r["exch"][0] for r in regs}) > 1
        for t, (prev, cur) in enumerate(zip(regs, regs[1:]), 1):
            path, prev_path = cur["vf"] + cur["supp"], prev["vf"] + prev["supp"]
            assert path[:-1] == prev_path[1:] and cur["wg"][:-1] == prev["wg"][1:]
            if t % a:
                assert cur["exch"] == prev["exch"]
            else:
                assert path[-1] == prev["exch"][0]


def mul_lanes(fld, c, vecs):
    """The bit-vector lanes vecs times the log-form constant c, by fld.mul."""
    return [fld.vec[fld.mul(c, fld.log[v])] for v in vecs]


@pytest.mark.parametrize("code_name", ["klein", "elliptic", "elliptic_gf512"])
def test_product_rows(request, monkeypatch, code_name):
    # GF(8), GF(16) and GF(2^9): a run builds the product row of a constant
    # only when a latch meets it, on a code whose rows start empty, and the
    # word map through every row (a translate on one-byte lanes, unpack, row
    # and pack on two-byte ones) is fld.mul lane by lane
    base = request.getfixturevalue(code_name)
    code, fld = CodeSpec(base.curve, base.fld, base.m), base.fld
    met, seen = {ZERO, 0}, record_boundaries(monkeypatch)
    rng = random.Random(f"rows/{code_name}")
    for k in range(3):
        locs, vals = random_pattern(code, k + 1, rng, affine_only=False)
        synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
        for sim in archsim.SIMULATORS.values():
            sim(code, synd)
    assert seen[0].rows == 0  # nothing is built before the first loop's latches
    # what every lane of every loop latches, read off the words before it
    for b in seen:
        for i, j in enumerate(b.ctl.gates.ibar[b.N] if b.N <= code.m else []):
            d = fld.log[b.vf[i] & fld.q - 1]
            met.update({d, fld.log[b.wg[j] & fld.q - 1]} | ({fld.inv_chain(d)} if d != ZERO else set()))
    rows = code.tables[archsim._rows,]
    assert {id(b.ctl.rows) for b in seen} == {id(rows)} and set(rows) <= met
    # every element on its own lane, and seeded words of every length a line has
    words = [list(range(fld.q))] + [[rng.randrange(fld.q) for _ in range(n)] for n in range(1, code.m + 5)]
    for c in [*rows, 0, ZERO]:  # rows 0 and ZERO are built here if no latch met them
        for vecs in words:
            assert fld.unpack(fld.lookup(fld.pack(vecs), rows[c]), len(vecs)) == mul_lanes(fld, c, vecs), c
    # a lane passes its line through on these two: row 0 is the identity and
    # the zero constant's row maps every word to zero
    every = fld.pack(list(range(fld.q)))
    assert fld.lookup(every, rows[0]) == every and fld.lookup(every, rows[ZERO]) == 0


@pytest.mark.parametrize("code_name", ["klein", "elliptic", "elliptic_gf512"])
def test_pair_rows_are_two_product_rows(request, code_name):
    # GF(8) and GF(16): for every (e, d), ZERO and alpha^0 included, the
    # pair row maps x | y << 4 to the product rows' maps of x and y XORed,
    # on a word holding every lane pair (x_k, y_k); above w = 4 a code
    # keeps no pair rows
    base = request.getfixturevalue(code_name)
    code, fld = CodeSpec(base.curve, base.fld, base.m), base.fld
    rows, pairs = code.table(archsim._rows), code.table(archsim._pairs)
    if fld.w > 4:
        assert pairs is None
        return
    x = fld.pack([u for u in range(fld.q) for _ in range(fld.q)])
    y = fld.pack([v for _ in range(fld.q) for v in range(fld.q)])
    consts = [ZERO, *range(fld.q - 1)]
    for e, d in itertools.product(consts, consts):
        assert len(pairs[e, d]) == 256
        assert fld.lookup(x | y << 4, pairs[e, d]) == fld.lookup(x, rows[e]) ^ fld.lookup(y, rows[d]), (e, d)
    assert len(pairs) == len(consts) ** 2 and pairs is code.tables[archsim._pairs,]


@pytest.mark.parametrize("code_name", ["elliptic", "klein", "hermitian", "elliptic_gf512"])
def test_lane_map_unchanged(request, monkeypatch, code_name):
    # a lane that latches d = ZERO or e = 0 skips that multiplier, yet every
    # lane leaves on its columns the words of e*x ^ d*y past the head and of
    # the w/g inputs (d^-1 * x or x after an update, else y, zero-set groups
    # cleared), here recomputed lane by lane with fld.mul from the
    # boundaries before and after each loop (lane_map_faults)
    code = request.getfixturevalue(code_name)
    seen, kinds = record_boundaries(monkeypatch), set()
    rng = random.Random(f"lane map/{code_name}")
    for weight in range(1, code.t_generic + 2):
        locs, vals = random_pattern(code, weight, rng, affine_only=False)
        synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
        for sim in archsim.SIMULATORS.values():
            seen.clear()
            sim(code, synd)
            assert len(loops_of(seen)) == code.m + 1
            assert [f for b, c in loops_of(seen) for f in lane_map_faults(b, c, kinds)] == []
    # every branch ran: a plain shift, a map of x alone or of y alone, and
    # both maps
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def lane_map_faults(before, after, kinds):
    """The lanes (N, i) of one loop whose switch or outputs are not the lane
    rule's, recomputed lane by lane with fld.mul from the degrees, M and
    words before the loop: lane i pairs columns i and j = ibar(i, N),
    updates (sets M_j = N, else keeps it) iff d is not ZERO and s1^(i) < l
    - c1^(j), and leaves the v/f word e*x ^ d*y past the head and the w/g
    word d^-1 * x or x after an update, else y, zero-set groups cleared.
    Each lane's (d is ZERO, e is alpha^0) goes into kinds."""
    ctl, N = before.ctl, before.N
    fld, groups, faults = ctl.code.fld, ctl.groups, []
    for i, j in enumerate(ctl.gates.ibar[N]):
        x, y, l = before.vf[i], before.wg[j], reference_l1(ctl.code, i, N)
        d = fld.log[x & fld.q - 1] if before.s1[i] <= l else ZERO
        e = 0 if ctl.division else fld.log[y & fld.q - 1]
        xs, ys = fld.unpack(x, groups), fld.unpack(y, groups)  # the words fit their lines
        want = [u ^ v for u, v in zip(mul_lanes(fld, e, xs[1:] + [0]), mul_lanes(fld, d, ys[1:] + [0]))]
        updated = d != ZERO and before.s1[i] < l - before.c1[j]
        Mj = N if updated else before.M[j]
        inv = fld.inv_chain(d) if ctl.division and d != ZERO else 0
        want_w = mul_lanes(fld, inv, xs) if updated else ys
        zero = archsim._stale(ctl.m, groups, N + 1, Mj)
        want_w[zero.start : zero.stop] = [0] * len(zero)
        if after.M[j] != Mj or (after.vf[i], after.wg[j]) != (fld.pack(want), fld.pack(want_w)):
            faults.append((N, i))
        kinds.add((d == ZERO, e == 0))
    return faults


def reference_stale(m, groups, N, Mj):
    """The zero-set groups of a w/g column at loop N, written out per lane
    as the reference for the mask tables: Mj is None before the column's
    first replacement."""
    return range(max(1, m + 1 - N), groups if Mj is None else m + 1 - Mj)


def charge_faults(arch, tr, seen):
    """The multiplier statistics of a run that are not the per-lane charge,
    recounted lane by lane from its recorded boundaries: vm (1 in division
    mode, which keeps v; 2 inverse-free) at every group past the head,
    plus, after a division update, one at every group not zero-set, and a
    peak of vm plus that one; a loop's multipliers per clock are the sum of
    its lanes' peaks on the parallel blocks, their max on the serial
    pair."""
    uses, per_clock = 0, []
    for b, c in loops_of(seen):
        ctl, N = b.ctl, b.N
        vm, peaks = 1 if ctl.division else 2, []
        for j in ctl.gates.ibar[N]:
            wm = int(c.M[j] == N and ctl.division)
            stale = reference_stale(ctl.m, ctl.groups, N + 1, None if c.M[j] < 0 else c.M[j])
            uses += vm * (ctl.groups - 1) + wm * (ctl.groups - len(stale))
            peaks.append(vm + wm)
        per_clock.append(sum(peaks) if arch == archsim.INVERSE_FREE else max(peaks))
    want = {"mult_uses": uses, "max_mults_per_clock": max(per_clock)}
    return [name for name, value in want.items() if getattr(tr, name) != value]


@pytest.mark.parametrize("code_name", ["elliptic", "klein", "hermitian", "elliptic_gf512"])
def test_controller_tables_equal_their_definitions(request, code_name):
    # every simulator's group count (m+3 for the inverse-free and serial
    # lines, m+4 for the serial inverse-free one): each mask of loop N and
    # last replacement Mj clears exactly the lanes of the groups zero-set at
    # loop N+1 and Mj = -1 (never replaced) is the last entry; both counts
    # share the code's one table of product rows and one of pair rows, and
    # a mask table holds nothing else, since the boundary compares register
    # words as they stand
    base = request.getfixturevalue(code_name)
    code, m, lb = CodeSpec(base.curve, base.fld, base.m), base.m, base.fld.lane_bits
    synd = code.syndromes(code.zero_word())
    for sim in archsim.SIMULATORS.values():
        sim(code, synd)
    counts = sorted(k[1] for k in code.tables if k[0] is archsim._zero_masks)
    assert counts == [m + 3, m + 4]
    shared = (archsim._rows, archsim._pairs)
    assert [k for k in code.tables if k[0] in shared] == [(build,) for build in shared]
    lane = (1 << lb) - 1
    for groups in counts:
        zero = code.tables[archsim._zero_masks, groups]
        assert len(zero) == m + 1
        for N, row in enumerate(zero):
            assert len(row) == m + 2
            for Mj in [*range(m + 1), -1]:
                stale = reference_stale(m, groups, N + 1, None if Mj < 0 else Mj)
                assert archsim._stale(m, groups, N + 1, Mj) == stale
                assert row[Mj] == ~sum(lane << g * lb for g in stale), (groups, N, Mj)


@pytest.mark.parametrize("code_name", ["elliptic", "klein", "hermitian", "elliptic_gf512"])
def test_multiplier_counts_equal_the_per_lane_charge(request, monkeypatch, code_name):
    # a run charges every lane's v/f multipliers and a lane only a division
    # update's w/g ones; recounted here lane by lane, loop by loop
    # (charge_faults), on runs that take division updates
    code, seen = request.getfixturevalue(code_name), record_boundaries(monkeypatch)
    rng, divisions = random.Random(f"mults/{code_name}"), 0
    for weight in range(code.t_generic + 3):
        locs, vals = random_pattern(code, weight, rng, affine_only=False)
        synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
        for arch, sim in archsim.SIMULATORS.items():
            seen.clear()
            tr = sim(code, synd)
            assert len(loops_of(seen)) == code.m + 1
            assert charge_faults(arch, tr, seen) == [], (arch, weight)
            if arch == archsim.SERIAL:
                divisions += tr.inv_uses
    assert divisions > 0


@pytest.mark.parametrize("preset", PRESETS)
def test_code_builds_its_lane_tables_once(monkeypatch, preset):
    # as the encoder reuses one rref: the first run of each datapath on a
    # code builds its lane tuples -- the serial slot table, which both serial
    # modes share, and the inverse-free blocks' -- and keeps them on the
    # code; every later run, on other words, hands the controller the same
    # objects, and a fresh CodeSpec starts without them
    run, given = archsim._Controller.run, []

    def recording(self, lanes, fold):
        given.append((self.arch, lanes))
        return run(self, lanes, fold)

    monkeypatch.setattr(archsim._Controller, "run", recording)
    base = cli.load_code(preset)[0]
    code = CodeSpec(base.curve, base.fld, base.m)
    blocks, serial = (archsim._lanes, False), (archsim._lanes, True)
    keys = {archsim.INVERSE_FREE: blocks, archsim.SERIAL: serial, archsim.SERIAL_INVERSE_FREE: serial}
    assert not set(keys.values()) & set(code.tables)
    rng = random.Random(f"lane tables/{preset}")
    for weight in range(3):
        locs, vals = random_pattern(code, weight + 1, rng, affine_only=False)
        synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
        for arch, sim in archsim.SIMULATORS.items():
            sim(code, synd)
            assert given[-1][1] is code.tables[keys[arch]]
    assert len(given) == 3 * len(archsim.SIMULATORS)
    assert all(lanes is code.tables[keys[arch]] for arch, lanes in given)
    assert len({id(lanes) for _, lanes in given}) == 2
    assert not set(keys.values()) & set(CodeSpec(base.curve, base.fld, base.m).tables)


# Mutants of the controller's loop, each a source edit of _Controller.run:
# the seam checks above (lane_map_faults, charge_faults) must see each one
# with the boundary check off, so they do not lean on it; a "boundary"
# mutant must make the boundary check itself raise.
LOOP_MUTANTS = {
    # the zero mask read at zero[N][M_j] before the update sets M_j
    "mask_before_update": (
        [("w = y\n", "w, early = y, mask[M[j]]\n"), ("wg[j] = w & mask[M[j]]", "wg[j] = w & early")],
        "lane map",
    ),
    # a division update that passes x on unscaled
    "division_unscaled": ([("w = lookup(x, rows[inv_chain(d)])", "w = x")], "lane map"),
    # the peak fold skipped on a loop with a division update
    "peak_fold_skipped": (
        [("trace.max_mults_per_clock = max(trace.max_mults_per_clock, peak)", "pass")],
        "charge",
    ),
    # a lane that latches d != 0 but takes no update still sets M_j = N,
    # after its w/g input is masked, so only M tells
    "switch_without_update": (
        [("wg[j] = w & mask[M[j]]", "wg[j] = w & mask[M[j]]; M[j] = N if d != ZERO else M[j]")],
        "boundary",
    ),
}


def mutated_run(edits):
    """_Controller.run with each (old, new) edit applied once to its source,
    compiled in a copy of archsim's namespace."""
    src = textwrap.dedent(inspect.getsource(archsim._Controller.run))
    for old, new in edits:
        assert src.count(old) == 1, old
        src = src.replace(old, new)
    scope = dict(vars(archsim))
    exec(compile(src, archsim.__file__, "exec", __future__.annotations.compiler_flag, dont_inherit=True), scope)
    return scope["run"]


@pytest.mark.parametrize("mutant", [None, *sorted(LOOP_MUTANTS)])
def test_seam_checks_kill_loop_mutants(monkeypatch, mutant):
    # None is the loop as it stands, compiled the same way: no check sees a
    # fault in it
    edits, check = LOOP_MUTANTS[mutant] if mutant else ([], None)
    monkeypatch.setattr(archsim._Controller, "run", mutated_run(edits))
    if check == "boundary":
        for preset, arch in itertools.product(PRESETS, archsim.SIMULATORS):
            with pytest.raises(AssertionError, match=rf"^{arch}: boundary N=\d+ {DIVERGES} 'M'"):
                run_bundled(arch, preset)
        return
    seen, found = record_boundaries(monkeypatch, check=False), {"lane map": 0, "charge": 0}
    for preset in PRESETS:
        code, _ = cli.load_code(preset)
        rng = random.Random(f"mutants/{preset}")
        for weight in range(1, code.t_generic + 3):
            locs, vals = random_pattern(code, weight, rng, affine_only=False)
            synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
            for arch, sim in archsim.SIMULATORS.items():
                seen.clear()
                tr = sim(code, synd)
                found["lane map"] += sum(len(lane_map_faults(b, c, set())) for b, c in loops_of(seen))
                found["charge"] += len(charge_faults(arch, tr, seen))
    assert found[check] > 0 if check else found == {"lane map": 0, "charge": 0}, found
