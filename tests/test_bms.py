import copy
import hashlib
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap

import pytest

from agbms import CodeSpec, CurveSpec, bms, oracle
from agbms.gf import ZERO, OpCounter
from conftest import (
    bipoly,
    discrepancy_direct,
    full_syndromes_from_errors,
    groebner_la,
    ideal_membership,
    poly_degree,
    random_generic_pattern,
    random_pattern,
    reduce,
    reference_rank,
)

ELLIPTIC_F9 = [
    {(2, 0): 13, (0, 1): 13, (1, 0): 12, (0, 0): 2},
    {(1, 1): 13, (2, 0): 11, (0, 1): 10, (1, 0): 2, (0, 0): 4},
]
ELLIPTIC_G9 = [
    {(1, 0): 10, (0, 0): 14},
    {(0, 1): 4, (1, 0): 2},
]
KLEIN_F16 = [
    {(3, 0): 0, (2, 0): 0, (1, 1): 3, (1, 0): 2, (0, 0): 1},
    {(2, 1): 0, (2, 0): 1, (1, 1): 6, (1, 0): 2, (0, 0): 6},
    {(1, 2): 0, (2, 0): 2, (1, 1): 0, (1, 0): 6, (0, 0): 5},
]
KLEIN_G16 = [
    {(1, 1): 4, (1, 0): 6, (0, 0): 6},
    {(2, 0): 4, (1, 0): 6, (0, 0): 4},
    {},
]
HERMITIAN_F25_0 = {(3, 0): 11, (1, 1): 10, (2, 0): 8, (0, 1): 2, (1, 0): 1, (0, 0): 2}


def test_init_state(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    synd = elliptic.syndromes(recv)
    st = bms.init_state(elliptic, synd, bms.INVERSE_FREE)
    rec = bms.state_record(st, elliptic)
    width = elliptic.m + 2  # each polynomial covers exponents 0..m+1
    assert rec["v"][0][0] == (0, synd[(0, 0)])
    for i in range(2):
        assert rec["f"][i] == [(0, 0)]
        assert rec["g"][i] == []
        assert rec["w"][i] == [(0, 0)]
        # column i is seeded from the window-i syndrome rows, nothing at m+1
        want = [(h, synd[l]) for h in range(elliptic.m + 1) if (l := elliptic.curve.l_of(i, h)) is not None]
        assert rec["v"][i] == [(h, c) for h, c in want if c != ZERO]
        assert st.vf[i].bit_length() <= 2 * width * elliptic.fld.lane_bits
        assert st.wg[i].bit_length() <= 2 * width * elliptic.fld.lane_bits
    assert st.s1 == [0, 0] and st.c1 == [-1, -1]


def test_init_state_klein_offsets(klein, klein_golden):
    _, _, recv = klein_golden
    st = bms.init_state(klein, klein.syndromes(recv), bms.DIVISION)
    assert st.s1 == [0, 1, 1]
    assert st.c1 == [-1, 0, 0]


def test_init_zero_syndromes(elliptic):
    synd = elliptic.syndromes(elliptic.zero_word())
    st = bms.init_state(elliptic, synd, bms.INVERSE_FREE)
    assert bms.state_record(st, elliptic)["v"] == [[], []]
    assert st.vf == [1 << (elliptic.m + 2) * elliptic.fld.lane_bits] * 2  # v = 0, f = 1


def test_init_requires_full_table(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    synd = elliptic.syndromes(recv)
    synd.pop((1, 1))
    with pytest.raises(ValueError):
        bms.init_state(elliptic, synd, bms.INVERSE_FREE)


def test_init_state_gathers_every_window(elliptic, klein, hermitian, elliptic_gf512):
    # the gathered seed holds, in v lane h of column i, u at the window-i
    # monomial of pole order h (zero at a gap) and f = 1, on one- and
    # two-byte lanes; every syndrome index is read, so dropping any one
    # raises ValueError naming it
    rng = random.Random(3)
    for code in (elliptic, klein, hermitian, elliptic_gf512):
        cv, fld, L = code.curve, code.fld, code.m + 2
        synd = {l: rng.randrange(-1, fld.q - 1) for l in code.syndrome_domain}
        st = bms.init_state(code, synd, bms.INVERSE_FREE)
        for i in range(cv.a):
            window = [cv.l_of(i, h) for h in range(code.m + 1)]
            want = [ZERO if l is None else synd[l] for l in window] + [ZERO]
            assert fld.unpack(st.vf[i], 2 * L) == [fld.to_vec(c) for c in want] + [1] + [0] * (L - 1)
        for l in code.syndrome_domain:
            with pytest.raises(ValueError, match=rf"^syndrome table missing u_{re.escape(str(l))}$"):
                bms.init_state(code, {k: v for k, v in synd.items() if k != l}, bms.DIVISION)


def test_zero_syndromes_fixed_point(elliptic):
    synd = elliptic.syndromes(elliptic.zero_word())
    st, recs = bms.run(elliptic, synd, bms.INVERSE_FREE, record=True)
    for r in recs:
        assert r["s1"] == [0, 0] and r["c1"] == [-1, -1]
        assert all(d == ZERO for d in r["d"])
    final = recs[-1]
    assert final["f"][0] == [(0, 0)]
    assert final["g"] == [[], []]
    assert final["w"][0] == [(9, 0)]  # w = Z^(m+1), the head kept at m+1


def test_first_step_jump(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    st = bms.init_state(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE)
    loops = bms.loops(st, elliptic)
    next(loops), next(loops)  # to loop 0, then through it
    assert st.N == 1
    assert st.s1[0] == 1 and st.c1[0] == 0  # s^(0) jumps to (1, 0)
    assert st.s1[1] == 0


def test_elliptic_trajectory_monotone(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    _, recs = bms.run(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE, record=True)
    for i in range(2):
        traj = [r["s1"][i] for r in recs]
        assert traj == sorted(traj)
    final = recs[-1]
    cv = elliptic.curve
    for i in range(2):
        assert cv.pole_order((final["s1"][i], i)) <= 3 + 1 - 1 + 2  # t+g-1+a


def test_golden_extraction_elliptic(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    st, _ = bms.run(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE)
    out = bms.extract_locators(st, elliptic)
    assert [bipoly(elliptic, F) for F in out.F] == ELLIPTIC_F9
    assert [bipoly(elliptic, G) for G in out.G] == ELLIPTIC_G9
    assert st.s1 == [2, 1]
    assert out.lead_F == [13, 13]


def test_golden_extraction_klein(klein, klein_golden):
    _, _, recv = klein_golden
    st, _ = bms.run(klein, klein.syndromes(recv), bms.DIVISION)
    out = bms.extract_locators(st, klein)
    assert [bipoly(klein, F) for F in out.F] == KLEIN_F16
    assert [bipoly(klein, G) for G in out.G] == KLEIN_G16
    assert st.s1 == [3, 2, 1]
    assert out.lead_F == [0, 0, 0]  # division mode normalizes leads to alpha^0
    assert out.head_e == [0, 0, 0]


def test_golden_extraction_hermitian(hermitian, hermitian_golden):
    _, _, recv = hermitian_golden
    st, _ = bms.run(hermitian, hermitian.syndromes(recv), bms.INVERSE_FREE)
    out = bms.extract_locators(st, hermitian)
    assert bipoly(hermitian, out.F[0]) == HERMITIAN_F25_0
    assert st.s1 == [3, 2, 0, 0]


def test_inverse_free_no_inversions(elliptic, klein, hermitian):
    rng = random.Random(31)
    for code in (elliptic, klein, hermitian):
        for _ in range(5):
            locs, vals = random_pattern(code, rng.randint(1, code.t_generic), rng)
            recv = code.inject_errors(code.zero_word(), locs, vals)
            ctr = OpCounter()
            bms.run(code, code.syndromes(recv), bms.INVERSE_FREE, ctr=ctr)
            assert ctr.invs == 0


def test_division_inversions_only_on_updates(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    ctr = OpCounter()
    _, recs = bms.run(elliptic, elliptic.syndromes(recv), bms.DIVISION, ctr=ctr, record=True)
    # every non-preserved branch strictly grows one s1 entry and performs
    # exactly one inversion
    updates = 0
    for prev, cur in zip(recs, recs[1:]):
        updates += sum(1 for i in range(2) if cur["s1"][i] != prev["s1"][i])
    assert ctr.invs == updates > 0


def test_mode_equivalence_golden(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    for code, (locs, vals, recv) in [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]:
        synd = code.syndromes(recv)
        _, rec_a = bms.run(code, synd, bms.INVERSE_FREE, record=True)
        _, rec_b = bms.run(code, synd, bms.DIVISION, record=True)
        assert [r["s1"] for r in rec_a] == [r["s1"] for r in rec_b]
        assert [r["c1"] for r in rec_a] == [r["c1"] for r in rec_b]


def test_discrepancy_direct_trivial(elliptic, elliptic_golden):
    locs, vals, recv = elliptic_golden
    synd = elliptic.syndromes(recv)
    assert discrepancy_direct(elliptic, {(0, 0): 0}, synd, (0, 0)) == synd[(0, 0)]


def test_discrepancy_direct_vanishes_on_ideal(elliptic, elliptic_golden):
    locs, vals, recv = elliptic_golden
    full = full_syndromes_from_errors(elliptic, locs, vals, 40)
    gb = groebner_la(elliptic, locs)
    for F in gb:
        for l in elliptic.curve.phi(0, 2, 30):
            assert discrepancy_direct(elliptic, F, full, l) == ZERO


def test_discrepancy_direct_missing_index(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    synd = elliptic.syndromes(recv)
    with pytest.raises(ValueError):
        discrepancy_direct(elliptic, {(4, 0): 0, (0, 0): 3}, synd, (5, 0))


def test_per_step_discrepancy_equivalence(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    # The v-head value the algorithm uses equals the direct Eq.-(3)
    # discrepancy of the extracted F at every step (the parallel-form
    # property whose proof the write-up leaves out).  On the Klein quartic
    # the comparison is only well posed when the shift monomial
    # l^(i) - s lies in the function ring; at the excluded-shift steps the
    # direct formula would need syndromes a receiver cannot compute.
    for code, (locs, vals, recv) in [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]:
        full = full_syndromes_from_errors(code, locs, vals, 3 * code.m)
        cv = code.curve
        checked = 0
        for mode in (bms.INVERSE_FREE, bms.DIVISION):
            st = bms.init_state(code, code.syndromes(recv), mode)
            for N, _ in zip(range(code.m + 1), bms.loops(st, code)):
                d, _ = bms.discrepancies(st, code)
                l = cv.l_of(0, N)
                Fs = bms.extract_locators(st, code).F
                for i in range(cv.a):
                    F = bipoly(code, Fs[i])
                    li = cv.l_of(i, N)
                    cond = li is not None and st.s1[i] <= li[0]
                    if cond:
                        shift = (li[0] - st.s1[i], li[1] - i)
                        if cv.in_function_ring(shift):
                            assert d[i] == discrepancy_direct(code, F, full, l), (mode, N, i)
                            checked += 1
                    elif l is not None:
                        assert discrepancy_direct(code, F, full, l) == ZERO, (mode, N, i)
        assert checked > 0


def check_theorem_suite(code, locs, vals, recv, mode, minimality=True):
    """Invariants (a)-(d) plus s1 = c1 + 1 at every loop index.

    (a) uses the converted form: sum_n F_n u_{n+h} = 0 for every ring
    monomial h with o(h) <= N-1-o(s).  On pure C_a^b curves this is the
    Eq.-(3) statement by the shift-set identity (checked exhaustively in
    the curve tests); on the Klein quartic it is the faithful version --
    Eq.-(3) at excluded shifts would involve syndromes outside the
    receiver's table.  (c) subtracts the column's minimal degree, which is
    0 on pure curves and 1 on the Klein columns missing y and y^2.
    """
    cv = code.curve
    fld = code.fld
    full = full_syndromes_from_errors(code, locs, vals, 3 * code.m)
    st = bms.init_state(code, code.syndromes(recv), mode)
    for N, _ in enumerate(bms.loops(st, code)):
        Fs = bms.extract_locators(st, code).F
        for i in range(cv.a):
            assert st.s1[i] == st.c1[i] + 1  # Lemma: s1 = c1 + 1
            s = (st.s1[i], i)
            F = bipoly(code, Fs[i])
            assert poly_degree(cv, F) == s  # (b) deg F = s
            for h in cv.phi(0, cv.a, N - 1 - cv.pole_order(s)):  # (a)
                acc = ZERO
                for n, c in F.items():
                    acc = fld.add(acc, fld.mul(c, full[(n[0] + h[0], n[1] + h[1])]))
                assert acc == ZERO, (N, i, h)
        chain = [st.s1[i] - cv.basis_start(i)[0] for i in range(cv.a)]
        assert all(chain[i] >= chain[i + 1] for i in range(cv.a - 1))  # (c)
        if minimality:
            for i in range(cv.a):  # (d) no smaller degree admits membership
                for z in range(cv.basis_start(i)[0], st.s1[i]):
                    assert not _membership_possible(code, full, (z, i), N - 1), (N, i, z)
    assert N == code.m + 1


def _membership_possible(code, full, deg, A):
    """Rank test: does some F with exact degree ``deg`` have vanishing
    discrepancies on all of Phi(a, A)?"""
    cv = code.curve
    odeg = cv.pole_order(deg)
    monos = [n for n in cv.phi(0, cv.a, odeg) if n != deg]
    shifts = cv.phi(0, cv.a, A - odeg) if A >= odeg else []
    if not shifts:
        return True  # no constraints at all
    rows = [[full[(n[0] + h[0], n[1] + h[1])] for n in monos] for h in shifts]
    rhs = [full[(deg[0] + h[0], deg[1] + h[1])] for h in shifts]
    aug = [row + [r] for row, r in zip(rows, rhs)]
    return reference_rank(code.fld, rows) == reference_rank(code.fld, aug)


def test_theorem_suite_goldens(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    for code, (locs, vals, recv) in [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]:
        check_theorem_suite(code, locs, vals, recv, bms.INVERSE_FREE)


def test_ideal_closure_under_monomials(elliptic, elliptic_golden):
    # Members of V(u, N-1) stay members after multiplication by monomials
    locs, vals, recv = elliptic_golden
    full = full_syndromes_from_errors(elliptic, locs, vals, 60)
    st, _ = bms.run(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE)
    out = bms.extract_locators(st, elliptic)
    cv = elliptic.curve
    for packed in out.F:
        F = bipoly(elliptic, packed)
        for h in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            raw = {(n1 + h[0], n2 + h[1]): c for (n1, n2), c in F.items()}  # z^h * F
            shifted = reduce(cv, elliptic.fld, raw)
            for l in cv.phi(0, 2, st.N - 1):
                assert discrepancy_direct(elliptic, shifted, full, l) == ZERO


def test_window_invariants(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    st = bms.init_state(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE)
    m, lb = elliptic.m, elliptic.fld.lane_bits
    loops = bms.loops(st, elliptic)
    for N, _ in zip(range(m + 1), loops):
        rec = bms.state_record(st, elliptic)
        for i in range(2):
            # two polynomials of m+2 lanes each per packed line
            assert max(st.vf[i].bit_length(), st.wg[i].bit_length()) <= 2 * (m + 2) * lb
            assert all(N <= h <= m for h, _ in rec["v"][i])
            # so the m+1 head appears only after the last loop
            assert all(N <= h <= m for h, _ in rec["w"][i])
            assert all(h <= N for h, _ in rec["f"][i])
            assert all(h <= N for h, _ in rec["g"][i])
    next(loops)  # loop m, which the zip leaves unrun
    assert st.N == m + 1
    final = bms.state_record(st, elliptic)
    assert all(final["w"][i][-1][0] == m + 1 for i in range(2))  # e_{m+1} for the error values


def test_extract_poly_raises_under_optimize():
    # the support and leading-coefficient checks, the footprint's pivot
    # count behind every genericity verdict and the simulators' boundary
    # check guard results, so they must hold when asserts are compiled out
    script = textwrap.dedent(
        """
        from agbms import GF, CodeSpec, Point, archsim, bms, elliptic_curve, oracle
        code = CodeSpec(elliptic_curve(), GF(4, 0b10011), m=8)
        assert False, "asserts are on"
        zp = code.fld.pack([1, 0, code.fld.exp[5]])  # y, x, 1 sit at Z^0, Z^1, Z^3; Z^2 is no slot
        try:
            bms.extract_poly(code, zp, (0, 1))
        except AssertionError as exc:
            print("stray:", exc)
        st = bms.init_state(code, code.syndromes(code.zero_word()), bms.INVERSE_FREE)
        st.vf[1] &= (1 << (code.m + 2) * code.fld.lane_bits) - 1  # f^(1) = 0
        try:
            bms.extract_locators(st, code)
        except AssertionError as exc:
            print("lead:", exc)
        locs = [code.points.index(Point(*xy)) for xy in [(3, 7), (9, 11), (14, 4)]]
        print("generic pattern:", oracle.is_generic(code, locs).is_generic)
        try:
            oracle.is_generic(code, [5, 5 - code.n])  # two indices naming one point
        except ValueError as exc:
            print("generic:", exc)
        init_state = bms.init_state
        def skewed(*args):
            st = init_state(*args)
            st.vf[0] ^= (st.vf[0] & 15) or 1  # clear a nonzero v head, else set it to 1
            return st
        bms.init_state = skewed
        try:
            archsim.sim_inverse_free(code, code.syndromes(code.inject_errors(code.zero_word(), locs, [6, 8, 11])))
        except AssertionError as exc:
            print("sim:", exc)
        bms.init_state = init_state
        from agbms import decoder
        run = bms.run
        def inverting(*args, **kwargs):
            st, records = run(*args, **kwargs)
            st.invs += 1
            return st, records
        bms.run = inverting
        try:
            decoder.decode(code, code.zero_word())
        except AssertionError as exc:
            print("guard:", exc)
        """
    )
    src = str(pathlib.Path(bms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert "stray: coefficients outside the monomial support: {2: 5}" in out
    assert "lead: leading coefficient of F^(1) must stay nonzero" in out
    assert "generic pattern: True" in out
    assert "generic: 1 of 2 columns pivot: the locations repeat a point" in out
    assert "sim: inverse_free: boundary N=0 register state diverges" in out
    assert "guard: inverse-free BMS performed a field inversion" in out


def test_state_record_format(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    _, recs = bms.run(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE, record=True)
    assert len(recs) == elliptic.m + 2  # one per N plus the final state
    for r in recs:
        assert set(r) == {"N", "s1", "c1", "d", "e", "f", "g", "v", "w"}
        for key in ("f", "g", "v", "w"):
            for poly in r[key]:
                assert all(isinstance(h, int) and isinstance(c, int) for h, c in poly)


def test_delta_set(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    st, _ = bms.run(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE)
    assert bms.delta_set(elliptic, st.s1) == [(0, 0), (1, 0), (0, 1)]


def test_final_degree_bounds(elliptic, klein, hermitian):
    # after the last loop o(s^(i)) <= t+2g-1+a always and <= t+g-1+a on
    # generic patterns, modulo columns whose minimal ring monomial already
    # exceeds the bound (the Hermitian y^3 column starts at pole order 15)
    rng = random.Random(61)
    for code in (elliptic, klein, hermitian):
        cv, g, a = code.curve, code.curve.genus, code.curve.a
        for _ in range(12):
            t = rng.randint(1, code.t_generic)
            locs, vals = random_pattern(code, t, rng)
            recv = code.inject_errors(code.zero_word(), locs, vals)
            st, _ = bms.run(code, code.syndromes(recv), bms.INVERSE_FREE)
            generic = oracle.is_generic(code, locs).is_generic
            for i in range(a):
                start = cv.pole_order(cv.basis_start(i))
                bound = t + (g if generic else 2 * g) - 1 + a
                assert cv.pole_order((st.s1[i], i)) <= max(bound, start)


def test_mode_equivalence_random(elliptic, klein, hermitian):
    rng = random.Random(77)
    for code in (elliptic, klein, hermitian):
        for _ in range(8):
            locs, vals = random_generic_pattern(code, rng.randint(1, code.t_generic), rng)
            recv = code.inject_errors(code.zero_word(), locs, vals)
            synd = code.syndromes(recv)
            _, ra = bms.run(code, synd, bms.INVERSE_FREE, record=True)
            _, rb = bms.run(code, synd, bms.DIVISION, record=True)
            assert [r["s1"] for r in ra] == [r["s1"] for r in rb]
            assert [r["c1"] for r in ra] == [r["c1"] for r in rb]
            sa, _ = bms.run(code, synd, bms.INVERSE_FREE)
            sb, _ = bms.run(code, synd, bms.DIVISION)
            fa = bms.extract_locators(sa, code)
            fb = bms.extract_locators(sb, code)
            assert bms.delta_set(code, sa.s1) == bms.delta_set(code, sb.s1)
            for F in fa.F + fb.F:
                assert ideal_membership(bipoly(code, F), code, locs)


def test_op_counts_complete_and_repeatable(
    elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden
):
    # muls/invs on the worked patterns, unchanged since the adds became
    # counted; adds (one per merged coefficient) must be reported and repeat
    cases = [
        (elliptic, elliptic_golden, {bms.INVERSE_FREE: (154, 0), bms.DIVISION: (78, 3)}),
        (klein, klein_golden, {bms.INVERSE_FREE: (513, 0), bms.DIVISION: (155, 4)}),
        (hermitian, hermitian_golden, {bms.INVERSE_FREE: (1379, 0), bms.DIVISION: (366, 5)}),
    ]
    for code, (_, _, recv), want in cases:
        synd = code.syndromes(recv)
        for mode, (muls, invs) in want.items():
            counts = []
            for _ in range(2):
                ctr = OpCounter()
                state, _ = bms.run(code, synd, mode, ctr=ctr)
                assert state.invs == ctr.invs  # the state's own tally, read by decode's guard
                counts.append((ctr.muls, ctr.invs, ctr.adds))
            assert counts[0] == counts[1]
            assert counts[0][:2] == (muls, invs)
            assert counts[0][2] > 0


def reference_masks(code, N):
    """The AND masks of loop N, written out: the one that deletes the
    consumed v head (mod Z^N) and the one that keeps a shifted w and g in
    their halves (w's m+1 lane dropped, but after the last loop)."""
    lb, L = code.fld.lane_bits, code.m + 2
    lane, full = (1 << lb) - 1, (1 << 2 * L * lb) - 1
    keep = full ^ lane << L * lb
    if N != code.m:
        keep ^= lane << (L - 1) * lb
    return full ^ lane << N * lb, keep


def reference_step(state, code, ctr=None):
    """The two-pass N-loop ``bms.loops`` replaced: Step 1 for every column
    through ``bms.discrepancies``, then Step 2 lane by lane.  Kept as the
    oracle the one-pass loop must equal."""
    fld, cv = code.fld, code.curve
    N, lb = state.N, fld.lane_bits
    vf, wg, s1, c1 = state.vf, state.wg, state.s1, state.c1
    inverse_free = state.mode == bms.INVERSE_FREE
    d, e = bms.discrepancies(state, code)
    l1 = bms.gate_table(code).l1[N]
    clear, keep = reference_masks(code, N)
    muls = adds = 0
    for i in range(cv.a):
        ib = cv.ibar(i, N)
        x, y, di = vf[i], wg[ib], d[i]
        new = x
        if inverse_free:
            new = fld.scale(x, e[ib])
            muls += 0 if e[ib] == ZERO else fld.weight(x)
        if di != ZERO:
            new ^= fld.scale(y, di)
            muls += fld.weight(y)
            adds += fld.weight(y)
        vf[i] = new & clear
        if di != ZERO and s1[i] < l1[i] - c1[ib]:
            if not inverse_free:
                x = fld.scale(x, fld.inv_chain(di, ctr))
                muls += fld.weight(x)
            wg[ib] = x << lb & keep
            state.M[ib], state.tlabel[ib] = N, (s1[i], i)
            s1[i], c1[ib] = l1[i] - c1[ib], l1[i] - s1[i]
        else:
            wg[ib] = y << lb & keep
    if ctr is not None:
        ctr.muls += muls
        ctr.adds += adds
    state.N = N + 1


def test_step_matches_reference_step(elliptic, klein, hermitian, elliptic_gf512, elliptic_gf8, monkeypatch):
    # the one-pass loop reads each lane's d and e where it updates the lane;
    # after every N its state and counts equal the two-pass reference's, on
    # one- and two-byte lanes, so Step 1 keeps the one definition of
    # ``bms.discrepancies``.  A run without a counter leaves the same state,
    # its inversion tally included, and an inverse-free loop makes one
    # product per lane whose e is not alpha^0 or whose d is nonzero: one
    # ``GF.merge`` where both hold, else one ``GF.scale``; division mode
    # never merges.  The gate table's per-loop tuples hold ibar, the gate
    # and the masks written out here
    rng = random.Random(17)
    for code in (elliptic, klein, hermitian, elliptic_gf512, elliptic_gf8):
        cv, gates, lb = code.curve, bms.gate_table(code), code.fld.lane_bits
        for N in range(code.m + 2):
            assert gates.l1[N] == [-1 if (l := cv.l_of(i, N)) is None else l[0] for i in range(cv.a)]
        lanes = [[(i, cv.ibar(i, N), gates.l1[N][i]) for i in range(cv.a)] for N in range(code.m + 1)]
        assert gates.loop == [(N, N * lb, lanes[N], *reference_masks(code, N)) for N in range(code.m + 1)]
        fld, calls = code.fld, []
        scale, merge = fld.scale, fld.merge

        def merged(x, e, y, d):
            # one product, whatever the merge form calls
            calls.append("merge")
            n = len(calls)
            out = merge(x, e, y, d)
            del calls[n:]
            return out

        monkeypatch.setattr(fld, "scale", lambda x, c: calls.append("scale") or scale(x, c))
        monkeypatch.setattr(fld, "merge", merged)
        for k in range(2 * (code.t_generic + 3)):
            locs, vals = random_pattern(code, k // 2, rng, affine_only=False)
            synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
            for mode in (bms.INVERSE_FREE, bms.DIVISION):
                st, ref, bare = (bms.init_state(code, synd, mode) for _ in range(3))
                ctr, ref_ctr = OpCounter(), OpCounter()
                counted, uncounted = bms.loops(st, code, ctr), bms.loops(bare, code)
                next(counted), next(uncounted)  # to the yield before loop 0
                while st.N <= code.m:
                    d, e = bms.discrepancies(bare, code)
                    pairs = [(d[i], e[ib]) for i, ib, _ in gates.loop[st.N][2]]  # each lane's d and e
                    calls.clear()
                    next(uncounted)
                    if mode == bms.INVERSE_FREE:
                        assert calls.count("merge") == sum(di != ZERO and ei != 0 for di, ei in pairs)
                        assert calls.count("scale") == sum((di != ZERO) != (ei != 0) for di, ei in pairs)
                    else:
                        assert "merge" not in calls
                    next(counted)
                    reference_step(ref, code, ref_ctr)
                    assert st == ref, (code.curve, mode, locs, vals, st.N)
                    assert ctr == ref_ctr, (code.curve, mode, locs, vals, st.N)
                    assert (bare, bare.invs) == (st, st.invs), (code.curve, mode, locs, vals, st.N)
                assert (next(counted, "end"), next(uncounted, "end")) == ("end", "end")  # no loop past m
                assert st.invs == ctr.invs
        monkeypatch.undo()  # the wrapper reads this code's scale and calls


def test_loops_resume_from_any_N(elliptic, klein, hermitian, elliptic_gf512):
    # a run started on a copy of the state at any N = 0..m+1 (the gate
    # table's loop slice from N) ends in the uninterrupted run's final
    # state, inversion tally included, and its counter, started at the
    # totals so far, in the same totals; both modes, one- and two-byte lanes
    rng = random.Random(29)
    for code in (elliptic, klein, hermitian, elliptic_gf512):
        for w in (code.t_generic, code.t_generic + 2):
            locs, vals = random_pattern(code, w, rng, affine_only=False)
            synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
            for mode in (bms.INVERSE_FREE, bms.DIVISION):
                st, ctr = bms.init_state(code, synd, mode), OpCounter()
                taken = [(copy.deepcopy(st), copy.copy(ctr)) for _ in bms.loops(st, code, ctr)]
                assert [s.N for s, _ in taken] == list(range(code.m + 2))
                for start, start_ctr in taken:
                    N = start.N
                    assert sum(1 for _ in bms.loops(start, code, start_ctr)) == code.m + 2 - N
                    assert (start, start.invs, start_ctr) == (st, st.invs, ctr), (code.curve, mode, N)


# sha256[:16] over bms.run(record=True) records and (muls, invs, adds) of 40
# seeded words per curve in both modes, recorded before the packed-lane kernel
RECORD_DIGESTS = {
    "elliptic": "0631b1c7fba0c4a2",
    "klein": "d1462689f04fd236",
    "hermitian": "1916bc77788530dd",
    "other_elliptic": "8464749137f07101",
    "c57": "61cad554c7ab4f0e",
}


def test_bms_records_pinned(elliptic, klein, hermitian, other_elliptic, gf16):
    # weights 0..t_generic+2 on any of the n points, the non-affine ones included
    c57 = CodeSpec(CurveSpec(a=5, b=7, e=2, chi={(1, 0): 1}, genus=12), gf16, m=30)
    codes = {"elliptic": elliptic, "klein": klein, "hermitian": hermitian, "other_elliptic": other_elliptic, "c57": c57}
    digests = {}
    for name, code in codes.items():
        rng = random.Random(11)
        special = [j for j, p in enumerate(code.points) if p.special is not None]
        h = hashlib.sha256()
        for k in range(40):
            w = k % (code.t_generic + 3)
            locs = rng.sample(range(code.n), w)
            if special and w and k % 4 == 1 and special[0] not in locs:
                locs[0] = special[0]
            vals = [rng.randrange(code.fld.q - 1) for _ in range(w)]
            synd = code.syndromes(code.inject_errors(code.zero_word(), locs, vals))
            for mode in (bms.INVERSE_FREE, bms.DIVISION):
                ctr = OpCounter()
                _, recs = bms.run(code, synd, mode, ctr=ctr, record=True)
                h.update(repr((recs, ctr.muls, ctr.invs, ctr.adds)).encode())
        digests[name] = h.hexdigest()[:16]
    assert digests == RECORD_DIGESTS
