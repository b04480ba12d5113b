import hashlib
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from agbms import CodeSpec, CurveSpec, bms, linalg, oracle
from agbms.gf import ZERO, OpCounter
from conftest import bipoly, random_generic_pattern, random_pattern

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
    width = elliptic.m + 2  # each polynomial covers exponents 0..top+1
    assert rec["v"][0][0] == (0, synd[(0, 0)])
    for i in range(2):
        assert rec["f"][i] == [(0, 0)]
        assert rec["g"][i] == []
        assert rec["w"][i] == [(0, 0)]
        # column i is seeded from the window-i syndrome rows, nothing at top+1
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


def test_zero_syndromes_fixed_point(elliptic):
    synd = elliptic.syndromes(elliptic.zero_word())
    st, recs = bms.run(elliptic, synd, bms.INVERSE_FREE, record=True)
    for r in recs:
        assert r["s1"] == [0, 0] and r["c1"] == [-1, -1]
        assert all(d == ZERO for d in r["d"])
    final = recs[-1]
    assert final["f"][0] == [(0, 0)]
    assert final["g"] == [[], []]
    assert final["w"][0] == [(9, 0)]  # w = Z^(m+1), the head kept at top+1


def test_first_step_jump(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    st = bms.init_state(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE)
    bms.step(st, elliptic)
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
    assert oracle.discrepancy_direct(elliptic, {(0, 0): 0}, synd, (0, 0)) == synd[(0, 0)]


def test_discrepancy_direct_vanishes_on_ideal(elliptic, elliptic_golden):
    locs, vals, recv = elliptic_golden
    full = elliptic.full_syndromes_from_errors(locs, vals, 40)
    gb = oracle.groebner_la(elliptic, locs)
    for F in gb:
        for l in elliptic.curve.phi(0, 2, 30):
            assert oracle.discrepancy_direct(elliptic, F, full, l) == ZERO


def test_discrepancy_direct_missing_index(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    synd = elliptic.syndromes(recv)
    with pytest.raises(ValueError):
        oracle.discrepancy_direct(elliptic, {(4, 0): 0, (0, 0): 3}, synd, (5, 0))


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
        full = code.full_syndromes_from_errors(locs, vals, 3 * code.m)
        cv = code.curve
        checked = 0
        for mode in (bms.INVERSE_FREE, bms.DIVISION):
            st = bms.init_state(code, code.syndromes(recv), mode)
            for N in range(code.m + 1):
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
                            assert d[i] == oracle.discrepancy_direct(code, F, full, l), (mode, N, i)
                            checked += 1
                    elif l is not None:
                        assert oracle.discrepancy_direct(code, F, full, l) == ZERO, (mode, N, i)
                bms.step(st, code)
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
    full = code.full_syndromes_from_errors(locs, vals, 3 * code.m)
    st = bms.init_state(code, code.syndromes(recv), mode)
    for N in range(code.m + 2):
        Fs = bms.extract_locators(st, code).F
        for i in range(cv.a):
            assert st.s1[i] == st.c1[i] + 1  # Lemma: s1 = c1 + 1
            s = (st.s1[i], i)
            F = bipoly(code, Fs[i])
            assert cv.poly_degree(F) == s  # (b) deg F = s
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
        if st.N <= code.m:
            bms.step(st, code)


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
    return linalg.rank(code.fld, rows) == linalg.rank(code.fld, aug)


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
    full = elliptic.full_syndromes_from_errors(locs, vals, 60)
    st, _ = bms.run(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE)
    out = bms.extract_locators(st, elliptic)
    cv = elliptic.curve
    for packed in out.F:
        F = bipoly(elliptic, packed)
        for h in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            raw = {(n1 + h[0], n2 + h[1]): c for (n1, n2), c in F.items()}  # z^h * F
            shifted = cv.reduce(elliptic.fld, raw)
            for l in cv.phi(0, 2, st.N - 1):
                assert oracle.discrepancy_direct(elliptic, shifted, full, l) == ZERO


def test_window_invariants(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    st = bms.init_state(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE)
    m, lb = elliptic.m, elliptic.fld.lane_bits
    for N in range(m + 1):
        rec = bms.state_record(st, elliptic)
        for i in range(2):
            # two polynomials of m+2 lanes each per packed line
            assert max(st.vf[i].bit_length(), st.wg[i].bit_length()) <= 2 * (m + 2) * lb
            assert all(N <= h <= m for h, _ in rec["v"][i])
            # so the top+1 head appears only after the last loop
            assert all(N <= h <= m for h, _ in rec["w"][i])
            assert all(h <= N for h, _ in rec["f"][i])
            assert all(h <= N for h, _ in rec["g"][i])
        bms.step(st, elliptic)
    final = bms.state_record(st, elliptic)
    assert all(final["w"][i][-1][0] == m + 1 for i in range(2))  # e_{m+1} for the error values


def test_extract_poly_raises_under_optimize():
    # the support and leading-coefficient checks, the genericity cross-check
    # and the simulators' boundary check guard results, so they must hold
    # when asserts are compiled out
    script = textwrap.dedent(
        """
        from agbms import GF, CodeSpec, archsim, bms, elliptic_curve, linalg, oracle
        from agbms.gf import ZERO
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
        locs = [code.locate(xy) for xy in [(3, 7), (9, 11), (14, 4)]]
        print("generic pattern:", oracle.is_generic(code, locs).is_generic)
        linalg.det = lambda fld, mat: ZERO
        try:
            oracle.is_generic(code, locs)
        except AssertionError as exc:
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
    assert "generic: determinant and footprint tests disagree" in out
    assert "sim: inverse_free: boundary N=0 register state diverges" in out


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
                assert oracle.ideal_membership(bipoly(code, F), code, locs)


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
                bms.run(code, synd, mode, ctr=ctr)
                counts.append((ctr.muls, ctr.invs, ctr.adds))
            assert counts[0] == counts[1]
            assert counts[0][:2] == (muls, invs)
            assert counts[0][2] > 0


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
