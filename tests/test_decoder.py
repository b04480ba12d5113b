import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from agbms import CodeSpec, Word, bms, cli, decoder, oracle
from agbms.gf import ZERO, OpCounter
from conftest import (
    ELLIPTIC_VALS,
    ELLIPTIC_XY,
    HERMITIAN_VALS,
    HERMITIAN_XY,
    KLEIN_VALS,
    KLEIN_XY,
    bipoly,
    random_generic_pattern,
    random_pattern,
    reference_rank,
    reference_solve,
)


def run_basis(code, recv, mode=bms.INVERSE_FREE):
    st, _ = bms.run(code, code.syndromes(recv), mode)
    return bms.extract_locators(st, code)


def test_chien_elliptic(elliptic, elliptic_golden):
    locs, _, recv = elliptic_golden
    basis = run_basis(elliptic, recv)
    assert decoder.chien_search(basis, elliptic) == sorted(locs)


def test_chien_klein(klein, klein_golden):
    locs, _, recv = klein_golden
    basis = run_basis(klein, recv, bms.DIVISION)
    assert decoder.chien_search(basis, klein) == sorted(locs)
    found = {(klein.points[j].x, klein.points[j].y) for j in decoder.chien_search(basis, klein)}
    assert found == set(KLEIN_XY)


def test_chien_nonzero_constant_excludes_everything(elliptic):
    # F = alpha^3 and F = y, each a lone lane-0 coefficient at its pole order
    F = [(elliptic.fld.exp[3], 0), (elliptic.fld.exp[0], 3)]
    assert [bipoly(elliptic, f) for f in F] == [{(0, 0): 3}, {(0, 1): 0}]
    basis = bms.LocatorOutput(
        F=F, G=[(0, -1), (0, -1)], lead_F=[3, 0], head_e=[0, 0], mode=bms.INVERSE_FREE,
    )
    assert decoder.chien_search(basis, elliptic) == []


def test_error_values_goldens(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    cases = [
        (elliptic, elliptic_golden, bms.INVERSE_FREE),
        (klein, klein_golden, bms.DIVISION),
        (hermitian, hermitian_golden, bms.INVERSE_FREE),
    ]
    for code, (locs, vals, recv), mode in cases:
        basis = run_basis(code, recv, mode)
        order = sorted(range(len(locs)), key=lambda k: locs[k])
        got = decoder.error_values(sorted(locs), basis, code)
        assert got == [vals[k] for k in order]


def test_decode_goldens_both_modes(elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden):
    for code, (locs, vals, recv) in [
        (elliptic, elliptic_golden),
        (klein, klein_golden),
        (hermitian, hermitian_golden),
    ]:
        for mode in (bms.INVERSE_FREE, bms.DIVISION):
            res = decoder.decode(code, recv, mode=mode)
            assert res.status == decoder.SUCCESS
            assert res.error_locs == sorted(locs)
            order = sorted(range(len(locs)), key=lambda k: locs[k])
            assert res.error_vals == [vals[k] for k in order]
            assert res.corrected.symbols == code.zero_word().symbols


def test_decode_zero_errors(elliptic):
    res = decoder.decode(elliptic, Word(elliptic.zero_word().symbols, "received"))
    assert res.status == decoder.SUCCESS
    assert res.error_locs == [] and res.error_vals == []


def test_decode_zero_errors_real_codeword(elliptic):
    rng = random.Random(4)
    cw = elliptic.encode([rng.randrange(-1, 15) for _ in range(elliptic.dim)])
    res = decoder.decode(elliptic, Word(cw.symbols, "received"))
    assert res.status == decoder.SUCCESS and res.corrected.symbols == cw.symbols


MODES = (bms.INVERSE_FREE, bms.DIVISION)


@pytest.mark.parametrize("mode", MODES)
def test_codeword_skips_bms(monkeypatch, elliptic, klein, hermitian, mode):
    # zero syndromes make a word a codeword: decode returns it as Success
    # before BMS runs, so a counter is charged nothing
    def no_bms(*args, **kwargs):
        raise AssertionError("BMS ran on a codeword")

    monkeypatch.setattr(bms, "run", no_bms)
    rng = random.Random(f"codeword/{mode}")
    for code in (elliptic, klein, hermitian):
        msg = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]
        for cw in (code.zero_word(), code.encode(msg)):
            ctr = OpCounter()
            res = decoder.decode(code, Word(cw.symbols, "received"), mode, ctr)
            assert res == decoder.DecodeResult(decoder.SUCCESS, [], [], Word(cw.symbols, "codeword"))
            assert ctr == OpCounter()


def over_budget_words(code, mode, rng, count=4):
    """Seeded received words, weight t_generic + 2, that decode reports as
    a footprint over the generic budget, each with its result."""
    found = []
    for _ in range(200):
        locs, vals = random_pattern(code, code.t_generic + 2, rng, affine_only=False)
        recv = code.inject_errors(code.zero_word(), locs, vals)
        res = decoder.decode(code, recv, mode)
        if res.detail.startswith("footprint"):
            found.append((recv, res))
            if len(found) == count:
                return found
    raise AssertionError(f"fewer than {count} over-budget words in 200 draws")


@pytest.mark.parametrize("mode", MODES)
def test_over_budget_footprint_skips_extraction(monkeypatch, elliptic, klein, hermitian, mode):
    # the footprint is read off the final s1 of BMS, so a footprint over
    # the budget is reported before any locator is extracted
    rng = random.Random(f"over budget/{mode}")
    codes = (elliptic, klein, hermitian)
    words = [over_budget_words(code, mode, rng) for code in codes]

    def no_extraction(*args):
        raise AssertionError("locators extracted past the footprint verdict")

    monkeypatch.setattr(bms, "extract_locators", no_extraction)
    for code, found in zip(codes, words):
        for recv, res in found:
            assert res.status == decoder.NOT_GENERIC
            assert decoder.decode(code, recv, mode) == res


@pytest.mark.parametrize("mode", MODES)
def test_located_pole_skips_closed_form(monkeypatch, klein, mode):
    # the closed form raises at Klein's P_(1:0:0) on every word, so a
    # generic word located through it goes straight to the interpolation
    # solve and decodes as before
    special = klein.n - 1
    assert klein.points[special].special == "(1:0:0)"
    rng = random.Random(f"pole/{mode}")
    words = []
    while len(words) < 6:
        locs = [special, *rng.sample(range(special), klein.t_generic - 1)]
        if oracle.is_generic(klein, locs).is_generic:
            vals = [rng.randrange(klein.fld.q - 1) for _ in locs]
            recv = klein.inject_errors(klein.zero_word(), locs, vals)
            words.append((recv, decoder.decode(klein, recv, mode)))

    def no_closed_form(*args):
        raise AssertionError("closed form ran on a located pole")

    monkeypatch.setattr(decoder, "error_values", no_closed_form)
    for recv, res in words:
        assert res.status == decoder.SUCCESS and special in res.error_locs
        assert res.corrected.symbols == klein.zero_word().symbols
        assert decoder.decode(klein, recv, mode) == res


def test_decode_weight2_corrects_even_non_generic(elliptic):
    # for t = 2 the sufficient loop bound 2t+4g-2+a = 8 = m already holds,
    # so every 2-error pattern on C(8) is corrected, generic or not
    for j1 in range(elliptic.n):
        for j2 in range(j1 + 1, elliptic.n):
            if not oracle.is_generic(elliptic, [j1, j2]).is_generic:
                recv = elliptic.inject_errors(elliptic.zero_word(), [j1, j2], [3, 5])
                res = decoder.decode(elliptic, recv)
                assert res.status == decoder.SUCCESS
                assert res.corrected.symbols == elliptic.zero_word().symbols
                return
    raise AssertionError("no non-generic pair found")


def test_decode_non_generic_detected(elliptic):
    # a known non-generic 3-error pattern (weight above the Appendix-B slack)
    locs, vals = [0, 4, 20], [13, 6, 12]
    assert not oracle.is_generic(elliptic, locs).is_generic
    recv = elliptic.inject_errors(elliptic.zero_word(), locs, vals)
    res = decoder.decode(elliptic, recv)
    assert res.status == decoder.NOT_GENERIC


def test_decode_never_miscorrects_non_generic(elliptic):
    import itertools

    rng = random.Random(0)
    seen = 0
    for locs in itertools.combinations(range(elliptic.n), 3):
        if oracle.is_generic(elliptic, list(locs)).is_generic:
            continue
        vals = [rng.randrange(15) for _ in range(3)]
        recv = elliptic.inject_errors(elliptic.zero_word(), list(locs), vals)
        res = decoder.decode(elliptic, recv)
        if res.status == decoder.SUCCESS:
            assert res.corrected.symbols == elliptic.zero_word().symbols
        seen += 1
        if seen >= 40:
            break
    assert seen == 40


def test_decode_round_trip_random(elliptic, klein, hermitian, elliptic_gf512):
    rng = random.Random(41)
    for code in (elliptic, klein, hermitian, elliptic_gf512):
        for _ in range(6):
            msg = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]
            cw = code.encode(msg)
            w = rng.randint(1, code.t_generic)
            locs, vals = random_generic_pattern(code, w, rng, affine_only=False)
            recv = code.inject_errors(cw, locs, vals)
            res = decoder.decode(code, recv)
            assert res.status == decoder.SUCCESS
            assert res.corrected.symbols == cw.symbols
            assert res.error_locs == sorted(locs)


@pytest.mark.parametrize("mode", [bms.INVERSE_FREE, bms.DIVISION])
def test_decoding_is_homogeneous(elliptic, klein, hermitian, mode):
    # decode(lambda * e) takes the path of decode(e), every BMS state scaled
    # by a power of lambda: the same status, detail and locations, and each
    # value times lambda (its log shifted by log lambda).  The every-value
    # sweeps rely on this to fix one error value to 1
    rng = random.Random(f"homogeneous/{mode}")
    statuses = set()
    for code in (elliptic, klein, hermitian):
        qm1 = code.fld.q - 1
        for k in range(150):
            locs, vals = random_pattern(code, 1 + k % (code.t_generic + 2), rng, affine_only=False)
            lam = rng.randrange(1, qm1)
            res, scaled = (
                decoder.decode(code, code.inject_errors(code.zero_word(), locs, vs), mode)
                for vs in (vals, [(v + lam) % qm1 for v in vals])
            )
            assert (scaled.status, scaled.detail, scaled.error_locs) == (res.status, res.detail, res.error_locs)
            assert scaled.error_vals == [(v + lam) % qm1 for v in res.error_vals]
            statuses.add(res.status)
    assert {decoder.SUCCESS, decoder.NOT_GENERIC} <= statuses


def test_decode_beyond_budget_not_success(elliptic):
    # weight t_generic + 1 at generic positions must not decode silently
    rng = random.Random(55)
    wrong = 0
    for _ in range(10):
        locs, vals = random_generic_pattern(elliptic, elliptic.t_generic + 1, rng)
        recv = elliptic.inject_errors(elliptic.zero_word(), locs, vals)
        res = decoder.decode(elliptic, recv)
        if res.status == decoder.SUCCESS and res.corrected.symbols != elliptic.zero_word().symbols:
            wrong += 1
    assert wrong == 0


def test_klein_special_point_error_corrected(klein):
    # x ramifies at P_(1:0:0) in characteristic 2, so the derivative-based
    # closed formula cannot evaluate there; the interpolation path takes over
    special = klein.n - 1
    assert klein.points[special].special is not None
    recv = klein.inject_errors(klein.zero_word(), [special, 3, 8], [2, 5, 1])
    res = decoder.decode(klein, recv)
    assert res.status == decoder.SUCCESS
    assert res.error_locs == [3, 8, special]
    assert res.error_vals == [5, 1, 2]
    assert res.corrected.symbols == klein.zero_word().symbols


def test_closed_form_fallback_regression(elliptic):
    # a generic pattern whose final auxiliaries come out of a simultaneous
    # two-column jump; the closed formula loses its pairing normalization
    # there and the pipeline must recover by syndrome interpolation
    locs, vals = [11, 15, 6], [10, 9, 11]
    assert oracle.is_generic(elliptic, locs).is_generic
    recv = elliptic.inject_errors(elliptic.zero_word(), locs, vals)
    st, _ = bms.run(elliptic, elliptic.syndromes(recv), bms.INVERSE_FREE)
    basis = bms.extract_locators(st, elliptic)
    assert st.M[0] == st.M[1]  # both auxiliaries written at the same loop
    closed = decoder.error_values(sorted(locs), basis, elliptic)
    assert closed != [11, 10, 9]  # Eq.-style values are wrong here
    res = decoder.decode(elliptic, recv)
    assert res.status == decoder.SUCCESS
    assert res.error_locs == [6, 11, 15] and res.error_vals == [11, 10, 9]


def test_interpolation_values_direct(elliptic, elliptic_golden):
    locs, vals, recv = elliptic_golden
    synd = elliptic.syndromes(recv)
    order = sorted(range(len(locs)), key=lambda k: locs[k])
    got = decoder.error_values_interpolation(sorted(locs), elliptic, synd)
    assert got == [vals[k] for k in order]


def interpolation_systems(code, rng):
    """Seeded (locs, syndromes) inputs of ``error_values_interpolation``:
    random location sets and singular ones, each with the syndromes of an
    error on all of it, on all but its last point, and random syndromes;
    then sets larger than the code's basis."""
    q, basis = code.fld.q, code.basis

    def systems(locs):
        for err in (locs, locs[:-1]):
            vals = [rng.randrange(q - 1) for _ in err]
            yield locs, code.syndromes(code.inject_errors(code.zero_word(), err, vals))
        yield locs, {l: rng.randrange(-1, q - 1) for l in basis}

    for _ in range(20):
        yield from systems(random_pattern(code, rng.randint(1, code.t_generic + 1), rng, affine_only=False)[0])
    for _ in range(6):
        # t - 1 seeded points and a t-th on which the first t basis
        # monomials are dependent, found by the rank reference
        t = rng.randint(2, 4)
        while True:
            locs = rng.sample(range(code.n), t - 1)
            rows = [[code.fld.log[v] for v in code.vec_rows[l]] for l in basis[:t]]
            last = [j for j in range(code.n) if j not in locs
                    and reference_rank(code.fld, [[row[k] for k in locs + [j]] for row in rows]) < t]
            if last:
                yield from systems(locs + [rng.choice(last)])
                break
    for _ in range(3):
        locs = rng.sample(range(code.n), len(basis) + 1)
        yield locs, {l: rng.randrange(-1, q - 1) for l in basis}


@pytest.mark.parametrize("code_name", ["klein", "elliptic", "elliptic_gf512"], ids=["gf8", "gf16", "gf512"])
def test_interpolation_matches_reference_solve(request, code_name):
    # one- and two-byte lanes; the values are the reference solve of the
    # first |E| syndrome rows, or None where that system is singular,
    # inconsistent or short of rows, or a solved value is zero
    code = request.getfixturevalue(code_name)
    cv, fld = code.curve, code.fld
    seen = {"unique": 0, "zero value": 0, "singular": 0, "inconsistent": 0, "short basis": 0}
    for locs, synd in interpolation_systems(code, random.Random(f"interpolation/{code_name}")):
        ls = code.basis[: len(locs)]
        mat = [[cv.eval_monomial(fld, l, code.points[j]) for j in locs] for l in ls]
        rhs = [synd[l] for l in ls]
        want = None
        if len(ls) < len(locs):
            seen["short basis"] += 1
        elif reference_rank(fld, mat) < len(locs):
            aug = [row + [b] for row, b in zip(mat, rhs)]
            seen["singular" if reference_rank(fld, aug) == reference_rank(fld, mat) else "inconsistent"] += 1
        else:
            sol = reference_solve(fld, mat, rhs)
            seen["zero value" if ZERO in sol else "unique"] += 1
            want = None if ZERO in sol else sol
        before = dict(synd), list(locs)
        assert decoder.error_values_interpolation(locs, code, synd) == want, (locs, synd)
        assert (synd, locs) == before
    assert all(seen.values()), seen


def test_interpolation_exhaustive_klein(klein):
    # every location set of size <= 3 on Klein GF(8), each with the
    # syndromes of an error on all of it, on all but its last point, and
    # random syndromes: the values are the reference solve of the first |E|
    # syndrome rows, the injected values on a nonsingular system, and None
    # where it is singular or a solved value is zero
    cv, fld, q = klein.curve, klein.fld, klein.fld.q
    at = {l: [cv.eval_monomial(fld, l, p) for p in klein.points] for l in klein.basis[:3]}
    rng = random.Random("interpolation/exhaustive")
    sets = [list(c) for t in (1, 2, 3) for c in combinations(range(klein.n), t)]
    assert len(sets) == 2047
    seen = Counter()
    for locs in sets:
        mat = [[at[l][j] for j in locs] for l in klein.basis[: len(locs)]]
        regular = reference_rank(fld, mat) == len(locs)
        errors = [(err, [rng.randrange(q - 1) for _ in err]) for err in (locs, locs[:-1])]
        synds = [klein.syndromes(klein.inject_errors(klein.zero_word(), err, vals)) for err, vals in errors]
        synds.append({l: rng.randrange(-1, q - 1) for l in klein.basis})
        for k, synd in enumerate(synds):
            want = None
            if regular:
                sol = reference_solve(fld, mat, [synd[l] for l in klein.basis[: len(locs)]])
                want = None if ZERO in sol else sol
                if k < 2:  # the error itself, a zero value on the last point
                    assert sol == errors[k][1] + [ZERO] * k
            seen["singular" if not regular else "zero value" if want is None else "unique"] += 1
            assert decoder.error_values_interpolation(locs, klein, synd) == want, (locs, synd)
    assert len(seen) == 3, seen


@pytest.mark.parametrize("preset", ["elliptic_gf16", "klein_gf8", "hermitian_gf16"])
def test_solve_builds_its_rows_once(monkeypatch, rref_calls, preset):
    # as the simulators build their lane tables once: every decode that
    # reaches the interpolation solve (forced here by a closed form that
    # raises, as it does at Klein's P_(1:0:0)) runs exactly one
    # elimination; the code's one evaluation table builds each bit-vector
    # row once, the first decode's syndrome unit builds the whole syndrome
    # domain, the rows of the first t basis monomials among them, so no
    # solve builds a row, and a fresh CodeSpec starts without them
    built, per_solve = [], []
    build, solve = CodeSpec._vec_row, decoder.error_values_interpolation

    def recording_solve(locs, code, synd):
        marks = len(rref_calls), len(built)
        out = solve(locs, code, synd)
        per_solve.append((len(rref_calls) - marks[0], len(built) - marks[1]))
        return out

    def closed_form(*args):
        raise ValueError("y' has no value")

    monkeypatch.setattr(CodeSpec, "_vec_row", lambda code, n: built.append(n) or build(code, n))
    monkeypatch.setattr(decoder, "error_values_interpolation", recording_solve)
    monkeypatch.setattr(decoder, "error_values", closed_form)
    base = cli.load_code(preset)[0]
    code, t = CodeSpec(base.curve, base.fld, base.m), base.t_generic
    assert not code.vec_rows
    rng = random.Random(f"solve rows/{preset}")
    for _ in range(4):
        locs, vals = random_generic_pattern(code, t, rng, affine_only=False)
        rref_calls.clear()
        res = decoder.decode(code, code.inject_errors(code.zero_word(), locs, vals))
        assert len(rref_calls) == 1
        assert (res.status, res.error_vals) == (decoder.SUCCESS, [vals[locs.index(j)] for j in res.error_locs])
    assert per_solve == [(1, 0)] * 4
    assert built == code.syndrome_domain == list(code.vec_rows)
    assert set(code.basis[:t]) <= set(built)
    assert not CodeSpec(base.curve, base.fld, base.m).vec_rows


def test_decode_inversion_accounting(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    ctr = OpCounter()
    res = decoder.decode(elliptic, recv, ctr=ctr)
    assert res.status == decoder.SUCCESS
    # inverse-free run: all inversions belong to the evaluation phase:
    # 2a head/lead scalings plus one per located error (elliptic derivative
    # denominators are constant)
    assert ctr.invs == 2 * elliptic.curve.a + len(res.error_locs)


def test_inverse_free_inversion_guard(elliptic, elliptic_golden, monkeypatch):
    # the guard reads the BMS state's own inversion tally, so an inverse-free
    # run that reports an inversion raises with or without a counter
    _, _, recv = elliptic_golden
    run = bms.run

    def inverting(*args, **kwargs):
        state, records = run(*args, **kwargs)
        state.invs += 1
        return state, records

    monkeypatch.setattr(bms, "run", inverting)
    for ctr in (None, OpCounter()):
        with pytest.raises(AssertionError, match="inverse-free BMS performed a field inversion"):
            decoder.decode(elliptic, recv, ctr=ctr)
    assert decoder.decode(elliptic, recv, bms.DIVISION).status == decoder.SUCCESS  # it inverts by design


def test_decode_counted_equals_uncounted(elliptic, klein, hermitian, elliptic_gf512):
    # BMS counts field operations only when a counter is passed; passing one
    # changes no result, at weights 0..t_generic+2 in both modes
    rng = random.Random(26)
    for code in (elliptic, klein, hermitian, elliptic_gf512):
        for k in range(2 * (code.t_generic + 3)):
            locs, vals = random_pattern(code, k % (code.t_generic + 3), rng, affine_only=False)
            cw = code.encode([rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)])
            recv = code.inject_errors(cw, locs, vals)
            for mode in (bms.INVERSE_FREE, bms.DIVISION):
                ctr = OpCounter()
                res = decoder.decode(code, recv, mode)
                assert res == decoder.decode(code, recv, mode, ctr), (code.curve, mode, locs)
                assert ctr.muls > 0 or not locs


def test_error_values_zero_sum_reported(elliptic, elliptic_golden):
    _, _, recv = elliptic_golden
    basis = run_basis(elliptic, recv)
    crippled = bms.LocatorOutput(
        F=basis.F, G=[(0, -1), (0, -1)], lead_F=basis.lead_F, head_e=basis.head_e, mode=basis.mode,
    )
    with pytest.raises(ZeroDivisionError):
        decoder.error_values([0], crippled, elliptic)


def direct_derivative(code, F, p, ctr):
    """F' = F_x + F_y * D_x/D_y at a Point, every polynomial evaluated on the
    curve; the slope is not charged, as the code's slope row is not."""
    cv, fld = code.curve, code.fld
    Dx = {(n1 - 1, n2): c for (n1, n2), c in cv.D.items() if n1 % 2 == 1}
    Dy = {(n1, n2 - 1): c for (n1, n2), c in cv.D.items() if n2 % 2 == 1}
    try:
        dx, dy = cv.eval_poly(fld, Dx, p), cv.eval_poly(fld, Dy, p)
    except ValueError:
        dy = ZERO
    if dy == ZERO:
        raise ValueError(p)
    yp = fld.mul(dx, fld.inv_chain(dy))
    fx = {(n1 - 1, n2): c for (n1, n2), c in F.items() if n1 % 2 == 1}
    fy = {(n1, n2 - 1): c for (n1, n2), c in F.items() if n2 % 2 == 1}
    return fld.add(cv.eval_poly(fld, fx, p, ctr), fld.mul(cv.eval_poly(fld, fy, p, ctr), yp, ctr), ctr)


def direct_error_values(locs, basis, code, ctr):
    """Reference closed formula evaluated point by point on the curve."""
    cv, fld = code.curve, code.fld
    scale = []
    for i in range(cv.a):
        if basis.mode == bms.DIVISION:
            scale.append(0)
            continue
        inv_lead = fld.inv_chain(basis.lead_F[i], ctr)
        inv_head = fld.inv_chain(basis.head_e[i], ctr)
        scale.append(fld.mul(inv_lead, inv_head, ctr))
    vals = []
    for j in locs:
        p = code.points[j]
        acc = ZERO
        for i in range(cv.a):
            F, G = bipoly(code, basis.F[i]), bipoly(code, basis.G[i])
            if G:
                fp = direct_derivative(code, F, p, ctr)
                gp = cv.eval_poly(fld, G, p, ctr)
                acc = fld.add(acc, fld.mul(fld.mul(fp, gp, ctr), scale[i], ctr), ctr)
        if acc == ZERO:
            raise ZeroDivisionError(j)
        vals.append(fld.inv_chain(acc, ctr))
    return vals


def seeded_bases(code, rng, count):
    """(basis, received) for random words: codeword plus weight 0..t+1."""
    for k in range(count):
        msg = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]
        w = k % (code.t_generic + 2)
        locs = rng.sample(range(code.n), w)
        vals = [rng.randrange(code.fld.q - 1) for _ in range(w)]
        recv = code.inject_errors(code.encode(msg), locs, vals)
        mode = (bms.INVERSE_FREE, bms.DIVISION)[k % 2]
        yield run_basis(code, recv, mode), recv


def test_chien_matches_direct_scan(elliptic, klein, hermitian, elliptic_gf512):
    # the GF(2^9) code runs its two-byte lanes through the same words
    rng = random.Random(211)
    for code, count in ((elliptic, 24), (klein, 24), (hermitian, 24), (elliptic_gf512, 8)):
        for basis, _ in seeded_bases(code, rng, count):
            Fs = [bipoly(code, F) for F in basis.F]
            want = [
                j for j, p in enumerate(code.points)
                if all(code.curve.eval_poly(code.fld, F, p) == ZERO for F in Fs)
            ]
            assert decoder.chien_search(basis, code) == want


def test_error_values_match_direct_evaluation(elliptic, klein, hermitian, elliptic_gf512):
    # values, raised errors and every OpCounter total (also the partial
    # totals left by a raise) must equal the point-by-point evaluation, on
    # one-byte and on two-byte (GF(2^9)) lanes
    rng = random.Random(223)
    seen = set()
    for code, count in ((elliptic, 40), (klein, 40), (hermitian, 40), (elliptic_gf512, 8)):
        for basis, _ in seeded_bases(code, rng, count):
            locs = decoder.chien_search(basis, code) or [0, code.n - 1]
            results = []
            for fn in (decoder.error_values, direct_error_values):
                ctr = OpCounter()
                try:
                    out = fn(locs, basis, code, ctr)
                except (ZeroDivisionError, ValueError) as exc:
                    out = type(exc)
                results.append((out, ctr.muls, ctr.invs, ctr.adds))
            assert results[0] == results[1]
            seen.add(results[0][0] if isinstance(results[0][0], type) else list)
    assert {list, ValueError} <= seen


def test_klein_special_point_error_values_raise(klein):
    special = klein.n - 1
    recv = klein.inject_errors(klein.zero_word(), [special, 3, 8], [2, 5, 1])
    for mode in (bms.INVERSE_FREE, bms.DIVISION):
        basis = run_basis(klein, recv, mode)
        locs = decoder.chien_search(basis, klein)
        assert locs == [3, 8, special]
        with pytest.raises(ValueError):
            decoder.error_values(locs, basis, klein)
        with pytest.raises(ValueError):
            decoder.error_values([special], basis, klein, OpCounter())


def test_corrupted_values_fail_the_recheck(
    monkeypatch, elliptic, elliptic_golden, klein, klein_golden, hermitian, hermitian_golden, elliptic_gf512
):
    # one wrong value from the closed form, at each position in turn and in
    # both modes: the packed re-check turns it down and the interpolation
    # fallback, run once, gives back the sent word; with both wrong, no Success
    real_closed = decoder.error_values
    real_interp = decoder.error_values_interpolation
    rng = random.Random(43)
    big = elliptic_gf512
    big_sent = big.encode([rng.randrange(-1, big.fld.q - 1) for _ in range(big.dim)])
    big_locs, big_vals = random_generic_pattern(big, big.t_generic, rng)
    for code, sent, (locs, vals, recv) in [
        (elliptic, elliptic.zero_word(), elliptic_golden),
        (klein, klein.zero_word(), klein_golden),
        (hermitian, hermitian.zero_word(), hermitian_golden),
        (big, big_sent, (big_locs, big_vals, big.inject_errors(big_sent, big_locs, big_vals))),
    ]:
        order = sorted(range(len(locs)), key=lambda k: locs[k])
        for pos in range(len(locs)):

            def bad(vs, q1=code.fld.q - 1, pos=pos):
                return vs[:pos] + [(vs[pos] + 1) % q1] + vs[pos + 1 :]

            def interp(*args):
                calls.append(1)
                return real_interp(*args)

            for mode in (bms.INVERSE_FREE, bms.DIVISION):
                calls = []
                monkeypatch.setattr(decoder, "error_values", lambda *a, **k: bad(real_closed(*a, **k)))
                monkeypatch.setattr(decoder, "error_values_interpolation", interp)
                res = decoder.decode(code, recv, mode)
                assert calls == [1]
                assert res.status == decoder.SUCCESS
                assert res.error_vals == [vals[k] for k in order]
                assert res.corrected.symbols == sent.symbols
                monkeypatch.setattr(decoder, "error_values_interpolation", lambda *a: bad(real_interp(*a)))
                res = decoder.decode(code, recv, mode)
                assert res.status == decoder.NOT_GENERIC
                assert res.corrected is None
                monkeypatch.undo()


# sha256[:16] per preset of (status, error_locs, error_vals, corrected) over
# 200 seeded words in each mode, recorded before error values read F' from
# the per-code slope row; ``detail`` is left out because its wording is not
# part of the outcome
DECODE_OUTCOME_DIGESTS = {
    "elliptic_gf16": "27b0d2847c876122",
    "klein_gf8": "bf6313c3ecc8d01a",
    "hermitian_gf16": "ff7bd09c59beb6c7",
}


def test_decode_outcomes_pinned(elliptic, klein, hermitian):
    # weights 0..t_generic+2 on encoded words; on Klein every third word with
    # an error puts one of them on P_(1:0:0)
    digests = {}
    for preset, code in [("elliptic_gf16", elliptic), ("klein_gf8", klein), ("hermitian_gf16", hermitian)]:
        rng = random.Random(7)
        h = hashlib.sha256()
        special = [j for j, p in enumerate(code.points) if p.special is not None]
        for k in range(200):
            msg = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]
            cw = code.encode(msg)
            w = k % (code.t_generic + 3)
            if special and w and k % 3 == 0:
                locs = special + rng.sample(range(special[0]), w - 1)
            else:
                locs = rng.sample(range(code.n), w)
            vals = [rng.randrange(code.fld.q - 1) for _ in range(w)]
            recv = code.inject_errors(cw, locs, vals)
            for mode in (bms.INVERSE_FREE, bms.DIVISION):
                res = decoder.decode(code, recv, mode)
                corrected = None if res.corrected is None else res.corrected.symbols
                h.update(repr((res.status, res.error_locs, res.error_vals, corrected)).encode())
        digests[preset] = h.hexdigest()[:16]
    assert digests == DECODE_OUTCOME_DIGESTS
