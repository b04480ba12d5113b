import hashlib
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from agbms import CodeSpec, CurveSpec, Point, Word, bms, decoder, elliptic_curve, linalg
from agbms.agcode import PRODUCT_W
from agbms.gf import ZERO, GF
from conftest import (
    ELLIPTIC_VALS,
    ELLIPTIC_XY,
    full_syndromes_from_errors,
    oracle_encoder,
    random_generic_pattern,
)


def test_build_code_parameters(gf16, gf8, elliptic, klein, hermitian):
    c9 = CodeSpec(elliptic_curve(), gf16, m=9)
    assert (c9.n, c9.d_G) == (24, 9)
    assert (klein.n, klein.d_G) == (23, 11)
    assert (hermitian.n, hermitian.d_G) == (64, 14)
    assert elliptic.d_G == 8
    assert (elliptic.t_generic, klein.t_generic, hermitian.t_generic) == (3, 4, 5)


def test_build_code_rejects_small_m(gf16):
    with pytest.raises(ValueError):
        CodeSpec(elliptic_curve(), gf16, m=0)


@pytest.mark.parametrize("name", ["elliptic", "klein", "hermitian"])
def test_budget_below_zero_refused(request, name):
    # t_generic >= 0 is m >= 2g - 2 + a.  The m just below was accepted
    # while m > 2g - 2 was the bound, and decode then reported a clean
    # word NotGenericDetected ("footprint 0 exceeds budget -1")
    preset = request.getfixturevalue(name)
    cv, fld = preset.curve, preset.fld
    low = 2 * cv.genus - 2 + cv.a
    with pytest.raises(ValueError, match=rf"^m={low - 1} must be an int of at least 2g-2\+a={low} "):
        CodeSpec(cv, fld, m=low - 1)
    code = CodeSpec(cv, fld, m=low)
    assert code.t_generic == 0
    for mode in (bms.INVERSE_FREE, bms.DIVISION):
        assert decoder.decode(code, code.zero_word(), mode).status == decoder.SUCCESS


@pytest.mark.parametrize("name", ["elliptic", "klein", "hermitian"])
def test_m_below_n(request, name):
    # below n no nonzero f in L(m P_inf) vanishes at every point, so H has
    # full rank and encodes; n <= m <= n + g - 2 used to load with
    # dependent rows (Klein m = 24: rank 21 of 22) and a wrong dim
    preset = request.getfixturevalue(name)
    cv, fld, n = preset.curve, preset.fld, preset.n
    code = CodeSpec(cv, fld, m=n - 1)
    assert len(linalg.rref(fld, code.parity_check_matrix())[1]) == len(code.basis) == n - cv.genus
    msg = [random.Random(name).randrange(-1, fld.q - 1) for _ in range(code.dim)]
    assert all(u == ZERO for u in code.syndromes(code.encode(msg)).values())
    for m in range(n, n + cv.genus):
        with pytest.raises(ValueError, match=rf"^m={m} must be below n = {n} "):
            CodeSpec(cv, fld, m=m)


def test_hermitian_gf64_encode():
    # y^8 + y = x^9 over GF(64): n = 512, g = 28, 73 parity checks at m = 100,
    # a realistic size for the packed-row RREF behind the encoder
    cv = CurveSpec(a=8, b=9, e=0, chi={(0, 1): 0}, genus=28)
    code = CodeSpec(cv, GF(6, 0b1000011), m=100)
    assert code.n == 512
    assert len(linalg.rref(code.fld, code.parity_check_matrix())[1]) == len(code.basis) == 73
    rng = random.Random("gf64/100")
    msg = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]
    cw = code.encode(msg)
    assert all(u == ZERO for u in code.syndromes(cw).values())
    assert code.encode(msg).symbols == cw.symbols


def test_code_dimensions(elliptic, klein, hermitian):
    assert elliptic.dim == 16
    assert klein.dim == 10
    assert hermitian.dim == 45


def test_encode_zero_message(elliptic):
    cw = elliptic.encode([ZERO] * elliptic.dim)
    assert cw.symbols == [ZERO] * elliptic.n


def test_encode_parity_checks(elliptic, klein, hermitian):
    rng = random.Random(3)
    for code in (elliptic, klein, hermitian):
        msg = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]
        cw = code.encode(msg)
        synd = code.syndromes(cw)
        assert all(u == ZERO for u in synd.values())
        with pytest.raises(ValueError):
            code.encode(msg + [0])


def test_inject_errors_validation(elliptic):
    w = elliptic.zero_word()
    assert elliptic.inject_errors(w, [], []).symbols == w.symbols
    with pytest.raises(ValueError):
        elliptic.inject_errors(w, [1, 1], [0, 0])
    with pytest.raises(ValueError):
        elliptic.inject_errors(w, [1], [ZERO])
    with pytest.raises(ValueError):
        elliptic.inject_errors(w, [1, 2], [0])
    for locs, vals in [([99], [3]), ([24], [3]), ([-1], [3]), ([0], [40]), ([0], [15]), ([0], [-2])]:
        with pytest.raises(ValueError):
            elliptic.inject_errors(w, locs, vals)


def test_inject_golden_scenario(elliptic):
    locs = [elliptic.points.index(Point(*xy)) for xy in ELLIPTIC_XY]
    recv = elliptic.inject_errors(elliptic.zero_word(), locs, ELLIPTIC_VALS)
    for j, v in zip(locs, ELLIPTIC_VALS):
        assert recv.symbols[j] == v
    assert sum(1 for s in recv.symbols if s != ZERO) == 3


def test_syndromes_zero_word(elliptic):
    synd = elliptic.syndromes(elliptic.zero_word())
    assert set(synd) == set(elliptic.syndrome_domain)
    assert all(u == ZERO for u in synd.values())


def test_syndromes_single_error(elliptic):
    j, v = 5, 9
    recv = elliptic.inject_errors(elliptic.zero_word(), [j], [v])
    synd = elliptic.syndromes(recv)
    p = elliptic.points[j]
    for l, u in synd.items():
        want = elliptic.fld.mul(v, elliptic.curve.eval_monomial(elliptic.fld, l, p))
        assert u == want


def test_syndromes_linear(elliptic):
    rng = random.Random(17)
    w1 = Word([rng.randrange(-1, 15) for _ in range(elliptic.n)], "received")
    w2 = Word([rng.randrange(-1, 15) for _ in range(elliptic.n)], "received")
    s1 = elliptic.syndromes(w1)
    s2 = elliptic.syndromes(w2)
    s12 = elliptic.syndromes(Word([elliptic.fld.add(a, b) for a, b in zip(w1.symbols, w2.symbols)], "received"))
    for l in s1:
        assert s12[l] == elliptic.fld.add(s1[l], s2[l])


def test_syndromes_ignore_codeword_part(elliptic, elliptic_golden):
    locs, vals, _ = elliptic_golden
    rng = random.Random(23)
    msg = [rng.randrange(-1, 15) for _ in range(elliptic.dim)]
    cw = elliptic.encode(msg)
    recv = elliptic.inject_errors(cw, locs, vals)
    plain = elliptic.inject_errors(elliptic.zero_word(), locs, vals)
    assert elliptic.syndromes(recv) == elliptic.syndromes(plain)


def test_golden_u00(elliptic, elliptic_golden):
    # u_(0,0) = alpha^6 + alpha^8 + alpha^11, evaluated independently
    _, _, recv = elliptic_golden
    f = elliptic.fld
    want = f.add(f.add(6, 8), 11)
    assert elliptic.syndromes(recv)[(0, 0)] == want == 10


def test_full_syndromes_match_receiver(elliptic, elliptic_golden, klein, klein_golden):
    for code, (locs, vals, recv) in [(elliptic, elliptic_golden), (klein, klein_golden)]:
        full = full_syndromes_from_errors(code, locs, vals, code.m)
        synd = code.syndromes(recv)
        for l, u in synd.items():
            assert full[l] == u
        # wider table covers more indices
        wide = full_syndromes_from_errors(code, locs, vals, code.m + 10)
        assert set(full) <= set(wide)


def test_klein_syndrome_domain_drops_special_poles(klein):
    # monomials with a pole at P_(1:0:0) cannot be receiver syndromes
    assert all(2 * n1 >= n2 for n1, n2 in klein.syndrome_domain)
    assert (0, 1) not in klein.syndrome_domain


def direct_syndromes(code, word):
    """Reference: u_l summed point by point with curve.eval_monomial."""
    f, cv = code.fld, code.curve
    out = {}
    for l in code.syndrome_domain:
        acc = ZERO
        for r, p in zip(word.symbols, code.points):
            acc = f.add(acc, f.mul(r, cv.eval_monomial(f, l, p)))
        out[l] = acc
    return out


def test_table_syndromes_match_direct_sum(elliptic, klein, hermitian):
    rng = random.Random(101)
    for code in (elliptic, klein, hermitian):
        for density in (0.1, 0.5, 1.0):
            for _ in range(5):
                symbols = [
                    rng.randrange(code.fld.q - 1) if rng.random() < density else ZERO
                    for _ in range(code.n)
                ]
                word = Word(symbols, "received")
                assert code.syndromes(word) == direct_syndromes(code, word)


def test_vec_rows_lazy_memoized_with_klein_pole(gf8, klein):
    from agbms import klein_curve

    fresh = CodeSpec(klein_curve(), gf8, m=15)
    assert not fresh.vec_rows  # constructing a code evaluates nothing
    row = fresh.vec_rows[(1, 0)]
    assert fresh.vec_rows[(1, 0)] is row and dict(fresh.vec_rows) == {(1, 0): row}
    special = klein.n - 1
    assert fresh.vec_rows[(1, 2)][special] == 1  # valuation 0: the value is 1
    assert fresh.vec_rows[(1, 1)][special] == 0
    with pytest.raises(ValueError, match=r"\(0, 1\) has a pole at \(1:0:0\)"):
        fresh.vec_rows[(0, 1)]  # y is no ring monomial: a pole at P_(1:0:0)
    for j, p in enumerate(fresh.points[:special]):
        assert row[j] == gf8.vec[klein.curve.eval_monomial(gf8, (1, 0), p)]


def test_encode_reuses_one_rref(rref_calls, gf16, gf8):
    from agbms import hermitian_curve, klein_curve

    rng = random.Random(59)
    for curve, fld, m in [(elliptic_curve(), gf16, 8), (klein_curve(), gf8, 15), (hermitian_curve(), gf16, 24)]:
        code = CodeSpec(curve, fld, m=m)
        h = [[curve.eval_monomial(fld, n, p) for p in code.points] for n in code.basis]
        rref_calls.clear()
        for _ in range(6):
            msg = [rng.randrange(-1, fld.q - 1) for _ in range(code.dim)]
            cw = code.encode(msg)
            for row in h:
                acc = ZERO
                for hj, cj in zip(row, cw.symbols):
                    acc = fld.add(acc, fld.mul(hj, cj))
                assert acc == ZERO
        assert len(rref_calls) == 1


# sha256[:16] over the syndrome dicts of 40 seeded full received words per
# preset, recorded before the split-table syndrome unit
SYNDROME_DIGESTS = {
    "elliptic": "1d73a27d2bd4bd85",
    "klein": "4ab1e9b5212eadcd",
    "hermitian": "909f32eae9c0e17a",
}


def test_syndromes_pinned(elliptic, klein, hermitian):
    digests = {}
    for name, code in {"elliptic": elliptic, "klein": klein, "hermitian": hermitian}.items():
        rng = random.Random(13)
        h = hashlib.sha256()
        for _ in range(40):
            word = Word([rng.randrange(-1, code.fld.q - 1) for _ in range(code.n)], "received")
            h.update(repr(list(code.syndromes(word).items())).encode())
        digests[name] = h.hexdigest()[:16]
    assert digests == SYNDROME_DIGESTS


def encode_codes(elliptic, klein, hermitian, elliptic_gf8, elliptic_gf512):
    return {"elliptic": elliptic, "klein": klein, "hermitian": hermitian,
            "elliptic_gf8": elliptic_gf8, "elliptic_gf512": elliptic_gf512}


def seeded_messages(code, count=40):
    rng = random.Random(29)
    return [[rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)] for _ in range(count)]


# sha256[:16] over the codewords of 40 seeded messages per code, recorded
# before the product-table encoder
ENCODE_DIGESTS = {
    "elliptic": "ff3bfc85716b55a3",
    "klein": "1e0ff20aa6efbc2b",
    "hermitian": "6027283a68253dde",
    "elliptic_gf8": "e6af50958e6dfe34",
    "elliptic_gf512": "3e84eb315d1e8ed2",
}


def test_encode_pinned(elliptic, klein, hermitian, elliptic_gf8, elliptic_gf512):
    digests = {}
    for name, code in encode_codes(elliptic, klein, hermitian, elliptic_gf8, elliptic_gf512).items():
        h = hashlib.sha256()
        for msg in seeded_messages(code):
            h.update(repr(code.encode(msg).symbols).encode())
        digests[name] = h.hexdigest()[:16]
    assert digests == ENCODE_DIGESTS


def test_encode_matches_oracle(elliptic, klein, hermitian, elliptic_gf8, elliptic_gf512):
    for code in encode_codes(elliptic, klein, hermitian, elliptic_gf8, elliptic_gf512).values():
        oracle = oracle_encoder(code)
        for msg in seeded_messages(code, 10):
            assert code.encode(msg).symbols == oracle(msg)


def table_logs(fld, rng):
    """Every log (ZERO included) up to GF(16); above it ZERO, 0, q-2 and a
    seeded sample."""
    if fld.q <= 16:
        return range(ZERO, fld.q - 1)
    return [ZERO, 0, fld.q - 2, *rng.sample(range(1, fld.q - 2), 24)]


def test_product_tables_scale_word_zero(elliptic_gf8, klein, elliptic, hermitian, elliptic_gf512):
    # word r of every syndrome row and point-word table is GF.scale(word 0, r),
    # word ZERO is 0, and word 0 packs the table's own values; up to GF(16)
    # the q words are held, above it they are read from the w split words
    rng = random.Random(41)
    for code in (elliptic_gf8, klein, elliptic, hermitian, elliptic_gf512):
        fld, cv = code.fld, code.curve
        rows = [code.vec_rows[l] for l in code.syndrome_domain]
        points = range(code.n) if fld.q <= 16 else rng.sample(range(code.n), 8)
        tables = []
        for j in points:
            tables.append((code.syndrome_rows[j], [row[j] for row in rows]))
        for order in range(code.m + 1):
            if cv.l_of(0, order) is not None:
                values, derivs, _ = code.point_words[order]
                tables += [(values, code.vec_rows[cv.l_of(0, order)]), (derivs, None)]
        for table, vecs in tables:
            if fld.w <= PRODUCT_W:
                assert type(table) is list and len(table) == fld.q
            else:
                assert table.parts == [fld.scale(table[0], k) for k in range(fld.w)]
            if vecs is not None:
                assert table[0] == fld.pack(vecs)
            for r in table_logs(fld, rng):
                assert table[r] == fld.scale(table[0], r)


def test_large_field_code_decodes_in_bounded_memory():
    # y^2 + y = x^3 over GF(2^10), n = 1088: its tables hold w split words
    # each, about 3 MB of peak RSS in all, where q product words took 180 MB;
    # built, encoded and decoded in a fresh interpreter so its peak RSS
    # growth is this code's alone
    script = textwrap.dedent(
        """
        import random, resource
        from agbms import GF, CodeSpec, CurveSpec, decoder
        def peak_mb():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        before = peak_mb()
        code = CodeSpec(CurveSpec(a=2, b=3, e=0, chi={(0, 1): 0}, genus=1), GF(10, 0b10000001001), m=12)
        rng = random.Random(5)
        sent = code.encode([rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)])
        locs = rng.sample(range(code.n), code.t_generic)
        recv = code.inject_errors(sent, locs, [rng.randrange(code.fld.q - 1) for _ in locs])
        res = decoder.decode(code, recv)
        print(code.n, res.status, res.corrected.symbols == sent.symbols, peak_mb() - before)
        """
    )
    src = str(pathlib.Path(decoder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    n, status, same, grown_mb = out.stdout.split()
    assert (n, status, same) == ("1088", decoder.SUCCESS, "True")
    assert float(grown_mb) < 16


def test_out_of_range_symbols_rejected(elliptic, elliptic_gf512):
    # a symbol outside [-1, q-2] would index a product table from its end
    for code in (elliptic, elliptic_gf512):
        q1 = code.fld.q - 1
        msg = seeded_messages(code, 1)[0]
        cw = code.encode(msg)
        assert code.syndrome_word(cw) == 0
        assert decoder.decode(code, Word(cw.symbols, "received")).corrected.symbols == cw.symbols
        for bad in (-2, q1):
            for k in (0, code.dim - 1):
                with pytest.raises(ValueError):
                    code.encode(msg[:k] + [bad] + msg[k + 1 :])
            for j in (0, code.n - 1):
                rx = Word(cw.symbols[:j] + [bad] + cw.symbols[j + 1 :], "received")
                with pytest.raises(ValueError):
                    code.syndromes(rx)
                with pytest.raises(ValueError):
                    decoder.decode(code, rx)
    # the two inputs the table-free code took silently
    with pytest.raises(ValueError):
        elliptic.encode([20] + [0] * (elliptic.dim - 1))
    with pytest.raises(ValueError):
        decoder.decode(elliptic, Word([-2] + [ZERO] * (elliptic.n - 1), "received"))


def test_word_never_aliases_its_symbols(elliptic, klein, hermitian):
    # a Word copies its symbols once, on construction, so the callers that
    # build one (zero_word, encode, inject_errors, decode's corrected word)
    # pass theirs as they stand; none may share the list it was built from
    rng = random.Random(29)
    for code in (elliptic, klein, hermitian):
        symbols = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.n)]
        word = Word(symbols, "received")
        assert word.symbols == symbols and word.symbols is not symbols
        assert Word(iter(symbols)).symbols == symbols
        assert code.zero_word().symbols == [ZERO] * code.n
        cw = code.encode(seeded_messages(code, 1)[0])
        locs, vals = random_generic_pattern(code, code.t_generic, rng, affine_only=False)
        rx = code.inject_errors(cw, locs, vals)
        assert rx.symbols is not cw.symbols and rx.role == "received"
        for mode in (bms.INVERSE_FREE, bms.DIVISION):
            for received in (cw, rx):
                res = decoder.decode(code, received, mode)
                assert res.status == decoder.SUCCESS
                assert res.corrected.symbols == cw.symbols
                assert res.corrected.symbols is not received.symbols
