import random

import pytest

from agbms import CodeSpec, Word, elliptic_curve, linalg
from agbms.agcode import POLE
from agbms.gf import ZERO, GF
from conftest import ELLIPTIC_VALS, ELLIPTIC_XY


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
    locs = [elliptic.locate(xy) for xy in ELLIPTIC_XY]
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
    s12 = elliptic.syndromes(elliptic.add_words(w1, w2))
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
        full = code.full_syndromes_from_errors(locs, vals, code.m)
        synd = code.syndromes(recv)
        for l, u in synd.items():
            assert full[l] == u
        # wider table covers more indices
        wide = code.full_syndromes_from_errors(locs, vals, code.m + 10)
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


def test_eval_row_lazy_memoized_with_klein_pole(gf8, klein):
    from agbms import klein_curve

    fresh = CodeSpec(klein_curve(), gf8, m=15)
    assert not fresh._rows  # constructing a code evaluates nothing
    row = fresh.eval_row((0, 1))
    assert fresh.eval_row((0, 1)) is row
    special = klein.n - 1
    assert row[special] is POLE
    assert fresh.eval_row((1, 2))[special] == 0  # valuation 0: the value is 1
    assert fresh.eval_row((1, 1))[special] == ZERO
    for j, p in enumerate(fresh.points[:special]):
        assert row[j] == klein.curve.eval_monomial(gf8, (0, 1), p)


def test_encode_reuses_one_rref(monkeypatch, gf16, gf8):
    from agbms import hermitian_curve, klein_curve

    calls = []
    real_rref = linalg.rref

    def counting_rref(field, m):
        calls.append(1)
        return real_rref(field, m)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    rng = random.Random(59)
    for curve, fld, m in [(elliptic_curve(), gf16, 8), (klein_curve(), gf8, 15), (hermitian_curve(), gf16, 24)]:
        code = CodeSpec(curve, fld, m=m)
        h = [[curve.eval_monomial(fld, n, p) for p in code.points] for n in code.basis]
        calls.clear()
        for _ in range(6):
            msg = [rng.randrange(-1, fld.q - 1) for _ in range(code.dim)]
            cw = code.encode(msg)
            for row in h:
                acc = ZERO
                for hj, cj in zip(row, cw.symbols):
                    acc = fld.add(acc, fld.mul(hj, cj))
                assert acc == ZERO
        assert len(calls) == 1
