import hashlib
import pathlib
import random

import pytest

from agbms import bms, cli, decoder
from agbms.curve import KLEIN_SPECIAL, CurveSpec, Point, elliptic_curve, hermitian_curve, klein_curve, partials
from agbms.agcode import POLE
from agbms.gf import GF, ZERO, OpCounter
from conftest import AS_FIELDS, artin_schreier_codes, other_elliptic_curve, poly_degree, reduce


def test_pole_order_examples():
    ell = elliptic_curve()
    assert ell.pole_order((1, 1)) == 5
    assert ell.pole_order((0, 0)) == 0
    kle = klein_curve()
    assert kle.pole_order((1, 2)) == 7  # o(n) = 3 n1 + 2 n2


def test_curve_validation():
    with pytest.raises(ValueError):
        CurveSpec(a=2, b=4, e=0, genus=1)  # gcd != 1
    with pytest.raises(ValueError):
        CurveSpec(a=2, b=3, e=ZERO, genus=1)  # e = 0
    with pytest.raises(ValueError):
        CurveSpec(a=2, b=3, e=0, genus=2)  # wrong genus
    with pytest.raises(ValueError):
        CurveSpec(a=2, b=3, e=0, genus=1, chi={(3, 1): 0})  # chi order >= ab
    with pytest.raises(ValueError):
        CurveSpec(a=2, b=3, e=0, genus=3, klein=True)  # klein needs (3, 2)


@pytest.mark.parametrize("a, b, genus", [(2, 3, 1), (4, 5, 6)])
def test_chi_pole_order_bound_is_strict(a, b, genus):
    # a chi monomial of pole order exactly ab (x^b or y^a, the leading
    # monomials of D) is refused, and one of pole order ab - 1 is accepted
    for n in ((b, 0), (0, a)):
        with pytest.raises(ValueError, match=rf"^chi term \({n[0]}, {n[1]}\) has pole order >= ab$"):
            CurveSpec(a=a, b=b, e=0, genus=genus, chi={n: 0})
    below = next((i, j) for i in range(b) for j in range(a) if i * a + j * b == a * b - 1)
    assert CurveSpec(a=a, b=b, e=0, genus=genus, chi={below: 0}).D[below] == 0


def test_phi_dimension_formula():
    for curve in (elliptic_curve(), klein_curve(), hermitian_curve()):
        g = curve.genus
        for m in range(2 * g - 1, 2 * g + 15):
            assert len(curve.phi(0, curve.a, m)) == m - g + 1


def test_phi_empty_and_exclusions():
    kle = klein_curve()
    assert kle.phi(1, 3, -1) == []
    basis = kle.phi(0, 3, 15)
    assert (0, 1) not in basis and (0, 2) not in basis
    assert len(basis) == 13
    # ordering is by pole order
    orders = [kle.pole_order(n) for n in basis]
    assert orders == sorted(orders)


def test_l_of_examples():
    kle = klein_curve()
    assert kle.l_of(0, 7) == (1, 2)
    assert kle.l_of(0, 1) is None  # semigroup gap
    assert kle.l_of(0, 2) is None  # (0, 1) is outside the function ring
    assert kle.l_of(1, 9) is None  # (1, 3) has a pole at P_(1:0:0)
    ell = elliptic_curve()
    assert ell.l_of(0, 0) == (0, 0)
    assert ell.l_of(0, 1) is None
    assert ell.l_of(1, 6) == (0, 2)


def test_ibar():
    ell = elliptic_curve()
    assert ell.ibar(0, 5) == 1  # b^-1 = 1 for a=2
    for curve in (elliptic_curve(), klein_curve(), hermitian_curve()):
        for N in range(0, 40):
            for i in range(curve.a):
                ib = curve.ibar(i, N)
                assert curve.ibar(ib, N) == i
                l = curve.l_of(i, N)
                if l is not None:
                    assert ib == l[1] - i


def test_point_counts(gf16, gf8):
    assert len(elliptic_curve().points(gf16)) == 24
    kpts = klein_curve().points(gf8)
    assert len(kpts) == 23 and kpts[-1].special is not None
    assert len(hermitian_curve().points(gf16)) == 64


def scan_points(curve, fld):
    """The q^2 scan: every affine (x, y) with D(x, y) = 0, x and then y
    ascending from ZERO, then Klein's special point."""
    logs = range(-1, fld.q - 1)
    pts = [Point(x, y) for x in logs for y in logs if curve.equation_at(fld, x, y) == ZERO]
    return pts + ([Point(ZERO, ZERO, special=KLEIN_SPECIAL)] if curve.klein else [])


def test_points_match_the_scan(monkeypatch):
    # a curve none of whose terms mixes x and y finds its points through one
    # table of g(y) and evaluates D nowhere, and the others scan; either
    # way the point list is the q^2 scan's, in the same order.  Every
    # preset, every seeded Artin-Schreier code, y^2 + y = x^3 over GF(2^9)
    # and GF(2^10), and a C_2^3 curve with an xy term
    elliptic = CurveSpec(a=2, b=3, e=0, chi={(0, 1): 0}, genus=1)
    presets = sorted(pathlib.Path(cli.__file__).parent.glob("presets/*.json"))
    assert len(presets) == 3
    cases = [(code.curve, code.fld) for code in (cli.load_code(p.stem)[0] for p in presets)]
    cases += [(code.curve, code.fld) for q in AS_FIELDS for code in artin_schreier_codes(q, seed=q)]
    cases += [(elliptic, GF(9, 0b1000010001)), (elliptic, GF(10, 0b10000001001))]
    cases.append((CurveSpec(a=2, b=3, e=0, chi={(1, 1): 3, (0, 1): 0}, genus=1), GF(4, 0b10011)))
    equation_at, calls = CurveSpec.equation_at, []
    monkeypatch.setattr(CurveSpec, "equation_at", lambda *args: calls.append(1) or equation_at(*args))
    separable = 0
    for curve, fld in cases:
        calls.clear()
        pts = curve.points(fld)
        mixed = any(n1 and n2 for n1, n2 in curve.D)
        assert len(calls) == (fld.q**2 if mixed else 0), curve
        separable += not mixed
        assert pts == scan_points(curve, fld), curve
    assert 0 < separable < len(cases) and cases[-1][0].D.keys() >= {(1, 1)}


def test_points_on_curve(gf16):
    ell = elliptic_curve()
    for p in ell.points(gf16):
        assert ell.equation_at(gf16, p.x, p.y) == ZERO


def test_klein_special_point_values(gf8):
    kle = klein_curve()
    sp = kle.points(gf8)[-1]
    assert kle.eval_monomial(gf8, (1, 0), sp) == ZERO  # x
    assert kle.eval_monomial(gf8, (1, 1), sp) == ZERO  # xy
    assert kle.eval_monomial(gf8, (1, 2), sp) == 0  # xy^2 -> 1
    assert kle.eval_monomial(gf8, (0, 0), sp) == 0
    with pytest.raises(ValueError):
        kle.eval_monomial(gf8, (0, 1), sp)  # y has a pole there


def test_reduce_elliptic(gf16):
    ell = elliptic_curve()
    assert reduce(ell, gf16, {(0, 2): 0}) == {(0, 1): 0, (3, 0): 0, (1, 0): 0}
    canonical = {(1, 1): 3, (0, 0): 7}
    assert reduce(ell, gf16, canonical) == canonical


def test_reduce_klein(gf8):
    kle = klein_curve()
    assert reduce(kle, gf8, {(1, 3): 0}) == {(3, 0): 0, (0, 1): 0}  # x y^3 = x^3 + y
    with pytest.raises(ValueError):
        reduce(kle, gf8, {(0, 3): 0})  # y^3 alone is not in the ring


def test_reduce_preserves_evaluation(gf16, gf8):
    rng = random.Random(7)
    cases = [
        (elliptic_curve(), gf16),
        (klein_curve(), gf8),
        (hermitian_curve(), gf16),
        (other_elliptic_curve(), gf16),
    ]
    for curve, field in cases:
        pts = [p for p in curve.points(field) if p.special is None]
        for _ in range(25):
            raw = {}
            for _ in range(rng.randint(1, 6)):
                n1, n2 = rng.randint(0, 3), rng.randint(0, 2 * curve.a)
                if not curve.in_function_ring((n1, n2)):
                    continue
                raw[(n1, n2)] = rng.randrange(field.q - 1)
            red = reduce(curve, field, raw)
            assert all(n[1] < curve.a for n in red)
            assert reduce(curve, field, red) == red  # idempotent
            for p in rng.sample(pts, 5):
                want = ZERO
                for n, c in raw.items():
                    want = field.add(want, field.mul(c, curve.eval_monomial(field, n, p)))
                assert curve.eval_poly(field, red, p) == want


def test_reduce_preserves_pole_order(gf16):
    her = hermitian_curve()
    red = reduce(her, gf16, {(0, 4): 0})  # y^4 = x^5 + y
    assert her.pole_order(poly_degree(her, red)) == her.pole_order((0, 4)) == 20


def at_points(code, poly, deriv=False):
    """Logs of a canonical ring polynomial, or of its derivative along the
    curve, at every code point, read from the point-word table: each term
    scales the plain (alpha^0) word of its monomial by its coefficient."""
    fld, acc = code.fld, 0
    for n, c in poly.items():
        acc ^= fld.scale(code.point_words[code.curve.pole_order(n)][deriv][0], c)
    return [fld.log[v] for v in fld.unpack(acc, code.n)]


def direct_derivative(code, poly, j):
    """poly' = poly_x + poly_y * y' at code point j, its partials evaluated
    on the curve and y' read from the slope row; poly need not be canonical."""
    cv, fld, p = code.curve, code.fld, code.points[j]
    fx, fy = partials(poly)
    return fld.add(cv.eval_poly(fld, fx, p), fld.mul(cv.eval_poly(fld, fy, p), code.slope[j]))


def test_slope_elliptic(elliptic):
    # y^2 + y = x^3 + x: y' = D_x/D_y = x^2 + 1 at every point
    cv, fld = elliptic.curve, elliptic.fld
    y_prime = at_points(elliptic, {(0, 1): 0}, deriv=True)  # F = y
    const_prime = at_points(elliptic, {(0, 0): 5}, deriv=True)
    for j, p in enumerate(elliptic.points):
        assert elliptic.slope[j] == cv.eval_poly(fld, {(2, 0): 0, (0, 0): 0}, p)
        assert y_prime[j] == elliptic.slope[j]
        assert const_prime[j] == ZERO  # constants die


def test_slope_hermitian(hermitian):
    # y^4 + y = x^5: y' = x^4 at every point
    for j, p in enumerate(hermitian.points):
        assert hermitian.slope[j] == hermitian.fld.pow(p.x, 4)


def test_slope_klein_pole_only_at_special_point(klein):
    # x ramifies at P_(1:0:0) only: D_y = x y^2 + 1 vanishes there
    assert [j for j, s in enumerate(klein.slope) if s is POLE] == [22]
    assert klein.points[22].special == "(1:0:0)"
    # F = 1 + x: F' = 1, and the derivative words hold a zero lane at the pole
    assert at_points(klein, {(0, 0): 0, (1, 0): 0}, deriv=True) == [0] * 22 + [ZERO]
    # the closed-form values refuse the point before any charge: x then 1,
    # lanes 0 and 3 of a pole-order-3 word, paired with G = 1
    F = (klein.fld.pack([1, 0, 0, 1]), 3)
    basis = bms.LocatorOutput(
        F=[F] * 3, G=[(1, 0), (0, -1), (0, -1)], lead_F=[0] * 3, head_e=[0] * 3, mode=bms.DIVISION
    )
    ctr = OpCounter()
    with pytest.raises(ValueError, match=r"\(1:0:0\)"):
        decoder.error_values([22], basis, klein, ctr)
    assert ctr == OpCounter()
    assert decoder.error_values(list(range(22)), basis, klein) == [0] * 22  # 1/(F'G) = 1


def test_derivative_raw_matches_reduced(elliptic, klein, hermitian, other_elliptic):
    # reduce rewrites y^a by the rest of D, so F' agrees on a raw polynomial
    # and its canonical form only if the slope is right
    rng = random.Random(13)
    for code in (elliptic, klein, hermitian, other_elliptic):
        cv, fld = code.curve, code.fld
        affine = [j for j, p in enumerate(code.points) if p.special is None]
        for _ in range(20):
            raw = {}
            while not any(n2 >= cv.a for _, n2 in raw):
                n = (rng.randint(0, 4), rng.randint(0, 2 * cv.a))
                if cv.in_function_ring(n):
                    raw[n] = rng.randrange(fld.q - 1)
            red_prime = at_points(code, reduce(cv, fld, raw), deriv=True)
            for j in rng.sample(affine, 6):
                assert direct_derivative(code, raw, j) == red_prime[j]


def poly_product(field, F, G):
    out = {}
    for (f1, f2), c in F.items():
        for (g1, g2), d in G.items():
            k = (f1 + g1, f2 + g2)
            out[k] = field.add(out.get(k, ZERO), field.mul(c, d))
    return out


def test_derivative_product_rule(elliptic, klein, other_elliptic):
    # (F*G)' = F'G + FG' evaluated at rational points is an independent check
    rng = random.Random(11)
    for code in (elliptic, klein, other_elliptic):
        curve, field = code.curve, code.fld
        affine = [j for j, p in enumerate(code.points) if p.special is None]
        for _ in range(10):
            def rand_poly():
                out = {}
                for _ in range(rng.randint(1, 4)):
                    n2 = rng.randint(0, curve.a - 1)
                    n1 = rng.randint(0 if curve.in_function_ring((0, n2)) else 1, 3)
                    out[(n1, n2)] = rng.randrange(field.q - 1)
                return out

            F, G = rand_poly(), rand_poly()
            FG = reduce(curve, field, poly_product(field, F, G))
            FGp, Fp, Gp = (at_points(code, P, deriv=True) for P in (FG, F, G))
            Fv, Gv = at_points(code, F), at_points(code, G)
            for j in rng.sample(affine, 6):
                lhs = FGp[j]
                rhs = field.add(field.mul(Fp[j], Gv[j]), field.mul(Fv[j], Gp[j]))
                assert lhs == rhs


# sha256[:16] per preset curve of its points, then of reduce (or the
# ValueError message) on 200 seeded raw polynomials
CURVE_DIGESTS = {
    "elliptic_gf16": "8e5798789ef24b7d",
    "klein_gf8": "0e3d3e947f9a023d",
    "hermitian_gf16": "7c5a7c54f2da7982",
}


def test_curve_algebra_digests(gf16, gf8):
    cases = {
        "elliptic_gf16": (elliptic_curve(), gf16),
        "klein_gf8": (klein_curve(), gf8),
        "hermitian_gf16": (hermitian_curve(), gf16),
    }
    digests = {}
    for preset, (curve, field) in cases.items():
        h = hashlib.sha256(repr([(p.x, p.y, p.special) for p in curve.points(field)]).encode())
        rng = random.Random(5)
        for _ in range(200):
            raw = {}
            for _ in range(rng.randint(1, 6)):
                raw[(rng.randint(0, 4), rng.randint(0, 2 * curve.a + 1))] = rng.randrange(-1, field.q - 1)
            try:
                out = reduce(curve, field, raw)
            except ValueError as exc:
                out = str(exc)
            h.update(repr(out).encode())
        digests[preset] = h.hexdigest()[:16]
    assert digests == CURVE_DIGESTS


def test_count_nongaps():
    # |Phi(a, m)| on the ring basis = dim L(m P_inf) for m > 2g-2
    her, ell = hermitian_curve(), elliptic_curve()
    assert len(her.phi(0, her.a, 10)) == 6
    assert len(ell.phi(0, ell.a, 0)) == 1
    assert len(ell.phi(0, ell.a, 8)) == 8


def test_pole_order_unique_on_windows():
    for curve in (elliptic_curve(), klein_curve(), hermitian_curve()):
        bound = 4 * curve.a * curve.b
        for i in range(curve.a):
            window = curve.phi(i, curve.a, bound)
            orders = [curve.pole_order(n) for n in window]
            assert len(orders) == len(set(orders))


def test_shift_set_identity():
    # {l^(s2) - s | l in Phi(a, A), l^(s2) >= s} = Phi(a, A - o(s)) on C_a^b,
    # checked exhaustively over s and a spread of bounds A
    for curve in (elliptic_curve(), hermitian_curve()):
        ab = curve.a * curve.b
        for A in (ab, 2 * ab, 4 * ab):
            for s in curve.phi(0, curve.a, A):
                shifts = set()
                for l in curve.phi(0, curve.a, A):
                    ls = curve.l_of(s[1], curve.pole_order(l))
                    if ls is not None and ls[0] >= s[0] and ls[1] >= s[1]:
                        shifts.add((ls[0] - s[0], ls[1] - s[1]))
                want = set(curve.phi(0, curve.a, A - curve.pole_order(s)))
                assert shifts == want
