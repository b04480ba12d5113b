import hashlib
import random

import pytest

from agbms.curve import CurveSpec, Point, elliptic_curve, hermitian_curve, klein_curve
from agbms.gf import GF, ZERO
from conftest import other_elliptic_curve


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
    assert ell.reduce(gf16, {(0, 2): 0}) == {(0, 1): 0, (3, 0): 0, (1, 0): 0}
    canonical = {(1, 1): 3, (0, 0): 7}
    assert ell.reduce(gf16, canonical) == canonical


def test_reduce_klein(gf8):
    kle = klein_curve()
    assert kle.reduce(gf8, {(1, 3): 0}) == {(3, 0): 0, (0, 1): 0}  # x y^3 = x^3 + y
    with pytest.raises(ValueError):
        kle.reduce(gf8, {(0, 3): 0})  # y^3 alone is not in the ring


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
            red = curve.reduce(field, raw)
            assert all(n[1] < curve.a for n in red)
            assert curve.reduce(field, red) == red  # idempotent
            for p in rng.sample(pts, 5):
                want = ZERO
                for n, c in raw.items():
                    want = field.add(want, field.mul(c, curve.eval_monomial(field, n, p)))
                assert curve.eval_poly(field, red, p) == want


def test_reduce_preserves_pole_order(gf16):
    her = hermitian_curve()
    red = her.reduce(gf16, {(0, 4): 0})  # y^4 = x^5 + y
    assert her.poly_order(red) == her.pole_order((0, 4)) == 20


def test_formal_derivative_elliptic(gf16):
    ell = elliptic_curve()
    num, den = ell.formal_derivative(gf16, {(0, 1): 0})  # F = y: F' = y' = x^2 + 1
    assert den == {(0, 0): 0}
    assert num == {(2, 0): 0, (0, 0): 0}
    num, den = ell.formal_derivative(gf16, {(0, 0): 5})  # constants die
    assert num == {}


def test_formal_derivative_hermitian(gf16):
    her = hermitian_curve()
    num, den = her.formal_derivative(gf16, {(0, 1): 0})  # y' = x^4
    assert den == {(0, 0): 0}
    assert num == {(4, 0): 0}


def test_formal_derivative_klein_pair(gf8):
    kle = klein_curve()
    num, den = kle.formal_derivative(gf8, {(0, 0): 0, (1, 0): 0})  # F = 1 + x
    assert den == {(1, 2): 0, (0, 0): 0}  # x y^2 + 1
    assert num == den  # F' = 1 * D_y / D_y


def test_derivative_product_rule(gf16, gf8):
    # (F*G)' = F'G + FG' evaluated at rational points is an independent check
    rng = random.Random(11)
    from agbms.curve import _poly_mul

    for curve, field in [(elliptic_curve(), gf16), (klein_curve(), gf8), (other_elliptic_curve(), gf16)]:
        pts = [p for p in curve.points(field) if p.special is None]
        for _ in range(10):
            def rand_poly():
                out = {}
                for _ in range(rng.randint(1, 4)):
                    n2 = rng.randint(0, curve.a - 1)
                    n1 = rng.randint(0 if curve.in_function_ring((0, n2)) else 1, 3)
                    out[(n1, n2)] = rng.randrange(field.q - 1)
                return out

            F, G = rand_poly(), rand_poly()
            FG = curve.reduce(field, _poly_mul(field, F, G))
            dFG = curve.formal_derivative(field, FG)
            dF = curve.formal_derivative(field, F)
            dG = curve.formal_derivative(field, G)
            for p in rng.sample(pts, 6):
                lhs = curve.eval_derivative(field, dFG, p)
                rhs = field.add(
                    field.mul(curve.eval_derivative(field, dF, p), curve.eval_poly(field, G, p)),
                    field.mul(curve.eval_poly(field, F, p), curve.eval_derivative(field, dG, p)),
                )
                assert lhs == rhs


# sha256[:16] per preset curve of its points, then of reduce and
# formal_derivative (or the ValueError message) on 200 seeded raw
# polynomials; recorded before the curve methods read the defining
# polynomial D from one attribute
CURVE_DIGESTS = {
    "elliptic_gf16": "ba6f2c99b0f6c5ec",
    "klein_gf8": "1bcf0c378e561b86",
    "hermitian_gf16": "b3705ab04f6ad245",
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
                red = curve.reduce(field, raw)
                out = (red, curve.formal_derivative(field, red))
            except ValueError as exc:
                out = str(exc)
            h.update(repr(out).encode())
        digests[preset] = h.hexdigest()[:16]
    assert digests == CURVE_DIGESTS


def test_count_nongaps():
    assert hermitian_curve().count_nongaps(10) == 6
    assert elliptic_curve().count_nongaps(0) == 1
    assert elliptic_curve().count_nongaps(8) == 8


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
