import random

import pytest

from agbms import GF, CodeSpec, CurveSpec, elliptic_curve, hermitian_curve, klein_curve
from agbms import oracle
from agbms.gf import ZERO


def other_elliptic_curve():
    """y^2 + alpha^3 y = x^3 + x over GF(16), a curve no preset covers: 16
    affine points, D_y = alpha^3 is a constant other than 1, and chi carries
    a zero entry."""
    return CurveSpec(a=2, b=3, e=0, chi={(0, 1): 3, (1, 0): 0, (0, 0): ZERO}, genus=1)


@pytest.fixture(scope="session")
def gf16():
    return GF(4, 0b10011)


@pytest.fixture(scope="session")
def gf8():
    return GF(3, 0b1011)


@pytest.fixture(scope="session")
def elliptic(gf16):
    return CodeSpec(elliptic_curve(), gf16, m=8)


@pytest.fixture(scope="session")
def klein(gf8):
    return CodeSpec(klein_curve(), gf8, m=15)


@pytest.fixture(scope="session")
def hermitian(gf16):
    return CodeSpec(hermitian_curve(), gf16, m=24)


@pytest.fixture(scope="session")
def other_elliptic(gf16):
    return CodeSpec(other_elliptic_curve(), gf16, m=8)


@pytest.fixture(scope="session")
def elliptic_gf512():
    """y^2 + y = x^3 over GF(2^9), n = 512, t = 5: the one code whose field
    needs two-byte lanes."""
    curve = CurveSpec(a=2, b=3, e=0, chi={(0, 1): 0}, genus=1)
    return CodeSpec(curve, GF(9, 0b1000010001), m=12)


# the worked three-error / four-error / five-error scenarios, locations given
# as (x_log, y_log) pairs and values as logs
ELLIPTIC_XY = [(3, 7), (9, 11), (14, 4)]
ELLIPTIC_VALS = [6, 8, 11]
KLEIN_XY = [(0, 1), (1, 0), (2, 0), (3, 3)]
KLEIN_VALS = [1, 2, 5, 4]
HERMITIAN_XY = [(-1, 0), (5, 3), (9, 8), (10, 13), (12, 2)]
HERMITIAN_VALS = [11, 13, 2, 12, 9]


def golden(code, xys, vals):
    locs = [code.locate(xy) for xy in xys]
    received = code.inject_errors(code.zero_word(), locs, vals)
    return locs, vals, received


@pytest.fixture(scope="session")
def elliptic_golden(elliptic):
    return golden(elliptic, ELLIPTIC_XY, ELLIPTIC_VALS)


@pytest.fixture(scope="session")
def klein_golden(klein):
    return golden(klein, KLEIN_XY, KLEIN_VALS)


@pytest.fixture(scope="session")
def hermitian_golden(hermitian):
    return golden(hermitian, HERMITIAN_XY, HERMITIAN_VALS)


def bipoly(code, poly):
    """A packed (word, pole order) polynomial of ``bms.LocatorOutput`` as a
    BiPoly: lane h of the word holds the coefficient of the ring monomial of
    pole order order - h, and only the nonzero ones are kept."""
    word, order = poly
    cv, fld = code.curve, code.fld
    lanes = fld.unpack(word, order + 1)
    coeffs = {n: lanes[order - cv.pole_order(n)] for n in cv.phi(0, cv.a, order)}
    return {n: fld.log[v] for n, v in coeffs.items() if v}


def affine_indices(code):
    return [j for j, p in enumerate(code.points) if p.special is None]


def random_pattern(code, weight, rng, affine_only=True):
    pool = affine_indices(code) if affine_only else range(code.n)
    locs = rng.sample(list(pool), weight)
    vals = [rng.randrange(code.fld.q - 1) for _ in range(weight)]
    return locs, vals


def random_generic_pattern(code, weight, rng, affine_only=True):
    while True:
        locs, vals = random_pattern(code, weight, rng, affine_only)
        if oracle.is_generic(code, locs).is_generic:
            return locs, vals
