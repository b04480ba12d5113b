"""Plane-curve machinery for one-point AG codes.

A curve is its defining polynomial D, a BiPoly built once per curve:
C_a^b curves  y^a + e*x^b + sum chi_n x^n1 y^n2  (gcd(a,b)=1, e != 0), or
the Klein quartic  x*y^3 + x^3 + y  written out as data.  From D come
(through ``partials``) the partial derivatives D_x, D_y whose quotient is
the slope y' = D_x/D_y.  Rational points are the zeros of D, found
through one table of g(y) when D separates as g(y) + f(x) and by a q^2
scan otherwise, which is refused over fields larger than ``SCAN_MAX_Q``.
Besides these the module provides the pole-order combinatorics (Phi sets,
l^(i) lookup, the pairing index ibar) and monomial/polynomial evaluation.
Beyond D, the Klein flag decides only the function ring and the extra
rational point P_(1:0:0) with its valuation rule.

Monomials are (n1, n2) tuples; bivariate polynomials ("BiPoly") are dicts
mapping monomials to log-encoded coefficients with no zero entries stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .gf import GF, ZERO, OpCounter

Mono = tuple[int, int]
BiPoly = dict[Mono, int]

KLEIN_SPECIAL = "(1:0:0)"
# the largest field whose points a q^2 scan may search: 2^20 evaluations of D.
# Over GF(2^10) the Klein quartic's scan took 0.54 s and a C_2^3 curve with an
# xy term 0.61 s (one core of a shared Intel Xeon VM); each further bit of the
# field takes about four times as long
SCAN_MAX_Q = 1 << 10


def partials(poly: BiPoly) -> tuple[BiPoly, BiPoly]:
    """(d/dx, d/dy) of a BiPoly in characteristic 2: an odd exponent drops
    by one and an even one kills the term, so no two monomials merge."""
    dx = {(n1 - 1, n2): c for (n1, n2), c in poly.items() if n1 % 2}
    return dx, {(n1, n2 - 1): c for (n1, n2), c in poly.items() if n2 % 2}


def _vec_at(field: GF, poly: BiPoly, x: int, y: int) -> int:
    """A BiPoly at (x, y), logs in, summed in bit-vector form.  A zero
    coordinate kills exactly the terms with a positive power of it; with a
    zero power, n1 * x (or n2 * y) is 0."""
    exp, qm1 = field.exp, field.q - 1
    acc = 0
    for (n1, n2), c in poly.items():
        if not (n1 and x == ZERO or n2 and y == ZERO):
            acc ^= exp[(c + n1 * x + n2 * y) % qm1]
    return acc


@dataclass(frozen=True)
class Point:
    """Rational point: affine (x, y) in log form, or a named non-affine point."""

    x: int
    y: int
    special: str | None = None


@dataclass
class CurveSpec:
    """C_a^b curve data (or Klein quartic when ``klein`` is set).

    ``e`` is the log coefficient of x^b and ``chi`` maps lower-order
    monomials (pairs of non-negative ints with o(n) < ab) to their log
    coefficients.  For the Klein quartic the defining equation is fixed
    (x*y^3 + x^3 + y = 0 with (a, b) = (3, 2)), so ``e`` must be 0 and
    ``chi`` empty.  ``klein`` is a bool; a, b and the genus are ints.

    Construction derives, as a plain attribute, ``D``, the defining
    polynomial (y^a, x^b, then the nonzero chi terms; Klein: x*y^3, x^3,
    y).  It needs no field: the chi terms have pole order < ab, so no two
    terms of D share a monomial.
    """

    a: int
    b: int
    e: int
    chi: dict[Mono, int] = field(default_factory=dict)
    genus: int = 0
    klein: bool = False

    def __post_init__(self) -> None:
        kabg = (self.klein, self.a, self.b, self.genus)
        if [type(k) for k in kabg] != [bool, int, int, int]:
            raise ValueError(f"klein, a, b, genus = {kabg!r}: need a bool and three ints")
        if self.klein:
            if (self.a, self.b) != (3, 2):
                raise ValueError("Klein quartic requires (a, b) = (3, 2)")
            if self.genus != 3:
                raise ValueError("Klein quartic has genus 3")
            if type(self.e) is not int or self.e != 0 or self.chi:
                raise ValueError(f"Klein quartic is fixed: need e = 0 and no chi, not {self.e!r}, {self.chi!r}")
            D: BiPoly = {(1, 3): 0, (3, 0): 0, (0, 1): 0}
        else:
            if not 0 < self.a <= self.b or gcd(self.a, self.b) != 1:
                raise ValueError(f"need 0 < a <= b with gcd(a,b)=1, got a={self.a} b={self.b}")
            if self.e == ZERO:
                raise ValueError("leading coefficient e must be nonzero")
            expected = (self.a - 1) * (self.b - 1) // 2
            if self.genus != expected:
                raise ValueError(f"genus {self.genus} != (a-1)(b-1)/2 = {expected}")
            for n in self.chi:
                if type(n) is not tuple or len(n) != 2 or any(type(k) is not int or k < 0 for k in n):
                    raise ValueError(f"chi key {n!r} is not a pair of non-negative ints")
                if self.pole_order(n) >= self.a * self.b:
                    raise ValueError(f"chi term {n} has pole order >= ab")
            D = {(0, self.a): 0, (self.b, 0): self.e}
            D.update((n, c) for n, c in self.chi.items() if c != ZERO)
        # Derived once, as plain attributes rather than functools.cached_property,
        # whose write through the instance __dict__ slows every later attribute
        # read of the curve on CPython 3.11.  b_inv is b^-1 mod a.
        self.b_inv = pow(self.b, -1, self.a)
        self.D = D

    # -- monomial order ---------------------------------------------------

    def pole_order(self, n: Mono) -> int:
        return n[0] * self.a + n[1] * self.b

    def in_function_ring(self, n: Mono) -> bool:
        """True when x^n1 y^n2 has no pole outside P_inf.

        On the Klein quartic y has a pole at the rational point P_(1:0:0)
        (x, y have valuations 2, -1 there), so z^n is admissible only when
        2*n1 >= n2.  On a pure C_a^b curve every monomial qualifies.
        """
        if not self.klein:
            return True
        return 2 * n[0] >= n[1]

    def phi(self, i: int, A: int, Aprime: int) -> list[Mono]:
        """Phi^(i)(A, A'): ring monomials with i <= n2 < i+A and o(n) <= A'.

        Sorted by (pole order, n2); Klein-inadmissible monomials are dropped.
        """
        if not 0 <= i < self.a:
            raise ValueError(f"i={i} outside [0, a)")
        out = []
        for n2 in range(i, i + A):
            rem = Aprime - n2 * self.b
            if rem < 0:
                continue
            for n1 in range(rem // self.a + 1):
                n = (n1, n2)
                if self.in_function_ring(n):
                    out.append(n)
        out.sort(key=lambda n: (self.pole_order(n), n[1]))
        return out

    def l_of(self, i: int, N: int) -> Mono | None:
        """The unique ring monomial in Phi^(i)(a) with pole order N, if any.

        Pole orders are injective on the window i <= n2 < i+a, so at most one
        candidate exists; a missing value is the paper's "*" gap entry.
        """
        if not 0 <= i < self.a:
            raise ValueError(f"i={i} outside [0, a)")
        for n2 in range(i, i + self.a):
            rem = N - n2 * self.b
            if rem >= 0 and rem % self.a == 0:
                n = (rem // self.a, n2)
                return n if self.in_function_ring(n) else None
        return None

    def ibar(self, i: int, N: int) -> int:
        """Partner index: the unique 0 <= j < a with j = b^-1 N - i (mod a)."""
        return (self.b_inv * N - i) % self.a

    def basis_start(self, i: int) -> Mono:
        """Minimal ring monomial with n2 = i (the N=0 degree of F^(i))."""
        n1 = 0
        while not self.in_function_ring((n1, i)):
            n1 += 1
        return (n1, i)

    # -- points and evaluation --------------------------------------------

    def equation_at(self, field: GF, x: int, y: int) -> int:
        """D(x, y) in log form at an affine candidate point."""
        return field.log[_vec_at(field, self.D, x, y)]

    def points(self, field: GF) -> list[Point]:
        """All rational code points: affine solutions of D = 0 sorted by
        (x, y), ZERO first, then any special points (Klein's P_(1:0:0)).

        When no term of D mixes x and y, D = g(y) + f(x) and D = 0 reads
        g(y) = f(x) (characteristic 2): one table maps each value of g to
        its ys, and each x looks up f(x) there, 2q evaluations in place of
        the q^2 of the scan every other curve takes.  The scan is refused,
        with a ``ValueError`` and before it starts, over a field larger than
        ``SCAN_MAX_Q``."""
        logs = range(-1, field.q - 1)
        fx = {n: c for n, c in self.D.items() if n[0]}
        if any(n2 for _, n2 in fx):
            if field.q > SCAN_MAX_Q:
                raise ValueError(
                    "a curve with a term in both x and y finds its points by a q^2 scan, "
                    f"refused above q = {SCAN_MAX_Q}: q = {field.q}"
                )
            pts = [Point(x, y) for x in logs for y in logs if self.equation_at(field, x, y) == ZERO]
        else:
            gy = {n: c for n, c in self.D.items() if not n[0]}
            ys: dict[int, list[int]] = {}
            for y in logs:
                ys.setdefault(_vec_at(field, gy, ZERO, y), []).append(y)
            pts = [Point(x, y) for x in logs for y in ys.get(_vec_at(field, fx, x, ZERO), ())]
        if self.klein:
            pts.append(Point(ZERO, ZERO, special=KLEIN_SPECIAL))
        return pts

    def eval_monomial(self, field: GF, n: Mono, p: Point) -> int:
        """z^n = x^n1 y^n2 at a rational point.

        At Klein's P_(1:0:0) the local expansions x = v^2(1+...), y = v^-1
        give z^n the valuation 2*n1 - n2, so the value is 1 when 2*n1 = n2,
        0 when 2*n1 > n2, and undefined (a pole) otherwise.
        """
        if p.special is None:
            return field.mul(field.pow(p.x, n[0]), field.pow(p.y, n[1]))
        val = 2 * n[0] - n[1]
        if val < 0:
            raise ValueError(f"monomial {n} has a pole at {p.special}")
        return 0 if val == 0 else ZERO

    def eval_poly(self, field: GF, poly: BiPoly, p: Point, ctr: OpCounter | None = None) -> int:
        acc = ZERO
        for n, c in poly.items():
            acc = field.add(acc, field.mul(c, self.eval_monomial(field, n, p), ctr), ctr)
        return acc


def elliptic_curve() -> CurveSpec:
    """y^2 + y = x^3 + x (genus 1), the paper's GF(16) demo curve."""
    return CurveSpec(a=2, b=3, e=0, chi={(0, 1): 0, (1, 0): 0}, genus=1)


def klein_curve() -> CurveSpec:
    """Klein quartic x y^3 + x^3 + y = 0 over GF(8) (genus 3)."""
    return CurveSpec(a=3, b=2, e=0, chi={}, genus=3, klein=True)


def hermitian_curve() -> CurveSpec:
    """y^4 + y = x^5 over GF(16) (genus 6)."""
    return CurveSpec(a=4, b=5, e=0, chi={(0, 1): 0}, genus=6)
