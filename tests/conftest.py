import random
from importlib import resources

import pytest

from agbms import GF, CodeSpec, CurveSpec, Point
from agbms import cli, linalg, oracle
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


# the three presets as the CLI and the benchmark load them
@pytest.fixture(scope="session")
def elliptic():
    return cli.load_code("elliptic_gf16")[0]


@pytest.fixture(scope="session")
def klein():
    return cli.load_code("klein_gf8")[0]


@pytest.fixture(scope="session")
def hermitian():
    return cli.load_code("hermitian_gf16")[0]


@pytest.fixture
def rref_calls(monkeypatch):
    """A list that gains one entry per elimination for the test: per call
    of ``linalg.rref_packed``, the packed core that ``linalg.rref`` and the
    interpolation solve both run."""
    calls = []
    real_core = linalg.rref_packed

    def counting_core(field, a, cols):
        calls.append(1)
        return real_core(field, a, cols)

    monkeypatch.setattr(linalg, "rref_packed", counting_core)
    return calls


@pytest.fixture(scope="session")
def other_elliptic(gf16):
    return CodeSpec(other_elliptic_curve(), gf16, m=8)


@pytest.fixture(scope="session")
def c57(gf16):
    """y^5 = alpha^2 x^7 + alpha x over GF(16), genus 12, n = 46: b^-1 = 3
    mod 5 is neither 1 nor a-1, so the slot rotation is not a plain +-k."""
    return CodeSpec(CurveSpec(a=5, b=7, e=2, chi={(1, 0): 1}, genus=12), gf16, m=30)


@pytest.fixture(scope="session")
def elliptic_gf512():
    """y^2 + y = x^3 over GF(2^9), n = 512, t = 5: the one code whose field
    needs two-byte lanes."""
    curve = CurveSpec(a=2, b=3, e=0, chi={(0, 1): 0}, genus=1)
    return CodeSpec(curve, GF(9, 0b1000010001), m=12)


@pytest.fixture(scope="session")
def elliptic_gf8():
    """y^2 + y = x^3 over GF(8), n = 8, t_generic = 2: small enough for
    every-value sweeps."""
    curve = CurveSpec(a=2, b=3, e=0, chi={(0, 1): 0}, genus=1)
    return CodeSpec(curve, GF(3, 0b1011), m=6)


# the worked three-error / four-error / five-error scenarios, locations given
# as (x_log, y_log) pairs and values as logs
ELLIPTIC_XY = [(3, 7), (9, 11), (14, 4)]
ELLIPTIC_VALS = [6, 8, 11]
KLEIN_XY = [(0, 1), (1, 0), (2, 0), (3, 3)]
KLEIN_VALS = [1, 2, 5, 4]
HERMITIAN_XY = [(-1, 0), (5, 3), (9, 8), (10, 13), (12, 2)]
HERMITIAN_VALS = [11, 13, 2, 12, 9]


def golden(code, xys, vals):
    locs = [code.points.index(Point(*xy)) for xy in xys]
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


GENERIC_DRAWS = 200  # most patterns are generic (0.88-0.96 on the presets)


def random_generic_pattern(code, weight, rng, affine_only=True):
    """A seeded generic pattern, drawn again until ``is_generic`` accepts
    one; after ``GENERIC_DRAWS`` rejected draws the test fails, so a broken
    ``is_generic`` fails it instead of hanging the run."""
    for _ in range(GENERIC_DRAWS):
        locs, vals = random_pattern(code, weight, rng, affine_only)
        if oracle.is_generic(code, locs).is_generic:
            return locs, vals
    raise AssertionError(f"no generic pattern of weight {weight} in {GENERIC_DRAWS} draws")


def bundled_error_file(preset):
    """Path of the error pattern bundled with a preset."""
    return str(resources.files("agbms").joinpath(f"presets/{preset}_errors.txt"))


def reduce(curve, field, raw):
    """Canonical form of a BiPoly with n2 < a, rewriting the leading
    monomial of D (its term with n2 = a) by the rest of D, which equals it
    on the curve (char 2).

    Preserves the function (hence pole order and every point value).  On
    the Klein quartic the rewrite x*y^3 -> x^3 + y needs an x factor, so
    terms y^k with k >= 3 and no x are rejected: they lie outside the
    function ring.  The result may still contain y or y^2.
    """
    lead = next(n for n in curve.D if n[1] == curve.a)
    rewrite = {n: c for n, c in curve.D.items() if n != lead}
    work = {n: c for n, c in raw.items() if c != ZERO}
    out = {}
    while work:
        n, c = work.popitem()
        n1, n2 = n
        if n2 < curve.a:
            out[n] = field.add(out.get(n, ZERO), c)
            if out[n] == ZERO:
                del out[n]
            continue
        if n1 < lead[0]:
            raise ValueError(f"y^{n2} is not in the Klein function ring")
        base = (n1 - lead[0], n2 - lead[1])
        for rn, rc in rewrite.items():
            m = (base[0] + rn[0], base[1] + rn[1])
            work[m] = field.add(work.get(m, ZERO), field.mul(c, rc))
            if work[m] == ZERO:
                del work[m]
    return out


def full_syndromes_from_errors(code, locs, vals, B):
    """The syndromes u_l on Phi(2a-1, B) straight from the error vector.

    A receiver only has Phi(2a-1, m); this supplies the longer table the
    Appendix-B checks need (and the direct-discrepancy oracle's shifted
    lookups), provided every monomial is evaluable at the error points.
    """
    cv, fld = code.curve, code.fld
    pts = [code.points[j] for j in locs]
    out = {}
    for n2 in range(0, 2 * cv.a - 1):
        rem = B - n2 * cv.b
        if rem < 0:
            continue
        for n1 in range(rem // cv.a + 1):
            acc = ZERO
            for v, p in zip(vals, pts):
                acc = fld.add(acc, fld.mul(v, cv.eval_monomial(fld, (n1, n2), p)))
            out[(n1, n2)] = acc
    return out


def oracle_encoder(code):
    """Systematic encoding the long way, as a function of the message: one
    rref(H), then per pivot row the sum of its free-column coefficients
    times the message symbols, solved into the pivot column (char 2: the
    parity is the sum, no sign)."""
    fld = code.fld
    red, pivots = linalg.rref(fld, code.parity_check_matrix())
    free = sorted(set(range(code.n)).difference(pivots))

    def encode(message):
        c = [ZERO] * code.n
        for j, sym in zip(free, message):
            c[j] = sym
        for row, pc in zip(red, pivots):
            acc = ZERO
            for j, sym in zip(free, message):
                acc = fld.add(acc, fld.mul(row[j], sym))
            c[pc] = acc
        return c

    return encode


def reference_rref(field, m):
    """Reduced row-echelon form the long way, entry by entry in log form:
    (rref matrix, pivot columns).  The reference for ``linalg.rref``, which
    runs the same elimination on packed rows."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != ZERO), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = (field.q - 1 - a[r][c]) % (field.q - 1)
        a[r] = [field.mul(x, inv) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != ZERO:
                f = a[i][c]
                a[i] = [field.add(a[i][j], field.mul(f, a[r][j])) for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def reference_rank(field, m):
    """The rank of m, the number of pivots of ``reference_rref``."""
    return len(reference_rref(field, m)[1])


def reference_solve(field, m, rhs):
    """The unique x with m x = rhs, read off ``reference_rref`` of the
    augmented matrix, or None when the system is singular or inconsistent
    (a pivot short of the columns of m, or one in the rhs column)."""
    cols = len(m[0])
    red, pivots = reference_rref(field, [row + [b] for row, b in zip(m, rhs)])
    if pivots != list(range(cols)):
        return None
    return [row[cols] for row in red[:cols]]


def reference_footprint(code, locs):
    """The delta set of I(E) the long way, by greedy rank growth over pole
    order: a monomial joins when its evaluation vector on E is independent
    of all smaller ones, that is when ``reference_rref`` of the reduced
    rows of the smaller ones and the new row has one more pivot.  The
    reference for ``oracle.footprint``, which reads the same set off the
    pivots of one elimination.  Loops forever on repeated locations."""
    cv = code.curve
    t = len(locs)
    delta, red = [], []
    m = -1
    while len(delta) < t:
        m += 1
        n = cv.l_of(0, m)
        if n is None:
            continue
        row = [cv.eval_monomial(code.fld, n, code.points[j]) for j in locs]
        trial, pivots = reference_rref(code.fld, red + [row])
        if len(pivots) == len(delta) + 1:
            delta.append(n)
            red = trial
    return delta


def groebner_la(code, locs):
    """Groebner basis of I(E) for generic E by solving t x t linear systems.

    For each column i the minimal monomial s^(i) = (n1, i) outside the
    footprint Phi(a, m_t) is matched against the footprint monomials:
    f^(i) = z^(s) - sum f_l z^l with f^(i)(P) = 0 at every error point.
    """
    cv, fld = code.curve, code.fld
    pts = [code.points[j] for j in locs]
    monos = cv.phi(0, cv.a, oracle.m_t(code, len(locs)))
    mat = [[cv.eval_monomial(fld, n, p) for n in monos] for p in pts]
    out = []
    for i in range(cv.a):
        s = (cv.basis_start(i)[0] + sum(1 for n in monos if n[1] == i), i)
        sol = reference_solve(fld, mat, [cv.eval_monomial(fld, s, p) for p in pts])
        if sol is None:
            raise ValueError("singular system: error pattern is not generic")
        # char 2: subtraction is addition
        out.append({s: 0, **{n: c for n, c in zip(monos, sol) if c != ZERO}})
    return out


def poly_degree(curve, poly):
    """The monomial of highest pole order in a BiPoly (None if it is empty)."""
    return max(poly, key=curve.pole_order, default=None)


def ideal_membership(F, code, locs):
    """True iff F vanishes at every listed point."""
    return all(code.curve.eval_poly(code.fld, F, code.points[j]) == ZERO for j in locs)


def discrepancy_direct(code, F, synd, l):
    """Eq.-(3) discrepancy of F at l, computed straight from the syndrome
    table (the independent reference for the v-head values).

    Requires every shifted index n + l^(s2) - s in the table; a missing one
    raises, since silently treating it as zero would fake the check.
    """
    cv, fld = code.curve, code.fld
    if not F:
        return ZERO
    s = poly_degree(cv, F)
    ls = cv.l_of(s[1], cv.pole_order(l))
    if ls is None or not (ls[0] >= s[0] and ls[1] >= s[1]):
        return ZERO
    acc = ZERO
    for n, c in F.items():
        idx = (n[0] + ls[0] - s[0], n[1] + ls[1] - s[1])
        if idx not in synd:
            raise ValueError(f"syndrome table does not cover index {idx}")
        acc = fld.add(acc, fld.mul(c, synd[idx]))
    return acc


# GF(8), GF(16) and GF(32) for the seeded Artin-Schreier curves
AS_FIELDS = {8: (3, 0b1011), 16: (4, 0b10011), 32: (5, 0b100101)}


def artin_schreier_codes(q, seed):
    """Seeded codes on y^a + c*y = f(x) over GF(q), a = 2^k in {2, 4}.

    Per odd b in {a + 1, a + 3, a + 5}, three curves with seeded c and
    leading coefficient e of f (nonzero logs) and up to two more x-terms
    of f below x^b.  D_y = c is a nonzero constant, so the affine curve is
    smooth and the genus is (a-1)(b-1)/2.  A curve with n <= 2g - 2 + a
    points carries no code and is skipped; otherwise m is seeded in
    [2g - 2 + a, n).
    """
    fld = GF(*AS_FIELDS[q])
    rng = random.Random(seed)
    out = []
    for a in (2, 4):
        for b in range(a + 1, a + 6, 2):
            for _ in range(3):
                chi = {(0, 1): rng.randrange(q - 1)}
                for i in rng.sample(range(b), rng.randint(0, 2)):
                    chi[(i, 0)] = rng.randrange(q - 1)
                genus = (a - 1) * (b - 1) // 2
                curve = CurveSpec(a=a, b=b, e=rng.randrange(q - 1), chi=chi, genus=genus)
                n = len(curve.points(fld))
                low = 2 * genus - 2 + a
                if n > low:
                    out.append(CodeSpec(curve, fld, m=rng.randrange(low, n)))
    return out


def artin_schreier_budget_codes(q):
    """(curve index, code) for every seeded ``artin_schreier_codes(q,
    seed=q)`` curve at every m it accepts with t_generic >= 1."""
    for k, base in enumerate(artin_schreier_codes(q, seed=q)):
        cv = base.curve
        for m in range(2 * cv.genus - 2 + cv.a, base.n):
            code = CodeSpec(cv, base.fld, m)
            if code.t_generic >= 1:
                yield k, code
