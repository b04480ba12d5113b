"""Code construction C(m), systematic encoding, error injection, syndromes.

Every evaluation on the decode path reads one memoized point x monomial
table (``CodeSpec.vec_rows``, a ``gf.Memo`` indexed by monomial): the row
of z^n holds its value at each code point in bit-vector form, evaluated on
the curve the first time it is read.  Point sums are made of log-indexed
product tables built from those rows, the software counterpart of the
table-driven syndrome and Chien-search units: a table's word r packs
alpha^r times a vector of values (``gf`` lanes), word 0 is the vector
itself and index ZERO reads 0, so a nonzero log-form symbol picks its
product with one read and a point sum is one XOR per symbol, which one
``GF.unpack`` turns into values.  Above GF(16) a table keeps only its w
split words and forms word r per read (``_Split``), since q words per table
do not fit large fields.  The syndrome unit keeps one table per code point
over the syndrome indices (``CodeSpec.syndrome_rows``); the encoder one per
message position over the parity positions, from one packed elimination of
the basis rows.  The decoder reads tables of point words
(``CodeSpec.point_words``, a ``gf.Memo`` indexed by pole order): per pole
order, the monomial's values at every point and its derivative along the
curve, taken from one more per-code row, the slope y' = D_x/D_y at each
point (``CodeSpec.slope``), so a locator polynomial at every point is one
XOR per coefficient, as a syndrome vector is one per symbol.  The
interpolation solve gathers its rows from ``vec_rows`` too, and
``oracle.footprint`` its location rows.  The log form of the rows is only
a view for outside callers (``CodeSpec.parity_check_matrix``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat
from operator import getitem, xor

from . import linalg
from .curve import CurveSpec, Mono, Point, partials
from .gf import GF, ZERO, Memo

POLE = None  # slope marker: y' has no value at this point
PRODUCT_W = 4  # widest field, GF(16), whose point sums read product tables


class _Split:
    """A product table kept as its w split words alpha^k * vector (k < w),
    for fields wider than ``PRODUCT_W``: read at r, it XORs the split words
    at the set bits of alpha^r, and at ZERO it reads 0."""

    def __init__(self, fld: GF, parts: list[int]) -> None:
        self.exp, self.parts = fld.exp, parts

    def __getitem__(self, r: int) -> int:
        v, acc = (0 if r == ZERO else self.exp[r]), 0
        for part in self.parts:
            if v & 1:
                acc ^= part
            v >>= 1
        return acc


Table = list[int] | _Split  # a log-indexed product table, held or read from split words


def _products(fld: GF, vecs: Sequence[int]) -> Table:
    """The log-indexed product table of a vector of bit-vector values: word
    r packs alpha^r times each value, so word 0 is the vector itself, and
    one more word, 0, sits last, where index ZERO reads it.

    Built from the w split words alpha^k * vector (k < w) by XOR: the word
    of a bit-vector v is the XOR of the split words of its set bits.  A
    table holds q words where the split words are w, so above
    ``PRODUCT_W`` the split words are kept instead (``_Split``): up to
    GF(16) a curve has at most q^2 + q + 1 = 273 points and every table of
    a code stays small, while over GF(2^10) the product tables of one
    n = 1088 code grew the peak RSS by 180 MB against 3 MB."""
    base = fld.pack(vecs)
    parts = [fld.scale(base, k) for k in range(fld.w)]
    if fld.w > PRODUCT_W:
        return _Split(fld, parts)
    by_vec = [0]
    for part in parts:
        by_vec += [x ^ part for x in by_vec]
    return [by_vec[v] for v in fld.exp] + [0]


@dataclass
class Word:
    """Length-n vector of log-encoded symbols with a role tag.

    Built from any iterable of symbols into a list of its own, so a Word
    never shares its list with the caller: callers pass their symbols as
    they stand and the one copy is made here."""

    symbols: list[int]
    role: str = "codeword"  # codeword | received

    def __post_init__(self) -> None:
        self.symbols = list(self.symbols)


@dataclass
class CodeSpec:
    """The code C(m) on a curve over a field, with its evaluation points.

    d_G is the Goppa designed distance m - 2g + 2, and ``t_generic`` =
    floor((d_G - a)/2) is what the inverse-free pipeline corrects for
    generic errors with loops up to N = m.  ``points`` are the curve's
    rational points, found on construction.  The int m must satisfy
    2g - 2 + a <= m < n: the lower bound is t_generic >= 0 (and implies
    m > 2g - 2); below n no nonzero f in L(m P_inf) vanishes at all n
    points, so the m - g + 1 rows of the parity-check matrix are independent
    (at n <= m they are not, and ``dim`` would be wrong).  A C_a^b curve's
    ``e`` and ``chi`` values must be int logs of the field.
    """

    curve: CurveSpec
    fld: GF
    m: int
    points: list[Point] = field(init=False)

    def __post_init__(self) -> None:
        cv, g = self.curve, self.curve.genus
        low = 2 * g - 2 + cv.a
        if type(self.m) is not int or self.m < low:
            raise ValueError(f"m={self.m!r} must be an int of at least 2g-2+a={low} (t_generic >= 0)")
        for c in [] if cv.klein else [cv.e, *cv.chi.values()]:
            if type(c) is not int or not ZERO <= c < self.fld.q - 1:
                raise ValueError(f"curve log coefficient {c!r} is not an int in [-1, {self.fld.q - 2}]")
        self.points = cv.points(self.fld)
        self.n = len(self.points)
        if self.m >= self.n:  # then some f in L(m P_inf) vanishes at every point
            raise ValueError(f"m={self.m} must be below n = {self.n} (H has dependent rows)")
        self.d_G = self.m - 2 * g + 2
        self.t_generic = (self.d_G - self.curve.a) // 2
        # Monomial basis of L(m P_inf) and the wider syndrome index set.
        self.basis = self.curve.phi(0, self.curve.a, self.m)
        self.syndrome_domain = self.curve.phi(0, 2 * self.curve.a - 1, self.m)
        self.point_words = Memo(self, CodeSpec._point_words)  # pole order -> its point words
        self.vec_rows = Memo(self, CodeSpec._vec_row)  # monomial -> its bit-vector row
        self.tables: dict = {}  # (build, *args) -> build(self, *args), read through ``table``

    @property
    def dim(self) -> int:
        return self.n - len(self.basis)

    # -- evaluation table ----------------------------------------------------

    def table(self, build: Callable, *args):
        """``build(self, *args)``, built on the first call and kept for the
        life of the code under the key (build, *args).  The builder is the
        key, so tables need no names and a patched builder keeps its own
        entry, never the real one's.  A table is shared: do not mutate."""
        key = (build, *args)
        if key not in self.tables:
            self.tables[key] = build(self, *args)
        return self.tables[key]

    def _vec_row(self, n: Mono) -> list[int]:
        """The values of z^n at every code point in bit-vector form, read as
        ``vec_rows[n]``, ready for ``GF.pack``.  Evaluated on the curve on
        first read and kept for the life of the code, uncharged.  z^n must
        have no pole at a code point, as no ring monomial has: at Klein's
        P_(1:0:0) a monomial with 2*n1 < n2 raises the curve's ValueError."""
        cv, fld, vec = self.curve, self.fld, self.fld.vec
        return [vec[cv.eval_monomial(fld, n, p)] for p in self.points]

    @cached_property
    def slope(self) -> list[int | None]:
        """Logs of y' = D_x/D_y at every code point, POLE where D_y vanishes
        or D_x has a pole (on the presets only Klein's P_(1:0:0)).

        Evaluated on the curve on first use, uncharged: like the rows of
        z^n it depends on the point alone.
        """
        cv, fld = self.curve, self.fld
        Dx, Dy = partials(cv.D)
        out: list[int | None] = []
        for p in self.points:
            try:
                dx, dy = cv.eval_poly(fld, Dx, p), cv.eval_poly(fld, Dy, p)
            except ValueError:
                dy = ZERO
            out.append(POLE if dy == ZERO else fld.mul(dx, -dy % (fld.q - 1)))
        return out

    def _point_words(self, order: int) -> tuple[Table, Table, int]:
        """The ring monomial z^n of pole order ``order`` at every code point,
        read as ``point_words[order]``.

        Two log-indexed product tables of packed n-lane words: word r of the
        first holds vec(alpha^r * z^n(P_j)) in lane j, and word r of the
        second the same for the derivative z_x + z_y * y' along the curve,
        with a zero lane where the slope is POLE.  So c z^n at every point
        is word c, one read, as a syndrome row's word is.  Last comes the
        weight n1 % 2 + n2 % 2, the terms z^n puts into F_x and F_y.

        Built from the row of z^n and the slope row on first read and kept
        for the life of the code, uncharged.  Raises ValueError at a
        gap, where no ring monomial has that pole order.
        """
        n = self.curve.l_of(0, order)
        if n is None:
            raise ValueError(f"no ring monomial has pole order {order}")
        cv, fld = self.curve, self.fld
        zx, zy = partials({n: 0})
        deriv = [
            0 if yp is POLE else fld.vec[fld.add(cv.eval_poly(fld, zx, p), fld.mul(cv.eval_poly(fld, zy, p), yp))]
            for p, yp in zip(self.points, self.slope)
        ]
        return _products(fld, self.vec_rows[n]), _products(fld, deriv), len(zx) + len(zy)

    def zero_word(self) -> Word:
        return Word(repeat(ZERO, self.n))

    # -- encoding ----------------------------------------------------------

    def parity_check_matrix(self) -> linalg.Matrix:
        """Rows [z^l(P_j)] for l in the basis of L(m P_inf), in log form: a
        view of the basis rows of ``vec_rows`` for callers outside the
        toolkit, which encodes from the bit-vector rows themselves."""
        log = self.fld.log
        return [[log[v] for v in self.vec_rows[n]] for n in self.basis]

    @cached_property
    def _encoder(self) -> tuple[list[Table], list[int]]:
        """Per message position, the product table of its column of
        rref(H) over the pivot rows, whose word r packs alpha^r times that
        column's contribution to the parity symbols, and the index of each
        code position's symbol in message + parity; computed from one
        packed elimination of the basis rows on the first ``encode`` and
        reused by every later one."""
        fld = self.fld
        red = [fld.pack(self.vec_rows[n]) for n in self.basis]
        pivots = linalg.rref_packed(fld, red, self.n)
        if len(pivots) != len(self.basis):
            raise ValueError("parity-check matrix is rank-deficient")
        free = sorted(set(range(self.n)).difference(pivots))
        cols = list(zip(*(fld.unpack(x, self.n) for x in red)))
        tables = [_products(fld, cols[j]) for j in free]
        return tables, sorted(range(self.n), key=(free + pivots).__getitem__)

    def _check_symbols(self, symbols: list[int]) -> None:
        if not ZERO <= min(symbols) <= max(symbols) < self.fld.q - 1:
            raise ValueError(f"symbols must be logs in [-1, {self.fld.q - 2}]")

    def encode(self, message: list[int]) -> Word:
        """Systematic encoding: message symbols on free columns of rref(H),
        parity symbols solved on pivot columns so that H c = 0.

        Each message symbol reads one word of its position's product table,
        and the XOR of those words, unpacked once, is the parity vector
        (char 2: parity = sum, no sign).  Raises ValueError on a symbol
        outside [-1, q-2]."""
        tables, order = self._encoder
        if len(message) != len(tables):
            raise ValueError(f"message length {len(message)} != code dimension {len(tables)}")
        self._check_symbols(message)
        parity = self.fld.unpack(reduce(xor, map(getitem, tables, message)), len(self.basis))
        symbols = [*message, *map(self.fld.log.__getitem__, parity)]
        return Word(map(symbols.__getitem__, order), "codeword")

    # -- errors and syndromes -----------------------------------------------

    def inject_errors(self, word: Word, locs: list[int], vals: list[int]) -> Word:
        if len(locs) != len(set(locs)):
            raise ValueError("duplicate error locations")
        if len(locs) != len(vals):
            raise ValueError("locs and vals length mismatch")
        if any(not 0 <= j < self.n for j in locs):
            raise ValueError(f"error locations must lie in [0, {self.n})")
        if any(not 0 <= v < self.fld.q - 1 for v in vals):
            raise ValueError(f"error values must be nonzero logs in [0, {self.fld.q - 1})")
        out = Word(word.symbols, "received")
        for j, v in zip(locs, vals):
            out.symbols[j] = self.fld.add(out.symbols[j], v)
        return out

    @cached_property
    def syndrome_rows(self) -> list[Table]:
        """Per code point j, the product table of the syndrome vector: word
        r packs vec(alpha^r * z^l(P_j)) in lane s for the s-th l of
        ``syndrome_domain``, and word ZERO is 0.

        Built from the rows of ``vec_rows`` on first use, uncharged."""
        rows = [self.vec_rows[l] for l in self.syndrome_domain]
        return [_products(self.fld, col) for col in zip(*rows)]

    def syndrome_word(self, word: Word) -> int:
        """The packed syndrome vector of a word, lane s holding vec(u_l) for
        the s-th l of ``syndrome_domain``: one product-table read per
        symbol, XORed.  Raises ValueError on a length other than n or a
        symbol outside [-1, q-2]."""
        if len(word.symbols) != self.n:
            raise ValueError("word length mismatch")
        self._check_symbols(word.symbols)
        return reduce(xor, map(getitem, self.syndrome_rows, word.symbols))

    def syndrome_dict(self, packed: int) -> dict[Mono, int]:
        """A packed syndrome vector as {l: u_l} over ``syndrome_domain``."""
        vecs = self.fld.unpack(packed, len(self.syndrome_domain))
        return dict(zip(self.syndrome_domain, map(self.fld.log.__getitem__, vecs)))

    def syndromes(self, word: Word) -> dict[Mono, int]:
        """u_l = sum_j r_j z^l(P_j) for every evaluable l in Phi(2a-1, m)."""
        return self.syndrome_dict(self.syndrome_word(word))
