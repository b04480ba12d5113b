"""Code construction C(m), systematic encoding, error injection, syndromes.

Every evaluation on the decode path reads one memoized point x monomial
table (``CodeSpec.eval_row``): the row of z^n holds its log value at each
code point.  Sums are accumulated in bit-vector form and converted to log
form once, the software counterpart of the table-driven syndrome and
Chien-search units.  The syndrome unit reads a split table built from those
rows: per point and bit of the received symbol, one packed word (``gf``
lanes, one per syndrome index) of the whole syndrome vector, so a syndrome
vector is an XOR of words that one ``GF.unpack`` turns into values: the
word's bytes on one-byte lanes, a ``struct`` read of them on two-byte ones.
The decoder reads the same rows as split tables of point words
(``CodeSpec.point_words``): per pole order, the monomial's values at every
point and its derivative along the curve, taken from one more per-code row,
the slope y' = D_x/D_y at each point (``CodeSpec.slope``), so a locator
polynomial at every point is an XOR of words, as a syndrome vector is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .curve import CurveSpec, Mono, Point, partials
from .gf import GF, ZERO

POLE = None  # table marker: z^n (or y') has no value at this point


def _split(fld: GF, logs: list[int]) -> list[int]:
    """The split table of a vector of log values: word k packs alpha^k times
    each value in bit-vector form."""
    word = fld.pack([fld.to_vec(z) for z in logs])
    return [fld.scale(word, k)[0] for k in range(fld.w)]


@dataclass
class Word:
    """Length-n vector of log-encoded symbols with a role tag."""

    symbols: list[int]
    role: str = "codeword"  # codeword | received | error

    def __post_init__(self) -> None:
        self.symbols = list(self.symbols)


@dataclass
class CodeSpec:
    """The code C(m) on a curve over a field, with its evaluation points.

    d_G is the Goppa designed distance m - 2g + 2, and ``t_generic`` =
    floor((d_G - a)/2) is what the inverse-free pipeline corrects for
    generic errors with loops up to N = m.  ``points`` are the curve's
    rational points, found on construction.  The int m must satisfy
    2g - 2 < m < n + g - 1, so that the code has positive dimension; a C_a^b
    curve's ``e`` and ``chi`` values must be int logs of the field.
    """

    curve: CurveSpec
    fld: GF
    m: int
    points: list[Point] = field(init=False)

    def __post_init__(self) -> None:
        cv, g = self.curve, self.curve.genus
        if type(self.m) is not int or self.m <= 2 * g - 2:
            raise ValueError(f"m={self.m!r} must be an int above 2g-2={2 * g - 2}")
        for c in [] if cv.klein else [cv.e, *cv.chi.values()]:
            if type(c) is not int or not ZERO <= c < self.fld.q - 1:
                raise ValueError(f"curve log coefficient {c!r} is not an int in [-1, {self.fld.q - 2}]")
        self.points = cv.points(self.fld)
        self.n = len(self.points)
        if self.m - g + 1 >= self.n:  # Riemann-Roch: dim L(m P_inf) = m - g + 1
            raise ValueError(f"m={self.m} leaves no message symbols: m - g + 1 >= n = {self.n}")
        self.d_G = self.m - 2 * g + 2
        self.t_generic = (self.d_G - self.curve.a) // 2
        # Monomial basis of L(m P_inf) and the wider syndrome index set.
        self.basis = self.curve.phi(0, self.curve.a, self.m)
        self.syndrome_domain = self.curve.phi(0, 2 * self.curve.a - 1, self.m)
        self._rows: dict[Mono, list[int | None]] = {}
        self._point_words: dict[int, tuple[list[int], list[int], int]] = {}
        # tables other modules derive from the code alone, built on first use
        # by their owner and kept for the life of the code (the BMS gates)
        self.tables: dict = {}

    @property
    def dim(self) -> int:
        return self.n - len(self.basis)

    # -- evaluation table ----------------------------------------------------

    def eval_row(self, n: Mono) -> list[int | None]:
        """Logs of z^n at every code point, POLE where z^n has a pole
        (Klein's P_(1:0:0) when 2*n1 < n2).

        Built on first use and kept for the life of the code, so callers
        that never evaluate pay nothing.  The row is shared: do not mutate.
        """
        row = self._rows.get(n)
        if row is None:
            row = []
            for p in self.points:
                try:
                    row.append(self.curve.eval_monomial(self.fld, n, p))
                except ValueError:
                    row.append(POLE)
            self._rows[n] = row
        return row

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

    def point_words(self, order: int) -> tuple[list[int], list[int], int]:
        """The ring monomial z^n of pole order ``order`` at every code point.

        Two split tables of packed n-lane words: word k of the first holds
        vec(alpha^k * z^n(P_j)) in lane j, and word k of the second the same
        for the derivative z_x + z_y * y' along the curve, with a zero lane
        where the slope is POLE.  So c z^n at every point is the XOR of the
        words picked by the set bits of vec(c), the XOR the syndrome unit
        makes.  Last comes the weight n1 % 2 + n2 % 2, the terms z^n puts
        into F_x and F_y.

        Built from the evaluation table and the slope row on first use and
        kept for the life of the code, uncharged.  Raises ValueError at a
        gap, where no ring monomial has that pole order.
        """
        words = self._point_words.get(order)
        if words is None:
            n = self.curve.l_of(0, order)
            if n is None:
                raise ValueError(f"no ring monomial has pole order {order}")
            cv, fld = self.curve, self.fld
            zx, zy = partials({n: 0})
            deriv = [
                ZERO if yp is POLE else fld.add(cv.eval_poly(fld, zx, p), fld.mul(cv.eval_poly(fld, zy, p), yp))
                for p, yp in zip(self.points, self.slope)
            ]
            words = self._point_words[order] = (_split(fld, self.eval_row(n)), _split(fld, deriv), len(zx) + len(zy))
        return words

    def zero_word(self, role: str = "codeword") -> Word:
        return Word([ZERO] * self.n, role)

    # -- encoding ----------------------------------------------------------

    def parity_check_matrix(self) -> linalg.Matrix:
        """Rows [z^l(P_j)] for l in the basis of L(m P_inf)."""
        return [self.eval_row(n)[:] for n in self.basis]

    @cached_property
    def _encoder(self) -> tuple[list[int], list[tuple[int, list[tuple[int, int]]]]]:
        """Free columns of rref(H), and per pivot column the nonzero
        (message index, log coefficient) pairs of its row; computed on the
        first ``encode`` and reused by every later one."""
        red, pivots = linalg.rref(self.fld, self.parity_check_matrix())
        if len(pivots) != len(self.basis):
            raise ValueError("parity-check matrix is rank-deficient")
        pivot_set = set(pivots)
        free = [j for j in range(self.n) if j not in pivot_set]
        parity = [
            (pc, [(k, red[r][j]) for k, j in enumerate(free) if red[r][j] != ZERO])
            for r, pc in enumerate(pivots)
        ]
        return free, parity

    def encode(self, message: list[int]) -> Word:
        """Systematic encoding: message symbols on free columns of rref(H),
        parity symbols solved on pivot columns so that H c = 0."""
        free, parity = self._encoder
        if len(message) != len(free):
            raise ValueError(f"message length {len(message)} != code dimension {len(free)}")
        exp, qm1 = self.fld.exp, self.fld.q - 1
        c = [ZERO] * self.n
        for j, sym in zip(free, message):
            c[j] = sym
        for pc, row in parity:
            acc = 0
            for k, h in row:
                sym = message[k]
                if sym != ZERO:
                    acc ^= exp[(h + sym) % qm1]
            c[pc] = self.fld.from_vec(acc)  # char 2: parity = sum, no sign
        return Word(c, "codeword")

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
        out = Word(word.symbols[:], "received")
        for j, v in zip(locs, vals):
            out.symbols[j] = self.fld.add(out.symbols[j], v)
        return out

    @cached_property
    def _syndrome_split(self) -> list[list[int]]:
        """Per code point j and bit k, the packed word whose lane s holds
        vec(alpha^k * z^l(P_j)) for the s-th l of ``syndrome_domain``.

        Built from the evaluation table on first use, uncharged."""
        fld = self.fld
        rows = [self.eval_row(l) for l in self.syndrome_domain]
        return [_split(fld, [row[j] for row in rows]) for j in range(self.n)]

    def syndromes(self, word: Word) -> dict[Mono, int]:
        """u_l = sum_j r_j z^l(P_j) for every evaluable l in Phi(2a-1, m).

        Only the nonzero symbols are visited: r_j in bit-vector form selects
        the split-table words of point j by its set bits, and the XOR of
        all selected words is the syndrome vector, one lane per l.
        """
        if len(word.symbols) != self.n:
            raise ValueError("word length mismatch")
        exp, split = self.fld.exp, self._syndrome_split
        acc = 0
        for j, r in enumerate(word.symbols):
            if r != ZERO:
                bits = exp[r]
                for part in split[j]:
                    if bits & 1:
                        acc ^= part
                    bits >>= 1
        vecs = self.fld.unpack(acc, len(self.syndrome_domain))
        return dict(zip(self.syndrome_domain, map(self.fld.log.__getitem__, vecs)))
