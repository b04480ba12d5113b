"""Code construction C(m), systematic encoding, error injection, syndromes.

Every evaluation on the decode path reads one memoized point x monomial
table (``CodeSpec.eval_row``): the row of z^n holds its log value at each
code point.  Sums are accumulated in bit-vector form and converted to log
form once, the software counterpart of the table-driven syndrome and
Chien-search units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .curve import BiPoly, CurveSpec, Mono, Point
from .gf import GF, ZERO, OpCounter

POLE = None  # evaluation-table marker: z^n has a pole at this point


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

    d_G is the Goppa designed distance m - 2g + 2.  ``t_design`` is the
    Eq.-style target (m - 2g + 1)/2 when that is integral, while
    ``t_generic`` = floor((d_G - a)/2) is what the inverse-free pipeline
    corrects for generic errors with loops up to N = m.
    """

    curve: CurveSpec
    fld: GF
    m: int
    points: list[Point] = field(default_factory=list)

    def __post_init__(self) -> None:
        g = self.curve.genus
        if self.m <= 2 * g - 2:
            raise ValueError(f"m={self.m} must exceed 2g-2={2 * g - 2}")
        if not self.points:
            self.points = self.curve.points(self.fld)
        self.n = len(self.points)
        self.d_G = self.m - 2 * g + 2
        self.t_design = (self.m - 2 * g + 1) // 2 if (self.m - 2 * g + 1) % 2 == 0 else None
        self.t_generic = (self.d_G - self.curve.a) // 2
        # Monomial basis of L(m P_inf) and the wider syndrome index set.
        self.basis = self.curve.phi(0, self.curve.a, self.m)
        self.syndrome_domain = [
            n for n in self.curve.phi(0, 2 * self.curve.a - 1, self.m) if self._evaluable(n)
        ]
        self._rows: dict[Mono, list[int | None]] = {}

    def _evaluable(self, n: Mono) -> bool:
        """Monomial evaluable at every code point (Klein: regular at P_(1:0:0))."""
        return not self.curve.klein or 2 * n[0] >= n[1]

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

    def eval_poly(self, poly: BiPoly, j: int, ctr: OpCounter | None = None) -> int:
        """poly at code point j from the table.

        Charges ``ctr`` one mul and one add per term, as
        ``CurveSpec.eval_poly`` does, and raises ValueError at the first
        term with a pole there, after charging the terms before it.
        """
        exp, qm1 = self.fld.exp, self.fld.q - 1
        acc = 0
        for n, c in poly.items():
            z = self.eval_row(n)[j]
            if z is POLE:
                raise ValueError(f"monomial {n} has a pole at {self.points[j].special}")
            if ctr is not None:
                ctr.muls += 1
                ctr.adds += 1
            if c != ZERO and z != ZERO:
                acc ^= exp[(c + z) % qm1]
        return self.fld.from_vec(acc)

    def zero_word(self, role: str = "codeword") -> Word:
        return Word([ZERO] * self.n, role)

    def add_words(self, w1: Word, w2: Word, role: str = "received") -> Word:
        return Word([self.fld.add(a, b) for a, b in zip(w1.symbols, w2.symbols)], role)

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

    def syndromes(self, word: Word) -> dict[Mono, int]:
        """u_l = sum_j r_j z^l(P_j) for every evaluable l in Phi(2a-1, m).

        Only the nonzero symbols are visited; each sum is accumulated in
        bit-vector form from the evaluation table.
        """
        if len(word.symbols) != self.n:
            raise ValueError("word length mismatch")
        exp, qm1 = self.fld.exp, self.fld.q - 1
        nonzero = [(j, r) for j, r in enumerate(word.symbols) if r != ZERO]
        out: dict[Mono, int] = {}
        for l in self.syndrome_domain:
            row = self.eval_row(l)
            acc = 0
            for j, r in nonzero:
                z = row[j]
                if z != ZERO:
                    acc ^= exp[(r + z) % qm1]
            out[l] = self.fld.from_vec(acc)
        return out

    def full_syndromes_from_errors(
        self, locs: list[int], vals: list[int], B: int
    ) -> dict[Mono, int]:
        """Test-only table u_l on Phi(2a-1, B) straight from the error vector.

        A receiver only has Phi(2a-1, m); this supplies the longer table the
        Appendix-B checks need (and the direct-discrepancy oracle's shifted
        lookups), provided every monomial is evaluable at the error points.
        """
        out: dict[Mono, int] = {}
        pts = [self.points[j] for j in locs]
        for n2 in range(0, 2 * self.curve.a - 1):
            rem = B - n2 * self.curve.b
            if rem < 0:
                continue
            for n1 in range(rem // self.curve.a + 1):
                l = (n1, n2)
                acc = ZERO
                for v, p in zip(vals, pts):
                    acc = self.fld.add(acc, self.fld.mul(v, self.curve.eval_monomial(self.fld, l, p)))
                out[l] = acc
        return out

    def locate(self, xy: tuple[int, int]) -> int:
        """Index of the affine point with the given (x_log, y_log)."""
        for j, p in enumerate(self.points):
            if p.special is None and (p.x, p.y) == xy:
                return j
        raise KeyError(f"no rational point {xy}")
