"""GF(2^w) arithmetic with log-encoded elements.

Elements are plain ints holding the exponent of a fixed primitive element
alpha: ``k`` means alpha^k and ``-1`` means zero.  This matches the notation
used throughout the decoder (register values, word files, error files), so
worked values can be compared directly against published tables.

Inversion is done by the square-and-multiply chain a^(q-2), costing exactly
2w-3 multiplications; this is the operation the inverse-free algorithm
removes from the decoding loop.

A register line is held as one packed int: lane k (bits kw .. kw+w-1)
holds the coefficient of exponent k in bit-vector form.  ``GF`` is the one
home of the lane primitives: ``pack``/``unpack`` convert between a list of
logs and a packed word, ``terms`` lists the nonzero lanes as (lane, log)
pairs, ``lanes`` counts the nonzero lanes and ``scale``
multiplies every lane by one constant with w masked integer multiplies
(split-table multiplication by a constant), so a merge of two lines is one
XOR.  The w products vec(c * alpha^j) a constant needs are built the first
time that constant scales a word and kept; no q x q table is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ZERO = -1  # log encoding of the zero element


@dataclass
class OpCounter:
    """Field-operation tally for one measurement session.

    Routines that do field arithmetic accept one of these and bump it;
    sessions are single-owner and only reset explicitly.
    """

    muls: int = 0
    invs: int = 0
    adds: int = 0

    def reset(self) -> None:
        self.muls = 0
        self.invs = 0
        self.adds = 0


class GF:
    """GF(2^w) defined by a primitive polynomial bit mask.

    ``prim_poly`` has bit i set for the x^i term, e.g. 0b10011 encodes
    x^4 + x + 1 = 0 (alpha^4 = alpha + 1).  The polynomial must be primitive:
    alpha = x has to generate all q-1 nonzero elements, which is verified
    while the log/antilog tables are built.
    """

    def __init__(self, w: int, prim_poly: int):
        if type(w) is not int or type(prim_poly) is not int:
            raise ValueError(f"w={w!r} and prim_poly={prim_poly!r} must be ints")
        if not 2 <= w <= 16:
            raise ValueError(f"extension degree w={w} outside supported range [2, 16]")
        if prim_poly.bit_length() != w + 1:
            raise ValueError(f"prim_poly degree {prim_poly.bit_length() - 1} != w={w}")
        self.w = w
        self.prim_poly = prim_poly
        self.q = 1 << w

        self.exp = [0] * (self.q - 1)  # log -> vector
        self.log = [ZERO] * self.q  # vector -> log
        v = 1
        for k in range(self.q - 1):
            if self.log[v] != ZERO:
                raise ValueError(f"prim_poly {prim_poly:#b} is not primitive")
            self.exp[k] = v
            self.log[v] = k
            v <<= 1
            if v & self.q:
                v ^= prim_poly
        if v != 1:
            raise ValueError(f"prim_poly {prim_poly:#b} is not primitive")
        # shifts whose OR folds the w bits of every lane into its bit 0
        self._fold: list[int] = []
        done = 1
        while done < w:
            self._fold.append(min(done, w - done))
            done += self._fold[-1]
        self._scale_rows: dict[int, tuple[int, ...]] = {}  # c -> vec(c * alpha^j), j < w

    def __repr__(self) -> str:
        return f"GF(2^{self.w}, prim_poly={self.prim_poly:#b})"

    # -- element codecs -------------------------------------------------

    def to_vec(self, a: int) -> int:
        """Log form to polynomial (bit-vector) form."""
        return 0 if a == ZERO else self.exp[a]

    def from_vec(self, v: int) -> int:
        """Polynomial (bit-vector) form to log form."""
        return ZERO if v == 0 else self.log[v]

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int, ctr: OpCounter | None = None) -> int:
        if ctr is not None:
            ctr.adds += 1
        return self.from_vec(self.to_vec(a) ^ self.to_vec(b))

    def mul(self, a: int, b: int, ctr: OpCounter | None = None) -> int:
        if ctr is not None:
            ctr.muls += 1
        if a == ZERO or b == ZERO:
            return ZERO
        return (a + b) % (self.q - 1)

    def pow(self, a: int, n: int) -> int:
        """a^n for n >= 0 (table exponentiation, not counted)."""
        if a == ZERO:
            return 0 if n == 0 else ZERO
        return (a * n) % (self.q - 1)

    def inv_chain(self, a: int, ctr: OpCounter | None = None) -> int:
        """Inverse a^(q-2) by the squaring chain.

        The chain squares w-1 times and multiplies by ``a`` w-2 times, so
        ``ctr`` is charged one inversion and always 2w-3 muls.  Raises
        ZeroDivisionError on a = 0.
        """
        if a == ZERO:
            raise ZeroDivisionError("zero has no inverse in GF(2^w)")
        if ctr is not None:
            ctr.invs += 1
        acc = a  # a^(2^1 - 1)
        for _ in range(self.w - 2):
            acc = self.mul(acc, acc, ctr)  # square: a^(2^k - 1) -> a^(2^(k+1) - 2)
            acc = self.mul(acc, a, ctr)  # -> a^(2^(k+1) - 1)
        return self.mul(acc, acc, ctr)  # a^(2^w - 2) = a^-1

    # -- packed lanes ------------------------------------------------------

    def ones(self, n: int) -> int:
        """Bit 0 of each of n lanes, the lane mask of ``lanes`` and ``scale``."""
        return ((1 << (n * self.w)) - 1) // (self.q - 1)

    def pack(self, logs: list[int]) -> int:
        """One lane per element, element k in lane k."""
        exp, w = self.exp, self.w
        x = 0
        for a in reversed(logs):
            x = x << w | (0 if a == ZERO else exp[a])
        return x

    def unpack(self, x: int, n: int) -> list[int]:
        """Logs of the lowest n lanes of x."""
        log, mask, w = self.log, self.q - 1, self.w
        out = []
        for _ in range(n):
            out.append(log[x & mask])
            x >>= w
        return out

    def terms(self, x: int) -> list[tuple[int, int]]:
        """(lane, log) of every nonzero lane of x, lowest lane first."""
        log, mask, w = self.log, self.q - 1, self.w
        out = []
        k = 0
        while x:
            if x & mask:
                out.append((k, log[x & mask]))
            x >>= w
            k += 1
        return out

    def lanes(self, x: int, ones: int) -> int:
        """Number of nonzero lanes of x, which must lie within ``ones``."""
        for k in self._fold:
            x |= x >> k
        return (x & ones).bit_count()

    def scale(self, x: int, c: int, ones: int) -> int:
        """Every lane of x times the log-form constant c.

        XOR over j < w of ((x >> j) & ones) * vec(c * alpha^j): each product
        is w bits wide and lands on its own lane, so no lane carries into
        the next.  Uncharged; callers charge one mul per nonzero lane.
        """
        if c == ZERO:
            return 0
        row = self._scale_rows.get(c)
        if row is None:
            exp, qm1 = self.exp, self.q - 1
            row = self._scale_rows[c] = tuple(exp[(c + j) % qm1] for j in range(self.w))
        acc = 0
        for r in row:
            acc ^= (x & ones) * r
            x >>= 1
        return acc

    def nonzero(self) -> range:
        """Logs of all nonzero elements."""
        return range(self.q - 1)
