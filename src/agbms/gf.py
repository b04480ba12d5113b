"""GF(2^w) arithmetic with log-encoded elements.

Elements are plain ints holding the exponent of a fixed primitive element
alpha: ``k`` means alpha^k and ``-1`` means zero.  This matches the notation
used throughout the decoder (register values, word files, error files), so
worked values can be compared directly against published tables.  ``log``
maps a bit-vector to its log and ``vec`` a log to its bit-vector: ``exp``
with a 0 appended, so ZERO (-1) reads 0 with no branch.

Inversion is charged as the square-and-multiply chain a^(q-2), exactly one
inversion and 2w-3 multiplications, while the value is read off the log
form; this is the operation the inverse-free algorithm removes from the
decoding loop.

A register line is held as one packed int: lane k holds the coefficient of
exponent k in bit-vector form, in ``lane_bits`` = 8 * ceil(w/8) bits (one
byte up to w = 8, two up to w = 16).  ``GF`` is the one home of the lane
primitives: ``pack``/``unpack`` convert between a list of bit-vector values
and a packed word, ``terms`` lists the nonzero lanes as (lane, log) pairs,
``scale`` multiplies every lane by one constant, ``merge(x, e, y, d)``
makes the two-operand lane product e*x + d*y of the inverse-free update,
``weight`` counts the nonzero lanes, the multiplications a scale by a
nonzero constant stands for, and ``lookup`` maps every lane through a
caller's table, so a caller that holds its own products (the simulators'
product rows) multiplies a whole word without ``scale``.  The field picks
one of two codecs from ``lane_bits`` when it is built, and one of two
``merge`` forms from w:

* one-byte lanes (w <= 8, every bundled preset): a word is the bytes of its
  lanes, so ``pack`` is ``bytes(vecs)`` read as an int and ``unpack`` the
  int's bytes; ``scale`` is one ``bytes.translate`` through the constant's
  256-byte product table, a scale by alpha^0 returns the word as it is, and
  ``weight`` counts the nonzero bytes; ``lookup`` is the same translate
  through the caller's 256-byte table;
* two-byte lanes (w >= 9): ``pack``/``unpack`` go through ``struct`` and
  ``scale`` XORs w masked integer multiplies ((x >> j) & ones) * vec(c *
  alpha^j) (split-table multiplication by a constant), whose products stay
  within their lanes, ``weight`` counts the nonzero values ``unpack`` gives,
  and ``lookup`` reads each value ``unpack`` gives in the caller's table
  (q values) and packs the results;
* w <= 4 (GF(8) and GF(16), every bundled preset): every lane value fits
  in four bits, so ``merge`` packs both operands into one word, x | y << 4,
  whose byte x_k | y_k << 4 holds lane k of both, and makes it one
  ``bytes.translate`` through the 256-byte pair row of (e, d), which maps
  that byte to vec(e * x_k + d * y_k);
* w >= 5: ``merge`` is two ``scale`` calls and one XOR.

A constant's table (the 256 products or the w products vec(c * alpha^j))
is built the first time it scales a word and kept in a ``Memo``, a dict
whose missing entries build themselves, so a scale reads its table with
one subscript, built or not.  The zero constant has a table too (256 zero
bytes, or no products at all), so a scale by zero reads 0 through the same
subscript; no q x q table is ever built.  A pair row is built the same
way, on the first merge by its (e, d), from the two scale rows by byte
operations, and kept in a second ``Memo``; at most (q + 1)^2 of them
exist, 289 rows (74 KB) over GF(16).
"""

from __future__ import annotations

import struct
import weakref
from collections.abc import Callable
from dataclasses import dataclass

ZERO = -1  # log encoding of the zero element
_HIGH_NIBBLE = bytes(b >> 4 for b in range(256))  # a pair row's index of d's row


class Memo(dict):
    """A table whose entries are built on first read and kept: a missing
    key k reads ``build(owner, k)``, so a read is one subscript, hit or
    miss.  The owner is held through a weak proxy, so a table kept on its
    owner makes no reference cycle and goes when the owner does.  The
    field's scale and pair rows, the simulators' product rows, a code's
    point words, its bit-vector rows and its footprints (``bms``) are kept
    this way."""

    def __init__(self, owner: object, build: Callable):
        super().__init__()
        self.owner, self.build = weakref.proxy(owner), build

    def __missing__(self, key):
        value = self[key] = self.build(self.owner, key)
        return value


@dataclass
class OpCounter:
    """Field-operation tally for one measurement session.

    Routines that do field arithmetic accept one of these and bump it;
    sessions are single-owner: a new session takes a new counter.
    """

    muls: int = 0
    invs: int = 0
    adds: int = 0


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
        if prim_poly < 0:
            raise ValueError(f"prim_poly={prim_poly} must be a nonnegative bit mask")
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
        self.vec = [*self.exp, 0]  # log -> vector, ZERO (-1) reading the 0 at the end
        self.lane_bits = 8 * -(-w // 8)  # whole bytes, for int.from_bytes/to_bytes
        # the lane codec, picked once here from the lane width
        if self.lane_bits == 8:
            codec = self._pack8, self._unpack8, self._scale8, self._weight8, self._lookup8, GF._row8
        else:
            codec = self._pack16, self._unpack16, self._scale16, self._weight16, self._lookup16, GF._row16
        self.pack, self.unpack, self.scale, self.weight, self.lookup, row = codec
        self._scale_rows = Memo(self, row)  # c -> its products, ZERO's included
        # the merge form, picked once here from w: a pair of lanes fits a byte
        self.merge = self._merge4 if w <= 4 else self._merge_scales
        self._pair_rows = Memo(self, GF._pair_row)  # (e, d) -> its 256-byte pair row

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
        """Inverse a^(q-2), charged as the squaring chain.

        The chain squares w-1 times and multiplies by ``a`` w-2 times, so
        ``ctr`` is charged one inversion and always 2w-3 muls; the value is
        -a mod q-1 in log form, so no chain is run.  Raises
        ZeroDivisionError on a = 0.
        """
        if a == ZERO:
            raise ZeroDivisionError("zero has no inverse in GF(2^w)")
        if ctr is not None:
            ctr.invs += 1
            ctr.muls += 2 * self.w - 3
        return -a % (self.q - 1)

    # -- packed lanes ------------------------------------------------------
    #
    # pack(vecs) -> int: one lane per bit-vector value, value k in lane k
    # unpack(x, n) -> list: the bit-vector values of the lowest n lanes of x
    # scale(x, c) -> int: every lane of x times the log-form constant c.
    #     On one-byte lanes c = 0 (alpha^0) returns x itself.  Uncharged.
    # merge(x, e, y, d) -> int: scale(x, e) ^ scale(y, d), for any e and d,
    #     ZERO and alpha^0 included.  Uncharged.
    # weight(x) -> int: the nonzero lanes of x, the multiplications a scale
    #     of x by a nonzero constant stands for; a caller that charges a
    #     counter charges this.
    # lookup(x, row) -> int: every lane v of x replaced by row[v]; row maps 0
    #     to 0 and is 256 bytes on one-byte lanes, q values on two-byte lanes.

    def terms(self, x: int) -> list[tuple[int, int]]:
        """(lane, log) of every nonzero lane of x, lowest lane first."""
        log, n = self.log, -(-x.bit_length() // self.lane_bits)
        return [(k, log[v]) for k, v in enumerate(self.unpack(x, n)) if v]

    def _pack8(self, vecs: list[int]) -> int:
        return int.from_bytes(bytes(vecs), "little")

    def _unpack8(self, x: int, n: int) -> list[int]:
        return list(x.to_bytes(n, "little"))

    def _row8(self, c: int) -> bytes:
        exp, qm1 = self.exp, self.q - 1
        products = [0] * self.q if c == ZERO else [0] + [exp[(c + l) % qm1] for l in self.log[1:]]
        return bytes(products).ljust(256, b"\0")

    def _scale8(self, x: int, c: int) -> int:
        if c == 0:
            return x
        return int.from_bytes(x.to_bytes((x.bit_length() + 7) >> 3, "little").translate(self._scale_rows[c]), "little")

    def _weight8(self, x: int) -> int:
        nb = (x.bit_length() + 7) >> 3
        return nb - x.to_bytes(nb, "little").count(0)

    def _lookup8(self, x: int, row: bytes) -> int:
        return int.from_bytes(x.to_bytes((x.bit_length() + 7) >> 3, "little").translate(row), "little")

    def _pair_row(self, key: tuple[int, int]) -> bytes:
        # byte x | y << 4 reads vec(e * x) ^ vec(d * y): the low nibble
        # indexes e's row repeated 16 times, the high one d's row through
        # the byte -> high nibble map
        e, d = key
        lo, hi = self._scale_rows[e][:16] * 16, _HIGH_NIBBLE.translate(self._scale_rows[d])
        return (int.from_bytes(lo, "little") ^ int.from_bytes(hi, "little")).to_bytes(256, "little")

    def _merge4(self, x: int, e: int, y: int, d: int) -> int:
        z = x | y << 4  # no lane value reaches bit 4, so no byte carries
        return int.from_bytes(z.to_bytes((z.bit_length() + 7) >> 3, "little").translate(self._pair_rows[e, d]), "little")

    def _merge_scales(self, x: int, e: int, y: int, d: int) -> int:
        return self.scale(x, e) ^ self.scale(y, d)

    def _pack16(self, vecs: list[int]) -> int:
        return int.from_bytes(struct.pack(f"<{len(vecs)}H", *vecs), "little")

    def _unpack16(self, x: int, n: int) -> list[int]:
        return list(struct.unpack(f"<{n}H", x.to_bytes(2 * n, "little")))

    def _row16(self, c: int) -> tuple[int, ...]:
        exp, qm1 = self.exp, self.q - 1
        return () if c == ZERO else tuple(exp[(c + j) % qm1] for j in range(self.w))

    def _scale16(self, x: int, c: int) -> int:
        # each product is w bits wide and lands on its own lane, so no lane
        # carries into the next; ZERO's row is empty, so its product is 0
        row = self._scale_rows[c]
        ones = int.from_bytes(b"\1\0" * -(-x.bit_length() // 16), "little")  # bit 0 of every lane
        acc = 0
        for r in row:
            acc ^= (x & ones) * r
            x >>= 1
        return acc

    def _weight16(self, x: int) -> int:
        n = -(-x.bit_length() // 16)
        return n - self._unpack16(x, n).count(0)

    def _lookup16(self, x: int, row: list[int]) -> int:
        return self._pack16([row[v] for v in self._unpack16(x, -(-x.bit_length() // 16))])
