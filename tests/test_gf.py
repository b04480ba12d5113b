import random

import pytest

from agbms.gf import GF, ZERO, OpCounter

# w = 8 fills a one-byte lane, w = 9 is the first two-byte one
PRIMITIVE = {2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011, 7: 0b10000011, 8: 0b100011101, 9: 0b1000010001}


def test_paper_fields_constructible():
    GF(3, 0b1011)  # alpha^3 + alpha = 1
    GF(4, 0b10011)  # alpha^4 + alpha = 1
    GF(8, 0b100011101)  # the practical GF(2^8)


def test_bad_degree_rejected():
    with pytest.raises(ValueError):
        GF(1, 0b11)
    with pytest.raises(ValueError):
        GF(17, 1 << 17 | 1)
    with pytest.raises(ValueError):
        GF(4, 0b1011)  # degree 3 mask for w=4
    with pytest.raises(ValueError):
        GF(4, -19)  # a negative mask has the bit length of 19 = 0b10011


def test_non_primitive_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5
    with pytest.raises(ValueError):
        GF(4, 0b11111)
    # x^4 + x^2 + 1 = (x^2+x+1)^2 is reducible
    with pytest.raises(ValueError):
        GF(4, 0b10101)


def test_add_examples(gf16):
    for a in range(-1, 15):
        assert gf16.add(a, a) == ZERO
        assert gf16.add(a, ZERO) == a
    assert gf16.add(0, 1) == 4  # 1 + alpha = alpha^4 when alpha^4 = alpha + 1


def test_mul_examples(gf16):
    assert gf16.mul(3, 7) == 10
    assert gf16.mul(6, 12) == 3  # 18 mod 15
    for x in range(-1, 15):
        assert gf16.mul(x, ZERO) == ZERO


def test_table_round_trip(gf16, gf8):
    for field in (gf16, gf8):
        seen = set()
        for k in range(-1, field.q - 1):
            v = field.to_vec(k)
            assert field.from_vec(v) == k
            seen.add(v)
        assert seen == set(range(field.q))


def test_inv_chain_examples(gf16):
    ctr = OpCounter()
    assert gf16.inv_chain(5, ctr) == 10
    assert ctr.muls == 5  # w=4: 2w-3 = 5
    assert gf16.inv_chain(0) == 0  # identity is self-inverse
    with pytest.raises(ZeroDivisionError):
        gf16.inv_chain(ZERO)


def test_inv_chain_all_elements(gf16, gf8):
    for field in (gf16, gf8):
        for a in range(field.q - 1):
            ctr = OpCounter()
            inv = field.inv_chain(a, ctr)
            assert ctr.muls == 2 * field.w - 3
            assert field.mul(a, inv) == 0  # alpha^0


def test_inv_chain_counter(gf16):
    ctr = OpCounter()
    gf16.inv_chain(7, ctr)
    assert ctr.invs == 1
    assert ctr.muls == 2 * gf16.w - 3


def square_and_multiply(field, a):
    """a^(q-2) by the chain ``inv_chain`` is charged as, built from
    ``GF.mul``: w-1 squarings and w-2 multiplications by a."""
    acc = a
    for _ in range(field.w - 2):
        acc = field.mul(field.mul(acc, acc), a)
    return field.mul(acc, acc)


@pytest.mark.parametrize("w", [2, 3, 4, 9])
def test_inv_chain_charges_the_chain(w):
    field = GF(w, PRIMITIVE[w])
    for a in range(field.q - 1):
        ctr = OpCounter()
        assert field.inv_chain(a, ctr) == square_and_multiply(field, a)
        assert (ctr.invs, ctr.muls, ctr.adds) == (1, 2 * w - 3, 0)
        assert field.inv_chain(a) == field.inv_chain(a, None) == square_and_multiply(field, a)
    ctr = OpCounter()
    with pytest.raises(ZeroDivisionError):
        field.inv_chain(ZERO, ctr)
    assert (ctr.invs, ctr.muls, ctr.adds) == (0, 0, 0)


@pytest.mark.parametrize("w, prim_poly", [(w, PRIMITIVE[w]) for w in (3, 4, 8, 9)] + [(16, 0x1002D)])
def test_scale_by_one_passes_through(w, prim_poly):
    # alpha^0 returns the word itself, and weight its nonzero-lane count, on
    # both codecs; one-byte lanes build no product table for it
    field = GF(w, prim_poly)
    rng = random.Random(w)
    words = [[rng.randrange(-1, field.q - 1) for _ in range(rng.randrange(1, 40))] for _ in range(30)]
    # top lanes zero below a top nonzero lane of 1, and every lane zero
    words += [[field.q - 2, ZERO, 0] + [ZERO] * 9, [ZERO] * 5, []]
    for logs in words:
        x = field.pack([field.to_vec(a) for a in logs])
        assert (field.scale(x, 0), field.weight(x)) == (x, len(logs) - logs.count(ZERO))
    if field.lane_bits == 8:
        assert 0 not in field._scale_rows


def test_field_axioms_randomized(gf16, gf8):
    rng = random.Random(2024)
    for field in (gf16, gf8):
        q = field.q
        for _ in range(1200):
            a, b, c = (rng.randrange(-1, q - 1) for _ in range(3))
            assert field.add(a, b) == field.add(b, a)
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def test_counter_sessions(gf16):
    ctr = OpCounter()
    gf16.mul(3, 4, ctr)
    gf16.add(3, 4, ctr)
    assert (ctr.muls, ctr.adds, ctr.invs) == (1, 1, 0)


@pytest.mark.parametrize("w", sorted(PRIMITIVE))
def test_lane_primitives_exhaustive(w):
    # every constant times every element, in one packed word per vector
    fld = GF(w, PRIMITIVE[w])
    assert fld.lane_bits == (8 if w <= 8 else 16)
    rng = random.Random(w)
    every = [ZERO, *range(fld.q - 1)]
    rng.shuffle(every)
    vectors = [every, [ZERO] * 7] + [[rng.randrange(-1, fld.q - 1) for _ in range(19)] for _ in range(10)]
    # top lanes zero: scale sizes its bytes by the word's bit length, not n,
    # and that length ends one bit into the top nonzero lane (alpha^0 = 1)
    vectors.append([fld.q - 2, ZERO, 0] + [ZERO] * 9)
    # a caller's lookup table: any values, 0 kept at 0, in the codec's form
    table = [0] + [rng.randrange(fld.q) for _ in range(fld.q - 1)]
    row = bytes(table).ljust(256, b"\0") if fld.lane_bits == 8 else table
    for logs in vectors:
        n = len(logs)
        vecs = [fld.to_vec(a) for a in logs]
        x = fld.pack(vecs)
        assert x < 1 << n * fld.lane_bits
        assert fld.unpack(x, n) == vecs
        assert fld.terms(x) == [(k, a) for k, a in enumerate(logs) if a != ZERO]
        # weight counts the nonzero lanes: the multiplications a scale by a
        # nonzero constant stands for
        assert fld.weight(x) == n - logs.count(ZERO)
        for c in [ZERO, *range(fld.q - 1)]:
            product = fld.scale(x, c)
            assert fld.unpack(product, n) == [fld.to_vec(fld.mul(c, a)) for a in logs]
            assert fld.weight(product) == (0 if c == ZERO else n - logs.count(ZERO))
        assert fld.unpack(fld.lookup(x, row), n) == [table[v] for v in vecs]


@pytest.mark.parametrize("w", sorted(PRIMITIVE))
def test_merge_is_two_scales(w):
    # merge(x, e, y, d) = scale(x, e) ^ scale(y, d) for every e and d, ZERO
    # and alpha^0 included, on seeded words: one translate through a pair
    # row up to w = 4, two scales above, on one- and two-byte lanes.  Each
    # (e, d) meets one word pair, the pairs taken in turn; over GF(2^9)
    # the constants are ZERO, alpha^0, alpha^(q-2) and a seeded sample
    fld = GF(w, PRIMITIVE[w])
    assert fld.merge == (fld._merge4 if w <= 4 else fld._merge_scales)
    rng = random.Random(100 + w)
    every = [ZERO, *range(fld.q - 1)]
    logs = [[rng.randrange(-1, fld.q - 1) for _ in range(rng.randrange(1, 30))] for _ in range(12)]
    # every element in a lane, top lanes zero below a top lane of alpha^0,
    # every lane zero, and no lane at all
    logs += [rng.sample(every, len(every)), [fld.q - 2, ZERO, 0] + [ZERO] * 9, [ZERO] * 5, []]
    words = [fld.pack([fld.to_vec(a) for a in v]) for v in logs]
    pairs = [(x, y) for x in words for y in words]
    rng.shuffle(pairs)
    consts = every if w <= 8 else [ZERO, 0, fld.q - 2, *rng.sample(range(1, fld.q - 2), 12)]
    for k, (e, d) in enumerate((e, d) for e in consts for d in consts):
        x, y = pairs[k % len(pairs)]
        assert fld.merge(x, e, y, d) == fld.scale(x, e) ^ fld.scale(y, d), (e, d)
    assert len(fld._pair_rows) == (len(consts) ** 2 if w <= 4 else 0)  # one row per (e, d) met


def test_sixteen_bit_lanes():
    fld = GF(16, 0x1002D)  # x^16 + x^5 + x^3 + x^2 + 1
    assert fld._scale_rows == {}  # no product table is built with the field
    rng = random.Random(16)
    head = [rng.randrange(-1, fld.q - 1) for _ in range(40)] + [ZERO, 0, fld.q - 2]
    consts = [0, 1, fld.q - 2, *rng.sample(range(fld.q - 1), 20)]
    # the last two inputs: top lanes zero below a top nonzero lane of 1, so
    # the word's bit length ends one bit into that lane; and every lane zero
    for logs in (head, head[:4] + [0] + [ZERO] * 11, [ZERO] * 6):
        n = len(logs)
        x = fld.pack([fld.to_vec(a) for a in logs])
        assert [fld.from_vec(v) for v in fld.unpack(x, n)] == logs
        for c in consts:
            product = fld.scale(x, c)
            assert [fld.from_vec(v) for v in fld.unpack(product, n)] == [fld.mul(c, a) for a in logs]
            assert fld.weight(product) == n - logs.count(ZERO)
    assert len(fld._scale_rows) == len(set(consts))  # one row per constant used
