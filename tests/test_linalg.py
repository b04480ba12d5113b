import copy
import random

import pytest

from agbms import GF, linalg
from agbms.gf import ZERO
from conftest import reference_rref

# one- and two-byte lanes: GF(2^9) packs each column into two bytes
FIELDS = {"gf8": (3, 0b1011), "gf16": (4, 0b10011), "gf512": (9, 0b1000010001)}


@pytest.fixture(scope="module", params=list(FIELDS))
def field(request):
    return GF(*FIELDS[request.param])


def product(field, a, b):
    """a times b; a k-column a gives rank at most k."""
    out = []
    for row in a:
        acc = [ZERO] * len(b[0])
        for x, brow in zip(row, b):
            acc = [field.add(s, field.mul(x, y)) for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def random_matrix(field, rng, rows, cols, density=1.0):
    return [
        [rng.randrange(field.q - 1) if rng.random() < density else ZERO for _ in range(cols)]
        for _ in range(rows)
    ]


def matrices(field, seed):
    """Seeded shapes: empty, no columns, 1 x 1, tall, wide and square, sparse
    and dense, with zero rows, zero columns and rank deficiency."""
    rng = random.Random(seed)
    yield []
    yield [[]]
    yield [[ZERO]]
    yield [[rng.randrange(field.q - 1)]]
    yield [[ZERO] * 4 for _ in range(3)]
    for _ in range(60):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = random_matrix(field, rng, rows, cols, rng.choice([0.25, 0.6, 1.0]))
        yield m
        zeroed = copy.deepcopy(m)
        zeroed[rng.randrange(rows)] = [ZERO] * cols
        for row in zeroed:
            row[rng.randrange(cols)] = ZERO
        yield zeroed
        k = rng.randint(1, max(1, min(rows, cols) - 1))
        yield product(field, random_matrix(field, rng, rows, k), random_matrix(field, rng, k, cols))


def test_rref_matches_reference(field):
    for m in matrices(field, field.w):
        before = copy.deepcopy(m)
        red, pivots = linalg.rref(field, m)
        assert (red, pivots) == reference_rref(field, m), m
        assert m == before
        # the packed core on the same rows, packed and unpacked here
        cols = len(m[0]) if m else 0
        a = [field.pack([field.to_vec(x) for x in row]) for row in m]
        pivots = linalg.rref_packed(field, a, cols)
        red = [[field.from_vec(v) for v in field.unpack(x, cols)] for x in a]
        assert (red, pivots) == reference_rref(field, m), m

