"""Exhaustive sweeps of the decoder contract over every location set.

A generic pattern of weight <= t_generic must be corrected exactly; any
other pattern may end as NotGenericDetected or Failure but never as a
Success that differs from the sent word.  Most sweeps draw one seeded
nonzero value vector per location set, so counts of the non-generic outcome
classes move with the seed and are not asserted; on the smallest code every
value vector is visited and every count is pinned.
"""

import itertools
import math
import random

import pytest

from agbms import GF, CodeSpec, CurveSpec, bms, decoder, oracle


def sweep(code, weight, seed, mode=bms.INVERSE_FREE, every_value=False):
    """Status counts per (generic within budget, status); fails on any
    miscorrection and on any generic pattern within budget not corrected.
    With ``every_value`` each location set meets all (q-1)^weight nonzero
    value vectors instead of one seeded vector."""
    rng = random.Random(seed)
    msg = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]
    sent = code.encode(msg)
    counts: dict[tuple[bool, str], int] = {}
    for locs in itertools.combinations(range(code.n), weight):
        # above the budget nothing is corrected, so genericity is not asked
        generic = weight <= code.t_generic and oracle.is_generic(code, list(locs)).is_generic
        if every_value:
            value_sets = itertools.product(range(code.fld.q - 1), repeat=weight)
        else:
            value_sets = [[rng.randrange(code.fld.q - 1) for _ in locs]]
        for vals in value_sets:
            res = decoder.decode(code, code.inject_errors(sent, list(locs), list(vals)), mode)
            if res.status == decoder.SUCCESS:
                assert res.corrected.symbols == sent.symbols, f"miscorrection at {locs} {vals}"
            if generic:
                assert res.status == decoder.SUCCESS, f"generic {locs} {vals}: {res.status} {res.detail}"
                assert res.error_locs == list(locs)
            key = (generic, res.status)
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_elliptic_weight3_exhaustive(elliptic):
    counts = sweep(elliptic, 3, seed=3)
    assert sum(counts.values()) == 2024
    assert counts[(True, decoder.SUCCESS)] == 1944


def test_elliptic_weight4_exhaustive(elliptic):
    counts = sweep(elliptic, 4, seed=4)
    assert sum(counts.values()) == 10626
    assert {status for _, status in counts} == {decoder.NOT_GENERIC}


# generic location sets per weight on y^2 + alpha^3 y = x^3 + x over GF(16)
# with m = 8 (n = 16, t_generic = 3), a curve no preset covers; weight 4 is
# over the budget, so none counts there
OTHER_ELLIPTIC_GENERIC = {1: 16, 2: 112, 3: 528, 4: 0}


@pytest.mark.parametrize("weight", sorted(OTHER_ELLIPTIC_GENERIC))
@pytest.mark.parametrize("mode", [bms.INVERSE_FREE, bms.DIVISION])
def test_other_elliptic_exhaustive(other_elliptic, mode, weight):
    assert (other_elliptic.n, other_elliptic.t_generic) == (16, 3)
    counts = sweep(other_elliptic, weight, seed=weight, mode=mode)
    assert sum(counts.values()) == math.comb(16, weight)
    assert counts.get((True, decoder.SUCCESS), 0) == OTHER_ELLIPTIC_GENERIC[weight]
    if weight > other_elliptic.t_generic:
        assert {status for _, status in counts} == {decoder.NOT_GENERIC}


@pytest.mark.slow
def test_klein_weight4_exhaustive(klein):
    counts = sweep(klein, 4, seed=5)
    assert sum(counts.values()) == 8855


# y^2 + y = x^3 over GF(8) with m = 6 (n = 8, t_generic = 2), small enough to
# visit every nonzero value vector: per weight, the status counts of the
# generic and the non-generic location sets, the same in both modes (4 of
# the 28 pairs are not generic)
GF8_EVERY_VALUE = {
    1: {(True, decoder.SUCCESS): 56},
    2: {
        (True, decoder.SUCCESS): 1176,
        (False, decoder.SUCCESS): 42,
        (False, decoder.FAILURE): 28,
        (False, decoder.NOT_GENERIC): 126,
    },
}


@pytest.fixture(scope="module")
def elliptic_gf8():
    curve = CurveSpec(a=2, b=3, e=0, chi={(0, 1): 0}, genus=1)
    return CodeSpec(curve, GF(3, 0b1011), m=6)


@pytest.mark.parametrize("mode", [bms.INVERSE_FREE, bms.DIVISION])
def test_gf8_every_value_exhaustive(elliptic_gf8, mode):
    code = elliptic_gf8
    assert (code.n, code.t_generic) == (8, 2)
    for weight, want in GF8_EVERY_VALUE.items():
        counts = sweep(code, weight, seed=weight, mode=mode, every_value=True)
        assert sum(counts.values()) == math.comb(8, weight) * 7**weight
        assert counts == want
    # one seeded value vector per weight-3 set, for the no-miscorrection half
    counts = sweep(code, 3, seed=3, mode=mode)
    assert sum(counts.values()) == math.comb(8, 3)
