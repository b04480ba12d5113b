"""Exhaustive sweeps of the decoder contract over every location set.

A generic pattern of weight <= t_generic must be corrected exactly; any
other pattern may end as NotGenericDetected or Failure but never as a
Success that differs from the sent word.  The values are seeded and
nonzero; counts of the non-generic outcome classes move with them and are
not asserted.
"""

import itertools
import math
import random

import pytest

from agbms import bms, decoder, oracle


def sweep(code, weight, seed, mode=bms.INVERSE_FREE):
    """Status counts per (generic within budget, status); fails on any
    miscorrection and on any generic pattern within budget not corrected."""
    rng = random.Random(seed)
    msg = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]
    sent = code.encode(msg)
    counts: dict[tuple[bool, str], int] = {}
    for locs in itertools.combinations(range(code.n), weight):
        vals = [rng.randrange(code.fld.q - 1) for _ in locs]
        res = decoder.decode(code, code.inject_errors(sent, list(locs), vals), mode)
        if res.status == decoder.SUCCESS:
            assert res.corrected.symbols == sent.symbols, f"miscorrection at {locs}"
        # above the budget nothing is corrected, so genericity is not asked
        generic = weight <= code.t_generic and oracle.is_generic(code, list(locs)).is_generic
        if generic:
            assert res.status == decoder.SUCCESS, f"generic {locs}: {res.status} {res.detail}"
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
