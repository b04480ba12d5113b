"""Exhaustive sweeps of the decoder contract over every location set.

A generic pattern of weight <= t_generic must be corrected exactly; any
other pattern may end as NotGenericDetected or Failure but never as a
Success that differs from the sent word.  The values are seeded and
nonzero; counts of the non-generic outcome classes move with them and are
not asserted.
"""

import itertools
import random

import pytest

from agbms import decoder, oracle


def sweep(code, weight, seed):
    """Status counts per (generic within budget, status); fails on any
    miscorrection and on any generic pattern within budget not corrected."""
    rng = random.Random(seed)
    msg = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]
    sent = code.encode(msg)
    counts: dict[tuple[bool, str], int] = {}
    for locs in itertools.combinations(range(code.n), weight):
        vals = [rng.randrange(code.fld.q - 1) for _ in locs]
        res = decoder.decode(code, code.inject_errors(sent, list(locs), vals))
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


@pytest.mark.slow
def test_klein_weight4_exhaustive(klein):
    counts = sweep(klein, 4, seed=5)
    assert sum(counts.values()) == 8855
