"""Exhaustive sweeps of the decoder contract over every location set.

A generic pattern of weight <= t_generic must be corrected exactly; any
other pattern may end as NotGenericDetected or Failure but never as a
Success that differs from the sent word.  Most sweeps draw one seeded
nonzero value vector per location set, so counts of the non-generic outcome
classes move with the seed and are not asserted; on the smallest code every
value vector is visited and every count is pinned.  Every simulator also
meets every weight-3 location set of the elliptic preset.  Seeded generic
samples carry the contract across every m a curve accepts, where Chien
search may read only the locator columns the syndromes check, and seeded
patterns and the GF(8) location sets carry it across the seeded
Artin-Schreier curves y^a + c*y = f(x).  Seeded generic words carry it to
Hermitian codes over GF(64) and GF(2^8), up to n = 4096.
"""

import itertools
import math
import random

import pytest

from agbms import GF, CodeSpec, CurveSpec, archsim, bms, decoder, elliptic_curve, hermitian_curve, klein_curve, oracle
from conftest import artin_schreier_budget_codes, random_generic_pattern, random_pattern


def sweep(code, weight, seed, mode=bms.INVERSE_FREE, every_value=False, values=None):
    """Status counts per (generic within budget, status); fails on any
    miscorrection and on any generic pattern within budget not corrected.
    With ``every_value`` each location set meets all (q-1)^weight nonzero
    value vectors instead of one seeded vector, with ``values`` that one
    vector."""
    rng = random.Random(seed)
    msg = [rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)]
    sent = code.encode(msg)
    counts: dict[tuple[bool, str], int] = {}
    for locs in itertools.combinations(range(code.n), weight):
        # above the budget nothing is corrected, so genericity is not asked
        generic = weight <= code.t_generic and oracle.is_generic(code, list(locs)).is_generic
        if every_value:
            value_sets = itertools.product(range(code.fld.q - 1), repeat=weight)
        elif values is not None:
            value_sets = [values]
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


@pytest.mark.parametrize("mode", [bms.INVERSE_FREE, bms.DIVISION])
def test_hermitian_m18_weight2_exhaustive(hermitian, mode):
    # y^4 + y = x^5 over GF(16) at m = 18 (t_generic 2): a basis column of
    # pole order o is checked only by syndromes up to o + max o(Delta), so
    # Chien search that read every column rejected 1729 of the 1920 generic
    # pairs as "chien zeros 0 != footprint 2"
    code = CodeSpec(hermitian.curve, hermitian.fld, m=18)
    assert (code.n, code.t_generic) == (64, 2)
    counts = sweep(code, 2, seed=18, mode=mode, values=[3, 7])
    assert sum(counts.values()) == math.comb(64, 2)
    assert counts == {
        (True, decoder.SUCCESS): 1920,
        (False, decoder.SUCCESS): 3,
        (False, decoder.NOT_GENERIC): 93,
    }


def budget_sample(code, weight, rng, samples=4, draw=random_generic_pattern):
    """Decode ``samples`` seeded patterns of ``weight`` from ``draw`` (by
    default generic ones) over all n points in both modes: exact when
    generic within the budget, never a miscorrection."""
    for _ in range(samples):
        locs, vals = draw(code, weight, rng, affine_only=False)
        generic = weight <= code.t_generic and oracle.is_generic(code, locs).is_generic
        received = code.inject_errors(code.zero_word(), locs, vals)
        for mode in (bms.INVERSE_FREE, bms.DIVISION):
            res = decoder.decode(code, received, mode)
            if generic:
                assert res.status == decoder.SUCCESS, f"m={code.m} {locs} {vals}: {res.status} {res.detail}"
                assert sorted(res.error_locs) == sorted(locs)
            if res.status == decoder.SUCCESS:
                assert res.corrected.symbols == code.zero_word().symbols, f"miscorrection at m={code.m} {locs}"


BUDGET_CURVES = {
    "elliptic": (elliptic_curve(), GF(4, 0b10011)),
    "y3+y=x5": (CurveSpec(a=3, b=5, e=0, chi={(0, 1): 0}, genus=4), GF(4, 0b10011)),
    "klein": (klein_curve(), GF(3, 0b1011)),
    "hermitian": (hermitian_curve(), GF(4, 0b10011)),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(BUDGET_CURVES))
def test_budget_at_every_m(name):
    # every m the curve accepts with t_generic >= 1, four generic samples
    # per weight: t_generic decodes exactly, t_generic + 1 never miscorrects
    cv, fld = BUDGET_CURVES[name]
    low = 2 * cv.genus - 2 + cv.a
    n = CodeSpec(cv, fld, m=low).n
    for m in range(low, n):
        code = CodeSpec(cv, fld, m=m)
        if code.t_generic >= 1:
            rng = random.Random(f"{name}/{m}")
            budget_sample(code, code.t_generic, rng)
            budget_sample(code, code.t_generic + 1, rng)


@pytest.mark.parametrize("q", [8, 16, pytest.param(32, marks=pytest.mark.slow)])
def test_contract_on_artin_schreier_codes(q):
    # every seeded y^a + c*y = f(x) curve over GF(q) at every m it accepts
    # with t_generic >= 1, three seeded patterns per weight 1..t_generic + 1
    for k, code in artin_schreier_budget_codes(q):
        rng = random.Random(f"contract/{q}/{k}/{code.m}")
        for weight in range(1, code.t_generic + 2):
            budget_sample(code, weight, rng, samples=3, draw=random_pattern)


@pytest.mark.parametrize("mode", [bms.INVERSE_FREE, bms.DIVISION])
def test_gf8_artin_schreier_exhaustive(mode):
    # every location set of weight 1..t_generic + 1 on every seeded GF(8)
    # Artin-Schreier code at every m with t_generic >= 1, seeded values
    sets = 0
    for k, code in artin_schreier_budget_codes(8):
        for weight in range(1, code.t_generic + 2):
            sets += sum(sweep(code, weight, seed=f"{k}/{code.m}/{weight}", mode=mode).values())
    assert sets == 2994


@pytest.mark.slow
def test_hermitian_gf64_m80():
    # y^8 + y = x^9 over GF(64) (n = 512, g = 28) at m = 80, t_generic 9:
    # weights 6 and 9 decode, which Chien search over every column rejected
    code = CodeSpec(CurveSpec(a=8, b=9, e=0, chi={(0, 1): 0}, genus=28), GF(6, 0b1000011), m=80)
    assert (code.n, code.t_generic) == (512, 9)
    rng = random.Random("gf64/80")
    for weight in (6, 9, 10):
        budget_sample(code, weight, rng, samples=6)


@pytest.mark.slow
def test_hermitian_gf256_m300():
    # y^16 + y = x^17 over GF(2^8) (n = 4096, g = 120) at m = 300, t_generic
    # 23: one-byte lanes at w = 8, where GF.merge is two scales; seeded
    # generic words of weight t_generic on one random codeword decode to it
    # in both modes
    code = CodeSpec(CurveSpec(a=16, b=17, e=0, chi={(0, 1): 0}, genus=120), GF(8, 0b100011101), m=300)
    assert (code.n, code.t_generic, code.fld.lane_bits) == (4096, 23, 8)
    rng = random.Random("gf256/300")
    sent = code.encode([rng.randrange(-1, code.fld.q - 1) for _ in range(code.dim)])
    for _ in range(3):
        locs, vals = random_generic_pattern(code, code.t_generic, rng, affine_only=False)
        received = code.inject_errors(sent, locs, vals)
        for mode in (bms.INVERSE_FREE, bms.DIVISION):
            res = decoder.decode(code, received, mode)
            assert (res.status, sorted(res.error_locs)) == (decoder.SUCCESS, sorted(locs)), mode
            assert res.corrected.symbols == sent.symbols, mode


@pytest.mark.slow
def test_every_simulator_on_every_location_set(elliptic):
    # every weight-3 location set of the elliptic preset, with seeded values,
    # through every simulator: each run passes its m+2 boundary checks
    # against the reference BMS state (a divergence raises)
    rng = random.Random(2024)
    runs = 0
    for locs in itertools.combinations(range(elliptic.n), 3):
        vals = [rng.randrange(elliptic.fld.q - 1) for _ in locs]
        synd = elliptic.syndromes(elliptic.inject_errors(elliptic.zero_word(), list(locs), vals))
        for sim in archsim.SIMULATORS.values():
            assert len(sim(elliptic, synd).boundary_states) == elliptic.m + 2
            runs += 1
    assert runs == math.comb(24, 3) * len(archsim.SIMULATORS)
