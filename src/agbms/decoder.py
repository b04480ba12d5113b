"""End-to-end decoding: BMS, Chien search, error evaluation, verification.

``decode`` is a ladder that reaches each verdict before the work the
verdict makes useless:

1. syndromes; a word whose syndromes are all zero is a codeword, returned
   as Success without running BMS;
2. BMS, then the footprint read off its final s1: over the generic budget
   is NotGenericDetected, before any locator is extracted;
3. locator extraction and Chien search, whose zero count must match the
   footprint;
4. error values, from the closed form, or straight from the interpolation
   solve when a located point has no slope (Klein's P_(1:0:0), where the
   closed form cannot be evaluated), with the solve also taking over when
   the closed form raises or fails the re-check;
5. the syndrome re-check of each candidate correction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import not_, xor

from . import bms, linalg
from .agcode import POLE, CodeSpec, Word
from .curve import Mono
from .gf import ZERO, OpCounter

SUCCESS = "Success"
NOT_GENERIC = "NotGenericDetected"
FAILURE = "Failure"


@dataclass
class DecodeResult:
    status: str
    error_locs: list[int] = field(default_factory=list)
    error_vals: list[int] = field(default_factory=list)
    corrected: Word | None = None
    detail: str = ""


def _at_points(code: CodeSpec, poly: tuple[int, int], deriv: bool = False) -> tuple[int, int]:
    """A packed (word, order) polynomial at every code point as one n-lane
    word, its values or with ``deriv`` its derivative along the curve, and
    the terms a point-by-point evaluation walks for it: one per term of the
    polynomial, or of its two partials.

    Each nonzero coefficient reads, at its log, one word of the point-word
    product table of its monomial, and the word is the XOR of those."""
    word, order = poly
    log, point_words = code.fld.log, code.point_words
    acc = terms = 0
    for h, v in enumerate(code.fld.unpack(word, order + 1)):
        if v:
            values, derivs, weight = point_words[order - h]
            acc ^= (derivs if deriv else values)[log[v]]
            terms += weight if deriv else 1
    return acc, terms


def _no_slope(code: CodeSpec, j: int) -> str:
    """Why the closed form has no value at point j, where the slope is POLE."""
    p = code.points[j]
    return f"y' = D_x/D_y has no value at {p.special or (p.x, p.y)}"


def chien_search(basis: bms.LocatorOutput, code: CodeSpec) -> list[int]:
    """Indices of code points where every F^(i) vanishes (exhaustive scan).

    Each F^(i) is evaluated at all n points at once as one packed word, one
    product-table read per coefficient; the located points are the zero
    lanes of the OR of those words.
    """
    return _zeros(basis.F, code)


def _zeros(polys: list[tuple[int, int]], code: CodeSpec) -> list[int]:
    """``chien_search`` over any list of F^(i): ``decode`` passes the
    columns its syndromes check."""
    acc = 0
    for F in polys:
        acc |= _at_points(code, F)[0]
    return list(compress(range(code.n), map(not_, code.fld.unpack(acc, code.n))))


def error_values(
    locs: list[int],
    basis: bms.LocatorOutput,
    code: CodeSpec,
    ctr: OpCounter | None = None,
) -> list[int]:
    """Error values by the closed formula from the locator basis.

    e_j = ( sum_i F^(i)'(P_j)/F^(i)_s * G^(i)(P_j)/e^(i) )^-1, with the two
    divisors skipped when the basis came out of division mode (there the
    leading and head coefficients are already 1).  F^(i)' and G^(i) are
    built once per column at every point as packed words, F^(i)' from the
    derivative words of the code's point-word table (read through its slope
    row, so no derivative denominator is inverted), and their lanes are read
    at the located points.  All inversions go through ``GF.inv_chain``,
    which charges the squaring chain, so their cost is visible to the
    counter.  ``ctr`` is charged what the point-by-point evaluation of each
    polynomial charged: one mul and one add per term of G^(i), F^(i)_x and
    F^(i)_y at each point.

    Raises ZeroDivisionError when the sum vanishes at some point (the
    caller reports Failure) and ValueError at points where the slope has
    no value (Klein's P_(1:0:0), where x ramifies), having charged the
    points before either.
    """
    fld = code.fld
    exp, log, qm1 = fld.exp, fld.log, fld.q - 1
    inv = fld.inv_chain
    if basis.mode == bms.DIVISION:
        scale = [0] * code.curve.a  # alpha^0
    else:
        scale = [fld.mul(inv(c, ctr), inv(e, ctr), ctr) for c, e in zip(basis.lead_F, basis.head_e)]
    cols, terms = [], 0
    for F, G, s in zip(basis.F, basis.G, scale):
        if not G[0]:
            continue
        fp, kf = _at_points(code, F, deriv=True)
        gp, kg = _at_points(code, G)
        cols.append((fld.unpack(fp, code.n), fld.unpack(gp, code.n), s))
        terms += kf + kg
    # per point and column: the terms, F_x + F_y*y' (a mul and an add), then
    # F'G times the scale (two muls) added to the sum
    muls, adds = terms + 3 * len(cols), terms + 2 * len(cols)
    vals = []
    for j in locs:
        if cols and code.slope[j] is POLE:
            raise ValueError(_no_slope(code, j))
        acc = 0
        for fp, gp, s in cols:
            if fp[j] and gp[j]:
                acc ^= exp[(log[fp[j]] + log[gp[j]] + s) % qm1]
        if ctr is not None:
            ctr.muls += muls
            ctr.adds += adds
        if not acc:
            raise ZeroDivisionError(f"error-value sum vanishes at point {j}")
        vals.append(inv(log[acc], ctr))
    return vals


def error_values_interpolation(
    locs: list[int], code: CodeSpec, synd: dict[Mono, int]
) -> list[int] | None:
    """Error values by solving u_l = sum_g e_g z^l(P_g) on the first |E|
    non-gap syndrome rows, the first |E| monomials of ``code.basis``.

    Each augmented row is one gather of the row of z^l in the code's one
    evaluation table (``CodeSpec.vec_rows``, bit-vectors) at ``locs``, with u_l
    appended, packed with ``GF.pack``.  One elimination of the t x (t + 1)
    system in ``linalg.rref_packed``: the solution is lane t of the reduced
    rows when the pivots are exactly columns 0..t-1, and None otherwise (a
    singular or inconsistent system, or a basis with fewer than |E|
    monomials, which decode never asks for), as it is when a solved value
    is zero.

    Always receiver-computable and exact whenever the located set is
    generic.  The closed formula is preferred (it is what the architectures
    evaluate with their own multipliers), but after a simultaneous
    multi-column degree jump its two-term F'G form loses information: no
    rescaling or re-pairing of the auxiliaries gives the value back.  This
    solve covers those runs.
    """
    t, fld, vec_rows = len(locs), code.fld, code.vec_rows
    vec, pack = fld.vec, fld.pack
    rows = [pack([*map(vec_rows[l].__getitem__, locs), vec[synd[l]]]) for l in code.basis[:t]]
    if linalg.rref_packed(fld, rows, t + 1) != list(range(t)):
        return None
    log, s, qm1 = fld.log, t * fld.lane_bits, fld.q - 1  # q - 1 masks one lane
    sol = [log[x >> s & qm1] for x in rows]
    return None if ZERO in sol else sol


def decode(
    code: CodeSpec,
    received: Word,
    mode: str = bms.INVERSE_FREE,
    ctr: OpCounter | None = None,
) -> DecodeResult:
    """Full pipeline with a miscorrection guard, each verdict reached
    before the work it makes useless (the ladder of the module docstring).

    Syndromes, Chien search and error values all read the code's
    point x monomial evaluation table.  A word with zero syndromes is a
    codeword (every syndrome monomial lies in L(m P_inf)): it is returned
    as Success before BMS runs, and ``ctr`` is charged nothing.  Otherwise
    the footprint Delta read off the final s1 of BMS must stay within the
    generic budget, which is checked before the locators are extracted;
    then the Chien zero set must match |Delta| and the corrected word must
    have zero syndromes.  When Delta is the generic footprint (the first
    |Delta| monomials of the basis) Chien search reads only the columns
    F^(i) with o(F^(i)) + max o(Delta) <= m: the syndromes up to m check no
    other, so one of them could wipe out the zeros.  Syndromes are linear,
    so the last check is made on the error alone: the packed syndrome word
    of its t (location, value) pairs, t syndrome-row reads, must equal the
    received word's, computed once.
    Anything structurally off is reported as NotGenericDetected, arithmetic
    dead ends (a located point with no slope, a vanishing value sum) as
    Failure.  When the closed-form values raise or fail the re-check the
    pipeline re-evaluates by syndrome interpolation before giving up; a
    located point with no slope (Klein's P_(1:0:0)), where the closed form
    raises on every word, goes to the interpolation without trying it.  An
    inverse-free BMS run whose state tallies an inversion raises
    AssertionError, with or without ``ctr`` and under ``python -O``; BMS
    counts field operations only when ``ctr`` is passed.
    """
    packed = code.syndrome_word(received)
    if not packed:
        return DecodeResult(SUCCESS, [], [], Word(received.symbols, "codeword"))
    synd = code.syndrome_dict(packed)
    state, _ = bms.run(code, synd, mode, ctr=ctr)
    if mode == bms.INVERSE_FREE and state.invs:
        raise AssertionError("inverse-free BMS performed a field inversion")

    delta, top = bms.gate_table(code).delta[tuple(state.s1)]
    if len(delta) > code.t_generic:
        return DecodeResult(NOT_GENERIC, detail=f"footprint {len(delta)} exceeds budget {code.t_generic}")
    basis = bms.extract_locators(state, code)

    locs = _zeros(basis.F if top is None else [F for F in basis.F if F[1] <= top], code)
    if len(locs) != len(delta):
        return DecodeResult(
            NOT_GENERIC, detail=f"chien zeros {len(locs)} != footprint {len(delta)}"
        )
    if not locs:
        return DecodeResult(NOT_GENERIC, detail="empty locator set with nonzero syndromes")

    rows = code.syndrome_rows

    def apply(vals: list[int]) -> Word | None:
        # synd(received + error) = synd(received) + synd(error) vanishes
        # exactly when the error reproduces the received syndrome word
        if reduce(xor, [rows[j][v] for j, v in zip(locs, vals)]) != packed:
            return None
        corrected = Word(received.symbols, "codeword")
        for j, v in zip(locs, vals):
            corrected.symbols[j] = code.fld.add(corrected.symbols[j], v)
        return corrected

    closed_form_error = None
    pole = next((j for j in locs if code.slope[j] is POLE), None)
    if pole is not None:
        closed_form_error = _no_slope(code, pole)
    else:
        try:
            vals = error_values(locs, basis, code, ctr)
            corrected = apply(vals)
            if corrected is not None:
                return DecodeResult(SUCCESS, locs, vals, corrected)
        except (ZeroDivisionError, ValueError) as exc:
            closed_form_error = str(exc)

    fallback = error_values_interpolation(locs, code, synd)
    if fallback is not None:
        corrected = apply(fallback)
        if corrected is not None:
            return DecodeResult(SUCCESS, locs, fallback, corrected)
    if closed_form_error is not None:
        return DecodeResult(FAILURE, detail=closed_form_error)
    return DecodeResult(NOT_GENERIC, detail="corrected word fails the syndrome re-check")
