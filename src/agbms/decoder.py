"""End-to-end decoding: BMS, Chien search, error evaluation, verification."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import bms, linalg
from .agcode import CodeSpec, Word
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


def chien_search(basis: bms.LocatorOutput, code: CodeSpec) -> list[int]:
    """Indices of code points where every F^(i) vanishes (exhaustive scan).

    Each F^(i)(P_j) is summed in bit-vector form from the evaluation-table
    rows of its terms; a point is dropped at the first F^(i) that does not
    vanish there.
    """
    exp, qm1 = code.fld.exp, code.fld.q - 1
    polys = [[(c, code.eval_row(n)) for n, c in F.items() if c != ZERO] for F in basis.F]
    out = []
    for j in range(code.n):
        for terms in polys:
            acc = 0
            for c, row in terms:
                z = row[j]
                if z != ZERO:
                    acc ^= exp[(c + z) % qm1]
            if acc:
                break
        else:
            out.append(j)
    return out


def error_values(
    locs: list[int],
    basis: bms.LocatorOutput,
    code: CodeSpec,
    ctr: OpCounter | None = None,
) -> list[int]:
    """Error values by the closed formula from the locator basis.

    e_j = ( sum_i F^(i)'(P_j)/F^(i)_s * G^(i)(P_j)/e^(i) )^-1, with the two
    divisors skipped when the basis came out of division mode (there the
    leading and head coefficients are already 1).  F^(i)' is read at the
    point through the code's slope row (``CodeSpec.derivative``), so no
    derivative denominator is inverted.  All inversions run through the
    squaring chain so their cost is visible to the counter.

    Raises ZeroDivisionError when the sum vanishes at some point (the
    caller reports Failure) and ValueError at points where the slope has
    no value (Klein's P_(1:0:0), where x ramifies).
    """
    cv = code.curve
    fld = code.fld
    monic = basis.mode == bms.DIVISION
    scale = []
    for i in range(cv.a):
        if monic:
            scale.append(0)  # alpha^0
            continue
        inv_lead = fld.inv_chain(basis.lead_F[i], ctr)
        inv_head = fld.inv_chain(basis.head_e[i], ctr)
        scale.append(fld.mul(inv_lead, inv_head, ctr))
    vals = []
    for j in locs:
        acc = ZERO
        for i in range(cv.a):
            if not basis.G[i]:
                continue
            fp = code.derivative(basis.F[i], j, ctr)
            gp = code.eval_poly(basis.G[i], j, ctr)
            term = fld.mul(fld.mul(fp, gp, ctr), scale[i], ctr)
            acc = fld.add(acc, term, ctr)
        if acc == ZERO:
            raise ZeroDivisionError(f"error-value sum vanishes at point {j}")
        vals.append(fld.inv_chain(acc, ctr))
    return vals


def error_values_interpolation(
    locs: list[int], code: CodeSpec, synd: dict[Mono, int]
) -> list[int] | None:
    """Error values by solving u_l = sum_g e_g z^l(P_g) on the first |E|
    non-gap syndrome rows, the first |E| monomials of ``code.basis``; None
    when the basis has fewer than |E| (decode never asks for that).

    Always receiver-computable and exact whenever the located set is
    generic.  The closed formula is preferred (it is what the architectures
    evaluate with their own multipliers), but after a simultaneous
    multi-column degree jump its two-term F'G form loses information: no
    rescaling or re-pairing of the auxiliaries gives the value back.  This
    solve covers those runs.
    """
    ls = code.basis[: len(locs)]
    rows = [[code.eval_row(l)[j] for j in locs] for l in ls]
    sol = linalg.solve(code.fld, rows, [synd[l] for l in ls])
    if sol is None or any(v == ZERO for v in sol):
        return None
    return sol


def decode(
    code: CodeSpec,
    received: Word,
    mode: str = bms.INVERSE_FREE,
    ctr: OpCounter | None = None,
) -> DecodeResult:
    """Full pipeline with a miscorrection guard.

    Syndromes, Chien search and error values all read the code's
    point x monomial evaluation table.  Success requires the Chien zero set
    to match the footprint size implied by the final degrees, the footprint
    to stay within the generic budget, and the corrected word to have zero
    syndromes.  Syndromes are linear, so that last check is made on the
    error word alone: its syndromes over the located positions must equal
    the received ones, which costs t symbols instead of n.  Anything
    structurally off is reported as NotGenericDetected, arithmetic dead ends
    (Klein special-point derivative, vanishing value sum) as Failure.  When
    the closed-form values fail the re-check the pipeline re-evaluates by
    syndrome interpolation before giving up.
    """
    synd = code.syndromes(received)
    bms_ctr = OpCounter()
    state, _ = bms.run(code, synd, mode, ctr=bms_ctr)
    if mode == bms.INVERSE_FREE and bms_ctr.invs != 0:
        raise AssertionError("inverse-free BMS performed a field inversion")
    if ctr is not None:
        ctr.muls += bms_ctr.muls
        ctr.invs += bms_ctr.invs
        ctr.adds += bms_ctr.adds
    basis = bms.extract_locators(state, code)

    delta = bms.delta_set(code, state.s1)
    if len(delta) > code.t_generic:
        return DecodeResult(NOT_GENERIC, detail=f"footprint {len(delta)} exceeds budget {code.t_generic}")

    locs = chien_search(basis, code)
    if len(locs) != len(delta):
        return DecodeResult(
            NOT_GENERIC, detail=f"chien zeros {len(locs)} != footprint {len(delta)}"
        )
    if not locs:
        if any(u != ZERO for u in synd.values()):
            return DecodeResult(NOT_GENERIC, detail="empty locator set with nonzero syndromes")
        return DecodeResult(SUCCESS, [], [], Word(received.symbols[:], "codeword"))

    def apply(vals: list[int]) -> Word | None:
        # synd(received + error) = synd(received) + synd(error) vanishes
        # exactly when the error word reproduces the received syndromes
        error = code.zero_word("error")
        for j, v in zip(locs, vals):
            error.symbols[j] = v
        if code.syndromes(error) != synd:
            return None
        corrected = Word(received.symbols[:], "codeword")
        for j, v in zip(locs, vals):
            corrected.symbols[j] = code.fld.add(corrected.symbols[j], v)
        return corrected

    closed_form_error = None
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
