"""The decoder's contract, checked on every op right after it returns,
outside the timed region.

A decode op fails when any of these holds:

* a pattern of weight <= t_generic came back Success with a word other
  than the sent codeword (a miscorrection);
* a generic pattern of weight <= t_generic was not Success-exact;
* a Success above t_generic is not a codeword within t_generic of the
  received word;
* (fer_sweep) ``encode`` or ``inject_errors`` returned other symbols than
  at generation.

Raised exceptions and the simulator statistics are checked by the
benchmark's classifier in run.py.  Each check here returns None for a
good op and a short reason otherwise.
"""

from __future__ import annotations

ZERO = -1  # log encoding of the field's zero
SUCCESS = "Success"
STATUSES = (SUCCESS, "NotGenericDetected", "Failure")


class Checker:
    """Contract checks for one code.  Codeword membership is tested
    against the parity-check rows, independently of the syndrome code the
    decoder itself uses for its re-check."""

    def __init__(self, code):
        self.fld = code.fld
        self.t = code.t_generic
        self.h = code.parity_check_matrix()

    def is_codeword(self, symbols: list[int]) -> bool:
        add, mul = self.fld.add, self.fld.mul
        for row in self.h:
            acc = ZERO
            for hj, cj in zip(row, symbols):
                acc = add(acc, mul(hj, cj))
            if acc != ZERO:
                return False
        return True

    def decode(self, inp, res) -> str | None:
        if res.status not in STATUSES:
            return f"unknown status {res.status!r}"
        ok = res.status == SUCCESS
        got = res.corrected.symbols if ok and res.corrected is not None else None
        if ok and got is None:
            return "Success without a corrected word"
        if inp.weight <= self.t:
            if ok and got != inp.sent:
                return "miscorrection"
            if inp.generic and not ok:
                return f"generic weight-{inp.weight} pattern ended {res.status}"
            return None
        if ok:
            dist = sum(1 for a, b in zip(got, inp.received) if a != b)
            if dist > self.t or not self.is_codeword(got):
                return f"Success at weight {inp.weight} is not a codeword within {self.t}"
        return None

    def fer(self, inp, out) -> str | None:
        cw, rx, res = out
        if cw != inp.sent:
            return "encode output changed"
        if rx != inp.received:
            return "inject_errors output changed"
        return self.decode(inp, res)

