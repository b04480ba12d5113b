"""Dense linear algebra over GF(2^w): Gauss-Jordan elimination.

``rref_packed`` is the one elimination.  It row-reduces packed rows, each
one ``GF.pack`` word whose lane c holds column c, so a row operation is
one ``GF.scale`` (and one XOR to clear a column).  ``rref`` is its shell
for log-encoded matrices (lists of row lists of log-encoded ints): it packs
the rows through the field's ``vec`` table, runs the core and unpacks the
reduced rows to logs.  Everything here is exact field arithmetic,
uncounted: an inverse is a log-table lookup and no ``OpCounter`` is
charged.  Sizes stay desk-scale, so plain Gauss-Jordan elimination is
enough.  Every elimination question reads the core's pivots: ``agcode``
row-reduces the parity-check matrix for its encoder and ``oracle.footprint``
the evaluation matrix of the first t + g monomials, whose pivots are the
footprint, both through ``rref``; ``decoder.error_values_interpolation``
hands the core the augmented t x (t + 1) error-value system straight from
the code's packed rows (solvable exactly when the pivots are columns
0..t-1) and reads the solution off lane t of the reduced rows.
"""

from __future__ import annotations

from .gf import GF

Matrix = list[list[int]]


def rref(field: GF, m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form; returns (rref matrix, pivot column list)."""
    vec, log, pack = field.vec, field.log, field.pack
    a = [pack([vec[x] for x in row]) for row in m]
    cols = len(m[0]) if m else 0
    pivots = rref_packed(field, a, cols)
    return [[log[v] for v in field.unpack(x, cols)] for x in a], pivots


def rref_packed(field: GF, a: list[int], cols: int) -> list[int]:
    """Row-reduce the packed rows ``a`` over their first ``cols`` lanes in
    place, to reduced row-echelon form; returns the pivot columns."""
    log, scale, lb, qm1 = field.log, field.scale, field.lane_bits, field.q - 1  # q - 1 masks one lane
    rows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        s = c * lb
        for pr in range(r, rows):
            x = a[pr]
            if v := x >> s & qm1:
                break
        else:
            continue
        a[pr] = a[r]
        row = a[r] = scale(x, -log[v] % qm1)  # table inverse, uncounted
        for i, x in enumerate(a):
            if (v := x >> s & qm1) and i != r:
                a[i] = x ^ scale(row, log[v])
        pivots.append(c)
        r += 1
    return pivots
