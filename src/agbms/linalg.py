"""Dense linear algebra over GF(2^w) on log-encoded matrices.

Matrices are lists of row lists of log-encoded ints.  ``rref`` packs each
row into one ``GF.pack`` word, lane c holding column c, so a row operation
is one ``GF.scale`` (and one XOR to clear a column); the rows are unpacked
to logs once, at the end.  Everything here is exact field arithmetic,
uncounted: an inverse is a log-table lookup and no ``OpCounter`` is
charged.  Sizes stay desk-scale, so plain Gauss-Jordan elimination is
enough.  Every elimination question reads ``rref``'s pivots: ``agcode``
row-reduces the parity-check matrix for its encoder,
``decoder.error_values_interpolation`` the augmented t x (t + 1)
error-value system on the decode path (solvable exactly when the pivots
are columns 0..t-1), and ``oracle.footprint`` the evaluation matrix of
the first t + g monomials, whose pivots are the footprint.
"""

from __future__ import annotations

from .gf import GF

Matrix = list[list[int]]


def rref(field: GF, m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form; returns (rref matrix, pivot column list)."""
    log, lb, qm1 = field.log, field.lane_bits, field.q - 1  # q - 1 masks one lane
    a = [field.pack([field.to_vec(x) for x in row]) for row in m]
    cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        s = c * lb
        pr = next((i for i in range(r, len(a)) if a[i] >> s & qm1), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        row = a[r] = field.scale(a[r], -log[a[r] >> s & qm1] % qm1)  # table inverse, uncounted
        for i, x in enumerate(a):
            if i != r and x >> s & qm1:
                a[i] = x ^ field.scale(row, log[x >> s & qm1])
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return [[log[v] for v in field.unpack(x, cols)] for x in a], pivots

