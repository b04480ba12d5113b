"""Dense linear algebra over GF(2^w) on log-encoded matrices.

Matrices are lists of row lists of log-encoded ints.  Everything here is
exact field arithmetic, uncounted: an inverse is a log-table lookup and no
``OpCounter`` is charged.  Sizes stay desk-scale, so plain Gaussian
elimination is enough.  Callers: ``agcode`` row-reduces the parity-check
matrix for its encoder, ``decoder.error_values_interpolation`` solves the
t x t error-value system on the decode path, and ``oracle`` takes ranks,
determinants and solutions for its genericity tests.
"""

from __future__ import annotations

from .gf import GF, ZERO

Matrix = list[list[int]]


def mat_copy(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def rref(field: GF, m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form; returns (rref matrix, pivot column list)."""
    a = mat_copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != ZERO), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = (field.q - 1 - a[r][c]) % (field.q - 1)  # table inverse, uncounted
        a[r] = [field.mul(x, inv) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != ZERO:
                f = a[i][c]
                a[i] = [field.add(a[i][j], field.mul(f, a[r][j])) for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(field: GF, m: Matrix) -> int:
    return len(rref(field, m)[1])


def det(field: GF, m: Matrix) -> int:
    """Determinant (log form) by elimination without scaling rows."""
    a = mat_copy(m)
    n = len(a)
    d = 0  # log of alpha^0 = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != ZERO), None)
        if pr is None:
            return ZERO
        if pr != c:
            a[c], a[pr] = a[pr], a[c]  # char 2: swap does not flip sign
        d = field.mul(d, a[c][c])
        inv = (field.q - 1 - a[c][c]) % (field.q - 1)
        for i in range(c + 1, n):
            if a[i][c] != ZERO:
                f = field.mul(a[i][c], inv)
                a[i] = [field.add(a[i][j], field.mul(f, a[c][j])) for j in range(n)]
    return d


def solve(field: GF, m: Matrix, rhs: list[int]) -> list[int] | None:
    """Solve m x = rhs; None when the system is inconsistent or singular."""
    n = len(m)
    aug = [m[i][:] + [rhs[i]] for i in range(n)]
    red, pivots = rref(field, aug)
    cols = len(m[0])
    if cols in pivots:
        return None  # pivot in the rhs column: inconsistent
    if len(pivots) < cols:
        return None
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x
