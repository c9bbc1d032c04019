"""Small exact linear-algebra helpers over Fraction (dense, desk scale).

There is one elimination kernel: `_pivot` makes a column a unit column, and
`_echelon` runs it over the columns into reduced row-echelon form.  `rank`,
`nullspace` and `solve_square` read their answers off that form, and the
exact simplex pivots its tableau with the same `_pivot`.
"""

from __future__ import annotations

from fractions import Fraction


def _copy(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _pivot(m, r, col):
    """Scale row r so that m[r][col] == 1, then clear column col in every
    other row, in place."""
    inv = 1 / m[r][col]
    pr = m[r] = [x * inv for x in m[r]]
    for i, row in enumerate(m):
        factor = row[col]
        if i != r and factor != 0:
            m[i] = [a - factor * b for a, b in zip(row, pr)]


def _echelon(m, ncols):
    """Reduce m in place to reduced row-echelon form over its first ncols
    columns.  Returns the pivot columns."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        _pivot(m, r, col)
        pivots.append(col)
    return pivots


def rank(rows) -> int:
    """Row rank by Gaussian elimination."""
    if not rows:
        return 0
    m = _copy(rows)
    return len(_echelon(m, len(m[0])))


def solve_square(a, b):
    """Solve A x = b for square A; None if A is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    if len(_echelon(m, n)) < n:
        return None
    return [row[n] for row in m]


def nullspace(rows):
    """Basis of the right nullspace of the matrix, as a list of vectors."""
    if not rows:
        return []
    m = _copy(rows)
    ncols = len(m[0])
    pivots = _echelon(m, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))
