"""Exact two-phase simplex over rationals.

Standard form only: minimize c.z subject to A z = b, z >= 0.  Bland's rule
(lowest-index entering column, ties in the ratio test broken by lowest basic
variable index) guarantees termination and makes every solve deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, InternalInvariantError
from .linalg import _pivot, solve_square

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    objective: list
    rows: list
    rhs: list

    def __post_init__(self):
        self.objective = [Fraction(x) for x in self.objective]
        self.rows = [[Fraction(x) for x in row] for row in self.rows]
        self.rhs = [Fraction(x) for x in self.rhs]
        k = len(self.objective)
        if len(self.rows) != len(self.rhs):
            raise InputError("row/rhs count mismatch")
        for row in self.rows:
            if len(row) != k:
                raise InputError("row length does not match objective length")


@dataclass
class LpResult:
    status: str
    value: Fraction = Fraction(0)
    primal: list = field(default_factory=list)
    dual: list = field(default_factory=list)


def _iterate(tableau, basis, cost, allowed_cols):
    """Run simplex pivots in place until optimal or unbounded."""
    m = len(tableau)
    while True:
        cb = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in allowed_cols:
            if j in basis:
                continue
            reduced = cost[j] - sum(cb[i] * tableau[i][j] for i in range(m))
            if reduced < 0:
                entering = j
                break
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering


def solve(lp: LinearProgram) -> LpResult:
    """Two-phase simplex with exact rationals and a strong-duality check."""
    k = len(lp.objective)
    m = len(lp.rows)
    # Normalize to b >= 0, remembering flipped rows for the dual.
    sign = []
    rows, rhs = [], []
    for i in range(m):
        if lp.rhs[i] < 0:
            rows.append([-x for x in lp.rows[i]])
            rhs.append(-lp.rhs[i])
            sign.append(-1)
        else:
            rows.append(list(lp.rows[i]))
            rhs.append(lp.rhs[i])
            sign.append(1)

    # Columns: original variables, then one artificial per row, then rhs.
    tableau = [
        rows[i]
        + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        + [rhs[i]]
        for i in range(m)
    ]
    basis = [k + i for i in range(m)]
    row_index = list(range(m))  # original row of each surviving tableau row

    # Phase 1: minimize the sum of artificials.
    cost1 = [Fraction(0)] * k + [Fraction(1)] * m
    status = _iterate(tableau, basis, cost1, range(k + m))
    if status != OPTIMAL:
        raise InternalInvariantError("phase 1 cannot be unbounded")
    phase1_value = sum(
        tableau[i][-1] for i in range(len(tableau)) if basis[i] >= k
    )
    if phase1_value != 0:
        return LpResult(INFEASIBLE)

    # Drive remaining artificials out of the basis; drop redundant rows.
    i = 0
    while i < len(tableau):
        if basis[i] >= k:
            col = next((j for j in range(k) if tableau[i][j] != 0), None)
            if col is None:
                del tableau[i]
                del basis[i]
                del row_index[i]
                continue
            _pivot(tableau, i, col)
            basis[i] = col
        i += 1

    # Phase 2 over the original columns only.
    cost2 = list(lp.objective) + [Fraction(0)] * m
    status = _iterate(tableau, basis, cost2, range(k))
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    primal = [Fraction(0)] * k
    for i, bv in enumerate(basis):
        primal[bv] = tableau[i][-1]
    value = sum(lp.objective[j] * primal[j] for j in range(k))

    dual = _dual_solution(lp, rows, sign, basis, row_index)
    dual_value = sum(lp.rhs[i] * dual[i] for i in range(m))
    if dual_value != value:
        raise InternalInvariantError("strong duality violated in exact simplex")
    _check_feasible(lp, primal)
    return LpResult(OPTIMAL, value, primal, dual)


def _dual_solution(lp, rows, sign, basis, row_index):
    mm = len(basis)
    # B^T y = c_B over the surviving rows, then map back with row signs.
    bt = [[rows[row_index[r]][basis[i]] for r in range(mm)] for i in range(mm)]
    cb = [lp.objective[bv] for bv in basis]
    y = solve_square(bt, cb)
    if y is None:
        raise InternalInvariantError("basis matrix singular at optimum")
    dual = [Fraction(0)] * len(lp.rows)
    for r in range(mm):
        dual[row_index[r]] = sign[row_index[r]] * y[r]
    return dual


def _check_feasible(lp, primal):
    if any(x < 0 for x in primal):
        raise InternalInvariantError("negative primal component")
    for row, b in zip(lp.rows, lp.rhs):
        if sum(a * x for a, x in zip(row, primal)) != b:
            raise InternalInvariantError("primal residual nonzero")
