"""Two-phase revised primal simplex.

Solves  maximize c.x  subject to  A_eq x = b_eq,  A_ge x >= b_ge,  x >= 0.
The method is the revised simplex of Chvátal, *Linear Programming* (1983),
ch. 7: the basis inverse is kept explicitly, updated by one rank-1 (eta)
step per pivot and recomputed from the basis columns every
`REFACTOR_EVERY` pivots and once at the end.  Pricing is Dantzig's (the
largest reduced cost enters); ties in the ratio test go to the largest
pivot element.  After `BLAND_AFTER` consecutive degenerate pivots the
solver switches to Bland's rule (smallest improving column, smallest
basic variable among tied rows) until a pivot makes progress again, so it
cannot cycle.  Basic values within `FEAS_TOL` of 0 are snapped to 0.

The problems this library produces are small (about a hundred rows at
most), so dense numpy arithmetic is plenty.  A result carries the final
simplex multipliers and the reduced costs of every column, surplus
columns included, so callers can verify optimality themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
DEFAULT_MAX_ITERS = 10_000
REFACTOR_EVERY = 50
BLAND_AFTER = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x over equality and >= rows, x >= 0."""

    objective: np.ndarray
    eq_lhs: np.ndarray
    eq_rhs: np.ndarray
    ge_lhs: np.ndarray
    ge_rhs: np.ndarray

    def __post_init__(self):
        n = len(self.objective)
        if self.eq_lhs.size and self.eq_lhs.shape[1] != n:
            raise ValueError("eq_lhs column count mismatch")
        if self.ge_lhs.size and self.ge_lhs.shape[1] != n:
            raise ValueError("ge_lhs column count mismatch")
        if self.eq_lhs.shape[0] != len(self.eq_rhs):
            raise ValueError("eq rhs length mismatch")
        if self.ge_lhs.shape[0] != len(self.ge_rhs):
            raise ValueError("ge rhs length mismatch")


@dataclass
class LpSolution:
    """`duals` has one entry per row (equality rows first, then >= rows);
    `reduced_costs` one per column of x followed by one per surplus column
    of a >= row.  At an optimum every reduced cost is <= 0."""

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    dual_objective: float | None = None
    iterations: int = 0
    reduced_costs: np.ndarray | None = None

    @property
    def duality_gap(self) -> float | None:
        if self.objective is None or self.dual_objective is None:
            return None
        return abs(self.objective - self.dual_objective)


class _Basis:
    """The basic columns of `a` and their inverse, kept by eta updates."""

    def __init__(self, a: np.ndarray, b: np.ndarray, columns):
        self.a, self.b = a, b
        self.columns = np.array(columns, dtype=np.intp)
        self.refactor()

    def refactor(self) -> None:
        self.inverse = np.linalg.inv(self.a[:, self.columns])
        self.pivots = 0

    def values(self) -> np.ndarray:
        x = self.inverse @ self.b
        x[np.abs(x) <= FEAS_TOL] = 0.0
        return x

    def pivot(self, row: int, col: int, d: np.ndarray) -> None:
        """Column `col`, whose basic representation is `d`, replaces the
        basic variable of `row`."""
        self.columns[row] = col
        self.pivots += 1
        if self.pivots >= REFACTOR_EVERY:
            self.refactor()
            return
        pivot_row = self.inverse[row] / d[row]
        self.inverse -= d[:, None] * pivot_row
        self.inverse[row] = pivot_row


def _optimize(basis: _Basis, costs: np.ndarray, iterations: int,
              max_iters: int) -> tuple[str | None, int]:
    """Pivot to an optimum of `costs`; returns (None, iterations) there,
    else (UNBOUNDED or ITERATION_LIMIT, iterations)."""
    degenerate = 0
    while iterations < max_iters:
        iterations += 1
        columns = basis.columns
        reduced = costs - (costs[columns] @ basis.inverse) @ basis.a
        reduced[columns] = 0.0
        improving = (reduced > PIVOT_TOL).nonzero()[0]
        if not improving.size:
            return None, iterations
        bland = degenerate >= BLAND_AFTER
        entering = int(improving[0] if bland else reduced.argmax())
        d = basis.inverse @ basis.a[:, entering]
        rows = (d > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return UNBOUNDED, iterations
        ratios = basis.values()[rows] / d[rows]
        theta = ratios.min()
        ties = rows[ratios <= theta + PIVOT_TOL]
        if bland:
            leaving = int(ties[columns[ties].argmin()])
        else:
            leaving = int(ties[d[ties].argmax()])
        degenerate = degenerate + 1 if theta == 0.0 else 0
        basis.pivot(leaving, entering, d)
    return ITERATION_LIMIT, iterations


def solve(lp: LinearProgram, max_iters: int = DEFAULT_MAX_ITERS) -> LpSolution:
    """Two-phase simplex; never returns a wrong answer on budget overrun."""
    n_x = len(lp.objective)
    m_eq, m_ge = lp.eq_lhs.shape[0], lp.ge_lhs.shape[0]
    m = m_eq + m_ge
    n_total = n_x + m_ge  # surplus variable per >= row

    A = np.zeros((m, n_total))
    b = np.zeros(m)
    if m_eq:
        A[:m_eq, :n_x] = lp.eq_lhs
        b[:m_eq] = lp.eq_rhs
    if m_ge:
        A[m_eq:, :n_x] = lp.ge_lhs
        A[m_eq:, n_x:] = -np.eye(m_ge)
        b[m_eq:] = lp.ge_rhs
    sign = np.where(b < 0, -1.0, 1.0)
    A *= sign[:, None]
    b *= sign

    # Phase 1: artificial basis, minimize the artificial mass.
    basis = _Basis(np.hstack([A, np.eye(m)]), b,
                   list(range(n_total, n_total + m)))
    phase1_costs = np.zeros(n_total + m)
    phase1_costs[n_total:] = -1.0
    status, iterations = _optimize(basis, phase1_costs, 0, max_iters)
    if status == ITERATION_LIMIT:
        return LpSolution(ITERATION_LIMIT, iterations=iterations)
    if status is not None:  # cannot happen in phase 1 (bounded below by 0)
        return LpSolution(INFEASIBLE, iterations=iterations)
    artificial_mass = -float(phase1_costs[basis.columns] @ basis.values())
    if artificial_mass > FEAS_TOL:
        return LpSolution(INFEASIBLE, iterations=iterations)

    # Drive remaining artificials out of the basis.  A row of the basis
    # inverse times A that is zero everywhere shows the artificial's own
    # constraint row to be a combination of the others: drop that row.
    # Each test reads a freshly factored inverse: eta updates after a tiny
    # pivot leave noise in the inverse itself, which the product cannot
    # tell from a real entry.  "Zero" is relative to the column's largest
    # entry in that product, as rounding noise grows with it.  Only
    # non-basic columns may enter: a basic column's entry in another row
    # is rounding noise, and pivoting it in would put the column in the
    # basis twice.
    dropped = []
    for i in range(m):
        if basis.columns[i] < n_total:
            continue
        basis.refactor()
        entries = np.abs(basis.inverse[i] @ A) > PIVOT_TOL
        columns = np.asarray(basis.columns)
        entries[columns[columns < n_total]] = False
        for col in np.flatnonzero(entries):
            d = basis.inverse @ A[:, col]
            if abs(d[i]) > PIVOT_TOL * max(1.0, np.abs(d).max()):
                basis.pivot(i, int(col), d)
                break
        else:
            dropped.append(i)
    redundant = {int(basis.columns[i]) - n_total for i in dropped}
    rows = [r for r in range(m) if r not in redundant]
    columns = [c for i, c in enumerate(basis.columns) if i not in dropped]

    costs = np.zeros(n_total)
    costs[:n_x] = lp.objective
    basis = _Basis(A[rows], b[rows], columns)
    status, iterations = _optimize(basis, costs, iterations, max_iters)
    if status is not None:
        return LpSolution(status, iterations=iterations)

    basis.refactor()
    x_full = np.zeros(n_total)
    x_full[basis.columns] = basis.values()
    x = x_full[:n_x]
    y = costs[basis.columns] @ basis.inverse
    reduced = costs - y @ basis.a
    duals = np.zeros(m)
    duals[rows] = y * sign[rows]
    return LpSolution(OPTIMAL, x=x, objective=float(lp.objective @ x),
                      duals=duals, dual_objective=float(y @ basis.b),
                      iterations=iterations, reduced_costs=reduced)
