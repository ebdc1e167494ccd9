"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves  maximize c.x  subject to  A_eq x = b_eq,  A_ge x >= b_ge,  x >= 0.
The problems this library produces are small (hundreds of variables at
most), so a dense tableau with a fixed pivot tolerance is plenty and keeps
results bit-reproducible.  Final simplex multipliers are reported so
callers can verify the duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
DEFAULT_MAX_ITERS = 10_000

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
    names: tuple[str, ...] = ()

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
        if self.names and len(self.names) != n:
            raise ValueError("names length mismatch")

    @classmethod
    def build(cls, objective, eq=(), ge=(), names=()) -> "LinearProgram":
        """Assemble from (row, rhs) pair lists."""
        c = np.asarray(objective, dtype=float)
        n = len(c)

        def stack(rows):
            if not rows:
                return np.zeros((0, n)), np.zeros(0)
            lhs = np.array([np.asarray(r, dtype=float) for r, _ in rows])
            rhs = np.array([float(b) for _, b in rows])
            return lhs, rhs

        eq_lhs, eq_rhs = stack(list(eq))
        ge_lhs, ge_rhs = stack(list(ge))
        return cls(c, eq_lhs, eq_rhs, ge_lhs, ge_rhs, tuple(names))


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    dual_objective: float | None = None
    iterations: int = 0

    @property
    def duality_gap(self) -> float | None:
        if self.objective is None or self.dual_objective is None:
            return None
        return abs(self.objective - self.dual_objective)


def _bland_step(tab: np.ndarray, basis: list[int], costs: np.ndarray) -> int | None:
    """One pivot; returns entering column, None at optimum, -1 if unbounded."""
    n = tab.shape[1] - 1
    cb = costs[basis]
    reduced = costs[:n] - cb @ tab[:, :n]
    improving = np.flatnonzero(reduced > PIVOT_TOL)
    if not improving.size:
        return None
    entering = int(improving[0])
    column = tab[:, entering]
    rows = np.flatnonzero(column > PIVOT_TOL)
    ratios = tab[rows, -1] / column[rows]
    best_row, best_ratio = -1, np.inf
    # Bland tie-break, in row order: smallest basis index leaves.  The
    # tolerance makes the winner depend on the scan order, so no argmin.
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if ratio < best_ratio - PIVOT_TOL or (
                abs(ratio - best_ratio) <= PIVOT_TOL
                and (best_row < 0 or basis[i] < basis[best_row])):
            best_row, best_ratio = i, ratio
    if best_row < 0:
        return -1
    _pivot(tab, best_row, entering)
    basis[best_row] = entering
    return entering


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Eliminate `col` from every row but `row`, as one rank-1 update.

    Rows whose entry in `col` is zero are masked out, as a per-row
    elimination skips them: subtracting 0 * pivot row would turn their
    -0.0 entries into 0.0 and an infinite pivot-row entry into nan.
    """
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    np.subtract(tab, factors[:, None] * tab[row], out=tab,
                where=(factors != 0.0)[:, None])


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
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial basis, minimize the artificial mass.
    tab = np.hstack([A, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n_total, n_total + m))
    phase1_costs = np.zeros(n_total + m)
    phase1_costs[n_total:] = -1.0

    iterations = 0
    while iterations < max_iters:
        step = _bland_step(tab, basis, phase1_costs)
        iterations += 1
        if step is None:
            break
        if step == -1:  # cannot happen in phase 1 (bounded below by 0)
            return LpSolution(INFEASIBLE, iterations=iterations)
    else:
        return LpSolution(ITERATION_LIMIT, iterations=iterations)

    artificial_mass = -float(phase1_costs[basis] @ tab[:, -1])
    if artificial_mass > FEAS_TOL:
        return LpSolution(INFEASIBLE, iterations=iterations)

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep_rows = []
    for i in range(m):
        if basis[i] >= n_total:
            pivot_col = next((j for j in range(n_total)
                              if abs(tab[i, j]) > PIVOT_TOL), None)
            if pivot_col is None:
                continue  # redundant constraint row
            _pivot(tab, i, pivot_col)
            basis[i] = pivot_col
        keep_rows.append(i)
    tab = np.hstack([tab[np.ix_(keep_rows, list(range(n_total)))],
                     tab[keep_rows, -1:].reshape(len(keep_rows), 1)])
    basis = [basis[i] for i in keep_rows]
    A = A[keep_rows]
    b = b[keep_rows]

    costs = np.zeros(n_total)
    costs[:n_x] = lp.objective
    while iterations < max_iters:
        step = _bland_step(tab, basis, costs)
        iterations += 1
        if step is None:
            break
        if step == -1:
            return LpSolution(UNBOUNDED, iterations=iterations)
    else:
        return LpSolution(ITERATION_LIMIT, iterations=iterations)

    x_full = np.zeros(n_total)
    for i, var in enumerate(basis):
        x_full[var] = tab[i, -1]
    x = x_full[:n_x]
    objective = float(lp.objective @ x)

    # Multipliers from the final basis: y solves B'y = c_B.
    duals = None
    dual_objective = None
    if basis:
        B = A[:, basis]
        try:
            y = np.linalg.solve(B.T, costs[basis])
            duals = y
            dual_objective = float(y @ b)
        except np.linalg.LinAlgError:
            pass
    return LpSolution(OPTIMAL, x=x, objective=objective, duals=duals,
                      dual_objective=dual_objective, iterations=iterations)
