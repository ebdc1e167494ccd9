"""Constrained continuous-time Markov decision processes over traffic scenarios.

Each schedule-table column is one state; actions are the alternative
routes through the area.  Transition rates are estimated from observed
scenario shifts, rewards are cars serviced per table period, and the
long-run control problem is an occupation-measure linear program solved
by the in-house simplex.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .ctg import Scenario, ScheduleTable, scenario_name

GENERATOR_TOL = 1e-12
OCCUPATION_TOL = 1e-9
BALANCE_TOL = 1e-9
DUALITY_TOL = 1e-8
OPTIMALITY_TOL = 1e-9


@dataclass(frozen=True)
class Ctmdp:
    """The tuple {states, actions, admissible sets, rates, rewards, bounds}.

    `q[i, j, a]` is the transition rate from state i to j under action a;
    generator rows sum to zero.  `rewards[k, i, a]` holds the reward rate
    per criterion; criterion 0 is the objective and criteria 1.. carry the
    lower bounds in `bounds`.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    admissible: np.ndarray   # bool (S, A)
    q: np.ndarray            # (S, S, A)
    rewards: np.ndarray      # (K, S, A)
    bounds: tuple[float, ...] = ()
    prior_pairs: tuple[tuple[str, str], ...] = ()  # (state, action) rated by the fallback prior

    def __post_init__(self):
        S, A = len(self.states), len(self.actions)
        if self.q.shape != (S, S, A):
            raise ValueError(f"q shape {self.q.shape} != {(S, S, A)}")
        if self.admissible.shape != (S, A):
            raise ValueError("admissible mask shape mismatch")
        if self.rewards.ndim != 3 or self.rewards.shape[1:] != (S, A):
            raise ValueError("rewards shape mismatch")
        if len(self.bounds) != self.rewards.shape[0] - 1:
            raise ValueError("need one bound per criterion beyond the objective")
        if not np.all(self.admissible.any(axis=1)):
            raise ValueError("every state needs a non-empty admissible action set")
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("rewards must be finite")
        if not np.all(np.isfinite(self.bounds)):
            raise ValueError("bounds must be finite")
        # rows[i, a] is the generator row q[i, :, a].  Summed along this
        # contiguous last axis, each row adds in the pairwise order of its
        # own `.sum()`.  The first admissible pair in state-major order that
        # fails names the error, a negative rate before a nonzero sum.
        rows = np.ascontiguousarray(self.q.transpose(0, 2, 1))
        negative = ((rows < 0) & ~np.eye(S, dtype=bool)[:, None, :]).any(axis=2)
        unbalanced = np.abs(rows.sum(axis=2)) > GENERATOR_TOL * np.maximum(
            1.0, np.abs(rows).max(axis=2, initial=0.0))
        failing = (negative | unbalanced) & self.admissible
        if failing.any():
            i, a = divmod(int(failing.argmax()), A)
            if negative[i, a]:
                raise ValueError(f"negative off-diagonal rate in state {self.states[i]}")
            raise ValueError(f"generator row {self.states[i]}/{self.actions[a]} does not sum to 0")

    @property
    def k(self) -> int:
        return self.rewards.shape[0]

    def pairs(self) -> list[tuple[int, int]]:
        """Admissible (state index, action index) pairs in state-major order."""
        S, A = self.admissible.shape
        return [(i, a) for i in range(S) for a in range(A) if self.admissible[i, a]]


def make_ctmdp(states, actions, q, rewards, admissible=None, bounds=(),
               prior_pairs=()) -> Ctmdp:
    """Constructor that fills diagonals so generator rows sum to zero."""
    states, actions = tuple(states), tuple(actions)
    q = np.array(q, dtype=float)
    rewards = np.array(rewards, dtype=float)
    if rewards.ndim == 2:
        rewards = rewards[None, :, :]
    S, A = len(states), len(actions)
    if admissible is None:
        admissible = np.ones((S, A), dtype=bool)
    else:
        admissible = np.asarray(admissible, dtype=bool)
    for i in range(S):
        for a in range(A):
            off = q[i, :, a].sum() - q[i, i, a]
            q[i, i, a] = -off
    return Ctmdp(states, actions, admissible, q, rewards, tuple(bounds),
                 tuple(prior_pairs))


def state_name(zone: str, scenario: Scenario) -> str:
    """The CTMDP state of a zone's schedule-table column."""
    return f"{zone}:{scenario_name(scenario)}"


@dataclass
class ShiftLog:
    """Observed scenario shifts: dwell time and transition counts per action."""

    dwell: dict[tuple[str, str], float] = field(default_factory=dict)
    shifts: dict[tuple[str, str, str], int] = field(default_factory=dict)

    def record(self, state: str, action: str, dwell: float,
               next_state: str | None = None) -> None:
        if not 0 <= dwell < np.inf:
            raise ValueError("dwell must be finite and >= 0")
        key = (state, action)
        self.dwell[key] = self.dwell.get(key, 0.0) + dwell
        if next_state is not None and next_state != state:
            skey = (state, action, next_state)
            self.shifts[skey] = self.shifts.get(skey, 0) + 1

    def observed_actions(self) -> tuple[str, ...]:
        names = {a for _, a in self.dwell}
        names.update(a for _, a, _ in self.shifts)
        return tuple(sorted(names))


def from_schedule_tables(tables: list[ScheduleTable], shift_log: ShiftLog) -> Ctmdp:
    """One state per table column across all tables; rates from the log.

    The objective reward of a state is the total vehicle count over its
    column's schedule.  State/action pairs never observed in the log fall
    back to a uniform prior rate (flagged in `prior_pairs`, never silent).
    """
    states: list[str] = []
    reward_of: list[float] = []
    for table in tables:
        for scenario, sched in table.columns():
            states.append(state_name(table.zone, scenario))
            reward_of.append(sched.graph.total_n())
    if not states:
        raise ValueError("no schedule-table columns")
    actions = shift_log.observed_actions() or ("default",)
    S, A = len(states), len(actions)
    sidx = {s: i for i, s in enumerate(states)}
    if len(sidx) < S:
        raise ValueError("two schedule tables of one zone give duplicate states")

    observed_dwell = [d for d in shift_log.dwell.values() if d > 0]
    mean_dwell = (sum(observed_dwell) / len(observed_dwell)) if observed_dwell else 1.0

    q = np.zeros((S, S, A))
    aidx = {a: k for k, a in enumerate(actions)}
    for (s, act, nxt), count in shift_log.shifts.items():
        dwell = shift_log.dwell.get((s, act), 0.0)
        if dwell > 0 and s in sidx and nxt in sidx:
            q[sidx[s], sidx[nxt], aidx[act]] = count / dwell
    prior_pairs = []
    for i, state in enumerate(states):
        for a, action in enumerate(actions):
            if S > 1 and not shift_log.dwell.get((state, action), 0.0) > 0:
                prior_pairs.append((state, action))
                q[i, :, a] = 1.0 / (mean_dwell * (S - 1))
                q[i, i, a] = 0.0
    rewards = np.tile(np.array(reward_of)[None, :, None], (1, 1, A))
    return make_ctmdp(states, actions, q, rewards, prior_pairs=prior_pairs)


def build_lp(m: Ctmdp) -> simplex.LinearProgram:
    """Occupation-measure LP: maximize expected reward rate.

    Variables are the admissible (state, action) pairs.  Constraints: one
    stationary-balance equality per state (outflow of the state's mass
    equals inflow from elsewhere), one normalization row summing the
    occupation to 1, and one >= row per bounded criterion.
    """
    states, actions = np.nonzero(m.admissible)  # the pairs, state-major
    # Balance row j holds the exit rate -q[j, j, a] in state j's own
    # columns and the inflow -q[i, j, a] in the others: one expression,
    # whose `0.0 -` turns a zero rate into +0.0 as a sum started at 0 did.
    # The last row is the normalization.
    eq_lhs = np.ones((len(m.states) + 1, len(states)))
    eq_lhs[:-1] = 0.0 - m.q[states, :, actions].T
    eq_rhs = np.append(np.zeros(len(m.states)), 1.0)
    return simplex.LinearProgram(
        np.array(m.rewards[0, states, actions], dtype=float), eq_lhs, eq_rhs,
        np.array(m.rewards[1:, states, actions], dtype=float, order="C"),
        np.array(m.bounds, dtype=float))


class SolutionInvariantError(RuntimeError):
    """An optimal LP solution violated an occupation-measure invariant or
    failed its optimality certificate."""


@dataclass
class CtmdpSolution:
    status: str
    occupation: dict[tuple[str, str], float] = field(default_factory=dict)
    objective: float | None = None
    duality_gap: float | None = None
    iterations: int = 0

    def state_mass(self, state: str) -> float:
        return sum(v for (s, _), v in self.occupation.items() if s == state)


def check_optimality(lp: simplex.LinearProgram, sol: simplex.LpSolution,
                     row_names: tuple[str, ...] = ()) -> None:
    """Raise `SolutionInvariantError` unless `sol` is a certified optimum.

    Every number of the solution must be finite.  Then three conditions,
    over the columns of x and the surplus columns of the >= rows: the
    primal residual (equality rows within `BALANCE_TOL`, >= rows and
    x >= 0 within `OCCUPATION_TOL`); dual feasibility (every reduced cost
    <= `OPTIMALITY_TOL`, and the reported reduced costs equal c - A'y for
    the reported multipliers y); complementary slackness (x_j times
    reduced cost j within `OPTIMALITY_TOL`).  Tolerances on costs scale
    with the largest objective coefficient; a nan fails every condition.
    """
    for name, value in (("occupation", sol.x), ("multiplier", sol.duals),
                        ("reduced cost", sol.reduced_costs),
                        ("objective", [sol.objective, sol.dual_objective])):
        if not np.all(np.isfinite(value)):
            raise SolutionInvariantError(f"non-finite {name} in the solution")
    x = sol.x
    if _beyond(-x, OCCUPATION_TOL):
        raise SolutionInvariantError(f"negative occupation {x.min()}")
    resid = lp.eq_lhs @ x - lp.eq_rhs
    if _beyond(np.abs(resid), BALANCE_TOL):
        worst = int(np.argmax(np.abs(resid)))
        name = row_names[worst] if row_names else f"row {worst}"
        raise SolutionInvariantError(f"primal residual {resid[worst]} at {name}")
    surplus = lp.ge_lhs @ x - lp.ge_rhs
    if _beyond(-surplus, OCCUPATION_TOL):
        raise SolutionInvariantError(f"criterion bound violated by {surplus.min()}")

    tol = OPTIMALITY_TOL * max(1.0, float(np.abs(lp.objective).max(initial=0.0)))
    n_eq = len(lp.eq_rhs)
    y_eq, y_ge = sol.duals[:n_eq], sol.duals[n_eq:]
    reduced = sol.reduced_costs
    # The surplus column of >= row k is -e_k, so its reduced cost is y_k.
    priced = np.concatenate([lp.objective - y_eq @ lp.eq_lhs - y_ge @ lp.ge_lhs,
                             y_ge])
    if _beyond(np.abs(reduced - priced), tol):
        raise SolutionInvariantError("reduced costs do not match the multipliers")
    if _beyond(reduced, tol):
        j = int(np.argmax(reduced))
        raise SolutionInvariantError(f"reduced cost {reduced[j]} > 0 at column {j}:"
                                     " the basis is not optimal")
    slack = np.abs(np.concatenate([x, surplus]) * reduced)
    if _beyond(slack, tol):
        j = int(np.argmax(slack))
        raise SolutionInvariantError(f"complementary slackness violated by"
                                     f" {slack[j]} at column {j}")


def _beyond(values, tol: float) -> bool:
    """Whether any of `values` exceeds `tol`; a nan does (it is not <= tol)."""
    return not np.all(values <= tol)


def solve_model(m: Ctmdp) -> CtmdpSolution:
    """Solve the occupation LP and verify the solution invariants."""
    lp = build_lp(m)
    sol = simplex.solve(lp)
    if sol.status != simplex.OPTIMAL:
        return CtmdpSolution(sol.status, iterations=sol.iterations)
    check_optimality(lp, sol, m.states + ("normalization",))
    if sol.duality_gap is None or _beyond(sol.duality_gap, DUALITY_TOL):
        raise SolutionInvariantError(f"duality gap {sol.duality_gap}")
    x = sol.x
    occupation = {(m.states[i], m.actions[a]): float(x[idx])
                  for idx, (i, a) in enumerate(m.pairs())}
    return CtmdpSolution(sol.status, occupation, float(sol.objective),
                         float(sol.duality_gap), sol.iterations)


def extract_policy(sol: CtmdpSolution, m: Ctmdp) -> dict[str, dict[str, float]]:
    """Randomized stationary policy from the occupation measure.

    States with zero occupation get the uniform distribution over their
    admissible actions (any choice is reward-neutral there).
    """
    if sol.status != simplex.OPTIMAL:
        raise ValueError(f"cannot extract a policy from status {sol.status!r}")
    policy: dict[str, dict[str, float]] = {}
    for i, state in enumerate(m.states):
        admissible = [m.actions[a] for a in range(len(m.actions))
                      if m.admissible[i, a]]
        mass = {a: sol.occupation.get((state, a), 0.0) for a in admissible}
        total = sum(mass.values())
        if total > 0:
            policy[state] = {a: v / total for a, v in mass.items()}
        else:
            policy[state] = {a: 1.0 / len(admissible) for a in admissible}
    return policy


def model_to_csv(m: Ctmdp) -> str:
    """Rate triples plus reward and bound rows."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["kind", "i", "j", "a", "k", "value"])
    rates = m.q.transpose(2, 0, 1)  # [a, i, j], so rows come action-major
    listed = ((rates != 0.0) & ~np.eye(len(m.states), dtype=bool)
              & m.admissible.T[:, :, None])
    for a, i, j, rate in zip(*listed.nonzero(), rates[listed].tolist()):
        w.writerow(["rate", m.states[i], m.states[j], m.actions[a], "", "%.9g" % rate])
    for k in range(m.k):
        for a, action in enumerate(m.actions):
            for i, si in enumerate(m.states):
                if m.admissible[i, a]:
                    w.writerow(["reward", si, "", action, k, "%.9g" % m.rewards[k, i, a]])
    for k, bound in enumerate(m.bounds, start=1):
        w.writerow(["bound", "", "", "", k, "%.9g" % bound])
    return buf.getvalue()


def model_from_csv(text: str) -> Ctmdp:
    """A model from `model_to_csv` rows, at least one of them a rate or a
    reward row.

    Criteria are numbered from 0 without gaps, and each bound names one
    beyond the objective.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:1] != ["kind"]:
        raise ValueError("missing CTMDP CSV header")
    states: list[str] = []
    actions: list[str] = []
    rates, rewards, bounds = [], [], {}
    first_reward_row: dict[int, int] = {}  # criterion -> its first reward row
    row_of: dict[tuple, int] = {}  # the cells a row gives a value for -> its row
    for n, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ValueError(f"row {n}: expected 6 fields kind,i,j,a,k,value,"
                             f" got {len(row)}")
        kind, i, j, a, k, value = row
        try:
            if kind == "rate":
                rate = float(value)
                if not 0 <= rate < np.inf:
                    raise ValueError(f"rate {value!r} must be a finite number >= 0")
                rates.append((i, j, a, rate))
                cell = {"i": i, "j": j, "a": a}
                for s in (i, j):
                    if s not in states:
                        states.append(s)
                if a not in actions:
                    actions.append(a)
            elif kind == "reward":
                criterion, reward = int(k), float(value)
                if criterion < 0:
                    raise ValueError(f"reward k {k!r} must be >= 0")
                if not np.isfinite(reward):
                    raise ValueError(f"reward {value!r} must be a finite number")
                rewards.append((criterion, i, a, reward))
                cell = {"i": i, "a": a, "k": criterion}
                first_reward_row.setdefault(criterion, n)
                if i not in states:
                    states.append(i)
                if a not in actions:
                    actions.append(a)
            elif kind == "bound":
                criterion, bound = int(k), float(value)
                if not np.isfinite(bound):
                    raise ValueError(f"bound {value!r} must be a finite number")
                bounds[criterion] = (bound, n)
                cell = {"k": criterion}
            else:
                raise ValueError(f"unknown row kind {kind!r}")
            key = (kind, *cell.values())
            if key in row_of:
                raise ValueError(f"repeats row {row_of[key]}: a second {kind} for "
                                 + ", ".join(f"{c}={v}" for c, v in cell.items()))
            row_of[key] = n
        except ValueError as exc:
            raise ValueError(f"row {n}: {exc}") from exc
    if not states:
        raise ValueError("no rate or reward rows: the model has no states")
    criteria = sorted(first_reward_row)
    for expected, criterion in enumerate(criteria):
        if criterion != expected:
            raise ValueError(f"row {first_reward_row[criterion]}: reward k {criterion}"
                             f" skips criterion {expected}, which has no reward rows")
    K = max(len(criteria), 1)
    for criterion, (_, n) in bounds.items():
        if not 1 <= criterion < K:
            raise ValueError(f"row {n}: bound k {criterion} names no reward criterion"
                             f" beyond the objective (reward rows give k 0 to {K - 1})")
    S, A = len(states), len(actions)
    sidx = {s: i for i, s in enumerate(states)}
    aidx = {a: i for i, a in enumerate(actions)}
    q = np.zeros((S, S, A))
    for i, j, a, v in rates:
        q[sidx[i], sidx[j], aidx[a]] = v
    r = np.zeros((K, S, A))
    for k, i, a, v in rewards:
        r[k, sidx[i], aidx[a]] = v
    bound_list = tuple(bounds[k][0] if k in bounds else 0.0 for k in range(1, K))
    return make_ctmdp(states, actions, q, r, bounds=bound_list)


def solution_to_csv(sol: CtmdpSolution, m: Ctmdp) -> str:
    policy = extract_policy(sol, m)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["i", "a", "x", "pi"])
    for state in m.states:
        for action in m.actions:
            x = sol.occupation.get((state, action))
            if x is None:
                continue
            w.writerow([state, action, "%.9g" % x, "%.9g" % policy[state][action]])
    return buf.getvalue()
