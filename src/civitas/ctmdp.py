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
        for i in range(S):
            for a in range(A):
                if not self.admissible[i, a]:
                    continue
                off = np.delete(self.q[i, :, a], i)
                if np.any(off < 0):
                    raise ValueError(f"negative off-diagonal rate in state {self.states[i]}")
                if abs(self.q[i, :, a].sum()) > GENERATOR_TOL * max(1.0, np.abs(self.q[i, :, a]).max()):
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

    observed_dwell = [d for d in shift_log.dwell.values() if d > 0]
    mean_dwell = (sum(observed_dwell) / len(observed_dwell)) if observed_dwell else 1.0

    q = np.zeros((S, S, A))
    prior_pairs = []
    for i, state in enumerate(states):
        for a, action in enumerate(actions):
            dwell = shift_log.dwell.get((state, action), 0.0)
            if dwell > 0:
                for (s, act, nxt), count in shift_log.shifts.items():
                    if s == state and act == action and nxt in sidx:
                        q[i, sidx[nxt], a] = count / dwell
            elif S > 1:
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
    pairs = m.pairs()
    n = len(pairs)
    col = {pa: idx for idx, pa in enumerate(pairs)}
    objective = np.array([m.rewards[0, i, a] for i, a in pairs])

    eq = []
    S = len(m.states)
    for j in range(S):
        row = np.zeros(n)
        for (i, a), idx in col.items():
            if i == j:
                # total exit rate out of j under a (equals -q[j,j,a])
                row[idx] += -m.q[j, j, a]
            else:
                row[idx] -= m.q[i, j, a]
        eq.append((row, 0.0))
    eq.append((np.ones(n), 1.0))

    ge = []
    for k in range(1, m.k):
        row = np.array([m.rewards[k, i, a] for i, a in pairs])
        ge.append((row, m.bounds[k - 1]))

    names = tuple(f"x[{m.states[i]},{m.actions[a]}]" for i, a in pairs)
    return simplex.LinearProgram.build(objective, eq=eq, ge=ge, names=names)


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
    for a, action in enumerate(m.actions):
        for i, si in enumerate(m.states):
            for j, sj in enumerate(m.states):
                if i != j and m.q[i, j, a] != 0.0 and m.admissible[i, a]:
                    w.writerow(["rate", si, sj, action, "", "%.9g" % m.q[i, j, a]])
    for k in range(m.k):
        for a, action in enumerate(m.actions):
            for i, si in enumerate(m.states):
                if m.admissible[i, a]:
                    w.writerow(["reward", si, "", action, k, "%.9g" % m.rewards[k, i, a]])
    for k, bound in enumerate(m.bounds, start=1):
        w.writerow(["bound", "", "", "", k, "%.9g" % bound])
    return buf.getvalue()


def model_from_csv(text: str) -> Ctmdp:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:1] != ["kind"]:
        raise ValueError("missing CTMDP CSV header")
    states: list[str] = []
    actions: list[str] = []
    rates, rewards, bounds = [], [], {}
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
                for s in (i, j):
                    if s not in states:
                        states.append(s)
                if a not in actions:
                    actions.append(a)
            elif kind == "reward":
                rewards.append((int(k), i, a, float(value)))
                if i not in states:
                    states.append(i)
                if a not in actions:
                    actions.append(a)
            elif kind == "bound":
                bounds[int(k)] = float(value)
            else:
                raise ValueError(f"unknown row kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"row {n}: {exc}") from exc
    S, A = len(states), len(actions)
    K = max((k for k, *_ in rewards), default=0) + 1
    sidx = {s: i for i, s in enumerate(states)}
    aidx = {a: i for i, a in enumerate(actions)}
    q = np.zeros((S, S, A))
    for i, j, a, v in rates:
        q[sidx[i], sidx[j], aidx[a]] = v
    r = np.zeros((K, S, A))
    for k, i, a, v in rewards:
        r[k, sidx[i], aidx[a]] = v
    bound_list = tuple(bounds.get(k, 0.0) for k in range(1, K))
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
