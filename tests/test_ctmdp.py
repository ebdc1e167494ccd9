import copy
import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from civitas import ctg as ctgmod
from civitas import simplex
from civitas.ctmdp import (DUALITY_TOL, CtmdpSolution, ShiftLog,
                           SolutionInvariantError, build_lp, check_optimality,
                           extract_policy, from_schedule_tables, make_ctmdp,
                           model_from_csv, model_to_csv, solution_to_csv,
                           solve_model)


def random_model(rng, S, A, restrict=True):
    q = np.zeros((S, S, A))
    for a in range(A):
        for i in range(S):
            for j in range(S):
                if i != j:
                    q[i, j, a] = rng.uniform(0.1, 2.0)
    r = rng.uniform(0, 10, size=(S, A))
    admissible = np.ones((S, A), dtype=bool)
    if restrict:
        for i in range(S):
            for a in range(A):
                if rng.random() < 0.2 and admissible[i].sum() > 1:
                    admissible[i, a] = False
    return make_ctmdp(tuple(f"s{i}" for i in range(S)),
                      tuple(f"a{a}" for a in range(A)),
                      q, r, admissible=admissible)


def best_deterministic_policy(m):
    """Brute-force oracle: stationary averages of all deterministic policies."""
    S, A = len(m.states), len(m.actions)
    choices = [[a for a in range(A) if m.admissible[i, a]] for i in range(S)]
    best = -np.inf
    for combo in itertools.product(*choices):
        Q = np.array([[m.q[i, j, combo[i]] for j in range(S)] for i in range(S)])
        M = Q.T.copy()
        M[-1, :] = 1.0
        rhs = np.zeros(S)
        rhs[-1] = 1.0
        mu = np.linalg.solve(M, rhs)
        best = max(best, sum(mu[i] * m.rewards[0, i, combo[i]] for i in range(S)))
    return best


def simulate_long_run(m, policy, horizon, seed):
    """Event-by-event trajectory reward oracle for a randomized policy."""
    import math
    import random
    rng = random.Random(seed)
    S = len(m.states)
    # Per state: cumulative action probabilities, and per action the exit
    # rate, jump targets with cumulative weights, and the reward rate.
    act_cum = []
    dynamics = []
    for i, state in enumerate(m.states):
        actions = [(a, p) for a, p in policy[state].items() if p > 0]
        cum, acc = [], 0.0
        for a, p in actions:
            acc += p
            cum.append((acc, m.actions.index(a)))
        act_cum.append(cum)
        per_action = {}
        for _, a in cum:
            rate = -m.q[i, i, a]
            jumps, w = [], 0.0
            for j in range(S):
                if j != i and m.q[i, j, a] > 0:
                    w += m.q[i, j, a] / rate
                    jumps.append((w, j))
            per_action[a] = (rate, jumps, m.rewards[0, i, a])
        dynamics.append(per_action)
    i = 0
    t = 0.0
    total = 0.0
    while t < horizon:
        u = rng.random()
        a = next(idx for acc, idx in act_cum[i] if u <= acc)
        rate, jumps, reward = dynamics[i][a]
        dwell = -math.log(1.0 - rng.random()) / rate if rate > 0 else horizon - t
        dwell = min(dwell, horizon - t)
        total += reward * dwell
        t += dwell
        if rate > 0 and t < horizon:
            v = rng.random()
            i = next(j for acc, j in jumps if v <= acc)
    return total / horizon


class TestConstruction:
    def test_generator_rows_sum_to_zero(self):
        m = random_model(np.random.default_rng(1), 3, 2)
        for i in range(3):
            for a in range(2):
                assert abs(m.q[i, :, a].sum()) < 1e-12

    def test_negative_off_diagonal_rejected(self):
        q = np.zeros((2, 2, 1))
        q[0, 1, 0] = -1.0
        with pytest.raises(ValueError):
            make_ctmdp(("a", "b"), ("x",), q, np.zeros((2, 1)))

    def test_empty_admissible_set_rejected(self):
        q = np.zeros((2, 2, 1))
        with pytest.raises(ValueError):
            make_ctmdp(("a", "b"), ("x",), q, np.zeros((2, 1)),
                       admissible=np.array([[True], [False]]))


class TestFromScheduleTables:
    @pytest.fixture()
    def table(self, twin_ctg_text):
        return ctgmod.build_table(ctgmod.load_ctg(twin_ctg_text))

    def test_one_state_per_column(self, table):
        log = ShiftLog()
        m = from_schedule_tables([table], log)
        assert len(m.states) == 8

    def test_two_tables_double_the_states(self, table):
        import dataclasses
        other = dataclasses.replace(table, zone="Z2")
        m = from_schedule_tables([table, other], ShiftLog())
        assert len(m.states) == 16

    def test_rate_estimator_arithmetic(self, table):
        log = ShiftLog()
        a, b = "Z:(L,L,L)", "Z:(L,L,H)"
        for _ in range(5):
            log.record(a, "default", 2.0, b)
        m = from_schedule_tables([table], log)
        i, j = m.states.index(a), m.states.index(b)
        assert m.q[i, j, 0] == pytest.approx(5 / 10.0, abs=1e-12)

    def test_unvisited_pairs_flagged_not_silent(self, table):
        log = ShiftLog()
        log.record("Z:(L,L,L)", "default", 10.0, "Z:(L,L,H)")
        m = from_schedule_tables([table], log)
        assert len(m.prior_pairs) == 7
        assert all(s != "Z:(L,L,L)" for s, _ in m.prior_pairs)

    def test_reward_is_column_vehicle_total(self, table):
        m = from_schedule_tables([table], ShiftLog())
        i = m.states.index("Z:(L,L,L)")
        assert m.rewards[0, i, 0] == table.schedules[("L", "L", "L")].graph.total_n()


class TestBuildLp:
    def test_row_and_variable_counts(self):
        m = random_model(np.random.default_rng(3), 4, 3, restrict=False)
        lp = build_lp(m)
        assert len(lp.objective) == 12
        assert lp.eq_lhs.shape == (5, 12)  # 4 balance rows + normalization
        assert lp.ge_lhs.shape == (0, 12)

    def test_single_state_lp(self):
        q = np.zeros((1, 1, 2))
        m = make_ctmdp(("only",), ("x", "y"), q, np.array([[1.0, 2.0]]))
        lp = build_lp(m)
        assert len(lp.objective) == 2
        sol = solve_model(m)
        assert sol.objective == pytest.approx(2.0, abs=1e-9)

    def test_bounded_criterion_adds_ge_row(self):
        rng = np.random.default_rng(4)
        base = random_model(rng, 2, 2, restrict=False)
        rewards = np.concatenate([base.rewards, rng.uniform(0, 5, (1, 2, 2))])
        m = make_ctmdp(base.states, base.actions, base.q, rewards, bounds=(1.0,))
        lp = build_lp(m)
        assert lp.ge_lhs.shape[0] == 1


class TestSolve:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            m = random_model(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            sol = solve_model(m)
            assert sol.status == "optimal"
            assert abs(sol.objective - best_deterministic_policy(m)) < 1e-6

    def test_occupation_invariants_enforced(self):
        m = random_model(np.random.default_rng(8), 4, 2)
        sol = solve_model(m)
        total = sum(sol.occupation.values())
        assert abs(total - 1.0) < 1e-9
        assert all(v >= -1e-9 for v in sol.occupation.values())
        assert sol.duality_gap <= 1e-8

    def test_infeasible_bound_detected(self):
        rng = np.random.default_rng(9)
        base = random_model(rng, 3, 2, restrict=False)
        rewards = np.concatenate([base.rewards, base.rewards])
        # bound above anything attainable
        m = make_ctmdp(base.states, base.actions, base.q, rewards,
                       bounds=(base.rewards.max() * 10,))
        sol = solve_model(m)
        assert sol.status == "infeasible"

    def test_feasible_bound_respected(self):
        rng = np.random.default_rng(10)
        base = random_model(rng, 3, 2, restrict=False)
        unconstrained = solve_model(base)
        # second criterion = first; bound slightly below the optimum
        bound = unconstrained.objective * 0.9
        rewards = np.concatenate([base.rewards, base.rewards])
        m = make_ctmdp(base.states, base.actions, base.q, rewards, bounds=(bound,))
        sol = solve_model(m)
        assert sol.status == "optimal"
        value = sum(m.rewards[1, m.states.index(s), m.actions.index(a)] * x
                    for (s, a), x in sol.occupation.items())
        assert value >= bound - 1e-9

    def test_transient_states_get_exactly_zero(self):
        """Loop-shaped models (one action) whose first states nothing flows
        into: their occupation is exactly 0, not a rounding residue, as
        `fgraph.attach` keeps every state with positive mass."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            S = int(rng.integers(3, 9))
            transient = int(rng.integers(1, S))
            q = rng.uniform(0.1, 2.0, size=(S, S, 1))
            q[:, :transient, 0] = 0.0
            rewards = rng.uniform(0.0, 10.0, size=(S, 1))
            m = make_ctmdp(tuple(f"s{i}" for i in range(S)), ("default",), q, rewards)
            sol = solve_model(m)
            assert all(sol.occupation[(f"s{i}", "default")] == 0.0
                       for i in range(transient))


def one_pivot_short():
    """A stand-in for `simplex._optimize` whose phase 2 stops one pivot
    before its optimum and reports that basis as optimal."""
    optimize = simplex._optimize

    def short(basis, costs, iterations, max_iters):
        if iterations == 0:  # phase 1 runs to its end
            return optimize(basis, costs, iterations, max_iters)
        _, end = optimize(copy.deepcopy(basis), costs, iterations, max_iters)
        pivots = end - iterations - 1  # the last iteration only prices
        assert pivots > 1, "the LP must need more than one phase-2 pivot"
        status, end = optimize(basis, costs, iterations, iterations + pivots - 1)
        assert status == simplex.ITERATION_LIMIT
        return None, end

    return short


class TestOptimalityCheck:
    def test_fires_one_pivot_short(self):
        m = random_model(np.random.default_rng(13), 6, 3)  # 5 phase-2 pivots
        solve_model(m)  # the full solve passes the check
        with mock.patch.object(simplex, "_optimize", one_pivot_short()):
            sol = simplex.solve(build_lp(m))
            assert sol.status == simplex.OPTIMAL
            assert sol.duality_gap <= DUALITY_TOL  # the gap cannot tell
            with pytest.raises(SolutionInvariantError, match="reduced cost"):
                solve_model(m)

    # max x1 subject to x1 + x2 = 1: optimum x = (1, 0), y = 1, r = (0, -1).
    LP = simplex.LinearProgram.build([1.0, 0.0], eq=[([1.0, 1.0], 1.0)])

    def test_accepts_the_optimum(self):
        sol = simplex.solve(self.LP)
        assert sol.reduced_costs == pytest.approx([0.0, -1.0])
        check_optimality(self.LP, sol)

    @pytest.mark.parametrize("change, message", [
        ({"x": np.array([1.0, 0.5])}, "primal residual"),
        ({"x": np.array([1.5, -0.5])}, "negative occupation"),
        ({"reduced_costs": np.array([0.0, 1.0])}, "do not match"),
        ({"duals": np.array([0.0]), "reduced_costs": np.array([1.0, 0.0])},
         "reduced cost 1.0 > 0"),
        ({"x": np.array([0.0, 1.0])}, "complementary slackness"),
        # nan passes every `value > tol` test; each must still fail
        ({"x": np.array([np.nan, 0.0])}, "non-finite occupation"),
        ({"duals": np.array([np.nan])}, "non-finite multiplier"),
        ({"reduced_costs": np.array([np.nan, -1.0])}, "non-finite reduced cost"),
        ({"objective": np.inf}, "non-finite objective"),
        ({"dual_objective": np.nan}, "non-finite objective"),
    ])
    def test_fires_on_each_condition(self, change, message):
        sol = replace(simplex.solve(self.LP), **change)
        with pytest.raises(SolutionInvariantError, match=message):
            check_optimality(self.LP, sol)

    def test_prices_overflowing_to_nan_fail(self):
        # Finite multipliers whose prices overflow to inf - inf: the nan they
        # give would pass a `value > tol` test.
        lp = simplex.LinearProgram.build([1.0, 0.0], eq=[([2.0, 2.0], 2.0)] * 2)
        sol = simplex.LpSolution(simplex.OPTIMAL, x=np.array([1.0, 0.0]),
                                 objective=1.0, duals=np.array([1e308, -1e308]),
                                 dual_objective=1.0,
                                 reduced_costs=np.array([0.0, -1.0]))
        with np.errstate(all="ignore"), pytest.raises(SolutionInvariantError,
                                                      match="do not match"):
            check_optimality(lp, sol)

    def test_surplus_columns_are_priced(self):
        # max -x subject to x >= 1: the surplus column's reduced cost is y.
        lp = simplex.LinearProgram.build([-1.0], ge=[([1.0], 1.0)])
        sol = simplex.solve(lp)
        assert sol.reduced_costs == pytest.approx([0.0, -1.0])
        wrong_sign = replace(sol, duals=-sol.duals,
                             reduced_costs=np.array([-2.0, 1.0]))
        with pytest.raises(SolutionInvariantError, match="reduced cost 1.0 > 0"):
            check_optimality(lp, wrong_sign)


class TestPolicy:
    def test_concentrated_mass_gives_deterministic_policy(self):
        m = random_model(np.random.default_rng(11), 2, 2, restrict=False)
        sol = solve_model(m)
        policy = extract_policy(sol, m)
        for state in m.states:
            assert sum(policy[state].values()) == pytest.approx(1.0, abs=1e-9)

    def test_split_mass_ratio(self):
        m = random_model(np.random.default_rng(12), 2, 2, restrict=False)
        sol = CtmdpSolution("optimal", {("s0", "a0"): 0.15, ("s0", "a1"): 0.35,
                                        ("s1", "a0"): 0.5})
        policy = extract_policy(sol, m)
        assert policy["s0"]["a0"] == pytest.approx(0.3, abs=1e-12)
        assert policy["s0"]["a1"] == pytest.approx(0.7, abs=1e-12)

    def test_zero_occupation_state_gets_uniform(self):
        m = random_model(np.random.default_rng(13), 2, 2, restrict=False)
        sol = CtmdpSolution("optimal", {("s0", "a0"): 1.0})
        policy = extract_policy(sol, m)
        assert policy["s1"] == {"a0": 0.5, "a1": 0.5}

    def test_non_optimal_rejected(self):
        m = random_model(np.random.default_rng(14), 2, 2)
        with pytest.raises(ValueError):
            extract_policy(CtmdpSolution("infeasible"), m)

    def test_simulated_long_run_matches_lp_objective(self):
        rng = np.random.default_rng(15)
        for seed in (0, 1):
            m = random_model(rng, 3, 2, restrict=False)
            sol = solve_model(m)
            policy = extract_policy(sol, m)
            simulated = simulate_long_run(m, policy, horizon=1_000_000.0,
                                          seed=seed)
            assert simulated == pytest.approx(sol.objective, rel=0.02)


class TestCsv:
    def test_model_round_trip(self):
        m = random_model(np.random.default_rng(16), 3, 2, restrict=False)
        back = model_from_csv(model_to_csv(m))
        assert back.states == m.states
        assert back.actions == m.actions
        assert np.allclose(back.q, m.q, atol=1e-9)
        assert np.allclose(back.rewards, m.rewards, atol=1e-9)

    def test_solution_csv_has_policy_column(self):
        m = random_model(np.random.default_rng(17), 2, 2, restrict=False)
        sol = solve_model(m)
        text = solution_to_csv(sol, m)
        assert text.splitlines()[0] == "i,a,x,pi"
        assert len(text.splitlines()) == 1 + len(sol.occupation)
