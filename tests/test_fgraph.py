import itertools
from fractions import Fraction

import numpy as np
import pytest

from civitas import ctmdp
from civitas.fgraph import (AllocationInfeasible, FgNode, FunctionGraph,
                            PerfDistribution, attach, distribute_goals,
                            evaluate, graph_to_csv)


def dist(d):
    return PerfDistribution.from_dict(d)


def dyadic_dist(rng, support_size):
    """Random distribution with exactly representable values and weights."""
    values = sorted(rng.choice(np.arange(1, 64), size=support_size,
                               replace=False) * 0.25)
    cuts = sorted(rng.choice(np.arange(1, 64), size=support_size - 1,
                             replace=False)) if support_size > 1 else []
    weights = np.diff([0, *cuts, 64]) / 64.0
    return dist({float(v): float(p) for v, p in zip(values, weights)})


def brute_force_evaluate(fg):
    """Oracle: per joint duration assignment, completion = max over paths."""
    order = [n.id for n in fg.nodes]
    preds = {n.id: [] for n in fg.nodes}
    for a, b in fg.arcs:
        preds[b].append(a)

    def paths_to(node):
        if not preds[node]:
            return [[node]]
        return [p + [node] for q in preds[node] for p in paths_to(q)]

    out = {}
    for sink in fg.sinks():
        mass = {}
        all_paths = paths_to(sink)
        supports = [fg.node(n).dist.points for n in order]
        for combo in itertools.product(*supports):
            prob = 1.0
            duration = {}
            for node_id, (value, p) in zip(order, combo):
                prob *= p
                duration[node_id] = value
            completion = max(sum(duration[n] for n in path) for path in all_paths)
            mass[completion] = mass.get(completion, 0.0) + prob
        d = PerfDistribution.from_dict(mass)
        out[sink] = (d, d.expectation())
    return out


class TestPerfDistribution:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            dist({1.0: 0.5, 2.0: 0.6})

    @pytest.mark.parametrize("points", [
        ((1.0, float("nan")), (2.0, 1.0)),
        ((float("nan"), 1.0),),
        ((float("inf"), 1.0),),
        ((1.0, 0.5), (2.0, float("inf"))),
    ])
    def test_non_finite_points_rejected(self, points):
        with pytest.raises(ValueError, match="non-finite"):
            PerfDistribution(points)
        with pytest.raises(ValueError):
            dist({1.0: -0.1, 2.0: 1.1})

    def test_expectation(self):
        assert dist({10.0: 0.5, 20.0: 0.5}).expectation() == 15.0


class TestAttach:
    @pytest.fixture()
    def solved(self):
        rng = np.random.default_rng(3)
        q = np.zeros((2, 2, 1))
        q[0, 1, 0] = 1.0
        q[1, 0, 0] = 1.0
        m = ctmdp.make_ctmdp(("sA", "sB"), ("go",), q, np.array([[4.0], [4.0]]))
        sol = ctmdp.solve_model(m)
        return m, sol

    def test_uniform_mass_over_two_makespans(self, solved):
        m, sol = solved
        fg = FunctionGraph((FgNode("area", PerfDistribution.point(0.0)),))
        out = attach(fg, "area", sol, m, {"sA": 10.0, "sB": 20.0})
        assert dict(out.node("area").dist.points) == {10.0: 0.5, 20.0: 0.5}

    def test_equal_makespans_collapse_to_point(self, solved):
        m, sol = solved
        fg = FunctionGraph((FgNode("area", PerfDistribution.point(0.0)),))
        out = attach(fg, "area", sol, m, {"sA": 10.0, "sB": 10.0})
        assert dict(out.node("area").dist.points) == {10.0: 1.0}

    def test_probabilities_match_state_marginals(self, solved):
        m, sol = solved
        fg = FunctionGraph((FgNode("area", PerfDistribution.point(0.0)),))
        out = attach(fg, "area", sol, m, {"sA": 10.0, "sB": 20.0})
        got = dict(out.node("area").dist.points)
        assert got[10.0] == pytest.approx(sol.state_mass("sA"), abs=1e-12)
        assert got[20.0] == pytest.approx(sol.state_mass("sB"), abs=1e-12)

    def test_non_optimal_rejected(self, solved):
        m, _ = solved
        fg = FunctionGraph((FgNode("area", PerfDistribution.point(0.0)),))
        bad = ctmdp.CtmdpSolution("infeasible")
        with pytest.raises(ValueError):
            attach(fg, "area", bad, m, {})


class TestNode:
    def test_node_by_id(self):
        a, b = FgNode("a", dist({1.0: 1.0})), FgNode("b", dist({2.0: 1.0}))
        assert FunctionGraph((a, b), (("a", "b"),)).node("b") is b

    def test_unknown_node_names_it(self):
        fg = FunctionGraph((FgNode("a", dist({1.0: 1.0})),))
        with pytest.raises(KeyError, match="no node 'zz' in the function graph"):
            fg.node("zz")


class TestEvaluate:
    def test_single_point_node(self):
        fg = FunctionGraph((FgNode("n", dist({10.0: 1.0})),))
        d, mean = evaluate(fg)["n"]
        assert dict(d.points) == {10.0: 1.0}
        assert mean == 10.0

    def test_chain_convolves(self):
        fg = FunctionGraph((FgNode("a", dist({10.0: 0.5, 20.0: 0.5})),
                            FgNode("b", dist({5.0: 1.0}))), (("a", "b"),))
        d, mean = evaluate(fg)["b"]
        assert dict(d.points) == {15.0: 0.5, 25.0: 0.5}
        assert mean == 20.0

    def test_diamond_matches_path_enumeration_exactly(self):
        rng = np.random.default_rng(5)
        fg = FunctionGraph(
            (FgNode("src", dyadic_dist(rng, 2)),
             FgNode("left", dyadic_dist(rng, 3)),
             FgNode("right", dyadic_dist(rng, 2)),
             FgNode("sink", dyadic_dist(rng, 2))),
            (("src", "left"), ("src", "right"),
             ("left", "sink"), ("right", "sink")))
        got = evaluate(fg)
        want = brute_force_evaluate(fg)
        assert dict(got["sink"][0].points) == dict(want["sink"][0].points)
        assert got["sink"][1] == want["sink"][1]

    def test_random_small_graphs_match_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            nodes = tuple(FgNode(f"n{i}", dyadic_dist(rng, int(rng.integers(1, 5))))
                          for i in range(n))
            arcs = tuple((f"n{i}", f"n{j}") for i in range(n)
                         for j in range(i + 1, n) if rng.random() < 0.4)
            fg = FunctionGraph(nodes, arcs)
            got = evaluate(fg)
            want = brute_force_evaluate(fg)
            assert set(got) == set(want)
            for sink in got:
                assert dict(got[sink][0].points) == dict(want[sink][0].points)

    def test_unconnected_nodes_evaluated_separately(self):
        fg = FunctionGraph((FgNode("a", dist({3.0: 1.0})),
                            FgNode("b", dist({7.0: 1.0}))))
        out = evaluate(fg)
        assert out["a"][1] == 3.0
        assert out["b"][1] == 7.0

    def test_cycle_detected_at_construction(self):
        with pytest.raises(ValueError):
            FunctionGraph((FgNode("a", dist({1.0: 1.0})),
                           FgNode("b", dist({1.0: 1.0}))),
                          (("a", "b"), ("b", "a")))


class TestDistributeGoals:
    def make_fg(self, caps):
        nodes = tuple(FgNode(f"n{i}", dist({10.0: 1.0}), cap)
                      for i, cap in enumerate(caps))
        return FunctionGraph(nodes)

    def test_symmetric_split(self):
        alloc = distribute_goals(self.make_fg([5.0, 5.0]), 100, 60.0)
        assert alloc.target("n0") == 50 and alloc.target("n1") == 50

    def test_proportional_split(self):
        alloc = distribute_goals(self.make_fg([30.0, 10.0]), 100, 60.0)
        assert alloc.target("n0") == 75 and alloc.target("n1") == 25

    def test_largest_remainder_sums_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            caps = [float(rng.uniform(0.1, 10)) for _ in range(int(rng.integers(2, 6)))]
            target = int(rng.integers(1, 500))
            alloc = distribute_goals(self.make_fg(caps), target, 60.0)
            assert sum(t for _, t in alloc.targets) == target
            total = sum(caps)
            for (node, t), cap in zip(alloc.targets, caps):
                exact = Fraction(target) * Fraction(cap).limit_denominator(10**9) \
                    / sum(Fraction(c).limit_denominator(10**9) for c in caps)
                assert abs(t - float(exact)) <= 1.0

    def test_deadlines_scale_with_expected_time_share(self):
        nodes = (FgNode("a", dist({10.0: 1.0}), 1.0),
                 FgNode("b", dist({30.0: 1.0}), 1.0))
        alloc = distribute_goals(FunctionGraph(nodes), 10, 80.0)
        assert alloc.deadline("a") == pytest.approx(20.0, abs=1e-9)
        assert alloc.deadline("b") == pytest.approx(60.0, abs=1e-9)

    def test_zero_capability_is_explicit_infeasibility(self):
        with pytest.raises(AllocationInfeasible):
            distribute_goals(self.make_fg([0.0, 0.0]), 10, 60.0)


class TestGraphCsv:
    def test_nodes_and_arcs_serialized(self):
        fg = FunctionGraph((FgNode("a", dist({3.0: 0.5, 5.0: 0.5}), 7.0),
                            FgNode("b", dist({2.0: 1.0}), 1.0)),
                           (("a", "b"),))
        lines = graph_to_csv(fg).strip().splitlines()
        assert lines[0] == "kind,node,successor,value,probability,capability"
        assert sum(1 for l in lines if l.startswith("node,a,")) == 2
        assert "arc,a,b,,," in lines
