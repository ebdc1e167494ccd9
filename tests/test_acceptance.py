"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here.  The fuzzy surface's monotonicity is checked
with an explicit ripple slack (MONOTONE_SLACK below): max-min inference
necessarily dips where two memberships that feed the same rule output
cross (their max falls to 0.5 there for any continuous partition of
unity), which moves the aggregated centroid by up to ~0.005 on the
canonical parameters.  Everything else is exact or uses the stated bound.
"""

import time

import numpy as np

from civitas import cli, ctmdp, fuzzy, metrics
from civitas import ctg as ctgmod
from civitas import fsm as fsmmod
from civitas import registry as regmod
from civitas import world as w
from tests.test_ctg import brute_force_makespan, random_instance
from tests.test_ctmdp import best_deterministic_policy, random_model
from tests.replay import (check_constraints_by_replay, check_zone_balance,
                          events, rule_activations, seed_vehicles)

MONOTONE_SLACK = 0.01


class _Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} criterion {self.number} ({elapsed:.2f}s / "
              f"budget {self.budget_s:.0f}s): {self.description}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget")
        return False


def test_criterion_1_scenario_cardinality(twin_ctg_text):
    with _Criterion(1, "shipped case-study CTG yields exactly 8 columns", 1):
        table = ctgmod.build_table(ctgmod.load_ctg(twin_ctg_text))
        assert len(table.scenarios) == 8
        assert len(table.schedules) == 8


def test_criterion_2_scheduler_optimality():
    with _Criterion(2, "list scheduler matches brute force on >=95% of 200 "
                       "instances, never worse than 1.5x", 60):
        rng = np.random.default_rng(2024)
        equal = 0
        for _ in range(200):
            graph = random_instance(rng)
            got = ctgmod.schedule(graph).makespan
            opt = brute_force_makespan(graph)
            assert got <= opt * 1.5 + 1e-9
            if abs(got - opt) < 1e-9:
                equal += 1
        assert equal >= 190


def test_criterion_3_ctmdp_lp_correctness():
    with _Criterion(3, "LP objective matches deterministic-policy enumeration "
                       "on 100 random CTMDPs within 1e-6", 30):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = random_model(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            sol = ctmdp.solve_model(m)  # raises if any solution invariant fails
            assert sol.status == "optimal"
            assert abs(sol.objective - best_deterministic_policy(m)) <= 1e-6
            assert abs(sum(sol.occupation.values()) - 1.0) <= 1e-9
            assert sol.duality_gap <= 1e-8


def test_criterion_4_fuzzy_surface_reproduction():
    with _Criterion(4, "canonical control surface: range, monotone trend, "
                       "exact partition, refinement within 1e-3", 5):
        params = fuzzy.FuzzyParams.uniform(0.5, 1.0, 1.2)
        s = fuzzy.surface(params, n=121)
        assert np.all(s >= 0.0) and np.all(s <= 1.2)
        for j in range(121):
            col = s[:, j]
            assert np.all(np.diff(col) <= MONOTONE_SLACK)
            assert col[0] >= col[-1]
        for i in range(121):
            row = s[i, :]
            assert np.all(np.diff(row) >= -MONOTONE_SLACK)
            assert row[0] <= row[-1]
        for x in np.linspace(0.0, 1.0, 121):
            d = fuzzy.fuzzify(float(x), params.i)
            assert d.mu_s + d.mu_m + d.mu_b == 1.0
        fine = fuzzy.surface(params, n=121, resolution=12001)
        assert np.abs(s - fine).max() < 1e-3


def test_criterion_5_rule_table_fidelity():
    with _Criterion(5, "the 9 pure-label input pairs each activate exactly "
                       "their rule cell with weight 1", 1):
        row = fuzzy.ParamRow(0.5, 1.0, 1.2)
        pure = {"S": 0.0, "M": 0.5, "B": 1.0}
        for i_label, i_val in pure.items():
            for d_label, d_val in pure.items():
                acts = rule_activations(
                    fuzzy.fuzzify(i_val, row), fuzzy.fuzzify(d_val, row),
                    fuzzy.DEFAULT_RULES)
                hot = [(i, d, w) for i, d, _, w in acts if w > 0]
                assert hot == [(i_label, d_label, 1.0)]
                cell = fuzzy.DEFAULT_RULES.output_label(i_label, d_label)
                assert [u for i, d, u, w in acts if w == 1.0] == [cell]


def test_criterion_6_fsm_contract(twin_ctg_text):
    with _Criterion(6, "exact periodicity; zero replay violations on the two "
                       "case-study scenario columns; safe mode on violation", 5):
        f = fsmmod.SignalFsm(30.0, 5.0, 25.0)
        for n in range(6000):  # 10 cycles at 0.1 s resolution
            t = n / 10.0
            assert f.state_at(t) is f.state_at((n + 600) / 10.0)

        table = ctgmod.build_table(ctgmod.load_ctg(twin_ctg_text))
        fsms = {"A": fsmmod.SignalFsm(30, 5, 25, 0.0, fsmmod.SignalState.GREEN),
                "B": fsmmod.SignalFsm(30, 5, 25, 10.0, fsmmod.SignalState.GREEN)}
        for scenario in (("L", "L", "L"), ("H", "L", "L")):
            sched = table.schedules[scenario]
            for itu, base in fsms.items():
                cons = ctgmod.derive_timing_constraints(sched, itu, cycle=60.0)
                out = fsmmod.apply_timing_constraints(base, cons)
                assert isinstance(out, fsmmod.SignalFsm)
                assert check_constraints_by_replay(out, cons) == []

        modes = (fsmmod.ImplementationMode("fast", 0.01, 5.0),
                 fsmmod.ImplementationMode("safe", 1.0, 0.2, safe=True))
        ctrl = fsmmod.IntersectionController("A", f, modes, "fast")
        hit = fsmmod.shortcut_to_safe(ctrl)
        assert hit.active_mode == "safe"
        again = fsmmod.shortcut_to_safe(hit)
        assert again.active_mode == "safe" and again.fsm == hit.fsm


def test_criterion_7_conservation():
    with _Criterion(7, "closed network conserves vehicles over 1e5 steps; "
                       "zone balance 0 every window; shared occupancy <= 1", 30):
        text = """
[intersection n1]
[intersection n2]
[intersection n3]
[intersection n4]
[segment r1]
from = n1
to = n2
length = 50
speed = 10
capacity = 10
[segment r2]
from = n2
to = n3
length = 40
speed = 10
capacity = 10
shared = true
[segment r3]
from = n3
to = n4
length = 50
speed = 10
capacity = 10
[segment r4]
from = n4
to = n1
length = 50
speed = 10
capacity = 10
[zone inner]
members = r2, r3
"""
        net = w.load_network(text)
        world = w.make_world(net, None, 0, seed=7)
        seed_vehicles(world, [("r1", 6), ("r3", 4)])
        for _ in range(20):  # 500 s windows
            for _ in range(5000):
                w.step(world, {}, 0.1)
            assert check_zone_balance(world, "inner") == 0
        assert world.vehicle_count() == 10

        occupancy = 0
        for ev in events(world):
            if ev[0] == "move":
                if ev[4] == "r2":
                    occupancy += 1
                if ev[3] == "r2":
                    occupancy -= 1
                assert 0 <= occupancy <= 1


def test_criterion_8_metric_identities():
    with _Criterion(8, "scalability/efficiency/flexibility/autonomy identities", 10):
        assert metrics.scalability(7.0, 3.0, 7.0, 3.0) == 1.0
        grid = np.linspace(0.0, 1.0, 101)
        assert metrics.efficiency(metrics.CurvePair(grid, grid, grid)) == 0.0
        c = 4.2
        linear = metrics.CurvePair(grid, c * grid, np.zeros_like(grid))
        assert abs(metrics.efficiency(linear) - c / 2) <= 1e-9
        box = metrics.SpecBox.from_dict({"x": (0.0, 1.0)})
        got = metrics.flexibility(lambda p: p["x"] < 0.5, box, n=100_000, seed=7)
        assert abs(got - 0.5) <= 0.02
        e = 2.75
        field = metrics.EffortField.from_function(
            lambda p, a, t: e, (0, 1), (0, 1), (0, 1), (6, 6, 6))
        assert abs(metrics.autonomy(field) - e) <= 1e-9


def test_criterion_9_interaction_taxonomy(city_registry_text):
    with _Criterion(9, "shipped registry classifies to the hand-enumerated "
                       "kinds with all four present", 1):
        expected = {
            ("tcu", "atcu"): "Guiding",
            ("atcu", "ztcu"): "Guiding",
            ("ztcu", "itu_a"): "Guiding",
            ("ztcu", "itu_b"): "Guiding",
            ("itu_a", "ztcu"): "Enabling",
            ("itu_b", "ztcu"): "Enabling",
            ("ztcu", "atcu"): "Enabling",
            ("atcu", "tcu"): "Enabling",
            ("itu_a", "itu_b"): "Collaborative",
            ("lighting_zone", "power_zone"): "Competing",
        }
        reg = regmod.load_registry(city_registry_text)
        got = {(l.src[0], l.dst[0]): l.kind.value for l in reg.links()}
        assert got == expected
        assert {l.kind for l in reg.links()} == set(regmod.InteractionKind)


def test_criterion_10_end_to_end_benefit(tmp_path, data_dir):
    with _Criterion(10, "hierarchical mode services at least as many cars as "
                        "the saturated fixed-time baseline", 60):
        results = {}
        for mode in ("fixed", "hierarchical"):
            out = tmp_path / mode
            rc = cli.main(["simulate",
                           "--network", str(data_dir / "twin.network"),
                           "--demand", str(data_dir / "twin.demand"),
                           "--ctg", str(data_dir / "twin.ctg"),
                           "--horizon", "1800", "--seed", "42",
                           "--out", str(out), "--mode", mode])
            assert rc == 0
            header, values = (out / "summary.csv").read_text().strip().splitlines()
            results[mode] = dict(zip(header.split(","), values.split(",")))
        fixed = results["fixed"]
        hier = results["hierarchical"]
        # the baseline must actually saturate at this demand level
        assert int(fixed["dropped"]) > 0
        assert int(hier["exited"]) >= int(fixed["exited"])


def test_criterion_11_determinism(tmp_path, data_dir):
    with _Criterion(11, "identical config and seed produce byte-identical "
                        "event logs and summaries", 120):
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            rc = cli.main(["simulate",
                           "--network", str(data_dir / "twin.network"),
                           "--demand", str(data_dir / "twin.demand"),
                           "--ctg", str(data_dir / "twin.ctg"),
                           "--horizon", "900", "--seed", "9",
                           "--out", str(out), "--mode", "hierarchical"])
            assert rc == 0
            outs.append(out)
        for name in ("events.log", "summary.csv", "reports.csv",
                     "schedule_table.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
