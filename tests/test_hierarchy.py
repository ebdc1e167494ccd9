import pytest

from civitas import ctg as ctgmod
from civitas import fsm as fsmmod
from civitas.fgraph import FgNode, FunctionGraph, PerfDistribution
from civitas.hierarchy import (LEVEL_AREA, LEVEL_GLOBAL, LEVEL_INTERSECTION,
                               LEVEL_ZONE, AreaUnit, ConstraintMsg,
                               GlobalUnit, HierarchyEngine, ViolationMsg,
                               ZoneUnit, aggregate_needs)


def make_controller(itu_id, offset=0.0):
    modes = (fsmmod.ImplementationMode("fast", 0.01, 5.0),
             fsmmod.ImplementationMode("safe", 1.0, 0.2, safe=True))
    fsm = fsmmod.SignalFsm(30.0, 5.0, 25.0, offset, fsmmod.SignalState.GREEN)
    return fsmmod.IntersectionController(itu_id, fsm, modes, "fast")


def alternating_ctg(heavy_runs):
    """One binary site; the heavy branch has `heavy_runs` direction flips.

    Three or more alternating same-cycle runs cannot be served by a
    three-state cyclic signal, so heavy columns with heavy_runs >= 3 are
    intersection-infeasible while the light column stays serviceable.
    """
    tasks = [ctgmod.CtgTask("P0", site="c", itu="X", direction=1,
                            t_ex={"L": 8.0, "H": 8.0}, n={"L": 2, "H": 6})]
    arcs = []
    for k in range(1, heavy_runs):
        tasks.append(ctgmod.CtgTask(
            f"P{k}", guard=("c", "H"), itu="X", direction=1 + k % 2,
            t_ex={"H": 8.0}, n={"H": 6}))
        arcs.append((f"P{k-1}", f"P{k}"))
    tasks.append(ctgmod.CtgTask("Q", guard=("c", "L"), itu="X", direction=2,
                                t_ex={"L": 6.0}, n={"L": 2}))
    arcs.append(("P0", "Q"))
    return ctgmod.Ctg((ctgmod.ConditionSite("c", thresholds=(5.0,)),),
                      tuple(tasks), tuple(arcs), clearance=5.0)


def skippable_chain():
    """Three alternating runs at X in every column; the middle one, P1, is
    skippable, and dropping it leaves a serviceable schedule."""
    tasks = (ctgmod.CtgTask("P0", itu="X", direction=1, t_ex=8.0, n=4),
             ctgmod.CtgTask("P1", itu="X", direction=2, t_ex=8.0, n=4,
                            skippable=True),
             ctgmod.CtgTask("P2", itu="X", direction=1, t_ex=8.0, n=4),
             ctgmod.CtgTask("P3", itu="X", direction=2, t_ex=8.0, n=4))
    return ctgmod.Ctg((), tasks, (("P0", "P1"), ("P1", "P2"), ("P2", "P3")),
                      clearance=5.0)


def build_engine(ctg, scenario, target=0, budget=5):
    table = ctgmod.build_table(ctg)
    zone = ZoneUnit("Z", ctg, table, ("X",), scenario, cycle=60.0)
    area = AreaUnit("area", ("Z",))
    fg = FunctionGraph((FgNode("area", PerfDistribution.point(30.0), 10.0),))
    top = GlobalUnit("tcu", fg, target, 60.0, ("area",))
    controllers = {"X": make_controller("X")}
    return HierarchyEngine(top, {"area": area}, {"Z": zone}, controllers,
                           budget=budget)


class TestMessages:
    def test_constraints_move_exactly_one_level_down(self):
        with pytest.raises(ValueError):
            ConstraintMsg(LEVEL_GLOBAL, LEVEL_ZONE, "tcu", "Z", None, 0.0)

    def test_violations_move_exactly_one_level_up(self):
        with pytest.raises(ValueError):
            ViolationMsg(LEVEL_INTERSECTION, LEVEL_AREA, "X", "area", "q", 1.0, 0.0)

    def test_violation_shortfall_positive(self):
        with pytest.raises(ValueError):
            ViolationMsg(LEVEL_ZONE, LEVEL_AREA, "Z", "area", "q", 0.0, 0.0)


class TestPushDown:
    def test_one_message_per_child(self):
        engine = build_engine(alternating_ctg(2), ("L",))
        msgs = engine.push_down()
        # tcu->area, area->Z, Z->X
        assert [(m.source, m.target) for m in msgs] == [
            ("tcu", "area"), ("area", "Z"), ("Z", "X")]
        for m in msgs:
            assert m.target_level == m.source_level - 1

    def test_allocation_payload_carries_targets(self):
        engine = build_engine(alternating_ctg(2), ("L",), target=50)
        msgs = engine.push_down()
        assert msgs[0].payload.throughput == 50

    def test_timing_constraints_reach_intersections(self):
        engine = build_engine(alternating_ctg(2), ("L",))
        msgs = engine.push_down()
        constraints = msgs[-1].payload
        assert all(isinstance(c, fsmmod.TimingConstraint) for c in constraints)
        assert constraints


class TestPushUp:
    def test_no_violations_no_needs(self):
        assert aggregate_needs([]) == []

    def test_shortfalls_sum_per_quantity(self):
        vs = [ViolationMsg(LEVEL_INTERSECTION, LEVEL_ZONE, "X1", "Z", "cars", 5.0, 0.0),
              ViolationMsg(LEVEL_INTERSECTION, LEVEL_ZONE, "X2", "Z", "cars", 5.0, 0.0)]
        needs = aggregate_needs(vs)
        assert needs[0].parent == "Z"
        assert dict(needs[0].totals) == {"cars": 10.0}

    def test_mixed_quantities_grouped(self):
        vs = [ViolationMsg(LEVEL_INTERSECTION, LEVEL_ZONE, "X", "Z", "cars", 5.0, 0.0),
              ViolationMsg(LEVEL_INTERSECTION, LEVEL_ZONE, "X", "Z", "seconds", 2.0, 0.0)]
        needs = aggregate_needs(vs)
        assert dict(needs[0].totals) == {"cars": 5.0, "seconds": 2.0}


class TestReconcile:
    def test_satisfiable_converges_first_pass(self):
        engine = build_engine(alternating_ctg(2), ("L",))
        report = engine.reconcile()
        assert report.converged and report.passes == 1

    def test_infeasible_column_resolved_by_lighter_column(self):
        # Heavy column needs three alternating runs: intersection-infeasible.
        # The zone reschedules under the light column on the second pass.
        engine = build_engine(alternating_ctg(3), ("H",))
        report = engine.reconcile()
        assert report.converged and report.passes == 2
        zone = engine.zones["Z"]
        assert zone.active_column() == ("L",)
        # verified by the replay oracle: the applied splits admit the schedule
        sched = zone.schedule_for(("L",))
        out = engine.controllers["X"].fsm
        assert ctgmod.check_schedule_admission(out, sched, "X") == []

    def test_contradiction_exhausts_budget_and_engages_safe_mode(self):
        ctg = alternating_ctg(3)
        # both columns heavy-style: make the light branch alternate too
        tasks = list(ctg.tasks) + [
            ctgmod.CtgTask("Q2", guard=("c", "L"), itu="X", direction=1,
                           t_ex={"L": 6.0}, n={"L": 2}),
            ctgmod.CtgTask("Q3", guard=("c", "L"), itu="X", direction=2,
                           t_ex={"L": 6.0}, n={"L": 2})]
        arcs = list(ctg.arcs) + [("Q", "Q2"), ("Q2", "Q3")]
        bad = ctgmod.Ctg(ctg.sites, tuple(tasks), tuple(arcs), clearance=5.0)
        engine = build_engine(bad, ("H",), budget=3)
        report = engine.reconcile()
        assert not report.converged
        assert report.passes == 3
        assert report.unresolved
        assert "X" in report.safe_engaged
        assert engine.controllers["X"].active_mode == "safe"

    def test_quiescence_after_convergence(self):
        engine = build_engine(alternating_ctg(3), ("H",))
        first = engine.reconcile()
        assert first.converged and first.passes == 2
        again = engine.reconcile()
        assert again.converged and again.passes == 1
        assert not again.unresolved

    def test_throughput_shortfall_reaches_global_level(self):
        engine = build_engine(alternating_ctg(2), ("L",), target=1000)
        report = engine.reconcile()
        flat = [v for v in engine.messages if isinstance(v, ViolationMsg)]
        assert any(v.quantity == "throughput" and v.target == "tcu" for v in flat)

    def test_scenario_change_resets_preference(self):
        engine = build_engine(alternating_ctg(3), ("H",))
        engine.reconcile()
        assert engine.zones["Z"].active_column() == ("L",)
        engine.zones["Z"].set_scenario(("L",))
        assert engine.zones["Z"].preferred is None

    def test_fallback_skips_task_when_columns_unserviceable(self):
        engine = build_engine(skippable_chain(), ())
        report = engine.reconcile()
        assert report.converged
        assert engine.zones["Z"].dropped_tasks == frozenset({"P1"})

    def test_fallback_skip_rejected_under_throughput_floor(self):
        # target 16 cars: dropping P1 would leave 12 < the floor
        engine = build_engine(skippable_chain(), (), target=16)
        report = engine.reconcile()
        assert not report.converged
        assert engine.zones["Z"].dropped_tasks == frozenset()
        assert "X" in report.safe_engaged

    def test_fallback_judged_by_its_own_schedule(self):
        # With P1 the chain takes 47 s, over the 30 s bound; without it,
        # P0 and P2 run together and the schedule takes 21 s.
        engine = build_engine(skippable_chain(), ())
        zone = engine.zones["Z"]
        zone.bound = 30.0
        assert zone.table.t_area(()) == 47.0 and zone.fallback.t_area(()) == 21.0
        assert engine._recompute_zone(zone)
        assert zone.dropped_tasks == frozenset({"P1"})


class TestRouting:
    def test_registry_enforces_guiding_routes(self):
        from civitas import registry as regmod
        engine = build_engine(alternating_ctg(2), ("L",))
        reg = regmod.DmRegistry()
        # register modules but wire NO links: every send must fail
        for mid, level in (("tcu", 4), ("area", 3), ("Z", 2), ("X", 1)):
            reg.register(regmod.DmModule(mid, level, inputs=("in",), outputs=("out",)))
        engine.registry = reg
        with pytest.raises(ValueError):
            engine.push_down()

