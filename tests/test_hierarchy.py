import copy
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from civitas import ctg as ctgmod
from civitas import fsm as fsmmod
from civitas.fgraph import FgNode, FunctionGraph, PerfDistribution
from civitas.hierarchy import (LEVEL_AREA, LEVEL_GLOBAL, LEVEL_INTERSECTION,
                               LEVEL_ZONE, AreaUnit, ConstraintMsg,
                               GlobalUnit, HierarchyEngine, SafeModeMsg,
                               ViolationMsg, ZoneUnit)
from tests.replay import (budget_reconcile, check_schedule_admission,
                          uncached_copy)


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


def fallback_trap():
    """Column L alternates four runs at X and serves only without the
    skippable B; column H alternates four runs on either table."""
    def task(tid, direction, label=None, skippable=False):
        return ctgmod.CtgTask(tid, guard=label and ("s", label), itu="X",
                              direction=direction, t_ex=8.0, skippable=skippable)
    tasks = (task("A", 1), task("B", 2, "L", True), task("C", 1, "L"),
             task("D", 2, "L"), task("E", 2, "H"), task("F", 1, "H"),
             task("G", 2, "H"))
    arcs = (("A", "B"), ("B", "C"), ("C", "D"), ("A", "E"), ("E", "F"), ("F", "G"))
    return ctgmod.Ctg((ctgmod.ConditionSite("s", thresholds=(5.0,)),), tasks, arcs,
                      clearance=5.0)


@st.composite
def zone_searches(draw):
    """An engine whose one-site zone at X runs a chain of random runs per
    column, some skippable, in a random choice with random rejections."""
    tasks = [ctgmod.CtgTask("P", itu="X", direction=draw(st.sampled_from((1, 2))),
                            t_ex=8.0, n=2.0)]
    arcs = []
    for label in ("L", "H"):
        prev = "P"
        for i in range(draw(st.integers(1, 4))):
            tid = f"{label}{i}"
            tasks.append(ctgmod.CtgTask(
                tid, guard=("s", label), itu="X",
                direction=draw(st.sampled_from((1, 2))),
                t_ex=draw(st.sampled_from((4.0, 8.0, 12.0))),
                n=float(draw(st.integers(0, 4))), skippable=draw(st.booleans())))
            arcs.append((prev, tid))
            prev = tid
    ctg = ctgmod.Ctg((ctgmod.ConditionSite("s", thresholds=(5.0,)),), tuple(tasks),
                     tuple(arcs), clearance=5.0)
    engine = build_engine(ctg, draw(st.sampled_from((("L",), ("H",)))))
    engine.controllers["X"] = make_controller("X", draw(st.sampled_from((0.0, 10.0, 45.0))))
    zone = engine.zones["Z"]
    choices = [(c, on_fallback) for c in zone.table.scenarios
               for on_fallback in ((False, True) if zone.fallback else (False,))]
    zone.choice = draw(st.sampled_from([None] + choices))
    zone.rejected = set(draw(st.lists(st.sampled_from(choices))))
    zone.bound = draw(st.sampled_from((None, 30.0, 60.0)))
    zone.min_throughput = draw(st.sampled_from((0.0, 4.0, 8.0)))
    return engine


def build_engine(ctg, scenario, target=0, budget=5):
    table = ctgmod.build_table(ctg)
    zone = ZoneUnit("Z", ctg, table, ("X",), scenario, cycle=60.0)
    area = AreaUnit("area", ("Z",))
    fg = FunctionGraph((FgNode("area", PerfDistribution.point(30.0), 10.0),))
    top = GlobalUnit("tcu", fg, target, 60.0)
    controllers = {"X": make_controller("X")}
    return HierarchyEngine(top, {"area": area}, {"Z": zone}, controllers,
                           budget=budget)


def tree_engine(areas, zones, controlled, controller=make_controller):
    """An engine whose areas and zones list the given children, with a
    `controller` for each id in `controlled`."""
    ctg = alternating_ctg(2)
    table = ctgmod.build_table(ctg)
    fg = FunctionGraph(tuple(FgNode(aid, PerfDistribution.point(30.0), 10.0)
                             for aid in areas))
    return HierarchyEngine(
        GlobalUnit("tcu", fg, 0, 60.0),
        {aid: AreaUnit(aid, zids) for aid, zids in areas.items()},
        {zid: ZoneUnit(zid, ctg, table, itus, ("L",), cycle=60.0)
         for zid, itus in zones.items()},
        {itu: controller(itu) for itu in controlled})


def two_area_engine():
    """Area a1 over zone Z1 at X; area a2 over Z2 at Y and W, and Z3."""
    return tree_engine({"a1": ("Z1",), "a2": ("Z2", "Z3")},
                       {"Z1": ("X",), "Z2": ("Y", "W"), "Z3": ()}, ("W", "X", "Y"))


@st.composite
def reconciles(draw):
    """A zone search or the two-area engine, under a random top target,
    area objectives and budget."""
    engine = draw(zone_searches()) if draw(st.booleans()) else two_area_engine()
    engine.top.target = draw(st.sampled_from((0, 5, 16, 1000)))
    for area in engine.areas.values():
        area.objective = draw(st.sampled_from((None, 4.6, 12.0)))
    engine.budget = draw(st.integers(1, 6))
    return engine


def safe_modes(engine):
    """The safe-mode engagements on the engine's trail."""
    return [m for m in engine.messages if isinstance(m, SafeModeMsg)]


def two_itu_engine():
    """One zone over X and Y, whose column L sets constraints only at Y
    and column H only at X."""
    def task(tid, itu, direction, label=None):
        return ctgmod.CtgTask(tid, guard=label and ("c", label), itu=itu,
                              direction=direction, t_ex=8.0, n=2.0)
    ctg = ctgmod.Ctg((ctgmod.ConditionSite("c", thresholds=(5.0,)),),
                     (task("A", "X", 1), task("B", "X", 2, "H"),
                      task("C", "Y", 2), task("D", "Y", 1, "L")),
                     (("A", "B"), ("C", "D")), clearance=5.0)
    fg = FunctionGraph((FgNode("area", PerfDistribution.point(30.0), 10.0),))
    return HierarchyEngine(
        GlobalUnit("tcu", fg, 0, 60.0), {"area": AreaUnit("area", ("Z",))},
        {"Z": ZoneUnit("Z", ctg, ctgmod.build_table(ctg), ("X", "Y"), ("L",),
                       cycle=60.0)},
        {"X": make_controller("X"), "Y": make_controller("Y", 10.0)})


@st.composite
def engine_steps(draw):
    """A zone search, the two-area engine or a zone over two ITUs, and the
    steps an epoch loop takes on it: scenario changes, function graphs
    replaced as `attach` replaces them, new targets and deadlines,
    signals shifted as an early switch shifts them, and reconciles."""
    engine = draw(st.one_of(zone_searches(), st.builds(two_area_engine),
                            st.builds(two_itu_engine)))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("scenario", "fg", "target", "deadline",
                                     "offset", "reconcile", "reconcile")))
        if kind == "offset":
            steps.append((kind, draw(st.sampled_from(sorted(engine.controllers))),
                          draw(st.sampled_from((0.0, 10.0, 45.0)))))
        elif kind == "scenario":
            zid = draw(st.sampled_from(sorted(engine.zones)))
            steps.append((kind, zid, draw(st.sampled_from(
                engine.zones[zid].table.scenarios))))
        elif kind == "fg":
            values = draw(st.lists(st.sampled_from((10.0, 20.0, 45.0)),
                                   min_size=1, max_size=2, unique=True))
            steps.append((kind, draw(st.sampled_from(sorted(engine.areas))),
                          {v: 1.0 / len(values) for v in values},
                          draw(st.sampled_from((0.5, 4.0, 12.0)))))
        elif kind == "target":
            steps.append((kind, draw(st.sampled_from((0, 4, 16, 1000)))))
        elif kind == "deadline":
            steps.append((kind, draw(st.sampled_from((20.0, 45.0, 60.0)))))
        else:
            steps.append((kind, float(len(steps))))
    return engine, steps


def take_step(engine, step):
    """Apply one `engine_steps` step; a reconcile returns its report."""
    kind, *args = step
    if kind == "scenario":
        engine.zones[args[0]].set_scenario(args[1])
    elif kind == "fg":
        aid, mass, capability = args
        engine.top.fg = engine.top.fg.with_node(
            FgNode(aid, PerfDistribution.from_dict(mass), capability))
    elif kind == "target":
        engine.top.target = args[0]
    elif kind == "deadline":
        engine.top.deadline = args[0]
    elif kind == "offset":
        ctrl = engine.controllers[args[0]]
        engine.controllers[args[0]] = replace(ctrl, fsm=replace(ctrl.fsm, offset=args[1]))
    else:
        return engine.reconcile(at=args[0])
    return None


class TestTopology:
    def test_a_tree_maps_each_module_to_its_parent(self):
        engine = two_area_engine()
        assert engine.parent_of == {"a1": "tcu", "a2": "tcu", "Z1": "a1",
                                    "Z2": "a2", "Z3": "a2", "X": "Z1",
                                    "Y": "Z2", "W": "Z2"}
        engine.reconcile()
        assert {(m.source, m.target) for m in engine.messages} >= {
            ("tcu", "a2"), ("a2", "Z2"), ("Z2", "W")}

    def test_every_area_gets_its_messages(self):
        # the engine's areas are the one list of areas: each gets its goal
        # and passes a bound to each of its zones
        engine = tree_engine({"a1": ("Z1",), "a2": ("Z2", "Z3")},
                             {"Z1": ("X",), "Z2": ("Y",), "Z3": ()}, ("X", "Y"))
        msgs = engine.push_down()
        assert [(m.source, m.target) for m in msgs
                if m.target_level > LEVEL_INTERSECTION] == [
            ("tcu", "a1"), ("tcu", "a2"), ("a1", "Z1"), ("a2", "Z2"), ("a2", "Z3")]
        for zid, aid in (("Z1", "a1"), ("Z2", "a2"), ("Z3", "a2")):
            assert engine.zones[zid].bound == engine.areas[aid].target.deadline

    def test_zone_in_two_areas_is_refused(self):
        with pytest.raises(ValueError, match="'Z' is listed by areas 'a1' and 'a2'"):
            tree_engine({"a1": ("Z",), "a2": ("Z",)}, {"Z": ("X",)}, ("X",))

    def test_itu_in_two_zones_is_refused(self):
        with pytest.raises(ValueError, match="'X' is listed by zones 'Z1' and 'Z2'"):
            tree_engine({"area": ("Z1", "Z2")}, {"Z1": ("X",), "Z2": ("X",)}, ("X",))

    def test_itu_without_controller_is_refused(self):
        with pytest.raises(ValueError, match="ITU 'Y' of zone 'Z' has no controller"):
            tree_engine({"area": ("Z",)}, {"Z": ("X", "Y")}, ("X",))

    def test_budget_without_a_pass_is_refused(self):
        with pytest.raises(ValueError, match="budget 0 allows no reconcile pass"):
            build_engine(alternating_ctg(2), ("L",), budget=0)

    def test_itu_without_safe_mode_is_refused(self):
        def modeless(itu):
            return replace(make_controller(itu), modes=(), active_mode="")
        with pytest.raises(ValueError, match="ITU 'X' of zone 'Z' has no safe mode"):
            tree_engine({"area": ("Z",)}, {"Z": ("X",)}, ("X",), modeless)


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
        assert zone.choice == (("L",), False)
        # verified by the replay oracle: the applied splits admit the schedule
        sched = zone.schedule(("L",))
        out = engine.controllers["X"].fsm
        assert check_schedule_admission(out, sched, "X") == []

    def test_contradiction_stalls_and_engages_safe_mode(self):
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
        # the zone finds no column its intersection serves, so a second
        # pass would repeat the first
        assert not report.converged
        assert report.passes == 1
        assert report.unresolved
        assert "X" in report.safe_engaged
        assert engine.controllers["X"].active_mode == "safe"
        assert safe_modes(engine) == [SafeModeMsg("X", "stalled", 0.0)]

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
        # the top shrinks its target by the shortfall (column L serves
        # 4 cars), and the second pass meets it
        assert report.converged and report.passes == 2
        assert engine.top.target == 4

    def test_top_shortfall_rounding_to_zero_ends_after_one_pass(self):
        # 4.6 expected cars against a target of 5: the top shrinks its
        # target by round(0.4) = 0, so a second pass would repeat the first
        engine = build_engine(alternating_ctg(2), ("L",), target=5)
        engine.areas["area"].objective = 4.6
        report = engine.reconcile()
        assert not report.converged and report.passes == 1
        assert len(engine.messages) == 4 and engine.top.target == 5

    @pytest.mark.parametrize("budget, converged", [(4, False), (5, True)])
    def test_budget_ends_a_loop_that_changes_every_pass(self, budget, converged):
        # The top sums both areas' shortfalls on pass 1 (1000 -> 12), then
        # shrinks its target on every pass until a1's share is met at 8.
        engine = two_area_engine()
        engine.top.target, engine.budget = 1000, budget
        report = engine.reconcile()
        shortfalls = [(v.source, v.shortfall) for v in engine.messages
                      if isinstance(v, ViolationMsg)]
        assert shortfalls[:2] == [("a1", 496.0), ("a2", 492.0)]
        assert report.converged is converged and report.passes == budget
        assert engine.top.target == 8

    @pytest.mark.parametrize("budget, passes, why", [
        (4, 4, "budget exhausted"), (5, 5, "budget exhausted"), (6, 5, "stalled")])
    def test_safe_mode_says_why_the_loop_stopped(self, budget, passes, why):
        # Zones over a 20 s deadline never converge; the top's target moves
        # on passes 1-4, so pass 5 changes nothing.  A loop that stops
        # before its last pass stalled; one that makes every pass ran out
        # of budget.
        engine = two_area_engine()
        engine.top.target, engine.top.deadline, engine.budget = 1000, 20.0, budget
        report = engine.reconcile()
        assert not report.converged and report.passes == passes
        assert report.safe_engaged == ("W", "X", "Y")
        assert safe_modes(engine) == [SafeModeMsg(itu, why, 0.0) for itu in ("W", "X", "Y")]

    def test_engagements_follow_the_controllers_order(self):
        # the trail lists engagements as the controllers are declared; the
        # report lists them sorted
        engine = two_area_engine()
        engine.controllers = {itu: engine.controllers[itu] for itu in ("Y", "X", "W")}
        engine.top.target, engine.top.deadline = 1000, 20.0
        report = engine.reconcile(at=7.5)
        assert report.safe_engaged == ("W", "X", "Y")
        assert [m.target for m in safe_modes(engine)] == ["Y", "X", "W"]
        assert engine.messages[-3:] == safe_modes(engine)

    @settings(max_examples=200, deadline=None)
    @given(reconciles())
    def test_loop_matches_budget_only_oracle(self, engine):
        oracle = copy.deepcopy(engine)
        report, expected = engine.reconcile(), budget_reconcile(oracle)
        assert (report.converged, report.unresolved, report.safe_engaged) == (
            expected.converged, expected.unresolved, expected.safe_engaged)
        # Both trails end with one engagement per engaged ITU, in the
        # controllers' order.  The oracle always says "budget exhausted";
        # the loop says "stalled" when it stopped before its last pass.
        why = "stalled" if report.passes < engine.budget else "budget exhausted"
        engaged = [SafeModeMsg(itu, why, 0.0) for itu in engine.controllers
                   if itu in report.safe_engaged]
        n, k = len(engine.messages) - len(engaged), len(oracle.messages) - len(engaged)
        assert engine.messages[n:] == engaged
        assert oracle.messages[k:] == [replace(m, why="budget exhausted") for m in engaged]
        assert engine.controllers == oracle.controllers
        assert engine.top.target == oracle.top.target
        for zid, zone in engine.zones.items():
            assert (zone.choice, zone.rejected) == (
                oracle.zones[zid].choice, oracle.zones[zid].rejected)
        # the oracle's passes beyond the loop's repeat the loop's last pass
        trail, repeats = engine.messages[:n], expected.passes - report.passes
        assert oracle.messages[:n] == trail and repeats >= 0
        extra = oracle.messages[n:k]
        last = extra[:len(extra) // repeats] if repeats else []
        assert extra == last * repeats and trail[n - len(last):] == last

    @settings(max_examples=150, deadline=None)
    @given(engine_steps())
    @example((two_itu_engine(), [("scenario", "Z", ("H",)), ("reconcile", 0.0),
                                 ("offset", "X", 45.0), ("reconcile", 1.0)]))
    @example((two_area_engine(), [("target", 16), ("reconcile", 0.0),
                                  ("fg", "a1", {10.0: 1.0}, 12.0), ("reconcile", 1.0)]))
    @example((build_engine(skippable_chain(), ()), [("reconcile", 0.0)]))
    def test_kept_results_match_uncached_engine(self, drawn):
        # The engine keeps its goal allocation, its zones' constraints and
        # its applied constraints between reconciles; the uncached engine
        # computes each afresh.  Both see the same steps.
        engine, steps = drawn
        oracle = uncached_copy(engine)
        for step in steps:
            assert take_step(engine, step) == take_step(oracle, step)
            assert engine.messages == oracle.messages
            assert engine.controllers == oracle.controllers
            assert engine.top.target == oracle.top.target
            for zid, zone in engine.zones.items():
                assert (zone.choice, zone.rejected) == (
                    oracle.zones[zid].choice, oracle.zones[zid].rejected)

    def test_scenario_change_resets_preference(self):
        engine = build_engine(alternating_ctg(3), ("H",))
        engine.reconcile()
        assert engine.zones["Z"].choice == (("L",), False)
        engine.zones["Z"].set_scenario(("L",))
        assert engine.zones["Z"].choice is None

    def test_fallback_skips_task_when_columns_unserviceable(self):
        engine = build_engine(skippable_chain(), ())
        report = engine.reconcile()
        assert report.converged
        assert engine.zones["Z"].choice == ((), True)

    def test_fallback_skip_rejected_under_throughput_floor(self):
        # target 16 cars: dropping P1 would leave 12 < the floor
        engine = build_engine(skippable_chain(), (), target=16)
        report = engine.reconcile()
        assert not report.converged
        assert engine.zones["Z"].choice is None
        assert "X" in report.safe_engaged

    def test_fallback_judged_by_its_own_schedule(self):
        # With P1 the chain takes 47 s, over the 30 s bound; without it,
        # P0 and P2 run together and the schedule takes 21 s.
        engine = build_engine(skippable_chain(), ())
        zone = engine.zones["Z"]
        zone.bound = 30.0
        assert zone.table.t_area(()) == 47.0 and zone.fallback.t_area(()) == 21.0
        assert engine._recompute_zone(zone)
        assert zone.choice == ((), True)


class TestZoneSearch:
    def test_fallback_zone_does_not_pick_an_unserved_full_column(self):
        engine = build_engine(fallback_trap(), ("H",))
        zone = engine.zones["Z"]
        zone.choice = (("H",), True)
        assert not engine._itu_feasible(zone, ("L",), False)
        assert engine._recompute_zone(zone)
        assert zone.choice == (("L",), True)
        assert engine._itu_feasible(zone, *zone.active)

    @settings(max_examples=300, deadline=None)
    @given(zone_searches())
    def test_chosen_schedule_is_served_on_its_own_table(self, engine):
        zone = engine.zones["Z"]
        if engine._recompute_zone(zone):
            assert zone.choice not in zone.rejected
            assert engine._itu_feasible(zone, *zone.active)

