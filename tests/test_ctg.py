import itertools

import numpy as np
import pytest

from civitas import fsm as fsmmod
from civitas.ctg import (ConditionSite, Ctg, CtgTask, RunningMedianThreshold,
                         build_table, check_schedule_admission,
                         derive_timing_constraints, enumerate_scenarios,
                         load_ctg, resolve, schedule, table_to_csv)


def brute_force_makespan(graph):
    """Exact optimum: enumerate acyclic orientations of exclusion pairs.

    Any feasible schedule induces an orientation of every exclusion pair;
    the earliest-start schedule of an orientation is a longest-path
    computation, so the minimum over orientations is the true optimum.
    """
    ids = [t.id for t in graph.tasks]
    dur = {t.id: t.duration for t in graph.tasks}
    best = float("inf")
    for bits in itertools.product((0, 1), repeat=len(graph.gaps)):
        arcs = [(a, b, 0.0) for a, b in graph.arcs]
        for (a, b, gap), bit in zip(graph.gaps, bits):
            arcs.append((a, b, gap) if bit == 0 else ((b, a, gap)))
        succs = {t: [] for t in ids}
        indeg = {t: 0 for t in ids}
        for a, b, gap in arcs:
            succs[a].append((b, gap))
            indeg[b] += 1
        start = {t: 0.0 for t in ids}
        ready = [t for t in ids if indeg[t] == 0]
        seen = 0
        while ready:
            t = ready.pop()
            seen += 1
            for s, gap in succs[t]:
                start[s] = max(start[s], start[t] + dur[t] + gap)
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if seen != len(ids):
            continue
        best = min(best, max(start[t] + dur[t] for t in ids))
    return best


def random_instance(rng):
    n = int(rng.integers(2, 9))
    shared = frozenset(f"r{k}" for k in range(int(rng.integers(0, 3))))
    tasks = []
    for i in range(n):
        res = frozenset(r for r in shared if rng.random() < 0.4)
        tasks.append(CtgTask(f"T{i}", resources=res,
                             t_ex=float(rng.integers(1, 10)), n=1.0))
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                arcs.append((f"T{i}", f"T{j}"))
    return resolve(Ctg((), tuple(tasks), tuple(arcs), shared), ())


SITES = (ConditionSite("c1"), ConditionSite("c2"), ConditionSite("c3"))


class TestScenarios:
    def test_three_binary_sites_give_eight(self):
        c = Ctg(SITES, (CtgTask("T", t_ex=1.0),), ())
        assert len(enumerate_scenarios(c)) == 8

    def test_no_sites_give_single_empty_scenario(self):
        c = Ctg((), (CtgTask("T", t_ex=1.0),), ())
        assert enumerate_scenarios(c) == [()]

    def test_two_sites_lexicographic_order(self):
        c = Ctg(SITES[:2], (CtgTask("T", t_ex=1.0),), ())
        assert enumerate_scenarios(c) == [("L", "L"), ("L", "H"),
                                          ("H", "L"), ("H", "H")]


class TestResolve:
    @pytest.fixture()
    def guarded(self):
        return Ctg(SITES[:1], (
            CtgTask("T1", t_ex=2.0, n=1.0),
            CtgTask("T2", guard=("c1", "L"), t_ex=3.0, n=1.0),
            CtgTask("T2p", guard=("c1", "H"), t_ex=5.0, n=2.0),
        ), (("T1", "T2"), ("T1", "T2p")))

    def test_light_branch_selected(self, guarded):
        g = resolve(guarded, ("L",))
        ids = {t.id for t in g.tasks}
        assert "T2" in ids and "T2p" not in ids

    def test_heavy_branch_selected(self, guarded):
        g = resolve(guarded, ("H",))
        ids = {t.id for t in g.tasks}
        assert "T2p" in ids and "T2" not in ids

    def test_unguarded_graph_keeps_all_tasks(self):
        c = Ctg((), (CtgTask("A", t_ex=1.0), CtgTask("B", t_ex=2.0)), (("A", "B"),))
        g = resolve(c, ())
        assert [t.id for t in g.tasks] == ["A", "B"]
        assert g.arcs == (("A", "B"),)

    def test_guard_exclusivity_over_all_scenarios(self, guarded):
        for s in enumerate_scenarios(guarded):
            ids = {t.id for t in resolve(guarded, s).tasks}
            assert not {"T2", "T2p"} <= ids

    def test_per_scenario_attributes_selected(self):
        c = Ctg(SITES[:1], (CtgTask("T", site="c1", n={"L": 2, "H": 8},
                                    t_ex={"L": 3.0, "H": 7.0}),), ())
        assert resolve(c, ("H",)).task("T").duration == 7.0
        assert resolve(c, ("L",)).task("T").n == 2


class TestSchedule:
    def test_exclusion_forces_serialization(self):
        c = Ctg((), (CtgTask("A", resources=frozenset({"r"}), t_ex=3.0),
                     CtgTask("B", resources=frozenset({"r"}), t_ex=4.0)),
                (), frozenset({"r"}))
        sched = schedule(resolve(c, ()))
        assert sched.makespan == 7.0

    def test_disjoint_resources_run_parallel(self):
        c = Ctg((), (CtgTask("A", resources=frozenset({"r1"}), t_ex=3.0),
                     CtgTask("B", resources=frozenset({"r2"}), t_ex=4.0)),
                (), frozenset({"r1", "r2"}))
        assert schedule(resolve(c, ())).makespan == 4.0

    def test_precedence_respected(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            g = random_instance(rng)
            sched = schedule(g)
            for a, b in g.arcs:
                assert sched.starts[b] >= sched.finishes[a] - 1e-9

    def test_exclusions_never_overlap(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            g = random_instance(rng)
            sched = schedule(g)
            for a, b, _ in g.gaps:
                assert (sched.finishes[a] <= sched.starts[b] + 1e-9
                        or sched.finishes[b] <= sched.starts[a] + 1e-9)

    def test_makespan_is_max_finish(self):
        g = random_instance(np.random.default_rng(33))
        sched = schedule(g)
        assert sched.makespan == max(sched.finishes.values())

    def test_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(2024)
        equal = 0
        for _ in range(60):
            g = random_instance(rng)
            got = schedule(g).makespan
            opt = brute_force_makespan(g)
            assert got <= opt * 1.5 + 1e-9
            if abs(got - opt) < 1e-9:
                equal += 1
        assert equal >= 0.95 * 60

    def test_direction_clearance_separates_crossings(self):
        c = Ctg((), (CtgTask("A", itu="X", direction=1, t_ex=4.0),
                     CtgTask("B", itu="X", direction=2, t_ex=4.0)),
                (), clearance=5.0)
        sched = schedule(resolve(c, ()))
        a, b = sorted(sched.starts, key=sched.starts.get)
        assert sched.starts[b] >= sched.finishes[a] + 5.0 - 1e-9

    def test_deterministic_output(self):
        g = random_instance(np.random.default_rng(34))
        assert schedule(g).starts == schedule(g).starts


class TestTable:
    def test_case_study_has_eight_columns(self, twin_ctg_text):
        table = build_table(load_ctg(twin_ctg_text))
        assert len(table.scenarios) == 8

    def test_no_sites_single_column(self):
        c = Ctg((), (CtgTask("T", t_ex=2.0),), ())
        table = build_table(c)
        assert len(table.scenarios) == 1

    def test_t_area_equals_makespan(self, twin_ctg_text):
        table = build_table(load_ctg(twin_ctg_text))
        for s in table.scenarios:
            assert table.t_area(s) == table.schedules[s].makespan

    def test_csv_one_row_per_task(self, twin_ctg_text):
        table = build_table(load_ctg(twin_ctg_text))
        lines = table_to_csv(table).strip().splitlines()
        expected = sum(len(table.schedules[s].graph.tasks) for s in table.scenarios)
        assert len(lines) == 1 + expected
        assert lines[0] == "scenario,task,start,finish,resource"


class TestTimingConstraints:
    @pytest.fixture()
    def table(self, twin_ctg_text):
        return build_table(load_ctg(twin_ctg_text))

    def test_direction_change_emits_green_and_red_deadlines(self, table):
        sched = table.schedules[("L", "L", "L")]
        states = set()
        for itu in ("A", "B"):
            for c in derive_timing_constraints(sched, itu, cycle=60.0):
                states.add(c.required_state)
        assert fsmmod.SignalState.GREEN in states
        assert fsmmod.SignalState.RED in states

    def test_single_direction_schedule_needs_no_constraints(self):
        c = Ctg((), (CtgTask("A", itu="X", direction=1, t_ex=3.0),
                     CtgTask("B", itu="X", direction=1, t_ex=4.0)), ())
        sched = schedule(resolve(c, ()))
        assert derive_timing_constraints(sched, "X") == ()

    def test_constrained_fsm_admits_schedule(self, table):
        fsms = {"A": fsmmod.SignalFsm(30, 5, 25, 0.0, fsmmod.SignalState.GREEN),
                "B": fsmmod.SignalFsm(30, 5, 25, 10.0, fsmmod.SignalState.GREEN)}
        for s in table.scenarios:
            sched = table.schedules[s]
            for itu, f in fsms.items():
                cons = derive_timing_constraints(sched, itu, cycle=60.0)
                out = fsmmod.apply_timing_constraints(f, cons)
                assert isinstance(out, fsmmod.SignalFsm), (s, itu)
                assert check_schedule_admission(out, sched, itu) == []

    def test_deadline_states_match_direction_semantics(self, table):
        sched = table.schedules[("H", "L", "L")]
        for c in derive_timing_constraints(sched, "A", cycle=60.0):
            if c.required_state is fsmmod.SignalState.RED:
                # red admits direction 1 (the corridor)
                assert fsmmod.SignalState.RED.admits(1)


class TestThresholds:
    def test_initial_threshold_from_site(self):
        est = RunningMedianThreshold(ConditionSite("c", thresholds=(6.0,)))
        assert est.threshold == 6.0
        assert est.observe(4) == "L"
        assert est.observe(9) == "H"

    def test_threshold_tracks_running_median(self):
        est = RunningMedianThreshold(ConditionSite("c", thresholds=(6.0,)))
        for n in (10, 10, 10, 10):
            est.observe(n)
        assert est.threshold == 10.0

    def test_strictly_increasing_thresholds_required(self):
        with pytest.raises(ValueError):
            ConditionSite("c", labels=("L", "M", "H"), thresholds=(5.0, 5.0))


class TestValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Ctg((), (CtgTask("A", t_ex=1.0), CtgTask("B", t_ex=1.0)),
                (("A", "B"), ("B", "A")))

    def test_unknown_guard_site_rejected(self):
        with pytest.raises(ValueError):
            Ctg((), (CtgTask("A", guard=("nope", "L"), t_ex=1.0),), ())

    def test_zero_duration_non_dummy_rejected(self):
        c = Ctg((), (CtgTask("A", t_ex=0.0),), ())
        with pytest.raises(ValueError):
            resolve(c, ())

    def test_dummy_task_may_have_zero_duration(self):
        c = Ctg((), (CtgTask("A", t_ex=0.0, dummy=True),
                     CtgTask("B", t_ex=1.0)), (("A", "B"),))
        sched = schedule(resolve(c, ()))
        assert sched.makespan == 1.0


class TestLabelValidation:
    SITE = (ConditionSite("c1"),)

    def test_label_map_covers_only_the_guarded_label(self):
        # a task guarded on c1 = L runs only under L, so L alone suffices
        task = CtgTask("T", guard=("c1", "L"), site="c1", n={"L": 3.0}, t_ex={"L": 2.0})
        table = build_table(Ctg(self.SITE, (task,), ()))
        assert table.schedules[("L",)].makespan == 2.0
        assert table.schedules[("H",)].makespan == 0.0

    @pytest.mark.parametrize("task, where", [
        (CtgTask("T", site="c1", n={"L": 3.0}, t_ex=2.0), "[task T] n: no value for label 'H'"),
        (CtgTask("T", guard=("c1", "H"), site="c1", t_ex={"L": 2.0}),
         "[task T] t_ex: no value for label 'H'"),
        (CtgTask("T", n={"L": 3.0}, t_ex=2.0), "[task T] n: per-label values need a site"),
        (CtgTask("T", guard=("c1", "Q"), t_ex=2.0), "[task T] guard: no [site c1] with label 'Q'"),
        (CtgTask("T", site="c9", t_ex=2.0), "[task T] site: unknown site 'c9'"),
        (CtgTask("T", t_ex=2.0, n=2.0 ** 53 + 2), "[task T] n: must be <= 2**53"),
        (CtgTask("T", site="c1", n={"L": 1.0, "H": 1e308}, t_ex=2.0),
         "[task T] n: must be <= 2**53, got 1e+308"),
    ])
    def test_uncovered_label_rejected(self, task, where):
        with pytest.raises(ValueError) as info:
            Ctg(self.SITE, (task,), ())
        assert where in str(info.value)

    def test_counts_up_to_two_to_the_53_are_exact(self):
        Ctg(self.SITE, (CtgTask("T", t_ex=2.0, n=2.0 ** 53),), ())

    def test_loader_names_task_and_key(self, twin_ctg_text):
        from civitas.textfmt import ParseError
        with pytest.raises(ParseError, match=r"\[task dT12\] t_ex: must be >= 0, got -10"):
            load_ctg(twin_ctg_text.replace("t_ex = 10\n", "t_ex = -10\n", 1))
