"""Conditional task graphs and per-scenario zone schedules.

A zone coordinator describes the joint activity of its intersections as a
task graph whose branches are guarded by qualitative traffic conditions
(e.g. L/H per monitored segment).  Enumerating the condition labels gives
the scenario set; each scenario resolves to a concrete graph that is
scheduled under shared single-lane road sections acting as exclusive
resources.  The resulting schedule table is what the area level consumes,
and each schedule maps down to signal timing constraints.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import statistics

from .fsm import SignalFsm, TimingConstraint, admitting_state
from .textfmt import ParseError, parse_sections

# Zone name of a task graph whose file gives its [ctg] section no name.
DEFAULT_ZONE = "Z"

# Constraints anchoring the end of a same-direction run are backed off
# by this much so the half-open state region still covers the run.
RUN_END_BACKOFF = 1e-6

# The largest task vehicle count `n`: counts up to 2**53 are exact in a double.
MAX_COUNT = 2.0 ** 53


@dataclass(frozen=True)
class ConditionSite:
    """Qualitative condition on one observed quantity (default binary L/H)."""

    id: str
    labels: tuple[str, ...] = ("L", "H")
    thresholds: tuple[float, ...] = (4.0,)
    segment: str | None = None

    def __post_init__(self):
        if len(set(self.labels)) < len(self.labels) or len(self.labels) < 2:
            raise ValueError(f"[site {self.id}] labels: need >= 2 distinct labels,"
                             f" got {', '.join(self.labels)}")
        if len(self.thresholds) != len(self.labels) - 1:
            raise ValueError(f"[site {self.id}] thresholds: need one threshold per"
                             f" label boundary, got {len(self.thresholds)} for"
                             f" {len(self.labels)} labels")
        if not all(math.isfinite(t) for t in self.thresholds):
            raise ValueError(f"[site {self.id}] thresholds: must be finite numbers,"
                             f" got {', '.join(f'{t:g}' for t in self.thresholds)}")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError(f"[site {self.id}] thresholds: must be strictly increasing")

    def label_for(self, n: float) -> str:
        for label, threshold in zip(self.labels, self.thresholds):
            if n <= threshold:
                return label
        return self.labels[-1]


@dataclass(frozen=True)
class CtgTask:
    """One activity: a (guarded) traversal with per-label attributes.

    `n` and `t_ex` may be plain numbers or mappings keyed by the labels of
    `site`; `itu`/`direction` tag the signalized crossing the task opens
    with.  Dummy tasks (offsets) consume time but no road resources.
    """

    id: str
    guard: tuple[str, str] | None = None
    resources: frozenset[str] = frozenset()
    site: str | None = None
    n: Mapping[str, float] | float = 0.0
    t_ex: Mapping[str, float] | float = 0.0
    dummy: bool = False
    itu: str | None = None
    direction: int | None = None
    skippable: bool = False

    # `Ctg` checks that a per-label value covers each label the task runs under.
    def n_for(self, label: str | None) -> float:
        return float(self.n[label] if isinstance(self.n, Mapping) else self.n)

    def t_ex_for(self, label: str | None) -> float:
        return float(self.t_ex[label] if isinstance(self.t_ex, Mapping) else self.t_ex)


Scenario = tuple[str, ...]


def scenario_name(scenario: Scenario) -> str:
    return "(" + ",".join(scenario) + ")"


def _toposort(ids: list[str], arcs: Iterable[tuple[str, str]],
              node: str = "[task {}]") -> list[str]:
    order_idx = {t: i for i, t in enumerate(ids)}
    succs: dict[str, list[str]] = {t: [] for t in ids}
    indeg = {t: 0 for t in ids}
    for a, b in arcs:
        succs[a].append(b)
        indeg[b] += 1
    ready = sorted((t for t in ids if indeg[t] == 0), key=order_idx.get)
    out = []
    while ready:
        t = ready.pop(0)
        out.append(t)
        for s in sorted(succs[t], key=order_idx.get):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
        ready.sort(key=order_idx.get)
    if len(out) != len(ids):
        stuck = ", ".join(node.format(t) for t in ids if t not in out)
        raise ValueError(f"graph has a cycle; these cannot be ordered: {stuck}")
    return out


@dataclass(frozen=True)
class Ctg:
    """Conditional task graph: tasks, precedence, sites, shared resources.

    `clearance` is the dead time scheduled between tasks that cross the
    same intersection from different directions (the signal needs its
    yellow interval to change sides).
    """

    sites: tuple[ConditionSite, ...]
    tasks: tuple[CtgTask, ...]
    arcs: tuple[tuple[str, str], ...]
    shared_resources: frozenset[str] = frozenset()
    zone: str = ""
    clearance: float = 0.0

    def __post_init__(self):
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate task ids")
        labels = {s.id: s.labels for s in self.sites}
        if len(labels) != len(self.sites):
            raise ValueError("duplicate site ids")
        for t in self.tasks:
            where = f"[task {t.id}]"
            if t.guard and t.guard[1] not in labels.get(t.guard[0], ()):
                raise ValueError(f"{where} guard: no [site {t.guard[0]}] with label"
                                 f" {t.guard[1]!r}")
            if t.site and t.site not in labels:
                raise ValueError(f"{where} site: unknown site {t.site!r}")
            if t.dummy and t.resources & self.shared_resources:
                raise ValueError(f"{where} resources: a dummy task cannot hold shared"
                                 " resources")
            if t.direction not in (None, 1, 2):
                raise ValueError(f"{where} direction: must be 1 or 2, got {t.direction}")
            # A per-label value must cover every label the task can run under.
            attr_site = t.site or (t.guard[0] if t.guard else None)
            runs_under = labels.get(attr_site, ())
            if t.guard and t.guard[0] == attr_site:
                runs_under = (t.guard[1],)
            for key, value in (("n", t.n), ("t_ex", t.t_ex)):
                if not isinstance(value, Mapping):
                    continue
                if attr_site is None:
                    raise ValueError(f"{where} {key}: per-label values need a site")
                missing = [label for label in runs_under if label not in value]
                if missing:
                    raise ValueError(f"{where} {key}: no value for label {missing[0]!r}"
                                     f" of [site {attr_site}]")
            counts = t.n.values() if isinstance(t.n, Mapping) else (t.n,)
            if any(v > MAX_COUNT for v in counts):
                raise ValueError(f"{where} n: must be <= 2**53, got {max(counts):g}")
        known = set(ids)
        for a, b in self.arcs:
            if not {a, b} <= known:
                raise ValueError(f"[task {b}] after: unknown tasks {sorted({a, b} - known)}")
        _toposort(ids, self.arcs)  # raises on cycles

    def label_of(self, scenario: Scenario, site_id: str | None) -> str | None:
        if site_id is None:
            return None
        idx = next(i for i, s in enumerate(self.sites) if s.id == site_id)
        return scenario[idx]

    @cached_property
    def gaps(self) -> tuple[tuple[str, str, float], ...]:
        """Exclusion pairs with their dead times: sorted (task, task, gap).

        Two tasks exclude each other when they hold a common shared road
        resource or cross the same intersection from opposite directions;
        the latter also need `clearance` between them.
        """
        out = []
        for a, b in itertools.combinations(self.tasks, 2):
            opposing = (a.itu is not None and a.itu == b.itu
                        and {a.direction, b.direction} == {1, 2})
            if opposing or a.resources & b.resources & self.shared_resources:
                out.append((*sorted((a.id, b.id)),
                            self.clearance if opposing else 0.0))
        return tuple(sorted(out))


def enumerate_scenarios(ctg: Ctg) -> list[Scenario]:
    """Cartesian product of site labels in deterministic lexicographic order."""
    return [tuple(combo) for combo in
            itertools.product(*[s.labels for s in ctg.sites])]


@dataclass(frozen=True)
class ResolvedTask:
    id: str
    duration: float
    n: float
    resources: frozenset[str]
    dummy: bool = False
    itu: str | None = None
    direction: int | None = None


@dataclass(frozen=True)
class ResolvedGraph:
    scenario: Scenario
    tasks: tuple[ResolvedTask, ...]
    arcs: tuple[tuple[str, str], ...]
    gaps: tuple[tuple[str, str, float], ...]  # (task, task, dead time)

    def task(self, task_id: str) -> ResolvedTask:
        return next(t for t in self.tasks if t.id == task_id)

    def total_n(self) -> float:
        return sum(t.n for t in self.tasks if not t.dummy)


def resolve(ctg: Ctg, scenario: Scenario, drop: frozenset[str] = frozenset()
            ) -> ResolvedGraph:
    """Concrete graph for one scenario: guards applied, attributes selected.

    Arcs incident to removed tasks vanish with them (guarded alternatives
    are authored as parallel branches).  `drop` removes additional
    skippable tasks; used by the fallback path of the hierarchy engine.
    """
    if len(scenario) != len(ctg.sites):
        raise ValueError("scenario must assign a label to every site")
    kept: list[ResolvedTask] = []
    for t in ctg.tasks:
        if t.guard and ctg.label_of(scenario, t.guard[0]) != t.guard[1]:
            continue
        if t.id in drop:
            if not t.skippable:
                raise ValueError(f"task {t.id} is not skippable")
            continue
        attr_site = t.site or (t.guard[0] if t.guard else None)
        label = ctg.label_of(scenario, attr_site)
        duration = t.t_ex_for(label)
        if not t.dummy and duration <= 0:
            raise ValueError(f"task {t.id}: non-dummy duration must be > 0")
        kept.append(ResolvedTask(t.id, duration, t.n_for(label), t.resources,
                                 t.dummy, t.itu, t.direction))
    ids = {t.id for t in kept}
    arcs = tuple((a, b) for a, b in ctg.arcs if a in ids and b in ids)
    gaps = tuple(g for g in ctg.gaps if g[0] in ids and g[1] in ids)
    return ResolvedGraph(tuple(scenario), tuple(kept), arcs, gaps)


@dataclass(frozen=True)
class ZoneSchedule:
    """Feasible start times for one scenario."""

    scenario: Scenario
    starts: dict[str, float]
    finishes: dict[str, float]
    makespan: float
    graph: ResolvedGraph


def _priorities(graph: ResolvedGraph, objective: str) -> dict[str, float]:
    """Critical-path priority: longest downstream weight chain incl. self."""
    weight = {t.id: (t.n if objective == "throughput" else t.duration)
              for t in graph.tasks}
    succs: dict[str, list[str]] = {t.id: [] for t in graph.tasks}
    for a, b in graph.arcs:
        succs[a].append(b)
    prio: dict[str, float] = {}
    for tid in reversed(_toposort([t.id for t in graph.tasks], graph.arcs)):
        downstream = max((prio[s] for s in succs[tid]), default=0.0)
        prio[tid] = weight[tid] + downstream
    return prio


def schedule(graph: ResolvedGraph, objective: str = "makespan") -> ZoneSchedule:
    """List scheduling under precedence and exclusion with dead times.

    Ready tasks are started greedily in priority order (critical-path
    length, ties broken by declaration order), each at the earliest time
    its predecessors have finished and every started exclusion partner
    has been done for at least the pair's dead time.
    """
    if objective not in ("makespan", "throughput"):
        raise ValueError(f"unknown objective {objective!r}")
    order_idx = {t.id: i for i, t in enumerate(graph.tasks)}
    prio = _priorities(graph, objective)
    preds: dict[str, list[str]] = {t.id: [] for t in graph.tasks}
    for a, b in graph.arcs:
        preds[b].append(a)
    partners: dict[str, list[tuple[str, float]]] = {t.id: [] for t in graph.tasks}
    for a, b, gap in graph.gaps:
        partners[a].append((b, gap))
        partners[b].append((a, gap))

    starts: dict[str, float] = {}
    finishes: dict[str, float] = {}
    pending = {t.id for t in graph.tasks}
    events: list[float] = []
    now = 0.0
    while pending:
        startable = []
        for tid in pending:
            if any(p not in finishes or finishes[p] > now for p in preds[tid]):
                continue
            blocked = False
            for other, gap in partners[tid]:
                if other in finishes and finishes[other] + gap > now:
                    blocked = True
                    break
            if not blocked:
                startable.append(tid)
        if startable:
            tid = min(startable, key=lambda t: (-prio[t], order_idx[t]))
            task = graph.task(tid)
            starts[tid] = now
            finishes[tid] = now + task.duration
            heapq.heappush(events, finishes[tid])
            for other, gap in partners[tid]:
                if gap > 0:
                    heapq.heappush(events, finishes[tid] + gap)
            pending.discard(tid)
            continue
        while events and events[0] <= now:
            heapq.heappop(events)
        if not events:
            raise AssertionError("scheduler stalled with no future events")
        now = heapq.heappop(events)

    makespan = max(finishes.values(), default=0.0)
    return ZoneSchedule(graph.scenario, starts, finishes, makespan, graph)


@dataclass(frozen=True)
class ScheduleTable:
    """One optimized schedule per enumerated scenario."""

    zone: str
    scenarios: tuple[Scenario, ...]
    schedules: dict[Scenario, ZoneSchedule]

    def t_area(self, scenario: Scenario) -> float:
        return self.schedules[scenario].makespan

    def columns(self) -> list[tuple[Scenario, ZoneSchedule]]:
        return [(s, self.schedules[s]) for s in self.scenarios]


def build_table(ctg: Ctg, objective: str = "makespan",
                drop: frozenset[str] = frozenset()) -> ScheduleTable:
    """Schedule every scenario of the graph into one table."""
    scenarios = enumerate_scenarios(ctg)
    schedules = {s: schedule(resolve(ctg, s, drop), objective) for s in scenarios}
    return ScheduleTable(ctg.zone, tuple(scenarios), schedules)


def table_to_csv(table: ScheduleTable) -> str:
    """One row per scheduled task: scenario, task, start, finish, resources."""
    import csv
    import io
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["scenario", "task", "start", "finish", "resource"])
    for scenario, sched in table.columns():
        for t in sched.graph.tasks:
            w.writerow([scenario_name(scenario), t.id,
                        "%.9g" % sched.starts[t.id],
                        "%.9g" % sched.finishes[t.id],
                        ";".join(sorted(t.resources))])
    return buf.getvalue()


def derive_timing_constraints(sched: ZoneSchedule, itu_id: str,
                              cycle: float | None = None
                              ) -> tuple[TimingConstraint, ...]:
    """Signal deadlines that make the local controller admit this schedule.

    Crossing tasks at the intersection are grouped into maximal runs of
    one direction; each run anchors the admitting state at its start
    (preceding finish plus the adjacent idle gap) and just before its end.
    A schedule using a single direction needs no state change and yields
    no constraints.
    """
    crossing = sorted(
        (t for t in sched.graph.tasks
         if t.itu == itu_id and t.direction is not None and not t.dummy),
        key=lambda t: (sched.starts[t.id], t.id))
    if not crossing:
        return ()
    if len({t.direction for t in crossing}) < 2:
        return ()
    label = scenario_name(sched.scenario)
    runs: list[list[ResolvedTask]] = []
    for t in crossing:
        if runs and runs[-1][-1].direction == t.direction:
            runs[-1].append(t)
        else:
            runs.append([t])
    constraints = []
    for run in runs:
        state = admitting_state(run[0].direction)
        start = sched.starts[run[0].id]
        end = sched.finishes[run[-1].id]
        if cycle is not None:
            start, end = start % cycle, end % cycle
        constraints.append(TimingConstraint(start, state, label))
        anchor = max(start, end - RUN_END_BACKOFF)
        if anchor > start:
            constraints.append(TimingConstraint(anchor, state, label))
    return tuple(constraints)


def load_ctg(text: str) -> Ctg:
    """Build a conditional task graph from its structured-text description."""
    sites: list[ConditionSite] = []
    tasks: list[CtgTask] = []
    arcs: list[tuple[str, str]] = []
    shared: frozenset[str] = frozenset()
    zone = DEFAULT_ZONE
    clearance = 0.0
    for sec in parse_sections(text):
        if sec.kind == "ctg":
            zone = sec.name or DEFAULT_ZONE
            shared = frozenset(sec.get_list("shared"))
            clearance = sec.number("clearance", 0.0, low=0)
        elif sec.kind == "site":
            labels = tuple(sec.get_list("labels")) or ("L", "H")
            thresholds = tuple(sec.numbers("thresholds")) or (4.0,)
            with sec.context():
                sites.append(ConditionSite(sec.name, labels, thresholds,
                                           sec.get("segment")))
        elif sec.kind == "task":
            guard = sec.items("guard", "site:label", str, str)
            if len(guard) > 1:
                raise sec.error("guard", "expected one site:label")
            dummy = sec.get_bool("dummy")
            tasks.append(CtgTask(
                sec.name, guard[0] if guard else None,
                frozenset(sec.get_list("resources")), sec.get("site"),
                sec.by_label("n", 0.0, low=0),
                sec.by_label("t_ex", 0.0, low=0, open_low=not dummy),
                dummy, sec.get("itu"), sec.get_int("direction"),
                sec.get_bool("skippable")))
            for pred in sec.get_list("after"):
                arcs.append((pred, sec.name))
        else:
            raise ParseError(f"unknown section kind {sec.kind!r} in ctg file")
    return Ctg(tuple(sites), tuple(tasks), tuple(arcs), shared, zone, clearance)


class RunningMedianThreshold:
    """Per-site condition boundary refined online as the median of observed N.

    The configured threshold seeds the history so early cycles behave as
    authored; every observed per-cycle count then shifts the boundary
    toward the running median of the site's own traffic.
    """

    def __init__(self, site: ConditionSite):
        self.site = site
        self.history: list[float] = [site.thresholds[0]]

    @property
    def threshold(self) -> float:
        return statistics.median(self.history)

    def observe(self, n: float) -> str:
        if len(self.site.labels) == 2:
            label = self.site.labels[0] if n <= self.threshold else self.site.labels[1]
        else:
            label = self.site.label_for(n)  # multi-label sites keep static bounds
        self.history.append(float(n))
        return label


def check_schedule_admission(fsm: SignalFsm, sched: ZoneSchedule, itu_id: str,
                             resolution: float = 0.1) -> list[tuple[str, float]]:
    """Replay oracle: sample each crossing task's interval against the FSM.

    Returns (task id, time) pairs where the controller state does not
    admit the task's direction.
    """
    violations = []
    for t in sched.graph.tasks:
        if t.itu != itu_id or t.direction is None or t.dummy:
            continue
        lo, hi = sched.starts[t.id], sched.finishes[t.id]
        samples = [lo]
        k = 1
        while lo + k * resolution < hi:
            samples.append(lo + k * resolution)
            k += 1
        samples.append(max(lo, hi - RUN_END_BACKOFF))
        for at in samples:
            if not fsm.state_at(at).admits(t.direction):
                violations.append((t.id, at))
    return violations
