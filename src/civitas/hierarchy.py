"""Joint top-down/bottom-up constraint transformation across control levels.

Constraints flow strictly one level down (global goal allocation to
areas, schedule-table bounds to zones, signal timing deadlines to
intersections); violations flow strictly one level up as quantified
shortfalls.  A reconcile pass pushes constraints down, runs the children,
aggregates violations and recomputes the deepest flagged parents first;
the loop stops at convergence or degrades affected intersections to their
safe implementation mode when the iteration budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import ctg as ctgmod
from . import fsm as fsmmod
from .ctmdp import Ctmdp, solve_model
from .fgraph import FunctionGraph, distribute_goals
from .registry import DmRegistry, InteractionKind

LEVEL_INTERSECTION = 1
LEVEL_ZONE = 2
LEVEL_AREA = 3
LEVEL_GLOBAL = 4

DEFAULT_BUDGET = 5


@dataclass(frozen=True)
class GoalTarget:
    throughput: int
    deadline: float


@dataclass(frozen=True)
class TableBound:
    t_area_max: float


@dataclass(frozen=True)
class ConstraintMsg:
    source_level: int
    target_level: int
    source: str
    target: str
    payload: object
    issued_at: float

    def __post_init__(self):
        if self.target_level != self.source_level - 1:
            raise ValueError("constraints move exactly one level down")


@dataclass(frozen=True)
class ViolationMsg:
    source_level: int
    target_level: int
    source: str
    target: str
    quantity: str
    shortfall: float
    occurred_at: float

    def __post_init__(self):
        if self.shortfall <= 0:
            raise ValueError("shortfall must be > 0")
        if self.target_level != self.source_level + 1:
            raise ValueError("violations move exactly one level up")


@dataclass(frozen=True)
class PerformanceNeeds:
    parent: str
    totals: tuple[tuple[str, float], ...]  # (quantity, summed shortfall)


def aggregate_needs(violations: list[ViolationMsg]) -> list[PerformanceNeeds]:
    """Sum shortfalls per (parent, quantity); parents of the result are flagged."""
    sums: dict[str, dict[str, float]] = {}
    for v in violations:
        sums.setdefault(v.target, {})[v.quantity] = (
            sums.get(v.target, {}).get(v.quantity, 0.0) + v.shortfall)
    return [PerformanceNeeds(parent, tuple(sorted(q.items())))
            for parent, q in sorted(sums.items())]


@dataclass
class ZoneUnit:
    """Zone coordinator state inside the engine."""

    id: str
    ctg: ctgmod.Ctg
    table: ctgmod.ScheduleTable
    itus: tuple[str, ...]
    scenario: ctgmod.Scenario
    cycle: float
    preferred: ctgmod.Scenario | None = None
    rejected: set = field(default_factory=set)
    bound: float | None = None
    min_throughput: float = 0.0
    dropped_tasks: frozenset[str] = frozenset()

    def active_column(self) -> ctgmod.Scenario:
        return self.preferred if self.preferred is not None else self.scenario

    def set_scenario(self, scenario: ctgmod.Scenario) -> None:
        if scenario != self.scenario:
            self.scenario = scenario
            self.preferred = None
            self.rejected = set()
            self.dropped_tasks = frozenset()

    def schedule_for(self, column: ctgmod.Scenario) -> ctgmod.ZoneSchedule:
        if self.dropped_tasks:
            return ctgmod.schedule(
                ctgmod.resolve(self.ctg, column, self.dropped_tasks))
        return self.table.schedules[column]

    def constraints_for(self, column: ctgmod.Scenario,
                        itu: str) -> tuple[fsmmod.TimingConstraint, ...]:
        return ctgmod.derive_timing_constraints(
            self.schedule_for(column), itu, cycle=self.cycle)


@dataclass
class AreaUnit:
    id: str
    zones: tuple[str, ...]
    model: Ctmdp | None = None
    target: GoalTarget | None = None
    objective: float | None = None

    def set_model(self, model: Ctmdp, objective: float | None = None) -> None:
        self.model = model
        self.objective = objective

    def expected_throughput(self, engine: "HierarchyEngine") -> float:
        if self.model is not None:
            if self.objective is None:
                sol = solve_model(self.model)
                if sol.status != "optimal":
                    return 0.0
                self.objective = sol.objective
            return self.objective
        total = 0.0
        for zid in self.zones:
            zone = engine.zones[zid]
            total += zone.schedule_for(zone.active_column()).graph.total_n()
        return total


@dataclass
class GlobalUnit:
    id: str
    fg: FunctionGraph
    target: int
    deadline: float
    areas: tuple[str, ...]


@dataclass(frozen=True)
class ReconcileReport:
    converged: bool
    passes: int
    unresolved: tuple[ViolationMsg, ...] = ()
    safe_engaged: tuple[str, ...] = ()


def report_to_csv(report: ReconcileReport) -> str:
    lines = ["converged,passes,source,quantity,shortfall,safe_engaged"]
    safe = ";".join(report.safe_engaged)
    if not report.unresolved:
        lines.append(f"{report.converged},{report.passes},,,0,{safe}")
    for v in report.unresolved:
        lines.append("%s,%d,%s,%s,%.9g,%s" % (
            report.converged, report.passes, v.source, v.quantity, v.shortfall, safe))
    return "\n".join(lines) + "\n"


class HierarchyEngine:
    """Owns one coordinator per level and runs the reconcile loop."""

    def __init__(self, top: GlobalUnit, areas: dict[str, AreaUnit],
                 zones: dict[str, ZoneUnit],
                 controllers: dict[str, fsmmod.IntersectionController],
                 registry: DmRegistry | None = None,
                 budget: int = DEFAULT_BUDGET):
        self.top = top
        self.areas = areas
        self.zones = zones
        self.controllers = controllers
        self.registry = registry
        self.budget = budget
        self.messages: list[object] = []
        self.parent_of = {zid: aid for aid, area in areas.items() for zid in area.zones}
        for zid, zone in zones.items():
            for itu in zone.itus:
                self.parent_of[itu] = zid
        for aid in areas:
            self.parent_of[aid] = top.id

    def _check_route(self, src: str, dst: str, expected: InteractionKind) -> None:
        if self.registry is None:
            return
        kind = self.registry.link_kind(src, dst)
        if kind is not expected:
            raise ValueError(
                f"message route {src}->{dst} needs a {expected.value} link, found "
                f"{kind.value if kind else 'none'}")

    def _send_down(self, msg: ConstraintMsg) -> ConstraintMsg:
        self._check_route(msg.source, msg.target, InteractionKind.GUIDING)
        self.messages.append(msg)
        return msg

    def _send_up(self, msg: ViolationMsg) -> ViolationMsg:
        self._check_route(msg.source, msg.target, InteractionKind.ENABLING)
        self.messages.append(msg)
        return msg

    def push_down(self, at: float = 0.0) -> list[ConstraintMsg]:
        """Emit one constraint message per child module, top to bottom."""
        msgs: list[ConstraintMsg] = []
        alloc = distribute_goals(self.top.fg, self.top.target, self.top.deadline)
        for aid in self.top.areas:
            target = GoalTarget(alloc.target(aid), alloc.deadline(aid))
            self.areas[aid].target = target
            msgs.append(self._send_down(ConstraintMsg(
                LEVEL_GLOBAL, LEVEL_AREA, self.top.id, aid, target, at)))
        for aid in self.top.areas:
            area = self.areas[aid]
            deadline = area.target.deadline if area.target else self.top.deadline
            floor = (area.target.throughput / len(area.zones)
                     if area.target and area.zones else 0.0)
            for zid in area.zones:
                self.zones[zid].bound = deadline
                self.zones[zid].min_throughput = floor
                msgs.append(self._send_down(ConstraintMsg(
                    LEVEL_AREA, LEVEL_ZONE, aid, zid, TableBound(deadline), at)))
        for zid, zone in self.zones.items():
            column = zone.active_column()
            for itu in zone.itus:
                constraints = zone.constraints_for(column, itu)
                msgs.append(self._send_down(ConstraintMsg(
                    LEVEL_ZONE, LEVEL_INTERSECTION, zid, itu, constraints, at)))
        return msgs

    def run_children(self, msgs: list[ConstraintMsg], at: float = 0.0
                     ) -> list[ViolationMsg]:
        """Apply pushed constraints bottom-up and collect violations."""
        violations: list[ViolationMsg] = []
        for msg in msgs:
            if msg.target_level != LEVEL_INTERSECTION:
                continue
            ctrl = self.controllers[msg.target]
            outcome = fsmmod.apply_timing_constraints(ctrl.fsm, msg.payload)
            if isinstance(outcome, fsmmod.InfeasibilityReport):
                shortfall = max((e.shortfall for e in outcome.entries), default=0.0)
                violations.append(self._send_up(ViolationMsg(
                    LEVEL_INTERSECTION, LEVEL_ZONE, msg.target, msg.source,
                    "state_deadline", max(shortfall, 1e-9), at)))
            else:
                self.controllers[msg.target] = replace(ctrl, fsm=outcome)
        for zid, zone in self.zones.items():
            if zone.bound is None:
                continue
            t_area = zone.schedule_for(zone.active_column()).makespan
            if t_area > zone.bound:
                violations.append(self._send_up(ViolationMsg(
                    LEVEL_ZONE, LEVEL_AREA, zid, self.parent_of[zid],
                    "t_area", t_area - zone.bound, at)))
        for aid, area in self.areas.items():
            if area.target is None:
                continue
            expected = area.expected_throughput(self)
            if expected < area.target.throughput:
                violations.append(self._send_up(ViolationMsg(
                    LEVEL_AREA, LEVEL_GLOBAL, aid, self.top.id,
                    "throughput", area.target.throughput - expected, at)))
        return violations

    def _itu_feasible(self, zone: ZoneUnit, column: ctgmod.Scenario) -> bool:
        for itu in zone.itus:
            constraints = zone.constraints_for(column, itu)
            outcome = fsmmod.apply_timing_constraints(
                self.controllers[itu].fsm, constraints)
            if isinstance(outcome, fsmmod.InfeasibilityReport):
                return False
        return True

    def _recompute_zone(self, zone: ZoneUnit) -> bool:
        """Pick the lightest-makespan column (or fallback) the ITUs can serve."""
        zone.rejected.add((zone.active_column(), zone.dropped_tasks))
        candidates = sorted(zone.table.scenarios,
                            key=lambda s: (zone.table.t_area(s), s))
        for column in candidates:
            if (column, frozenset()) in zone.rejected:
                continue
            if zone.bound is not None and zone.table.t_area(column) > zone.bound:
                continue
            if self._itu_feasible(zone, column):
                zone.preferred = column
                zone.dropped_tasks = frozenset()
                return True
        # Fallback path: skip skippable tasks unless throughput would drop
        # below the active top-down requirement.
        skippable = frozenset(t.id for t in zone.ctg.tasks if t.skippable)
        if skippable:
            for column in candidates:
                if (column, skippable) in zone.rejected:
                    continue
                graph = ctgmod.resolve(zone.ctg, column, skippable)
                if graph.total_n() < zone.min_throughput:
                    continue
                sched = ctgmod.schedule(graph)
                if zone.bound is not None and sched.makespan > zone.bound:
                    continue
                saved = zone.dropped_tasks
                zone.dropped_tasks = skippable
                if self._itu_feasible(zone, column):
                    zone.preferred = column
                    return True
                zone.dropped_tasks = saved
        return False

    def _recompute_area(self, area: AreaUnit) -> None:
        # Relax each zone's bound to what it can actually achieve, provided
        # the area deadline still covers it.
        for zid in area.zones:
            zone = self.zones[zid]
            best = min(zone.table.t_area(s) for s in zone.table.scenarios)
            if area.target is not None and best <= area.target.deadline:
                zone.bound = max(zone.bound or 0.0, best)

    def _recompute_global(self, needs: list[PerformanceNeeds]) -> None:
        # Accept the documented degradation: shrink the global target by the
        # aggregate throughput shortfall so feasible goals are re-distributed.
        for need in needs:
            if need.parent != self.top.id:
                continue
            for quantity, total in need.totals:
                if quantity == "throughput":
                    self.top.target = max(0, self.top.target - int(round(total)))

    def reconcile(self, at: float = 0.0) -> ReconcileReport:
        """Push down, run children, push up, recompute; loop within budget."""
        violations: list[ViolationMsg] = []
        for pass_n in range(1, self.budget + 1):
            msgs = self.push_down(at)
            violations = self.run_children(msgs, at)
            if not violations:
                return ReconcileReport(True, pass_n)
            needs = aggregate_needs(violations)
            flagged = {n.parent for n in needs}
            # Deepest flagged parents first: zones, then areas, then the top.
            for zid in sorted(self.zones):
                if zid in flagged:
                    self._recompute_zone(self.zones[zid])
            for aid in sorted(self.areas):
                if aid in flagged:
                    self._recompute_area(self.areas[aid])
            if self.top.id in flagged:
                self._recompute_global(needs)
        safe_engaged = []
        affected_zones = {v.source for v in violations if v.source_level == LEVEL_ZONE}
        affected_zones.update(v.target for v in violations
                              if v.source_level == LEVEL_INTERSECTION)
        affected_itus = {v.source for v in violations
                         if v.source_level == LEVEL_INTERSECTION}
        for zid in affected_zones:
            if zid in self.zones:
                affected_itus.update(self.zones[zid].itus)
        for itu in sorted(affected_itus):
            self.controllers[itu] = fsmmod.shortcut_to_safe(
                self.controllers[itu], f"reconcile budget exhausted at {at}", at)
            safe_engaged.append(itu)
        return ReconcileReport(False, self.budget, tuple(violations),
                               tuple(safe_engaged))
