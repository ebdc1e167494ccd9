"""Joint top-down/bottom-up constraint transformation across control levels.

Constraints flow strictly one level down (global goal allocation to
areas, schedule-table bounds to zones, signal timing deadlines to
intersections); violations flow strictly one level up as quantified
shortfalls.  A reconcile pass pushes constraints down, runs the children
and recomputes the flagged parents, deepest first.  The loop stops at
convergence, or degrades affected intersections to their safe
implementation mode once a pass changes nothing or the budget runs out.

Between reconciles the engine keeps three results, each recomputed only
when its inputs change: the goal allocation of the top's function graph
(for the graph object, target and deadline it was computed from), each
zone's timing constraints per (table, column, ITU), and the outcome of
applying constraints to a signal per (FSM, constraints) pair of values.
A schedule table, its columns and a zone's cycle never change after
construction, and the graph, signals and constraints are frozen, so a
kept result is the one a fresh computation would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import ctg as ctgmod
from . import fgraph as fgmod
from . import fsm as fsmmod

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
class SafeModeMsg:
    """`target` degraded to its safe implementation mode at `engaged_at`
    because the reconcile `why` ("stalled" or "budget exhausted")."""

    target: str
    why: str
    engaged_at: float


@dataclass
class ZoneUnit:
    """Zone coordinator state inside the engine.

    `fallback` is the schedule table of the graph without its skippable
    tasks (None when it has none).  `choice` is the (column, on fallback
    table) the zone serves after a recompute, None for its scenario's
    column of the full table.  `constraints_for` keeps what it derives.
    """

    id: str
    ctg: ctgmod.Ctg
    table: ctgmod.ScheduleTable
    itus: tuple[str, ...]
    scenario: ctgmod.Scenario
    cycle: float
    choice: tuple[ctgmod.Scenario, bool] | None = None
    rejected: set = field(default_factory=set)
    bound: float | None = None
    min_throughput: float = 0.0
    fallback: ctgmod.ScheduleTable | None = field(init=False)
    _constraints: dict = field(init=False, default_factory=dict, repr=False,
                               compare=False)

    def __post_init__(self):
        drop = frozenset(t.id for t in self.ctg.tasks if t.skippable)
        self.fallback = ctgmod.build_table(self.ctg, drop=drop) if drop else None

    def set_scenario(self, scenario: ctgmod.Scenario) -> None:
        if scenario != self.scenario:
            self.scenario = scenario
            self.choice = None
            self.rejected = set()

    def schedule(self, column: ctgmod.Scenario,
                 on_fallback: bool = False) -> ctgmod.ZoneSchedule:
        return (self.fallback if on_fallback else self.table).schedules[column]

    @property
    def active(self) -> tuple[ctgmod.Scenario, bool]:
        """The (column, on fallback table) the zone serves."""
        return self.choice or (self.scenario, False)

    def active_schedule(self) -> ctgmod.ZoneSchedule:
        return self.schedule(*self.active)

    def constraints_for(self, column: ctgmod.Scenario, on_fallback: bool,
                        itu: str) -> tuple[fsmmod.TimingConstraint, ...]:
        """The timing constraints that `column`'s schedule on the full or
        the fallback table sets `itu`, derived on first use and kept: the
        same tuple every later call."""
        key = (column, on_fallback, itu)
        constraints = self._constraints.get(key)
        if constraints is None:
            constraints = self._constraints[key] = ctgmod.derive_timing_constraints(
                self.schedule(column, on_fallback), itu, cycle=self.cycle)
        return constraints


@dataclass
class AreaUnit:
    """Area coordinator state; `objective` is the last solved CTMDP's value."""

    id: str
    zones: tuple[str, ...]
    target: GoalTarget | None = None
    objective: float | None = None

    def expected_throughput(self, engine: "HierarchyEngine") -> float:
        if self.objective is not None:
            return self.objective
        total = 0.0
        for zid in self.zones:
            total += engine.zones[zid].active_schedule().graph.total_n()
        return total


@dataclass
class GlobalUnit:
    id: str
    fg: fgmod.FunctionGraph
    target: int
    deadline: float


@dataclass(frozen=True)
class ReconcileReport:
    converged: bool
    passes: int
    unresolved: tuple[ViolationMsg, ...] = ()
    safe_engaged: tuple[str, ...] = ()


class HierarchyEngine:
    """Owns one coordinator per level and runs the reconcile loop."""

    def __init__(self, top: GlobalUnit, areas: dict[str, AreaUnit],
                 zones: dict[str, ZoneUnit],
                 controllers: dict[str, fsmmod.IntersectionController],
                 budget: int = DEFAULT_BUDGET):
        """Raise ValueError unless the modules form a tree: each zone in one
        area, each ITU in one zone under a controller with a safe mode."""
        self.top = top
        self.areas = areas
        self.zones = zones
        self.controllers = controllers
        if budget < 1:
            raise ValueError(f"budget {budget} allows no reconcile pass")
        self.budget = budget
        self.messages: list[object] = []
        # (fg, target, deadline, allocation) of the last allocation, and
        # (fsm, outcome) per (fsm, constraints) pair applied so far
        self._allocation: tuple | None = None
        self._applied: dict[tuple, tuple] = {}
        self.parent_of = {aid: top.id for aid in areas}
        for kind, tree in (("areas", {aid: a.zones for aid, a in areas.items()}),
                           ("zones", {zid: z.itus for zid, z in zones.items()})):
            for parent, children in tree.items():
                for child in children:
                    if child in self.parent_of:
                        raise ValueError(f"{child!r} is listed by {kind}"
                                         f" {self.parent_of[child]!r} and {parent!r}")
                    self.parent_of[child] = parent
        for zid, zone in zones.items():
            for itu in zone.itus:
                if itu not in controllers:
                    raise ValueError(f"ITU {itu!r} of zone {zid!r} has no controller")
                if not controllers[itu].modes:
                    raise ValueError(f"ITU {itu!r} of zone {zid!r} has no safe mode")

    def _send(self, msg):
        """Log `msg` on `messages`, the engine's one decision trail; return it."""
        self.messages.append(msg)
        return msg

    def allocation(self) -> fgmod.GoalAllocation:
        """The top's goal distributed over its function graph, recomputed
        only when `top.fg` (by identity), `top.target` or `top.deadline`
        changed since the last call."""
        fg, target, deadline = self.top.fg, self.top.target, self.top.deadline
        kept = self._allocation
        if kept is None or kept[0] is not fg or kept[1:3] != (target, deadline):
            kept = self._allocation = (fg, target, deadline,
                                       fgmod.distribute_goals(fg, target, deadline))
        return kept[3]

    def _apply(self, fsm: fsmmod.SignalFsm,
               constraints: tuple[fsmmod.TimingConstraint, ...]
               ) -> fsmmod.SignalFsm | fsmmod.InfeasibilityReport:
        """`apply_timing_constraints`, computed once per (FSM, constraints)
        pair of values; an FSM that already satisfies them is returned as
        it came."""
        key = (fsm, constraints)
        kept = self._applied.get(key)
        if kept is None:
            kept = self._applied[key] = (
                fsm, fsmmod.apply_timing_constraints(fsm, constraints))
        return fsm if kept[1] is kept[0] else kept[1]

    def push_down(self, at: float = 0.0) -> list[ConstraintMsg]:
        """Emit one constraint message per child module, top to bottom."""
        msgs: list[ConstraintMsg] = []
        alloc = self.allocation()
        for aid, area in self.areas.items():
            area.target = GoalTarget(alloc.target(aid), alloc.deadline(aid))
            msgs.append(self._send(ConstraintMsg(
                LEVEL_GLOBAL, LEVEL_AREA, self.top.id, aid, area.target, at)))
        for aid, area in self.areas.items():
            target, zones = area.target, area.zones
            for zid in zones:
                self.zones[zid].bound = target.deadline
                self.zones[zid].min_throughput = target.throughput / len(zones)
                msgs.append(self._send(ConstraintMsg(
                    LEVEL_AREA, LEVEL_ZONE, aid, zid, TableBound(target.deadline), at)))
        for zid, zone in self.zones.items():
            column, on_fallback = zone.active
            for itu in zone.itus:
                msgs.append(self._send(ConstraintMsg(
                    LEVEL_ZONE, LEVEL_INTERSECTION, zid, itu,
                    zone.constraints_for(column, on_fallback, itu), at)))
        return msgs

    def run_children(self, msgs: list[ConstraintMsg], at: float = 0.0
                     ) -> list[ViolationMsg]:
        """Apply pushed constraints bottom-up and collect violations."""
        violations: list[ViolationMsg] = []
        for msg in msgs:
            if msg.target_level != LEVEL_INTERSECTION:
                continue
            ctrl = self.controllers[msg.target]
            outcome = self._apply(ctrl.fsm, msg.payload)
            if isinstance(outcome, fsmmod.InfeasibilityReport):
                shortfall = max((e.shortfall for e in outcome.entries), default=0.0)
                violations.append(self._send(ViolationMsg(
                    LEVEL_INTERSECTION, LEVEL_ZONE, msg.target, msg.source,
                    "state_deadline", max(shortfall, 1e-9), at)))
            elif outcome is not ctrl.fsm:
                self.controllers[msg.target] = replace(ctrl, fsm=outcome)
        for zid, zone in self.zones.items():
            if zone.bound is None:
                continue
            t_area = zone.active_schedule().makespan
            if t_area > zone.bound:
                violations.append(self._send(ViolationMsg(
                    LEVEL_ZONE, LEVEL_AREA, zid, self.parent_of[zid],
                    "t_area", t_area - zone.bound, at)))
        for aid, area in self.areas.items():
            if area.target is None:
                continue
            expected = area.expected_throughput(self)
            if expected < area.target.throughput:
                violations.append(self._send(ViolationMsg(
                    LEVEL_AREA, LEVEL_GLOBAL, aid, self.top.id,
                    "throughput", area.target.throughput - expected, at)))
        return violations

    def _itu_feasible(self, zone: ZoneUnit, column: ctgmod.Scenario,
                      on_fallback: bool) -> bool:
        return not any(isinstance(
            self._apply(self.controllers[itu].fsm,
                        zone.constraints_for(column, on_fallback, itu)),
            fsmmod.InfeasibilityReport) for itu in zone.itus)

    def _recompute_zone(self, zone: ZoneUnit) -> bool:
        """Choose the first schedule the zone's intersections can serve.

        The full table's columns come first, then the fallback table's,
        each in order of full-table makespan; every column is judged on its
        own table's schedule.  A fallback schedule must also keep the
        zone's throughput floor.  Rejected choices are not retried.
        """
        zone.rejected.add(zone.active)
        columns = sorted(zone.table.scenarios, key=lambda s: (zone.table.t_area(s), s))
        for on_fallback in (False, True) if zone.fallback else (False,):
            for column in columns:
                sched = zone.schedule(column, on_fallback)
                if ((column, on_fallback) in zone.rejected
                        or on_fallback and sched.graph.total_n() < zone.min_throughput
                        or zone.bound is not None and sched.makespan > zone.bound):
                    continue
                if self._itu_feasible(zone, column, on_fallback):
                    zone.choice = (column, on_fallback)
                    return True
        return False

    def _recompute_global(self, violations: list[ViolationMsg]) -> bool:
        # Accept the documented degradation: shrink the global target by the
        # areas' summed throughput shortfall so feasible goals are
        # re-distributed.  True when the target moved.
        before = self.top.target
        self.top.target = max(0, before - int(round(sum(
            v.shortfall for v in violations if v.target == self.top.id))))
        return self.top.target != before

    def reconcile(self, at: float = 0.0) -> ReconcileReport:
        """Push down, run children, recompute; repeat while a recompute
        changes something, within the budget.  A loop that does not
        converge engages safe mode, one `SafeModeMsg` per intersection in
        the order of `controllers`, as stalled when it stopped before its
        last pass and as out of budget otherwise."""
        for pass_n in range(1, self.budget + 1):
            violations = self.run_children(self.push_down(at), at)
            if not violations:
                return ReconcileReport(True, pass_n)
            flagged = {v.target for v in violations}
            # Deepest flagged parents first: zones, then the top.  A pass
            # after one that changed nothing would repeat it.
            changed = False
            for zid in sorted(self.zones):
                if zid in flagged:
                    changed |= self._recompute_zone(self.zones[zid])
            if self.top.id in flagged:
                changed |= self._recompute_global(violations)
            if not changed:
                break
        # Safe mode for every intersection of a zone that failed or that
        # one of its intersections failed.
        failed = ({v.source for v in violations if v.source_level == LEVEL_ZONE}
                  | {v.target for v in violations if v.target_level == LEVEL_ZONE})
        engaged = {itu for zid in failed for itu in self.zones[zid].itus}
        why = "stalled" if pass_n < self.budget else "budget exhausted"
        for itu, ctrl in self.controllers.items():
            if itu in engaged:
                self.controllers[itu] = fsmmod.shortcut_to_safe(ctrl)
                self._send(SafeModeMsg(itu, why, at))
        return ReconcileReport(False, pass_n, tuple(violations),
                               tuple(sorted(engaged)))
