"""Oracles for the timing code of `civitas.fsm`, the reconcile loop,
the area CTMDP's arrays and the lighting controller, and the helpers
that only tests use.

Two independent checkers step through time instead of reasoning about
the cycle's regions: sampled replays of a signal against its deadlines
and schedules.  The green-split rule is also kept here in its earlier
form, one hand-written region layout per anchor and a probe signal per
anchor rotation, which `fsm.apply_timing_constraints` must match bit
for bit.  The reconcile loop is kept in its budget-only form, which runs
passes until convergence or the budget even when a pass changed nothing,
and its push-down and run-children pass in their uncached form, which
allocates goals, derives constraints and applies them afresh each time.
The CTMDP's generator checks, the balance rows of its LP and the
simplex's pivot step are kept as the per-row loops they were.  The input
files' sections are read by configparser, as `textfmt.parse_sections`
once read them.

The lighting controller's max-min inference and centroid are kept in
their sampled form: the output set is built on the whole command grid
and its centre of mass summed, which `fuzzy.control` and `fuzzy.surface`
must match to the last bits.  A world's arrivals are kept as
`make_world` drew them before it drew each when it came due: all of
them up front, sorted by time and entry.  The event log's bytes are
read back into records, with the exact times of `world.step`'s from
the world's own records and its arrivals where a check compares times.
A zone's vehicle count by the event log is checked against its queues,
a closed network is seeded with vehicles, an LP is assembled from
(row, rhs) pairs, and a PCG64 stream's state is spelled as numpy
spells it.
"""

import configparser
import copy
from dataclasses import dataclass, replace
from heapq import heappop

import numpy as np

from civitas import fuzzy
from civitas.ctg import RUN_END_BACKOFF, ZoneSchedule, derive_timing_constraints
from civitas.ctmdp import GENERATOR_TOL
from civitas.fgraph import distribute_goals
from civitas.fsm import (_EDGE_EPS, CYCLIC_ORDER, GREEN_MIN, RED_MIN,
                         ConstraintShortfall, InfeasibilityReport, SignalFsm,
                         SignalState, TimingConstraint, _satisfied, _shortfall,
                         apply_timing_constraints, shortcut_to_safe)
from civitas.hierarchy import (LEVEL_AREA, LEVEL_GLOBAL, LEVEL_INTERSECTION,
                               LEVEL_ZONE, ConstraintMsg, GoalTarget,
                               HierarchyEngine, ReconcileReport, SafeModeMsg,
                               TableBound, ViolationMsg)
from civitas import simplex
from civitas.streams import Pcg64, spawn
from civitas.textfmt import ParseError, Section
from civitas.world import TopologyError, Vehicle, WorldState, _Router


def check_constraints_by_replay(fsm: SignalFsm,
                                constraints: list[TimingConstraint] | tuple,
                                resolution: float = 0.1) -> list[TimingConstraint]:
    """Independent checker: step a clock and compare states at deadlines.

    Returns the constraints whose required state does not hold when a
    clock started at 0 is advanced to the deadline in `resolution` steps.
    """
    violated = []
    for c in constraints:
        steps = int(c.deadline / resolution)
        elapsed = 0.0
        for _ in range(steps):
            elapsed += resolution
        leftover = c.deadline - elapsed  # land exactly on the deadline
        if leftover > 0:
            elapsed += leftover
        if fsm.state_at(elapsed) is not c.required_state:
            violated.append(c)
    return violated


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


def layout_green_interval(fsm: SignalFsm, c: TimingConstraint) -> tuple[float, float]:
    """Feasible green-split range under which the constraint holds.

    The yellow split stays fixed and red = cycle - yellow - green, so each
    state's region boundary is linear in the green split and the feasible
    set per constraint is a single interval (possibly empty or
    unbounded); open ends are shrunk by _EDGE_EPS.
    """
    y, cyc = fsm.yellow, fsm.cycle
    p = fsm.phase_position(c.deadline)
    lo, hi = -float("inf"), float("inf")
    empty = (1.0, 0.0)
    s = c.required_state
    if fsm.anchor is SignalState.GREEN:
        # G [0,g) Y [g,g+y) R [g+y,cyc)
        if s is SignalState.GREEN:
            lo = p + _EDGE_EPS
        elif s is SignalState.YELLOW:
            lo, hi = p - y + _EDGE_EPS, p
        else:
            hi = p - y
    elif fsm.anchor is SignalState.YELLOW:
        # Y [0,y) R [y,cyc-g) G [cyc-g,cyc)
        if s is SignalState.YELLOW:
            if not p < y:
                return empty
        elif s is SignalState.RED:
            if not p >= y:
                return empty
            hi = cyc - p - _EDGE_EPS
        else:
            lo = cyc - p
    else:
        # R [0,r) G [r,r+g) Y [cyc-y,cyc) with r = cyc - y - g
        if s is SignalState.RED:
            hi = cyc - y - p - _EDGE_EPS
        elif s is SignalState.GREEN:
            if not p < cyc - y:
                return empty
            lo = cyc - y - p
        else:
            if not p >= cyc - y:
                return empty
    return (lo, hi)


def probe_apply_timing_constraints(fsm: SignalFsm, constraints):
    """`apply_timing_constraints` sweeping a probe signal per anchor rotation."""
    constraints = tuple(constraints)
    if all(_satisfied(fsm, c) for c in constraints):
        return fsm
    anchor_idx = CYCLIC_ORDER.index(fsm.anchor)
    for rotation in range(3):
        anchor = CYCLIC_ORDER[(anchor_idx + rotation) % 3]
        probe = replace(fsm, anchor=anchor)
        lo = GREEN_MIN
        hi = fsm.cycle - fsm.yellow - RED_MIN
        for c in constraints:
            c_lo, c_hi = layout_green_interval(probe, c)
            lo, hi = max(lo, c_lo), min(hi, c_hi)
        if lo > hi:
            continue
        g = probe.green if lo <= probe.green <= hi else (lo + hi) / 2.0
        red = fsm.cycle - fsm.yellow - g
        return replace(probe, green=g, red=red,
                       offset=fsm.offset % (g + fsm.yellow + red))
    entries = tuple(
        ConstraintShortfall(c, _shortfall(fsm, c))
        for c in constraints if not _satisfied(fsm, c)
    )
    return InfeasibilityReport(entries)


def budget_reconcile(engine: HierarchyEngine, at: float = 0.0) -> ReconcileReport:
    """`engine.reconcile` as a loop that only the budget ends: each pass
    pushes down, runs the children, recomputes the flagged zones and
    shrinks the top's target by the summed throughput shortfall.  Safe
    mode is recorded on the engine's messages, as out of budget."""
    for pass_n in range(1, engine.budget + 1):
        violations = engine.run_children(engine.push_down(at), at)
        if not violations:
            return ReconcileReport(True, pass_n)
        flagged = {v.target for v in violations}
        for zid in sorted(engine.zones):
            if zid in flagged:
                engine._recompute_zone(engine.zones[zid])
        if engine.top.id in flagged:
            total = 0.0
            for v in violations:
                if v.target == engine.top.id and v.quantity == "throughput":
                    total += v.shortfall
            engine.top.target = max(0, engine.top.target - int(round(total)))
    failed = ({v.source for v in violations if v.source_level == LEVEL_ZONE}
              | {v.target for v in violations if v.target_level == LEVEL_ZONE})
    engaged = {itu for zid in failed for itu in engine.zones[zid].itus}
    for itu, ctrl in engine.controllers.items():
        if itu in engaged:
            engine.controllers[itu] = shortcut_to_safe(ctrl)
            engine.messages.append(SafeModeMsg(itu, "budget exhausted", at))
    return ReconcileReport(False, engine.budget, tuple(violations), tuple(sorted(engaged)))


class UncachedEngine(HierarchyEngine):
    """`HierarchyEngine` whose push-down allocates the goals and derives
    the timing constraints on every call, and whose children and zone
    search apply constraints afresh, the children replacing the
    controller each time."""

    def push_down(self, at=0.0):
        msgs = []
        alloc = distribute_goals(self.top.fg, self.top.target, self.top.deadline)
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
            sched = zone.active_schedule()
            for itu in zone.itus:
                msgs.append(self._send(ConstraintMsg(
                    LEVEL_ZONE, LEVEL_INTERSECTION, zid, itu,
                    derive_timing_constraints(sched, itu, cycle=zone.cycle), at)))
        return msgs

    def run_children(self, msgs, at=0.0):
        violations = []
        for msg in msgs:
            if msg.target_level != LEVEL_INTERSECTION:
                continue
            ctrl = self.controllers[msg.target]
            outcome = apply_timing_constraints(ctrl.fsm, msg.payload)
            if isinstance(outcome, InfeasibilityReport):
                shortfall = max((e.shortfall for e in outcome.entries), default=0.0)
                violations.append(self._send(ViolationMsg(
                    LEVEL_INTERSECTION, LEVEL_ZONE, msg.target, msg.source,
                    "state_deadline", max(shortfall, 1e-9), at)))
            else:
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

    def _itu_feasible(self, zone, column, on_fallback):
        sched = zone.schedule(column, on_fallback)
        return not any(isinstance(
            apply_timing_constraints(self.controllers[itu].fsm,
                                     derive_timing_constraints(sched, itu, cycle=zone.cycle)),
            InfeasibilityReport) for itu in zone.itus)


def uncached_copy(engine: HierarchyEngine) -> UncachedEngine:
    """A deep copy of `engine` that runs as an `UncachedEngine`."""
    oracle = copy.deepcopy(engine)
    oracle.__class__ = UncachedEngine
    return oracle


def loop_check_generator(states, actions, admissible, q) -> None:
    """`Ctmdp`'s generator checks, one admissible row at a time in
    state-major order: ValueError at the first row with a negative
    off-diagonal rate or a sum beyond `GENERATOR_TOL`."""
    for i in range(len(states)):
        for a in range(len(actions)):
            if not admissible[i, a]:
                continue
            off = np.delete(q[i, :, a], i)
            if np.any(off < 0):
                raise ValueError(f"negative off-diagonal rate in state {states[i]}")
            if abs(q[i, :, a].sum()) > GENERATOR_TOL * max(1.0, np.abs(q[i, :, a]).max()):
                raise ValueError(f"generator row {states[i]}/{actions[a]} does not sum to 0")


def loop_build_lp(m) -> simplex.LinearProgram:
    """`ctmdp.build_lp` with each balance row summed entry by entry."""
    pairs = m.pairs()
    n = len(pairs)
    col = {pa: idx for idx, pa in enumerate(pairs)}
    objective = np.array([m.rewards[0, i, a] for i, a in pairs])
    eq = []
    for j in range(len(m.states)):
        row = np.zeros(n)
        for (i, a), idx in col.items():
            if i == j:
                row[idx] += -m.q[j, j, a]
            else:
                row[idx] -= m.q[i, j, a]
        eq.append((row, 0.0))
    eq.append((np.ones(n), 1.0))
    ge = [(np.array([m.rewards[k, i, a] for i, a in pairs]), m.bounds[k - 1])
          for k in range(1, m.k)]
    return linear_program(objective, eq=eq, ge=ge)


class ListBasis:
    """`simplex._Basis` with its columns in a list and its eta update
    through `np.outer`."""

    def __init__(self, a, b, columns):
        self.a, self.b, self.columns = a, b, list(columns)
        self.refactor()

    def refactor(self):
        self.inverse = np.linalg.inv(self.a[:, self.columns])
        self.pivots = 0

    def values(self):
        x = self.inverse @ self.b
        x[np.abs(x) <= simplex.FEAS_TOL] = 0.0
        return x

    def pivot(self, row, col, d):
        self.columns[row] = col
        self.pivots += 1
        if self.pivots >= simplex.REFACTOR_EVERY:
            self.refactor()
            return
        pivot_row = self.inverse[row] / d[row]
        self.inverse -= np.outer(d, pivot_row)
        self.inverse[row] = pivot_row


def list_optimize(basis, costs, iterations, max_iters):
    """`simplex._optimize` through numpy's function wrappers."""
    degenerate = 0
    while iterations < max_iters:
        iterations += 1
        reduced = costs - (costs[basis.columns] @ basis.inverse) @ basis.a
        reduced[basis.columns] = 0.0
        improving = np.flatnonzero(reduced > simplex.PIVOT_TOL)
        if not improving.size:
            return None, iterations
        bland = degenerate >= simplex.BLAND_AFTER
        entering = int(improving[0] if bland else np.argmax(reduced))
        d = basis.inverse @ basis.a[:, entering]
        rows = np.flatnonzero(d > simplex.PIVOT_TOL)
        if not rows.size:
            return simplex.UNBOUNDED, iterations
        ratios = basis.values()[rows] / d[rows]
        theta = ratios.min()
        ties = rows[ratios <= theta + simplex.PIVOT_TOL]
        if bland:
            leaving = int(ties[np.argmin(np.take(basis.columns, ties))])
        else:
            leaving = int(ties[np.argmax(d[ties])])
        degenerate = degenerate + 1 if theta == 0.0 else 0
        basis.pivot(leaving, entering, d)
    return simplex.ITERATION_LIMIT, iterations


def configparser_sections(text: str) -> list[Section]:
    """`textfmt.parse_sections` through `configparser`.  It also accepts
    what the line grammar does not have: a ``[DEFAULT]`` section merged
    into every other, indented continuation lines, text after a header's
    ``]``, and indented keys."""
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#",), strict=True, interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc
    sections = []
    for header in parser.sections():
        parts = header.split(None, 1)
        kind = parts[0]
        name = parts[1].strip() if len(parts) > 1 else ""
        sections.append(Section(kind, name, dict(parser[header])))
    return sections


def output_terms(row: fuzzy.ParamRow, grid: np.ndarray) -> dict[str, np.ndarray]:
    """Command-side term prototypes sampled on `grid`: a singleton at 0, m
    and M each, on the sample nearest it."""
    centers = {"S": 0.0, "M": row.m, "B": row.M}
    step = grid[1] - grid[0]
    out = {}
    for label, c in centers.items():
        arr = np.zeros_like(grid)
        arr[int(round(c / step))] = 1.0
        out[label] = arr
    return out


@dataclass(frozen=True)
class FuzzyOutputSet:
    """Aggregated output membership sampled on the command universe."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.grid.shape != self.values.shape:
            raise ValueError("grid/values shape mismatch")
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise ValueError("output set values outside [0, 1]")


def rule_activations(deg_i: fuzzy.MembershipDegrees, deg_d: fuzzy.MembershipDegrees,
                     rules: fuzzy.RuleBase) -> list[tuple[str, str, str, float]]:
    """(i label, d label, u label, min-activation) for all nine rules."""
    out = []
    for i_label in ("B", "M", "S"):
        for d_label in ("S", "M", "B"):
            w = min(deg_i[i_label], deg_d[d_label])
            out.append((i_label, d_label, rules.output_label(i_label, d_label), w))
    return out


def infer(deg_i: fuzzy.MembershipDegrees, deg_d: fuzzy.MembershipDegrees,
          rules: fuzzy.RuleBase, u_row: fuzzy.ParamRow,
          resolution: int = fuzzy.OUTPUT_RESOLUTION) -> FuzzyOutputSet:
    """Max-min compositional inference over the rule base.

    Each rule fires with the min of its antecedent degrees; the output set
    is the pointwise max over rules of the fired output membership clipped
    at the activation level.
    """
    grid = np.linspace(0.0, u_row.MI, resolution)
    mus = output_terms(u_row, grid)
    agg = np.zeros_like(grid)
    for _, _, u_label, w in rule_activations(deg_i, deg_d, rules):
        if w > 0:
            np.maximum(agg, np.minimum(w, mus[u_label]), out=agg)
    return FuzzyOutputSet(grid, agg)


def defuzzify_centroid(out: FuzzyOutputSet) -> float:
    """Centre of mass of the output set; midpoint for the all-zero set."""
    total = float(np.sum(out.values))
    if total == 0.0:
        return float(out.grid[-1]) / 2.0
    return float(np.sum(out.grid * out.values) / total)


def seed_vehicles(world: WorldState, placements: list[tuple[str, int]]) -> None:
    """Drop vehicles onto segments at time zero (closed-network studies)."""
    for seg_id, count in placements:
        seg = world.network.segment(seg_id)
        for _ in range(count):
            if len(world.queues[seg_id]) >= seg.occupancy_limit:
                raise ValueError(f"segment {seg_id} over occupancy limit")
            v = Vehicle(world.next_vid, (), 0, 0.0, seg.travel_time)
            world.next_vid += 1
            world.queues[seg_id].append(v)
            world.entered += 1
            world.log("arrive", 0.0, v.vid, seg_id)
    world.agenda = None  # the next step checks every head


def eager_arrivals(network, demand, horizon: float, seed: int,
                   router_class=_Router) -> list[tuple[float, str, tuple[str, ...]]]:
    """Every arrival of `make_world(network, demand, horizon, seed)`, drawn
    up front and sorted by (time, entry), with routes from
    `router_class(network)`: how `make_world` drew them before `Arrivals`
    drew each when it came due.  The inputs must be ones `make_world`
    accepts."""
    entry_rngs = spawn(seed, len(network.entries()) + 1)[:-1]
    if demand is None or horizon == 0:
        return []
    router = router_class(network)
    exits = network.exits()
    reachable_cache: dict = {}
    route_cache: dict = {}

    def route_from(entry, rng):
        if entry not in reachable_cache:
            reachable_cache[entry] = router.reachable_exits(entry, exits)
        reachable = reachable_cache[entry]
        if not reachable:
            raise TopologyError(f"[segment {entry}] entry: no exit is reachable from it")
        target = reachable[int(rng.integers(len(reachable)))]
        key = (entry, target)
        if key not in route_cache:
            route_cache[key] = router.route(entry, target)
        return route_cache[key]

    demand_map = dict(demand.arrivals)
    pending = []
    for entry, rng in zip(network.entries(), entry_rngs):
        for w in demand_map.get(entry, ()):
            if w.rate <= 0:
                continue
            t = w.start
            while True:
                t += rng.exponential(1.0 / w.rate)
                if t >= min(w.end, horizon):
                    break
                pending.append((t, entry, route_from(entry, rng)))
    pending.sort(key=lambda rec: (rec[0], rec[1]))
    return pending


class ListArrivals:
    """Given (time, entry, route) records as a world's arrivals: `world.step`
    takes them in order as it takes `world.Arrivals`', drawing nothing."""

    def __init__(self, records):
        self.records = sorted(records)
        self.next = list(self.records)  # a sorted list is a heap

    def take(self):
        return heappop(self.next)


def drain(arrivals, limit: int = 10**6) -> list[tuple[float, str, tuple[str, ...]]]:
    """Take every arrival still to come from a world's `arrivals`, in order,
    but no more than `limit`."""
    taken = []
    while arrivals.next and len(taken) < limit:
        taken.append(arrivals.take())
    return taken


def events(world: WorldState) -> list[tuple]:
    """`world.events` read back into records: the kind, the time as the
    float its text spells, then the other fields as text, save the vehicle
    id of an `arrive`, `move` or `depart` record, which is an int."""
    records = []
    for line in world.events.decode().split("\n")[:-1]:
        kind, at, *rest = line.split("\t")
        if kind in ("arrive", "move", "depart"):
            rest[0] = int(rest[0])
        records.append((kind, float(at), *rest))
    return records


def exact_events(world: WorldState, arrivals) -> list[tuple]:
    """`events(world)` with each of `world.step`'s records at the exact time
    the world used, which the log's 9 digits may round.

    `arrivals` are the world's (time, entry, route) arrivals in the order
    it takes them (`eager_arrivals` of its inputs, or `ListArrivals`'
    records); it has taken those due by its clock.  An `arrive` or `drop`
    record takes the time of the next of them, a `move` or `depart` the
    next completion in `world.completed_at` of the segment it left.  The
    `arrive` records of vehicles seeded before the first step, one for
    each beyond the arrivals taken, keep the time their text spells.
    Asserts that each exact time prints as the log's text and that an
    arrival joins the segment it was drawn for.
    """
    records = events(world)
    taken = [a for a in arrivals if a[0] <= world.clock]
    seeded = sum(r[0] in ("arrive", "drop") for r in records) - len(taken)
    taken = iter(taken)
    crossed = dict.fromkeys(world.completed_at, 0)
    out = []
    for record in records:
        kind, at = record[0], record[1]
        if kind in ("arrive", "drop") and seeded > 0:
            seeded -= 1
        elif kind in ("arrive", "drop"):
            at, seg_id, _ = next(taken)
            assert seg_id == record[-1], (record, seg_id)
        elif kind in ("move", "depart"):
            seg_id = record[3]
            at = world.completed_at[seg_id][crossed[seg_id]]
            crossed[seg_id] += 1
        assert float("%.9g" % at) == record[1], (record, at)
        out.append((kind, at, *record[2:]))
    return out


def check_zone_balance(world: WorldState, zone_id: str) -> int:
    """The zone's vehicle count by the event log minus the vehicles on its
    members' queues at `world.clock`: 0 when the log and the queues agree."""
    zone = next((z for z in world.network.zones if z.id == zone_id), None)
    if zone is None:
        raise KeyError(f"unknown zone {zone_id!r}")
    members = zone.members
    logged = 0
    for ev in events(world):
        kind = ev[0]
        if kind == "arrive":
            logged += ev[3] in members
        elif kind == "depart":
            logged -= ev[3] in members
        elif kind == "move":
            logged += (ev[4] in members) - (ev[3] in members)
    return logged - sum(len(world.queues[m]) for m in members)


def linear_program(objective, eq=(), ge=()) -> simplex.LinearProgram:
    """A `LinearProgram` assembled from (row, rhs) pair lists."""
    c = np.asarray(objective, dtype=float)
    n = len(c)

    def stack(rows):
        if not rows:
            return np.zeros((0, n)), np.zeros(0)
        lhs = np.array([np.asarray(r, dtype=float) for r, _ in rows])
        rhs = np.array([float(b) for _, b in rows])
        return lhs, rhs

    eq_lhs, eq_rhs = stack(list(eq))
    ge_lhs, ge_rhs = stack(list(ge))
    return simplex.LinearProgram(c, eq_lhs, eq_rhs, ge_lhs, ge_rhs)


def pcg_state(gen: Pcg64) -> dict:
    """The state of `gen` as `numpy.random.PCG64().state` spells it."""
    return {"bit_generator": "PCG64", "state": {"state": gen.lcg, "inc": gen.inc},
            "has_uint32": int(gen.has_uint32), "uinteger": gen.uinteger}
