"""Oracles for the timing code of `civitas.fsm` and the reconcile loop.

Two independent checkers step through time instead of reasoning about
the cycle's regions: sampled replays of a signal against its deadlines
and schedules.  The green-split rule is also kept here in its earlier
form, one hand-written region layout per anchor and a probe signal per
anchor rotation, which `fsm.apply_timing_constraints` must match bit
for bit.  The reconcile loop is kept in its budget-only form, which runs
passes until convergence or the budget even when a pass changed nothing.
"""

from dataclasses import replace

from civitas.ctg import RUN_END_BACKOFF, ZoneSchedule
from civitas.fsm import (_EDGE_EPS, CYCLIC_ORDER, GREEN_MIN, RED_MIN,
                         ConstraintShortfall, InfeasibilityReport, SignalFsm,
                         SignalState, TimingConstraint, _satisfied, _shortfall,
                         shortcut_to_safe)
from civitas.hierarchy import LEVEL_ZONE, HierarchyEngine, ReconcileReport


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
        return replace(probe, green=g, red=fsm.cycle - fsm.yellow - g)
    entries = tuple(
        ConstraintShortfall(c, _shortfall(fsm, c))
        for c in constraints if not _satisfied(fsm, c)
    )
    return InfeasibilityReport(entries)


def budget_reconcile(engine: HierarchyEngine, at: float = 0.0) -> ReconcileReport:
    """`engine.reconcile` as a loop that only the budget ends: each pass
    pushes down, runs the children, recomputes the flagged zones and
    shrinks the top's target by the summed throughput shortfall."""
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
    safe_engaged = sorted({itu for zid in failed for itu in engine.zones[zid].itus})
    for itu in safe_engaged:
        engine.controllers[itu] = shortcut_to_safe(
            engine.controllers[itu], f"reconcile budget exhausted at {at}", at)
    return ReconcileReport(False, engine.budget, tuple(violations), tuple(safe_engaged))
