"""Sampled replays of a signal against its deadlines and schedules.

Two independent checkers that step through time instead of reasoning
about the cycle's regions: they are the oracles the closed-form timing
code of `civitas.fsm` is tested against.
"""

from civitas.ctg import RUN_END_BACKOFF, ZoneSchedule
from civitas.fsm import SignalFsm, TimingConstraint


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
