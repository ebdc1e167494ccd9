"""Three-state cyclic traffic signal controllers.

A signal dwells in Green, Yellow and Red for fixed split times whose sum
is the cycle time; the pattern repeats every cycle, optionally delayed by
an offset relative to a reference clock.  Zone coordinators impose
deadline constraints of the form "be Green at t=12 into the cycle";
because the yellow dwell stays fixed, satisfying a constraint set reduces
to a one-dimensional search over the Green/Red trade-off.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

GREEN_MIN = 1.0
RED_MIN = 1.0
YELLOW_MIN = 3.0

# Open interval ends are shrunk by this much when intersecting feasible
# green-split ranges.
_EDGE_EPS = 1e-9

# Green, yellow and red of a signalized intersection whose timing the
# network does not give.
DEFAULT_SPLITS = (30.0, 5.0, 25.0)

# Splits applied together with the safe implementation mode when a
# controller degrades (default behavior on non-convergence).
FALLBACK_SPLITS = (30.0, 5.0, 25.0)


class SignalState(enum.Enum):
    GREEN = "Green"
    YELLOW = "Yellow"
    RED = "Red"

    def admits(self, direction: int) -> bool:
        """Whether traffic along `direction` may cross under this state.

        The state is the colour shown to direction 2: Green lets
        direction-2 traffic move, Red lets direction-1 traffic move,
        Yellow admits nobody.
        """
        if self is SignalState.GREEN:
            return direction == 2
        if self is SignalState.RED:
            return direction == 1
        return False


CYCLIC_ORDER = (SignalState.GREEN, SignalState.YELLOW, SignalState.RED)


def admitting_state(direction: int) -> SignalState:
    if direction == 2:
        return SignalState.GREEN
    if direction == 1:
        return SignalState.RED
    raise ValueError(f"unknown signal direction {direction!r}")


@dataclass(frozen=True)
class SignalFsm:
    """Cyclic Green->Yellow->Red controller with split/cycle/offset times.

    `anchor` is the state occupying the start of the cycle frame; the two
    other states follow in the fixed cyclic order.  The state is a function
    of absolute time, `state_at(t)`; the offset is set at construction.
    """

    green: float
    yellow: float
    red: float
    offset: float = 0.0
    anchor: SignalState = SignalState.GREEN

    def __post_init__(self):
        for name, low in (("green", GREEN_MIN), ("yellow", YELLOW_MIN), ("red", RED_MIN)):
            if not low <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} split must be a finite number >= {low:g}")
        if not 0 <= self.offset < self.cycle:
            raise ValueError(f"offset {self.offset} outside [0, {self.cycle})")

    @cached_property
    def cycle(self) -> float:
        return self.green + self.yellow + self.red

    def split(self, state: SignalState) -> float:
        return {SignalState.GREEN: self.green,
                SignalState.YELLOW: self.yellow,
                SignalState.RED: self.red}[state]

    @cached_property
    def _layout(self) -> tuple[tuple[SignalState, float, float], ...]:
        """(state, start, end) regions covering one cycle from the anchor.

        Built once per instance: the dataclass is frozen, so the splits
        and the anchor never change under the cached regions.
        """
        start_idx = CYCLIC_ORDER.index(self.anchor)
        regions = []
        t = 0.0
        for k in range(3):
            state = CYCLIC_ORDER[(start_idx + k) % 3]
            regions.append((state, t, t + self.split(state)))
            t += self.split(state)
        return tuple(regions)

    def region(self, state: SignalState) -> tuple[float, float]:
        """(start, end) of `state`'s region in the cached layout."""
        k = (CYCLIC_ORDER.index(state) - CYCLIC_ORDER.index(self.anchor)) % 3
        _, a, b = self._layout[k]
        return a, b

    def phase_position(self, t: float) -> float:
        """Position within the cycle frame (seconds past cycle start)."""
        return (t - self.offset) % self.cycle

    @cached_property
    def _timing(self) -> tuple[float, float, float, float,
                               SignalState, SignalState, SignalState]:
        """(offset, cycle, end 0, end 1, state 0, state 1, state 2)."""
        (s0, _, b0), (s1, _, b1), (s2, _, _) = self._layout
        return self.offset, self.cycle, b0, b1, s0, s1, s2

    def state_at(self, t: float) -> SignalState:
        # The regions tile [0, cycle) in order and p is never negative, so
        # testing each region's end alone is the scan `a <= p < b`; a p past
        # the last end (rounding) or NaN falls to the last region's state.
        # Called once per controller per tick: one cached tuple to unpack.
        offset, cycle, b0, b1, s0, s1, s2 = self._timing
        p = (t - offset) % cycle
        if p < b0:
            return s0
        if p < b1:
            return s1
        return s2


@dataclass(frozen=True)
class TimingConstraint:
    """Require `required_state` at `deadline` seconds past cycle start.

    Deadlines are measured on the reference (zone) clock; a controller's
    offset is honored when mapping them onto its own cycle.
    """

    deadline: float
    required_state: SignalState

    def __post_init__(self):
        if self.deadline < 0:
            raise ValueError("deadline must be >= 0")


@dataclass(frozen=True)
class ConstraintShortfall:
    constraint: TimingConstraint
    shortfall: float  # seconds by which the deadline misses the state region


@dataclass(frozen=True)
class InfeasibilityReport:
    entries: tuple[ConstraintShortfall, ...]


def _satisfied(fsm: SignalFsm, c: TimingConstraint) -> bool:
    return fsm.state_at(c.deadline) is c.required_state


def _shortfall(fsm: SignalFsm, c: TimingConstraint) -> float:
    """Cyclic distance from a violated deadline to the required state's region."""
    a, b = fsm.region(c.required_state)
    p = fsm.phase_position(c.deadline)
    return min((a - p) % fsm.cycle, (p - b) % fsm.cycle)


def _region_ends(yellow: float, cycle: float) -> dict[SignalState, tuple]:
    """Each anchor's first two region ends as (constant, slope in green)."""
    # The yellow split stays fixed and red = cycle - yellow - green, so each
    # region end is linear in the green split: constant + slope * green.
    return {SignalState.GREEN: ((0.0, 1), (yellow, 1)),                  # G Y R
            SignalState.YELLOW: ((yellow, 0), (cycle, -1)),              # Y R G
            SignalState.RED: ((cycle - yellow, -1), (cycle - yellow, 0))}  # R G Y


def _green_interval(ends: tuple[tuple[float, int], ...], k: int,
                    p: float) -> tuple[float, float]:
    """Green-split range under which region `k` from the anchor holds phase `p`.

    Region k runs from end k-1 to end k of `ends`; as in `state_at`, the
    first region has no start and the last no end to meet.  The range is a
    single interval (possibly empty or unbounded); open ends are shrunk by
    _EDGE_EPS.
    """
    lo, hi = -math.inf, math.inf
    if k > 0:  # start <= p
        a, slope = ends[k - 1]
        if slope == 0 and not a <= p:
            return (1.0, 0.0)
        if slope > 0:
            hi = p - a
        elif slope < 0:
            lo = a - p
    if k < 2:  # p < end
        b, slope = ends[k]
        if slope == 0 and not p < b:
            return (1.0, 0.0)
        if slope > 0:
            lo = p - b + _EDGE_EPS
        elif slope < 0:
            hi = b - p - _EDGE_EPS
    return (lo, hi)


def apply_timing_constraints(
    fsm: SignalFsm,
    constraints: list[TimingConstraint] | tuple[TimingConstraint, ...],
) -> SignalFsm | InfeasibilityReport:
    """Rebalance Green/Red so every constraint's state holds at its deadline.

    The sum of splits (the cycle, to an ulp) and the yellow dwell are
    preserved, and the offset stays inside the new cycle.  If
    the current splits already satisfy everything, the fsm is returned
    unchanged.  Otherwise the Green/Red trade-off is swept for the current
    cycle anchor first, then for its two rotations (a rotation is the same
    thing as an offset shift by the preceding splits).  When nothing
    works, an InfeasibilityReport names every constraint violated by the
    (unchanged) controller together with its shortfall in seconds.
    """
    constraints = tuple(constraints)
    if all(_satisfied(fsm, c) for c in constraints):
        return fsm

    # A rotation keeps the cycle and the offset, so each phase is one number.
    phases = [(fsm.phase_position(c.deadline), CYCLIC_ORDER.index(c.required_state))
              for c in constraints]
    ends = _region_ends(fsm.yellow, fsm.cycle)
    anchor_idx = CYCLIC_ORDER.index(fsm.anchor)
    for rotation in range(3):
        first = (anchor_idx + rotation) % 3
        lo = GREEN_MIN
        hi = fsm.cycle - fsm.yellow - RED_MIN
        for p, state_idx in phases:
            c_lo, c_hi = _green_interval(ends[CYCLIC_ORDER[first]],
                                         (state_idx - first) % 3, p)
            lo, hi = max(lo, c_lo), min(hi, c_hi)
        if lo > hi:
            continue
        g = fsm.green if lo <= fsm.green <= hi else (lo + hi) / 2.0
        red = fsm.cycle - fsm.yellow - g
        # The new splits may sum to an ulp below the old cycle; an offset
        # in that last ulp wraps to the start of the new cycle.
        return replace(fsm, anchor=CYCLIC_ORDER[first], green=g, red=red,
                       offset=fsm.offset % (g + fsm.yellow + red))

    entries = tuple(
        ConstraintShortfall(c, _shortfall(fsm, c))
        for c in constraints if not _satisfied(fsm, c)
    )
    return InfeasibilityReport(entries)


@dataclass(frozen=True)
class ImplementationMode:
    """Abstract implementation alternative with latency/cost attributes."""

    id: str
    latency: float
    cost: float
    safe: bool = False

    def __post_init__(self):
        if not (0 <= self.latency < math.inf and 0 <= self.cost < math.inf):
            raise ValueError(f"mode {self.id}: latency and cost must be finite and >= 0")


@dataclass(frozen=True)
class IntersectionController:
    """A signal FSM plus its implementation modes, whose ids are distinct."""

    id: str
    fsm: SignalFsm
    modes: tuple[ImplementationMode, ...] = ()
    active_mode: str = ""
    early_switch: bool = False  # optional lone-vehicle early switching, off by default

    def __post_init__(self):
        ids = [m.id for m in self.modes]
        if ids:
            repeated = next((i for i in ids if ids.count(i) > 1), None)
            if repeated is not None:
                raise ValueError(f"controller {self.id}: mode id {repeated!r} repeated")
            if sum(m.safe for m in self.modes) != 1:
                raise ValueError(f"controller {self.id}: exactly one safe mode required")
            if not self.active_mode:
                object.__setattr__(self, "active_mode", ids[0])
        if self.active_mode and self.active_mode not in ids:
            raise ValueError(f"unknown active mode {self.active_mode!r}")

    @property
    def safe_mode(self) -> ImplementationMode:
        return next(m for m in self.modes if m.safe)


def shortcut_to_safe(ctrl: IntersectionController) -> IntersectionController:
    """`ctrl` in its safe implementation mode, skipping intermediates.

    The fixed fallback splits apply when the mode actually changes; a
    controller already in safe mode is returned as it is.
    """
    safe = ctrl.safe_mode.id
    if ctrl.active_mode == safe:
        return ctrl
    g, y, r = FALLBACK_SPLITS
    fsm = replace(ctrl.fsm, green=g, yellow=y, red=r, offset=ctrl.fsm.offset % (g + y + r))
    return replace(ctrl, fsm=fsm, active_mode=safe)


def skip_to_next_state(fsm: SignalFsm, at: float) -> SignalFsm:
    """Shift the cycle so the next state begins at time `at`.

    Used by the optional early-switch behavior when the currently admitted
    approach has no traffic; pool-level timing constraints should not be
    active when this is applied.
    """
    state = fsm.state_at(at)
    _, end = fsm.region(state)
    offset = (fsm.offset - (end - fsm.phase_position(at))) % fsm.cycle
    # Rounding can leave `at` a few float spacings short of the region end,
    # still in the current state: step the offset back by that spacing until
    # the state at `at` has moved on.  A next region narrower than the
    # spacing cannot be hit, so the steps are bounded.  `%` can round a
    # tiny negative up to the cycle itself, which `min` maps just below it.
    step = math.ulp(max(abs(at), fsm.cycle))
    for _ in range(16):
        out = replace(fsm, offset=min(offset, math.nextafter(fsm.cycle, 0.0)))
        if out.state_at(at) is not state:
            break
        offset = (offset - step) % fsm.cycle
    return out
