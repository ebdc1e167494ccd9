import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from civitas import fsm
from civitas.ctg import Ctg, CtgTask, build_table
from civitas.fgraph import FgNode, FunctionGraph, PerfDistribution
from civitas.fsm import (CYCLIC_ORDER, SignalFsm, SignalState, TimingConstraint,
                         ImplementationMode, IntersectionController,
                         InfeasibilityReport, apply_timing_constraints,
                         shortcut_to_safe)
from civitas.hierarchy import (AreaUnit, ConstraintMsg, GlobalUnit, HierarchyEngine,
                               SafeModeMsg, ViolationMsg, ZoneUnit)
from tests.replay import (check_constraints_by_replay, layout_green_interval,
                          probe_apply_timing_constraints)


def make_fsm(**kw):
    defaults = dict(green=30.0, yellow=5.0, red=25.0)
    defaults.update(kw)
    return SignalFsm(**defaults)


class TestAdvance:
    """The signal moving through its cycle on absolute time."""

    def test_split_boundary_transition(self):
        f = make_fsm()
        assert f.state_at(30) is SignalState.YELLOW

    def test_cyclic_order_green_yellow_red(self):
        f = make_fsm()
        seen = [f.state_at(t) for t in (0, 30, 35)]
        assert seen == [SignalState.GREEN, SignalState.YELLOW, SignalState.RED]

    def test_periodicity_exact_over_ten_cycles(self):
        f = make_fsm()
        for n in range(600):
            t = n / 10.0
            assert f.state_at(t) is f.state_at((n + 6000) / 10.0)


class TestOffset:
    def test_zero_offset_unchanged(self):
        f = make_fsm()
        assert make_fsm(offset=0.0).state_at(17.0) is f.state_at(17.0)

    def test_offset_equal_cycle_rejected(self):
        with pytest.raises(ValueError):
            make_fsm(offset=60.0)

    def test_shift_replays_unshifted_states(self):
        f = make_fsm()
        g = make_fsm(offset=10.0)
        for n in range(1200):
            t = n / 10.0
            assert g.state_at(t + 10.0) is f.state_at(t)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            make_fsm(green=0.0)
        with pytest.raises(ValueError):
            make_fsm(offset=-1.0)


class TestTimingConstraints:
    def test_already_satisfied_returns_same_object(self):
        f = make_fsm()
        c = TimingConstraint(10.0, SignalState.GREEN)
        assert apply_timing_constraints(f, [c]) is f

    def test_rebalance_covers_deadline_verified_by_replay(self):
        f = make_fsm()
        c = TimingConstraint(35.0, SignalState.GREEN)
        out = apply_timing_constraints(f, [c])
        assert isinstance(out, SignalFsm)
        assert check_constraints_by_replay(out, [c]) == []

    def test_split_sum_preserved(self):
        f = make_fsm()
        out = apply_timing_constraints(f, [TimingConstraint(35.0, SignalState.GREEN)])
        assert out.green + out.yellow + out.red == pytest.approx(60.0, abs=1e-12)
        assert out.yellow == 5.0

    def test_mutually_exclusive_states_report_both(self):
        # Deadline inside the yellow interval so both demands are violated now.
        f = make_fsm()
        cs = [TimingConstraint(32.0, SignalState.RED),
              TimingConstraint(32.0, SignalState.GREEN)]
        report = apply_timing_constraints(f, cs)
        assert isinstance(report, InfeasibilityReport)
        assert len(report.entries) == 2
        assert all(e.shortfall > 0 for e in report.entries)

    def test_offset_honored_when_checking(self):
        f = make_fsm(offset=10.0)
        c = TimingConstraint(10.0, SignalState.GREEN)  # local position 0
        assert apply_timing_constraints(f, [c]) is f

    def test_anchor_rotation_serves_red_first_schedules(self):
        f = make_fsm(anchor=SignalState.GREEN)
        cs = [TimingConstraint(2.0, SignalState.RED),
              TimingConstraint(40.0, SignalState.GREEN)]
        out = apply_timing_constraints(f, cs)
        assert isinstance(out, SignalFsm)
        assert check_constraints_by_replay(out, cs) == []

    @given(st.lists(st.tuples(st.floats(0, 59.9), st.sampled_from(list(SignalState))),
                    min_size=1, max_size=4))
    def test_outcome_is_fsm_or_report_and_replay_consistent(self, raw):
        f = make_fsm()
        cs = [TimingConstraint(d, s) for d, s in raw]
        out = apply_timing_constraints(f, cs)
        if isinstance(out, SignalFsm):
            assert out.green + out.yellow + out.red == pytest.approx(60.0, abs=1e-9)
            assert check_constraints_by_replay(out, cs, resolution=0.01) == []
        else:
            assert out.entries


def bits(values):
    """Floats by their bytes: 0.0 and -0.0 differ."""
    return tuple(float(v).hex() for v in values)


# Each split from its minimum up: `SignalFsm` refuses a shorter one.
green_times, yellow_times, red_times = (
    st.floats(low, 120.0, allow_nan=False)
    for low in (fsm.GREEN_MIN, fsm.YELLOW_MIN, fsm.RED_MIN))


@st.composite
def timed_fsms(draw):
    cycle_share = draw(st.floats(0.0, 1.0, exclude_max=True))
    f = SignalFsm(draw(green_times), draw(yellow_times), draw(red_times),
                  anchor=draw(st.sampled_from(CYCLIC_ORDER)))
    return replace(f, offset=min(cycle_share * f.cycle, math.nextafter(f.cycle, 0)))


@st.composite
def deadlines(draw, f):
    """Anywhere in ten cycles, or a few ulps from where the phase is a
    region end, yellow, cycle - yellow or 0, some cycles on."""
    if draw(st.booleans()):
        return draw(st.floats(0.0, 10 * f.cycle))
    marks = [b for _, _, b in f._layout] + [0.0, f.yellow, f.cycle - f.yellow]
    t = f.offset + draw(st.integers(0, 5)) * f.cycle + draw(st.sampled_from(marks))
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.copysign(math.inf, ulps))
    return max(t, 0.0)


@st.composite
def constrained_fsms(draw):
    """A timed signal and one to five constraints on it."""
    f = draw(timed_fsms())
    return f, [TimingConstraint(draw(deadlines(f)), draw(st.sampled_from(CYCLIC_ORDER)))
               for _ in range(draw(st.integers(1, 5)))]


class TestGreenInterval:
    """The table-driven rule against the hand-written layouts it replaced."""

    @settings(max_examples=1000)
    @given(st.data(), timed_fsms(), st.sampled_from(CYCLIC_ORDER))
    def test_matches_the_layouts(self, data, f, state):
        c = TimingConstraint(data.draw(deadlines(f)), state)
        k = (CYCLIC_ORDER.index(state) - CYCLIC_ORDER.index(f.anchor)) % 3
        got = fsm._green_interval(fsm._region_ends(f.yellow, f.cycle)[f.anchor], k,
                                  f.phase_position(c.deadline))
        assert bits(got) == bits(layout_green_interval(f, c))

    @given(green_times, yellow_times, red_times, st.sampled_from(CYCLIC_ORDER),
           st.sampled_from(CYCLIC_ORDER))
    def test_matches_the_layouts_at_the_cycle_itself(self, g, y, r, anchor, state):
        # an offset below half an ulp of the cycle puts deadline 0 at phase cycle
        f = SignalFsm(g, y, r, offset=5e-324, anchor=anchor)
        c = TimingConstraint(0.0, state)
        assert f.phase_position(0.0) == f.cycle
        k = (CYCLIC_ORDER.index(state) - CYCLIC_ORDER.index(anchor)) % 3
        got = fsm._green_interval(fsm._region_ends(y, f.cycle)[anchor], k, f.cycle)
        assert bits(got) == bits(layout_green_interval(f, c))

    @settings(max_examples=500)
    @given(constrained_fsms())
    # New splits an ulp short of the old cycle, under an offset in its last
    # ulp: the offset wraps to the new cycle's start instead of raising.
    @example((SignalFsm(88.6120341533936, 10.467464008416972, 79.68456080079329,
                        offset=178.76405896260383),
              [TimingConstraint(417.4726845806688, SignalState.RED)]))
    def test_apply_matches_the_probe_sweep(self, drawn):
        f, cs = drawn
        got, want = apply_timing_constraints(f, cs), probe_apply_timing_constraints(f, cs)
        if isinstance(want, SignalFsm):
            assert isinstance(got, SignalFsm) and got.anchor is want.anchor
            assert (bits((got.green, got.yellow, got.red, got.offset))
                    == bits((want.green, want.yellow, want.red, want.offset)))
        else:
            assert got == want


class TestSplitMinimums:
    @pytest.mark.parametrize("name, low", [("green", fsm.GREEN_MIN),
                                           ("yellow", fsm.YELLOW_MIN),
                                           ("red", fsm.RED_MIN)])
    def test_split_minimums_enforced(self, name, low):
        assert getattr(make_fsm(**{name: low}), name) == low
        for short in (math.nextafter(low, 0.0), 1e-300):
            with pytest.raises(ValueError, match=f"{name} split must be a finite"
                                                 f" number >= {low:g}"):
                make_fsm(**{name: short})

    @given(green_times, yellow_times, st.floats(fsm.RED_MIN + 1e-6, 120.0))
    def test_green_at_its_bound_leaves_red_at_its_minimum(self, green, yellow, red):
        """A deadline that takes all the green there is puts g at
        hi = (cycle - yellow) - RED_MIN: red = (cycle - yellow) - g is
        then RED_MIN exactly, and the rebalanced signal builds."""
        f = SignalFsm(green, yellow, red)
        hi = f.cycle - f.yellow - fsm.RED_MIN
        deadline = hi - fsm._EDGE_EPS  # the green region must reach past it
        assume(deadline + fsm._EDGE_EPS == hi)
        out = apply_timing_constraints(f, [TimingConstraint(deadline, SignalState.GREEN)])
        assert isinstance(out, SignalFsm) and out.anchor is SignalState.GREEN
        assert (out.green, out.yellow, out.red) == (hi, f.yellow, fsm.RED_MIN)


def make_controller(active="fast"):
    modes = (ImplementationMode("fast", 0.01, 5.0),
             ImplementationMode("normal", 0.1, 1.0),
             ImplementationMode("safe", 1.0, 0.2, safe=True))
    return IntersectionController("X", make_fsm(), modes, active)


def stalled_engine(ctrl):
    """An engine whose one zone alternates four runs at `ctrl` in its one
    column: no signal serves that, so every reconcile stalls and engages
    safe mode."""
    tasks = tuple(CtgTask(f"P{k}", itu=ctrl.id, direction=1 + k % 2, t_ex=8.0, n=2.0)
                  for k in range(4))
    ctg = Ctg((), tasks, (("P0", "P1"), ("P1", "P2"), ("P2", "P3")), clearance=5.0)
    fg = FunctionGraph((FgNode("area", PerfDistribution.point(30.0), 10.0),))
    return HierarchyEngine(
        GlobalUnit("tcu", fg, 0, 60.0), {"area": AreaUnit("area", ("Z",))},
        {"Z": ZoneUnit("Z", ctg, build_table(ctg), (ctrl.id,), (), cycle=60.0)},
        {ctrl.id: ctrl})


def engagements(engine):
    """The engine's trail without its constraint and violation messages."""
    return [m for m in engine.messages
            if not isinstance(m, (ConstraintMsg, ViolationMsg))]


class TestShortcutToSafe:
    def test_jumps_straight_to_safe(self):
        ctrl = make_controller("fast")
        assert shortcut_to_safe(ctrl).active_mode == "safe"
        engine = stalled_engine(ctrl)
        engine.reconcile(at=12.0)
        assert engine.controllers["X"].active_mode == "safe"
        assert engagements(engine) == [SafeModeMsg("X", "stalled", 12.0)]

    def test_fallback_splits_applied(self):
        ctrl = make_controller("fast")
        out = shortcut_to_safe(ctrl)
        assert (out.fsm.green, out.fsm.yellow, out.fsm.red) == (30.0, 5.0, 25.0)

    def test_idempotent_but_logged(self):
        once = shortcut_to_safe(make_controller("fast"))
        assert shortcut_to_safe(once) is once
        # the engine records every engagement, the repeated one too
        engine = stalled_engine(make_controller("fast"))
        engine.reconcile(at=1.0)
        first = engine.controllers["X"]
        engine.reconcile(at=2.0)
        assert engine.controllers["X"] == first and first.active_mode == "safe"
        assert engagements(engine) == [SafeModeMsg("X", "stalled", 1.0),
                                       SafeModeMsg("X", "stalled", 2.0)]

    def test_exactly_one_safe_mode_required(self):
        with pytest.raises(ValueError):
            IntersectionController("Y", make_fsm(),
                                   (ImplementationMode("a", 1, 1),
                                    ImplementationMode("b", 1, 1)))

    @pytest.mark.parametrize("modes", [(), (ImplementationMode("safe", 1, 1, safe=True),)])
    def test_active_mode_must_be_a_mode(self, modes):
        with pytest.raises(ValueError, match="unknown active mode 'turbo'"):
            IntersectionController("X", SignalFsm(30, 5, 25), modes, "turbo")
        assert IntersectionController("X", SignalFsm(30, 5, 25), ()).active_mode == ""

    def test_no_intermediate_modes_recorded(self):
        # from fast straight to safe: one record, none for normal
        engine = stalled_engine(make_controller("fast"))
        engine.reconcile(at=3.0)
        assert engagements(engine) == [SafeModeMsg("X", "stalled", 3.0)]


@st.composite
def signals(draw):
    green, yellow, red = draw(green_times), draw(yellow_times), draw(red_times)
    cycle = green + yellow + red
    offset = draw(st.floats(0.0, 1.0, exclude_max=True)) * cycle
    return SignalFsm(green, yellow, red, offset if offset < cycle else 0.0,
                     draw(st.sampled_from(CYCLIC_ORDER)))


class TestSkipToNextState:
    def test_boundary_moves_to_now(self):
        f = make_fsm()  # Green at t=10
        g = fsm.skip_to_next_state(f, 10.0)
        assert g.state_at(10.0) is SignalState.YELLOW
        assert g.state_at(9.9) is SignalState.GREEN

    def test_cycle_structure_preserved(self):
        f = make_fsm()
        g = fsm.skip_to_next_state(f, 17.0)
        assert (g.green, g.yellow, g.red) == (f.green, f.yellow, f.red)
        # one full cycle later the same boundary recurs
        assert g.state_at(17.0 + 60.0) is SignalState.YELLOW

    def test_switch_lands_on_the_asked_time(self):
        # Shifting the offset by the time left lands a hair short of the
        # Green end at 8.2: the switch must still show Yellow at 8.2.
        f = make_fsm()
        g = fsm.skip_to_next_state(f, 8.2)
        assert g.state_at(8.2) is SignalState.YELLOW

    def test_switch_just_before_a_region_end(self):
        # The shift is a tiny negative there, which `%` rounds up to the
        # cycle itself: no valid offset.
        f = make_fsm()
        at = math.nextafter(30.0, 0.0)
        assert fsm.skip_to_next_state(f, at).state_at(at) is SignalState.YELLOW

    @given(signals(), st.floats(0.0, 1e5))
    def test_next_state_holds_at_the_switch(self, f, at):
        g = fsm.skip_to_next_state(f, at)
        now = CYCLIC_ORDER.index(f.state_at(at))
        assert g.state_at(at) is CYCLIC_ORDER[(now + 1) % 3]
        assert (g.green, g.yellow, g.red, g.anchor) == (f.green, f.yellow, f.red, f.anchor)
