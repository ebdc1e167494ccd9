import math

import pytest
from hypothesis import example, given, settings, strategies as st

from civitas import world as w
from civitas.fsm import SignalState
from civitas.textfmt import ParseError
from tests.replay import (ListArrivals, check_zone_balance, drain, events, exact_events,
                          seed_vehicles)

RING = """
[intersection n1]
[intersection n2]
[intersection n3]
[intersection n4]
[segment r1]
from = n1
to = n2
length = 50
speed = 10
capacity = 10
[segment r2]
from = n2
to = n3
length = 40
speed = 10
capacity = 10
shared = true
[segment r3]
from = n3
to = n4
length = 50
speed = 10
capacity = 10
[segment r4]
from = n4
to = n1
length = 50
speed = 10
capacity = 10
[zone inner]
members = r2, r3
"""

LINE = """
[intersection a]
[intersection b]
[intersection c]
[segment x]
from = a
to = b
length = 100
speed = 10
capacity = 5
entry = true
[segment y]
from = b
to = c
length = 50
speed = 10
capacity = 5
exit = true
"""


def run_ring(steps=1000, vehicles=((("r1", 4), ("r3", 3)))):
    net = w.load_network(RING)
    world = w.make_world(net, None, 0, seed=7)
    seed_vehicles(world, list(vehicles))
    for _ in range(steps):
        w.step(world, {}, 0.1)
    return world


class TestLoadNetwork:
    def test_twin_network_loads(self, twin_network_text):
        net = w.load_network(twin_network_text)
        assert len(net.segments) == 9
        assert len(net.signalized_nodes()) == 2

    def test_empty_segment_list_is_topology_error(self):
        with pytest.raises(w.TopologyError):
            w.load_network("[intersection a]\n")

    def test_unknown_endpoint_is_topology_error(self):
        text = """
[intersection a]
[segment s]
from = a
to = ghost
length = 10
speed = 5
"""
        with pytest.raises(w.TopologyError):
            w.load_network(text)

    def test_duplicate_id_rejected(self):
        text = LINE + "\n[segment x]\nfrom = a\nto = b\nlength = 1\nspeed = 1\n"
        with pytest.raises((ParseError, w.TopologyError)):
            w.load_network(text)

    def test_malformed_text_is_parse_error(self):
        with pytest.raises(ParseError):
            w.load_network("not a config at all {")

    def test_disconnected_network_rejected(self):
        text = LINE + """
[intersection p]
[intersection q]
[segment far]
from = p
to = q
length = 10
speed = 5
"""
        with pytest.raises(w.TopologyError):
            w.load_network(text)

    def test_turn_to_unknown_segment_rejected(self):
        with pytest.raises(w.TopologyError, match=r"segment x: turns to unknown"
                                                  r" segments \['zz'\]"):
            w.load_network(LINE.replace("entry = true", "entry = true\nturns = y, zz"))

    @pytest.mark.parametrize("x_turns, y_exit, where", [
        (("x",), True, r"\[segment x\] turns: \[segment x\] does not start at b"),
        ((), True, r"\[segment x\]: not an exit, yet no turn leaves it"),
        (None, False, r"\[segment y\]: not an exit, yet no turn leaves it"),
    ])
    def test_turn_faults_rejected_when_built_in_code(self, x_turns, y_exit, where):
        segments = (w.RoadSegment("x", "a", "b", 100.0, 10.0, 5, entry=True,
                                  turns=x_turns),
                    w.RoadSegment("y", "b", "c", 50.0, 10.0, 5, exit=y_exit))
        with pytest.raises(w.TopologyError, match=where):
            w.StreetNetwork(segments, tuple(w.Intersection(n) for n in "abc"))

    def test_missing_approach_at_signal_rejected(self):
        text = """
[intersection a]
[intersection b]
signalized = true
[intersection c]
[segment x]
from = a
to = b
length = 10
speed = 5
[segment y]
from = b
to = c
length = 10
speed = 5
exit = true
"""
        with pytest.raises(w.TopologyError):
            w.load_network(text)


class TestStep:
    def test_closed_network_conserves_vehicles(self):
        world = run_ring(steps=1000)
        assert world.vehicle_count() == 7
        assert world.entered == 7 and world.exited == 0

    def test_single_vehicle_free_flow_timing(self):
        net = w.load_network(LINE)
        world = w.make_world(net, None, 0, 1)
        seed_vehicles(world, [("x", 1)])
        for _ in range(200):
            w.step(world, {}, 0.1)
        moves = [e for e in exact_events(world, ()) if e[0] == "move"]
        assert moves == [("move", 10.0, 0, "x", "y")]
        departs = [e for e in exact_events(world, ()) if e[0] == "depart"]
        assert departs[0][1] == 15.0  # 5 s on the 50 m segment

    def test_shared_segment_never_co_resident(self):
        world = run_ring(steps=2000, vehicles=[("r1", 6), ("r4", 4)])
        occupancy = 0
        for ev in events(world):
            if ev[0] == "move":
                if ev[4] == "r2":
                    occupancy += 1
                if ev[3] == "r2":
                    occupancy -= 1
                assert 0 <= occupancy <= 1
        assert any(ev[0] == "move" and ev[4] == "r2" for ev in events(world))

    def test_blocked_vehicles_wait_without_loss(self):
        # capacity-1 downstream: the second vehicle waits indefinitely
        text = LINE.replace("capacity = 5\nexit = true", "capacity = 1\nexit = true")
        net = w.load_network(text)
        world = w.make_world(net, None, 0, 1)
        seed_vehicles(world, [("x", 2)])
        for _ in range(120):
            w.step(world, {}, 0.1)
        assert world.vehicle_count() + world.exited == 2

    def test_red_signal_blocks_approach(self):
        text = """
[intersection a]
[intersection b]
signalized = true
[intersection c]
[segment x]
from = a
to = b
length = 100
speed = 10
capacity = 5
approach = 1
entry = true
[segment y]
from = b
to = c
length = 50
speed = 10
capacity = 5
exit = true
"""
        net = w.load_network(text)
        world = w.make_world(net, None, 0, 1)
        seed_vehicles(world, [("x", 1)])
        for _ in range(300):
            w.step(world, {"b": SignalState.GREEN}, 0.1)  # green admits dir 2 only
        assert not [e for e in events(world) if e[0] == "move"]
        for _ in range(10):
            w.step(world, {"b": SignalState.RED}, 0.1)
        assert [e for e in events(world) if e[0] == "move"]

    def test_controls_must_cover_signalized_nodes(self, twin_network_text):
        net = w.load_network(twin_network_text)
        world = w.make_world(net, None, 0, 1)
        with pytest.raises(ValueError):
            w.step(world, {"A": SignalState.GREEN}, 0.1)

    def test_entry_overflow_drops_are_counted(self, twin_network_text):
        net = w.load_network(twin_network_text)
        demand = w.DemandProfile((("s1", (w.DemandWindow(0.0, 100.0, 5.0),)),))
        world = w.make_world(net, demand, horizon=100.0, seed=3)
        controls = {"A": SignalState.YELLOW, "B": SignalState.YELLOW}
        for _ in range(1000):
            w.step(world, controls, 0.1)
        assert world.dropped > 0
        assert world.dropped == sum(1 for e in events(world) if e[0] == "drop")

    def test_determinism_bit_identical_logs(self, twin_network_text, twin_demand_text):
        net = w.load_network(twin_network_text)
        demand = w.load_demand(twin_demand_text)
        logs = []
        for _ in range(2):
            world = w.make_world(net, demand, horizon=120.0, seed=11)
            for k in range(1200):
                t = (k + 1) * 0.1
                state = (SignalState.GREEN if (t % 60) < 30 else
                         SignalState.YELLOW if (t % 60) < 35 else SignalState.RED)
                w.step(world, {"A": state, "B": state}, 0.1)
            logs.append(bytes(world.events))
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("dt", [1e-11, 4e-11, 0.0, -0.1, float("nan"), float("inf"),
                                    1e299])
    def test_dt_that_cannot_move_the_clock_rejected(self, dt):
        world = run_ring(steps=10)
        with pytest.raises(ValueError, match="dt"):
            w.step(world, {}, dt)
        assert world.clock == 1.0

    def test_clock_counts_whole_units(self):
        assert [w.step_units(dt) for dt in (6e-11, 1e-10, 0.1, 1 / 3)] == [
            1, 1, 10**9, 3333333333]
        world = run_ring(steps=0)
        for dt in (0.1, 0.25, 0.1):  # the step may change between calls
            w.step(world, {}, dt)
        assert (world.clock_units, world.clock) == (45 * 10**8, 0.45)

    def test_copy_isolates_state(self):
        world = run_ring(steps=10)
        clone = world.copy()
        w.step(world, {}, 0.1)
        assert len(clone.events) <= len(world.events)


class TestObserveCycle:
    def test_empty_window_counts_none(self):
        net = w.load_network(LINE)
        world = w.make_world(net, None, 0, 1)
        assert w.observe_cycle(world, "x", (0.0, 60.0)) == 0

    def test_single_free_flow_traversal(self):
        net = w.load_network(LINE)
        world = w.make_world(net, None, 0, 1)
        seed_vehicles(world, [("x", 1)])
        for _ in range(200):
            w.step(world, {}, 0.1)
        assert w.observe_cycle(world, "x", (0.0, 20.0)) == 1
        assert list(world.completed_at["x"]) == [10.0]  # x's free-flow time

    def test_congested_window_matches_event_log_recount(self):
        world = run_ring(steps=3000, vehicles=[("r1", 6), ("r4", 4)])
        window = (50.0, 250.0)
        n = w.observe_cycle(world, "r2", window)
        # independent recount directly over raw events: each move off r2
        moves = [ev for ev in exact_events(world, ())
                 if ev[0] == "move" and ev[3] == "r2" and window[0] < ev[1] <= window[1]]
        assert n == len(moves) > 0

    def test_unknown_site_rejected(self):
        net = w.load_network(LINE)
        world = w.make_world(net, None, 0, 1)
        with pytest.raises(KeyError):
            w.observe_cycle(world, "ghost", (0.0, 1.0))

    def test_window_over_forgotten_crossings_refused(self):
        world = run_ring(steps=3000, vehicles=[("r1", 6), ("r4", 4)])
        kept = world.copy()
        w.forget_crossings(world, 150.0)
        for site, times in world.completed_at.items():
            whole = kept.completed_at[site]
            # the crossings after 150 s, or the last one when none is
            assert list(times) == ([t for t in whole if t > 150.0] or list(whole[-1:]))
            for window in ((150.0, 300.0), (200.0, 260.0)):
                assert (w.observe_cycle(world, site, window)
                        == w.observe_cycle(kept, site, window))
            for start in (math.nextafter(150.0, 0.0), 60.0, -math.inf):
                with pytest.raises(ValueError, match="starts before 150: crossings"):
                    w.observe_cycle(world, site, (start, 300.0))
        w.forget_crossings(world, 100.0)  # forgetting less changes nothing
        assert world.crossings_after == 150.0


class TestZoneBalance:
    def test_residual_zero_every_window(self):
        world = run_ring(steps=0, vehicles=[("r1", 6), ("r4", 4)])
        for _ in range(9):
            for _ in range(500):
                w.step(world, {}, 0.1)
            assert check_zone_balance(world, "inner") == 0

    def test_corrupted_log_is_caught(self):
        world = run_ring(steps=5000, vehicles=[("r1", 6), ("r3", 4)])
        assert check_zone_balance(world, "inner") == 0
        entries = sum(1 for ev in events(world) if ev[0] == "move" and ev[4] == "r2")
        assert entries > 0
        lost = world.copy()
        lost.events = bytearray(b"".join(
            line for line in world.events.splitlines(keepends=True)
            if not (line.startswith(b"move\t") and line.endswith(b"\tr2\n"))))
        assert check_zone_balance(lost, "inner") == -entries
        invented = world.copy()
        for k in range(7):
            invented.log("depart", world.clock, 1000 + k, "r3")
        assert check_zone_balance(invented, "inner") == -7

    def test_unknown_zone_rejected(self):
        world = run_ring(steps=10)
        with pytest.raises(KeyError):
            check_zone_balance(world, "ghost")

    def test_open_network_balance(self, twin_network_text, twin_demand_text):
        net = w.load_network(twin_network_text)
        demand = w.load_demand(twin_demand_text)
        world = w.make_world(net, demand, horizon=300.0, seed=5)
        for k in range(3000):
            t = (k + 1) * 0.1
            state = (SignalState.GREEN if (t % 60) < 30 else
                     SignalState.YELLOW if (t % 60) < 35 else SignalState.RED)
            w.step(world, {"A": state, "B": state}, 0.1)
            if (k + 1) % 600 == 0:
                assert check_zone_balance(world, "Z") == 0
        assert world.entered > 0 and world.vehicle_count() > 0

    def test_counters_cross_check_event_log(self, twin_network_text,
                                            twin_demand_text):
        net = w.load_network(twin_network_text)
        demand = w.load_demand(twin_demand_text)
        world = w.make_world(net, demand, horizon=200.0, seed=9)
        for _ in range(2000):
            w.step(world, {"A": SignalState.RED, "B": SignalState.RED}, 0.1)
        arrives = sum(1 for e in events(world) if e[0] == "arrive")
        departs = sum(1 for e in events(world) if e[0] == "depart")
        assert world.entered == arrives
        assert world.exited == departs


class TestDemand:
    def test_windows_must_tile(self):
        with pytest.raises(ValueError):
            w.DemandProfile((("s1", (w.DemandWindow(0, 10, 1.0),
                                     w.DemandWindow(20, 30, 1.0))),))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            w.DemandWindow(0, 10, -1.0)

    def test_demand_on_non_entry_rejected(self, twin_network_text):
        net = w.load_network(twin_network_text)
        demand = w.DemandProfile((("s2", (w.DemandWindow(0, 10, 1.0),)),))
        with pytest.raises(w.TopologyError):
            w.make_world(net, demand, horizon=10.0, seed=0)

    def test_unbounded_window_under_infinite_horizon_rejected(self, twin_network_text):
        net = w.load_network(twin_network_text)
        demand = w.DemandProfile((("s1", (w.DemandWindow(0, 10, 1.0),
                                          w.DemandWindow(10, math.inf, 0.5))),))
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match=rf"\[arrivals s1\] windows: a window with a"
                                                 rf" rate > 0 ends at inf and the horizon"
                                                 rf" is {horizon}: its arrivals would never end"):
                w.make_world(net, demand, horizon=horizon, seed=0)

    def test_nan_or_negative_horizon_rejected_before_any_draw(self, twin_network_text,
                                                             monkeypatch):
        # min(100, nan) is 100, and a negative horizon would stop every draw
        from civitas import streams
        net = w.load_network(twin_network_text)
        demand = w.DemandProfile((("s1", (w.DemandWindow(0, 100, 0.1),)),))
        assert w.make_world(net, demand, horizon=0.0, seed=1).arrivals.next == []

        def no_draw(self, scale):
            raise AssertionError("drew an arrival")
        monkeypatch.setattr(streams.Pcg64, "exponential", no_draw)
        for horizon in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError, match=rf"horizon {horizon} is not a number >= 0"):
                w.make_world(net, demand, horizon=horizon, seed=1)

    def test_infinite_horizon_with_bounded_windows_draws_to_their_end(self, twin_network_text):
        net = w.load_network(twin_network_text)
        demand = w.DemandProfile((("s1", (w.DemandWindow(0, 100, 0.1),
                                          w.DemandWindow(100, math.inf, 0.0))),))
        assert (drain(w.make_world(net, demand, horizon=math.inf, seed=21).arrivals)
                == drain(w.make_world(net, demand, horizon=100.0, seed=21).arrivals))

    def test_arrival_streams_independent_per_entry(self, twin_network_text):
        net = w.load_network(twin_network_text)
        d1 = w.DemandProfile((("s1", (w.DemandWindow(0, 100, 0.1),)),))
        d2 = w.DemandProfile((("s1", (w.DemandWindow(0, 100, 0.1),)),
                              ("s3", (w.DemandWindow(0, 100, 0.2),))))
        w1 = w.make_world(net, d1, horizon=100.0, seed=21)
        w2 = w.make_world(net, d2, horizon=100.0, seed=21)
        s1_times_1 = [t for t, seg, _ in drain(w1.arrivals) if seg == "s1"]
        s1_times_2 = [t for t, seg, _ in drain(w2.arrivals) if seg == "s1"]
        assert s1_times_1 == s1_times_2  # split streams do not interfere


# Times the log's 9 digits round: thirds, and times of 1e9 s and more.
log_times = st.one_of(st.integers(1, 3 * 10**6).map(lambda k: k / 3),
                      st.floats(1e9, 1e12), st.floats(1e-9, 1e9))
# Ids of any printable characters, non-ASCII ones included.
log_ids = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z")),
                  min_size=1, max_size=5)


@st.composite
def logged_steps(draw):
    """Two segment ids, the first one's capacity, arrival times and the
    time the step ends, which no arrival is after."""
    a, b = draw(st.lists(log_ids, min_size=2, max_size=2, unique=True))
    times = sorted(draw(st.lists(log_times, min_size=1, max_size=6)))
    return a, b, draw(st.integers(1, 4)), times[:-1], times[-1]


class TestEventLog:
    def test_nine_significant_digits(self):
        line = w.format_event(("move", 12.3456789123, 7, "a", "b"))
        assert line.split("\t")[1] == "12.3456789"

    def test_lf_endings(self, tmp_path):
        world = run_ring(steps=600)
        path = tmp_path / "events.log"
        w.write_event_log(world.events, str(path))
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw

    @given(log_ids, log_ids, st.lists(log_times, max_size=4))
    @example("s1é", "ß→", [1e9, 1 / 3])
    def test_writes_the_events_verbatim(self, tmp_path_factory, a, b, times):
        world = w.make_world(w.load_network(LINE), None, 0, 1)
        seed_vehicles(world, [("x", 2)])
        for at in times:
            world.log("early_switch", at, a)
            world.log("violation", at, a, b, "t_area", at / 7)
        for _ in range(200):
            w.step(world, {}, 0.1)
        path = tmp_path_factory.mktemp("log") / "events.log"
        w.write_event_log(world.events, str(path))
        assert path.read_bytes() == bytes(world.events)

    @given(st.sampled_from(("early_switch", "constraint", "violation", "safe_mode")),
           log_times, st.lists(st.one_of(log_ids, log_times, st.integers()), max_size=4))
    @example("safe_mode", 2e9 / 3, ["Bé violation=reconcile stalled at 666666666.667"])
    def test_log_appends_the_formatted_line(self, kind, at, fields):
        world = w.make_world(w.load_network(LINE), None, 0, 1)
        world.log("early_switch", 1.0, "x")
        before = bytes(world.events)
        world.log(kind, at, *fields)
        record = (kind, at, *fields)
        assert world.events == before + (w.format_event(record) + "\n").encode("utf-8")

    @settings(max_examples=200)
    @given(logged_steps())
    @example(("s1é", "ß→", 1, [2e9 / 3, 1e9 + 1 / 3], 1e9 + 2 / 3))
    def test_step_appends_the_formatted_lines(self, drawn):
        """Arrivals that join or are dropped, a move and a departure, all in
        one step: each appends `format_event`'s line for its record."""
        a, b, capacity, arrivals, last = drawn
        net = w.StreetNetwork(
            (w.RoadSegment(a, "n0", "n1", 10.0, 10.0, capacity, entry=True),
             w.RoadSegment(b, "n1", "n2", 10.0, 10.0, 5, exit=True)),
            tuple(w.Intersection(f"n{i}") for i in range(3)))
        world = w.make_world(net, None, 0, 1)
        world.queues[a].append(w.Vehicle(0, (a, b), 0, 0.0))
        world.queues[b].append(w.Vehicle(1, (b,), 0, 0.0))
        world.next_vid = world.entered = 2
        units = round(last * w.CLOCK_UNITS_PER_S)
        dt_units = min(units, 10**9)
        world.clock_units = units - dt_units
        world.arrivals = ListArrivals([(at, a, (a, b)) for at in arrivals
                                       if at <= units / w.CLOCK_UNITS_PER_S])
        before = bytes(world.events)
        w.step(world, {}, dt_units / w.CLOCK_UNITS_PER_S)
        now, queued, vid, records = world.clock, 1, 2, []
        for at, _, _ in world.arrivals.records:
            if queued < capacity:
                records.append(("arrive", at, vid, a))
                queued, vid = queued + 1, vid + 1
            else:
                records.append(("drop", at, a))
        records += [("move", now, 0, a, b), ("depart", now, 1, b)]
        assert world.events == before + b"".join(
            (w.format_event(r) + "\n").encode("utf-8") for r in records)
