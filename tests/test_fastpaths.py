"""Fast paths of the simulation loop checked against the code they replaced.

Each oracle below is the earlier, direct implementation: the layout scan
of `SignalFsm.state_at`, the event-log recount of `observe_cycle` and the
per-exit `has_path` reachability of `make_world`.  The fast paths must
agree with them exactly, not approximately: `simulate` artifacts are
byte-identical across the change.
"""

import math
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from civitas import cli
from civitas import world as w
from civitas.fsm import CYCLIC_ORDER, SignalFsm, SignalState


# ---------------------------------------------------------------- oracles

def scan_layout(fsm):
    start_idx = CYCLIC_ORDER.index(fsm.anchor)
    regions = []
    t = 0.0
    for k in range(3):
        state = CYCLIC_ORDER[(start_idx + k) % 3]
        regions.append((state, t, t + fsm.split(state)))
        t += fsm.split(state)
    return tuple(regions)


def scan_state_at(fsm, t):
    p = (t - fsm.offset) % (fsm.green + fsm.yellow + fsm.red)
    for state, a, b in scan_layout(fsm):
        if a <= p < b:
            return state
    return scan_layout(fsm)[-1][0]


def recount_observe(world, site, window):
    """(N, mean traversal time) of `site` in (t0, t1] from the event log."""
    t0, t1 = window
    entered_at = {}
    durations = []
    for ev in world.events:
        kind, at = ev[0], ev[1]
        if kind == "arrive" and ev[3] == site:
            entered_at[ev[2]] = at
        elif kind == "move":
            _, _, vid, src, dst = ev
            if src == site and t0 < at <= t1 and vid in entered_at:
                durations.append(at - entered_at.pop(vid))
            elif src == site:
                entered_at.pop(vid, None)
            if dst == site:
                entered_at[vid] = at
        elif kind == "depart" and ev[3] == site:
            vid = ev[2]
            if t0 < at <= t1 and vid in entered_at:
                durations.append(at - entered_at.pop(vid))
            else:
                entered_at.pop(vid, None)
    n = len(durations)
    return n, (sum(durations) / n) if n else None


def has_path_exits(seg_graph, entry, exits):
    return [e for e in exits if e == entry or nx.has_path(seg_graph, entry, e)]


# ------------------------------------------------------------- state_at

splits = st.floats(0.1, 120.0, allow_nan=False)


@st.composite
def fsms(draw):
    green, yellow, red = draw(splits), draw(splits), draw(splits)
    cycle = green + yellow + red
    offset = draw(st.floats(0.0, 1.0, exclude_max=True)) * cycle
    if offset >= cycle:
        offset = 0.0
    return SignalFsm(green, yellow, red, offset,
                     draw(st.sampled_from(CYCLIC_ORDER)))


class TestStateAt:
    @given(fsms(), st.integers(0, 10 ** 6))
    def test_matches_scan_on_tick_grid(self, fsm, k):
        t = round(k * 0.1, 10)  # the simulate loop's clock
        assert fsm.state_at(t) is scan_state_at(fsm, t)

    @given(fsms(), st.integers(0, 2), st.integers(-3, 50), st.integers(-4, 4))
    def test_matches_scan_next_to_region_ends(self, fsm, region, cycles, ulps):
        t = fsm.offset + cycles * fsm.cycle + scan_layout(fsm)[region][2]
        toward = math.inf if ulps > 0 else -math.inf
        for _ in range(abs(ulps)):
            t = math.nextafter(t, toward)
        assert fsm.state_at(t) is scan_state_at(fsm, t)

    @given(fsms(), st.floats(-1e6, 1e6, allow_nan=False))
    def test_matches_scan_anywhere(self, fsm, t):
        assert fsm.state_at(t) is scan_state_at(fsm, t)

    @given(fsms())
    def test_layout_is_the_scanned_layout(self, fsm):
        assert fsm.layout() == scan_layout(fsm)

    def test_nan_falls_to_last_region(self):
        fsm = SignalFsm(30.0, 5.0, 25.0, anchor=SignalState.YELLOW)
        assert fsm.state_at(math.nan) is scan_state_at(fsm, math.nan)


# ---------------------------------------------------------- observe_cycle

RING_SEGMENTS = (
    w.RoadSegment("r1", "n1", "n2", 50.0, 10.0, 10),
    w.RoadSegment("r2", "n2", "n3", 40.0, 10.0, 10, shared=True),
    w.RoadSegment("r3", "n3", "n4", 50.0, 10.0, 10),
    w.RoadSegment("r4", "n4", "n1", 30.0, 10.0, 3),
)
RING = w.StreetNetwork(RING_SEGMENTS,
                       tuple(w.Intersection(f"n{i}") for i in range(1, 5)),
                       (w.Zone("inner", frozenset({"r2", "r3"})),))


def _ring_world():
    world = w.make_world(RING, None, 0, seed=7)
    w.seed_vehicles(world, [("r1", 6), ("r3", 4), ("r4", 2)])
    for _ in range(4000):
        w.step(world, {}, 0.1)
    return world


def _twin_fixed_world(data_dir):
    net = w.load_network((data_dir / "twin.network").read_text())
    demand = w.load_demand((data_dir / "twin.demand").read_text())
    world = w.make_world(net, demand, horizon=900.0, seed=5)
    controllers = cli._build_controllers(net)
    for k in range(9000):
        t = round((k + 1) * 0.1, 10)
        w.step(world, {n: c.fsm.state_at(t) for n, c in controllers.items()}, 0.1)
    return world


def _twin_hier_world(data_dir, tmp_dir):
    """Run the hierarchical loop, checking every observation it makes."""
    seen = []
    observe = w.observe_cycle

    def checked(world, site, window):
        obs = observe(world, site, window)
        assert (obs.n, obs.t_ex) == recount_observe(world, site, window)
        seen.append(world)
        return obs

    cfg = cli.RunConfig(str(data_dir / "twin.network"),
                        str(data_dir / "twin.demand"), str(data_dir / "twin.ctg"),
                        None, 900.0, 17, str(tmp_dir), "hierarchical")
    with mock.patch.object(cli.worldmod, "observe_cycle", checked):
        cli.run_simulation(cfg)
    assert len(seen) == 3 * 15
    return seen[-1]


@pytest.fixture(scope="module")
def stepped(data_dir, tmp_path_factory):
    return {"ring": _ring_world(),
            "twin_fixed": _twin_fixed_world(data_dir),
            "twin_hier": _twin_hier_world(data_dir, tmp_path_factory.mktemp("hier"))}


@st.composite
def windows(draw, world):
    """A window whose ends are random times or exact completion instants."""
    site = draw(st.sampled_from([s.id for s in world.network.segments]))
    instants = sorted({ev[1] for ev in world.events})
    end = st.one_of(st.floats(-1.0, world.clock + 1.0, allow_nan=False),
                    st.sampled_from(instants))
    return site, (draw(end), draw(end))


class TestObserveCycle:
    @pytest.mark.parametrize("name", ["ring", "twin_fixed", "twin_hier"])
    def test_every_site_every_cycle(self, stepped, name):
        world = stepped[name]
        for seg in world.network.segments:
            for k in range(int(world.clock // 60.0) + 1):
                window = (k * 60.0, (k + 1) * 60.0)
                obs = w.observe_cycle(world, seg.id, window)
                assert (obs.n, obs.t_ex) == recount_observe(world, seg.id, window)

    @pytest.mark.parametrize("name", ["ring", "twin_fixed", "twin_hier"])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_random_windows(self, stepped, name, data):
        world = stepped[name]
        site, window = data.draw(windows(world))
        obs = w.observe_cycle(world, site, window)
        assert (obs.n, obs.t_ex) == recount_observe(world, site, window)

    def test_records_survive_copy(self, stepped):
        world = stepped["ring"].copy()
        for _ in range(500):
            w.step(world, {}, 0.1)
        window = (world.clock - 60.0, world.clock)
        for seg in world.network.segments:
            obs = w.observe_cycle(world, seg.id, window)
            assert (obs.n, obs.t_ex) == recount_observe(world, seg.id, window)


# ---------------------------------------------------------- reachability

@st.composite
def networks(draw):
    """Random connected networks with entries, exits and turn restrictions."""
    k = draw(st.integers(2, 6))
    core = [f"c{i}" for i in range(k)]
    pairs = [(core[i], core[i + 1]) for i in range(k - 1)]  # keeps it connected
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in pairs]
    pairs += draw(st.lists(st.tuples(st.sampled_from(core), st.sampled_from(core)),
                           max_size=2 * k))
    segments = [w.RoadSegment(f"s{i}", a, b, 10.0, 5.0, 5)
                for i, (a, b) in enumerate(pairs)]
    nodes = list(core)
    for j in range(draw(st.integers(1, 3))):
        nodes.append(f"in{j}")
        segments.append(w.RoadSegment(f"e{j}", f"in{j}", draw(st.sampled_from(core)),
                                      10.0, 5.0, 5, entry=True))
    for j in range(draw(st.integers(1, 3))):
        nodes.append(f"out{j}")
        segments.append(w.RoadSegment(f"x{j}", draw(st.sampled_from(core)),
                                      f"out{j}", 10.0, 5.0, 5, exit=True))
    if draw(st.booleans()):  # a segment that is both entry and exit
        nodes += ["solo_in", "solo_out"]
        segments.append(w.RoadSegment("solo", "solo_in", "solo_out", 10.0, 5.0, 5,
                                      entry=True, exit=True))
        segments.append(w.RoadSegment("link", core[0], "solo_out", 10.0, 5.0, 5))
    ids = [s.id for s in segments]
    restricted = []
    for s in segments:
        if draw(st.booleans()):
            s = w.RoadSegment(s.id, s.from_node, s.to_node, s.length,
                              s.free_flow_speed, s.capacity, entry=s.entry,
                              exit=s.exit, turns=tuple(draw(st.lists(
                                  st.sampled_from(ids), max_size=3, unique=True))))
        restricted.append(s)
    return w.StreetNetwork(tuple(restricted),
                           tuple(w.Intersection(n) for n in nodes))


class TestReachableExits:
    @settings(max_examples=200)
    @given(networks())
    def test_matches_has_path(self, net):
        graph = net.segment_graph()
        exits = net.exits()
        for entry in net.entries():
            assert (w._reachable_exits(graph, entry, exits)
                    == has_path_exits(graph, entry, exits))

    def test_twin_entries(self, twin_network_text):
        net = w.load_network(twin_network_text)
        graph = net.segment_graph()
        for entry in net.entries():
            got = w._reachable_exits(graph, entry, net.exits())
            assert got and got == has_path_exits(graph, entry, net.exits())
