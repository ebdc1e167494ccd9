"""Fast paths checked against the code they replaced.

Each oracle below is the earlier, direct implementation: the layout scan
of `SignalFsm.state_at`, the event-log recount of `observe_cycle`, the
scan of every queue head that `world.step` was, the two rounded clocks
that `world.step` and the tick loop kept, the tick loop of
`cli.run_simulation` with a new controls dict per tick, the networkx
connectivity check, per-exit `has_path` reachability and `shortest_path` routes of
the network and `make_world`, the string-keyed dict transcription of
the bidirectional Dijkstra that routed `make_world`'s arrivals before
its router on segment indices, the dense Bland tableau of the simplex,
the per-row generator checks of `Ctmdp`, the entry-by-entry balance
rows of `build_lp` and the simplex's pivot step on a list basis (these
three in `tests/replay.py`), the scan of every logged shift per (state,
action) pair of `from_schedule_tables` and the cell-by-cell rate rows of
`model_to_csv`, the per-scenario exclusion-pair rule of
the task graph's `resolve`, the list scheduler's rescan of every
pending task, the `itertools.product` enumeration of
`fgraph.evaluate`, the sampled per-point loop of
`fuzzy.surface`, the scalar-indexed rows of `surface.csv` and the
per-row predicate calls of `metrics.flexibility`.  The fast paths must
agree with them exactly, not approximately: every artifact is
byte-identical across the change, so floats are compared by their bytes
or with `==`.  There are two exceptions.  The fuzzy centroid's closed
form adds at most three terms where the sampled one adds a whole output
universe, so the two may differ in the last bits (`CENTROID_ULPS`).  The
revised simplex takes other pivots than the tableau, so the two are
compared by status and objective; HiGHS is a second oracle.
"""

import csv
import heapq
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import civitas
from civitas import cli, fgraph, fuzzy, simplex
from civitas import ctg as ctgmod
from civitas import ctmdp as ctmdpmod
from civitas import fsm as fsmmod
from civitas import metrics as metricsmod
from civitas import world as w
from civitas.ctmdp import build_lp, make_ctmdp
from civitas.fsm import CYCLIC_ORDER, SignalFsm, SignalState
from civitas.hierarchy import HierarchyEngine, ZoneUnit
from civitas.textfmt import Section, parse_sections
from tests import replay


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


def scan_step(world, controls, dt):
    """`world.step` as a scan of every segment's queue head, every tick."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    for node in world.network.signalized_nodes():
        if node not in controls:
            raise ValueError(f"controls missing signalized intersection {node}")
    now = round(world.clock + dt, 10)
    world.clock = now

    while (world.arrival_idx < len(world.arrivals)
           and world.arrivals[world.arrival_idx][0] <= now):
        at, seg_id, route = world.arrivals[world.arrival_idx]
        world.arrival_idx += 1
        seg = world.network.segment(seg_id)
        if len(world.queues[seg_id]) >= seg.occupancy_limit:
            world.dropped += 1
            world.log("drop", at, seg_id)
            continue
        v = w.Vehicle(world.next_vid, route, 0, at, at + seg.travel_time)
        world.next_vid += 1
        world.queues[seg_id].append(v)
        world.entered += 1
        world.log("arrive", at, v.vid, seg_id)

    queues, completed_at = world.queues, world.completed_at
    for seg in world.network.segments:
        queue = queues[seg.id]
        if not queue:
            continue
        v = queue[0]
        if v.ready_at > now:
            continue
        crossed = completed_at[seg.id]
        if crossed and crossed[-1] + w.DEFAULT_HEADWAY > now:
            continue
        state = controls.get(seg.to_node)
        if state is not None and not state.admits(seg.approach or 0):
            continue
        nxt_id = w._next_segment(world, v, seg)
        if nxt_id is None:
            if not seg.exit and v.route:
                raise w.TopologyError(f"route of vehicle {v.vid} ends on non-exit {seg.id}")
        else:
            nxt = world.network.segment(nxt_id)
            if len(queues[nxt_id]) >= nxt.occupancy_limit:
                continue
        queue.pop(0)
        crossed.append(now)
        world.traversal_time[seg.id].append(now - v.entered_at)
        if nxt_id is None:
            world.exited += 1
            world.log("depart", now, v.vid, seg.id)
        else:
            v.leg += 1
            v.pending_next = None
            v.entered_at = now
            v.ready_at = now + nxt.travel_time
            queues[nxt_id].append(v)
            world.log("move", now, v.vid, seg.id, nxt_id)
    return world


def nx_segment_graph(net):
    """The networkx graph routes were searched on before: segments in
    declaration order, each one's turns in `allowed_turns` order."""
    graph = nx.DiGraph()
    graph.add_nodes_from(s.id for s in net.segments)
    for s in net.segments:
        for nxt in net.allowed_turns(s.id):
            graph.add_edge(s.id, nxt, weight=net.segment(nxt).travel_time)
    return graph


def has_path_exits(graph, entry, exits):
    return [e for e in exits if e == entry or nx.has_path(graph, entry, e)]


def dict_predecessors(succ):
    """The reverse of a `segment_graph`, each segment's feeders in declaration order."""
    pred = {seg: {} for seg in succ}
    for seg, nexts in succ.items():
        for nxt, weight in nexts.items():
            pred[nxt][seg] = weight
    return pred


def dict_route(succ, pred, source, target):
    """networkx's `bidirectional_dijkstra` (3.6.1) over string-keyed dicts,
    with its `direction` index: what `make_world` routed with before."""
    if source == target:
        return [source]
    dists = [{}, {}]  # settled distances, [forward, backward]
    preds = [{source: None}, {target: None}]
    seen = [{source: 0}, {target: 0}]
    fringe = [[], []]
    c = itertools.count()
    heapq.heappush(fringe[0], (0, next(c), source))
    heapq.heappush(fringe[1], (0, next(c), target))
    neighbors = (succ, pred)
    finaldist = meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heapq.heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            forward, node = [], meetnode
            while node is not None:
                forward.append(node)
                node = preds[0][node]
            forward.reverse()
            node = preds[1][meetnode]
            while node is not None:
                forward.append(node)
                node = preds[1][node]
            return forward
        for u, cost in neighbors[direction][v].items():
            vu_length = dist + cost
            if u in dists[direction]:
                continue
            if u not in seen[direction] or vu_length < seen[direction][u]:
                seen[direction][u] = vu_length
                heapq.heappush(fringe[direction], (vu_length, next(c), u))
                preds[direction][u] = v
                if u in seen[1 - direction]:
                    total = vu_length + seen[1 - direction][u]
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, u
    raise w.TopologyError(f"no path from {source} to {target}")


class DictRouter:
    """`w._Router`'s interface over the dict transcription, for `make_world`."""

    def __init__(self, network):
        self.succ = network.segment_graph()
        self.pred = dict_predecessors(self.succ)

    def reachable_exits(self, entry, exits):
        seen, stack = {entry}, [entry]
        while stack:
            for nxt in self.succ[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return [e for e in exits if e in seen]

    def route(self, source, target):
        return tuple(dict_route(self.succ, self.pred, source, target))


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
                        900.0, 17, str(tmp_dir), "hierarchical")
    with mock.patch.object(w, "observe_cycle", checked):
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


# ------------------------------------------- connectivity, reachability, routes

LENGTHS = (10.0, 20.0, 30.0)  # few values, so equal-time routes are common


@st.composite
def networks(draw):
    """Random connected networks with entries, exits, tied lengths, turn
    restrictions and, sometimes, a dead end left only by its U-turn."""
    length = st.sampled_from(LENGTHS)
    k = draw(st.integers(2, 6))
    core = [f"c{i}" for i in range(k)]
    pairs = [(core[i], core[i + 1]) for i in range(k - 1)]  # keeps it connected
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in pairs]
    pairs += draw(st.lists(st.tuples(st.sampled_from(core), st.sampled_from(core)),
                           max_size=2 * k))
    segments = [w.RoadSegment(f"s{i}", a, b, draw(length), 5.0, 5)
                for i, (a, b) in enumerate(pairs)]
    nodes = list(core)
    if draw(st.booleans()):
        nodes.append("dead")
        node = draw(st.sampled_from(core))
        segments += [w.RoadSegment("d_in", node, "dead", draw(length), 5.0, 5),
                     w.RoadSegment("d_out", "dead", node, draw(length), 5.0, 5)]
    for j in range(draw(st.integers(1, 3))):
        nodes.append(f"in{j}")
        segments.append(w.RoadSegment(f"e{j}", f"in{j}", draw(st.sampled_from(core)),
                                      draw(length), 5.0, 5, entry=True))
    for j in range(draw(st.integers(1, 3))):
        nodes.append(f"out{j}")
        segments.append(w.RoadSegment(f"x{j}", draw(st.sampled_from(core)),
                                      f"out{j}", draw(length), 5.0, 5, exit=True))
    if draw(st.booleans()):  # a segment that is both entry and exit
        nodes += ["solo_in", "solo_out"]
        segments.append(w.RoadSegment("solo", "solo_in", "solo_out", 10.0, 5.0, 5,
                                      entry=True, exit=True))
        segments.append(w.RoadSegment("link", core[0], "solo_out", 10.0, 5.0, 5))
    outgoing = {n: [s.id for s in segments if s.from_node == n] for n in nodes}
    restricted = []
    for s in segments:
        # The network rejects a turn onto a segment elsewhere and a dead end
        # that is no exit.
        onward = outgoing[s.to_node]
        s = replace(s, exit=s.exit or not onward)
        if onward and draw(st.booleans()):
            s = replace(s, turns=tuple(draw(st.lists(
                st.sampled_from(onward), min_size=1, max_size=3, unique=True))))
        restricted.append(s)
    return w.StreetNetwork(tuple(restricted),
                           tuple(w.Intersection(n) for n in nodes))


def grid(k):
    """k x k grid of two-way 100 m links, every segment the same length,
    with an entry and an exit at each border intersection of each side."""
    def g(r, c):
        return f"g{r}_{c}"

    def seg(sid, a, b, **flags):
        return w.RoadSegment(sid, a, b, 100.0, 10.0, 20, **flags)

    nodes = [g(r, c) for r, c in itertools.product(range(k), range(k))]
    segments = []
    for r, c in itertools.product(range(k), range(k - 1)):
        segments += [seg(f"e{r}_{c}", g(r, c), g(r, c + 1)),
                     seg(f"w{r}_{c + 1}", g(r, c + 1), g(r, c))]
    for r, c in itertools.product(range(k - 1), range(k)):
        segments += [seg(f"s{r}_{c}", g(r, c), g(r + 1, c)),
                     seg(f"n{r + 1}_{c}", g(r + 1, c), g(r, c))]
    border = {"w": lambda i: g(i, 0), "e": lambda i: g(i, k - 1),
              "n": lambda i: g(0, i), "s": lambda i: g(k - 1, i)}
    for side, i in itertools.product("wens", range(k)):
        nodes += [f"src_{side}{i}", f"snk_{side}{i}"]
        segments += [seg(f"in_{side}{i}", f"src_{side}{i}", border[side](i), entry=True),
                     seg(f"out_{side}{i}", border[side](i), f"snk_{side}{i}", exit=True)]
    return w.StreetNetwork(tuple(segments), tuple(w.Intersection(n) for n in nodes))


def assert_routes_match(net, sources, targets):
    graph = nx_segment_graph(net)
    router = w._Router(net)
    for source, target in itertools.product(sources, targets):
        if nx.has_path(graph, source, target):
            assert (router.route(source, target)
                    == tuple(nx.shortest_path(graph, source, target, weight="weight")))
        else:
            with pytest.raises(w.TopologyError, match="no path"):
                router.route(source, target)


def demand_on(net, rate, horizon):
    """One window of `rate` over the horizon at every entry that reaches an exit."""
    router = w._Router(net)
    return w.DemandProfile(tuple(
        (e, (w.DemandWindow(0.0, horizon, rate),))
        for e in net.entries() if router.reachable_exits(e, net.exits())))


def dict_routed_arrivals(net, demand, horizon, seed):
    with mock.patch.object(w, "_Router", DictRouter):
        return w.make_world(net, demand, horizon, seed).arrivals


class TestReachableExits:
    @settings(max_examples=200)
    @given(networks())
    def test_matches_has_path(self, net):
        graph = nx_segment_graph(net)
        router, exits = w._Router(net), net.exits()
        for entry in net.entries():
            assert (router.reachable_exits(entry, exits)
                    == has_path_exits(graph, entry, exits))

    def test_twin_entries(self, twin_network_text):
        net = w.load_network(twin_network_text)
        graph = nx_segment_graph(net)
        router = w._Router(net)
        for entry in net.entries():
            got = router.reachable_exits(entry, net.exits())
            assert got and got == has_path_exits(graph, entry, net.exits())


class TestShortestRoute:
    @settings(max_examples=200)
    @given(networks())
    def test_matches_networkx_on_every_pair(self, net):
        ids = [s.id for s in net.segments]
        assert_routes_match(net, ids, ids)

    @pytest.mark.parametrize("k", [4, 8])
    def test_matches_networkx_on_uniform_grid(self, k):
        net = grid(k)
        assert_routes_match(net, net.entries(), net.exits())

    def test_twin_pairs(self, twin_network_text):
        net = w.load_network(twin_network_text)
        assert_routes_match(net, net.entries(), net.exits())

    def test_matches_dict_transcription_on_12x12_grid(self):
        net = grid(12)
        router, succ = w._Router(net), net.segment_graph()
        pred = dict_predecessors(succ)
        for source, target in itertools.product(net.entries(), net.exits()):
            assert router.route(source, target) == tuple(
                dict_route(succ, pred, source, target))

    def test_route_whose_time_overflows(self):
        # two legs of 1e308 s each add up to inf s: networkx still returns
        # the path
        net = w.StreetNetwork(
            (w.RoadSegment("e", "a", "b", 10.0, 5.0, 5, entry=True),
             w.RoadSegment("y", "b", "c", 1e308, 1.0, 5),
             w.RoadSegment("x", "c", "d", 1e308, 1.0, 5, exit=True)),
            tuple(w.Intersection(n) for n in "abcd"))
        succ = net.segment_graph()
        assert succ["e"]["y"] + succ["y"]["x"] == math.inf
        assert (w._Router(net).route("e", "x")
                == tuple(dict_route(succ, dict_predecessors(succ), "e", "x"))
                == tuple(nx.shortest_path(nx_segment_graph(net), "e", "x", weight="weight"))
                == ("e", "y", "x"))

    @settings(max_examples=100)
    @given(networks())
    def test_segment_graph_is_the_networkx_graph(self, net):
        graph = nx_segment_graph(net)
        succ = net.segment_graph()
        assert list(succ) == list(graph)
        for seg in succ:
            assert list(succ[seg].items()) == [
                (nxt, d["weight"]) for nxt, d in graph.succ[seg].items()]
        router = w._Router(net)  # and the router's adjacency on indices
        assert router.ids == tuple(graph)
        for i, seg in enumerate(router.ids):
            assert [(router.ids[j], t) for j, t in router.succ[i]] == [
                (nxt, d["weight"]) for nxt, d in graph.succ[seg].items()]
            assert [(router.ids[j], t) for j, t in router.pred[i]] == [
                (prev, d["weight"]) for prev, d in graph.pred[seg].items()]


class TestMakeWorldRoutes:
    """`make_world` draws the same arrivals as with the dict transcription."""

    def test_grid8(self):
        net = grid(8)
        demand = demand_on(net, 0.05, 600.0)
        want = dict_routed_arrivals(net, demand, 600.0, 5)
        assert len(want) > 500 and w.make_world(net, demand, 600.0, 5).arrivals == want

    @settings(max_examples=100)
    @given(networks(), st.sampled_from((0.05, 0.3, 1.0)), st.integers(0, 999))
    def test_hypothesis_networks(self, net, rate, seed):
        demand = demand_on(net, rate, 120.0)
        assert (w.make_world(net, demand, 120.0, seed).arrivals
                == dict_routed_arrivals(net, demand, 120.0, seed))


@st.composite
def plain_networks(draw):
    """Intersections and undirected-ish links, connected or not."""
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 7)))]
    node = st.sampled_from(nodes)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=10))
    if draw(st.booleans()):
        pairs += [(a, b) if draw(st.booleans()) else (b, a)
                  for a, b in zip(nodes, nodes[1:])]
    return nodes, pairs


class TestConnectivity:
    @settings(max_examples=200)
    @given(plain_networks())
    def test_matches_is_connected(self, drawn):
        nodes, pairs = drawn
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(pairs)
        # a segment into a node no segment leaves must be an exit
        segments = tuple(w.RoadSegment(f"s{i}", a, b, 10.0, 5.0, 5,
                                       exit=all(b != c for c, _ in pairs))
                         for i, (a, b) in enumerate(pairs))
        intersections = tuple(w.Intersection(n) for n in nodes)
        if nx.is_connected(graph):
            w.StreetNetwork(segments, intersections)
        else:
            with pytest.raises(w.TopologyError, match="not connected"):
                w.StreetNetwork(segments, intersections)


# ------------------------------------------------ import scope and API
#
# Each check runs in a fresh interpreter: `import civitas` loads no module,
# and each command loads only the modules it runs.

def fresh_python(code, cwd=None):
    """Run `code` in a new interpreter that imports this source tree."""
    src = str(Path(civitas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_networkx_out():
    code = "import sys, civitas, civitas.cli; sys.exit('networkx' in sys.modules)"
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr or "networkx was imported"


def test_package_import_loads_no_module():
    done = fresh_python(
        "import sys, civitas; print(sorted(m for m in sys.modules if 'civitas' in m))\n"
        "import civitas.cli; print(sorted(m for m in sys.modules if 'civitas' in m),"
        " 'numpy' in sys.modules)\n"
        "print(civitas.simplex.__name__)")  # a module is imported on first use
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['civitas']", "['civitas', 'civitas.cli', 'civitas.textfmt'] False",
        "civitas.simplex"]


SIMULATE_TWIN = ("simulate --network {data}/twin.network --demand {data}/twin.demand"
                 " --horizon 120 --seed 1 --out {out}")
HIERARCHY = ("civitas.ctg", "civitas.ctmdp", "civitas.simplex", "civitas.fgraph",
             "civitas.hierarchy")
OFFLINE = ("civitas.fuzzy", "civitas.metrics", "civitas.registry")


@pytest.mark.parametrize("argv, absent", [
    (SIMULATE_TWIN, HIERARCHY + OFFLINE + ("numpy",)),
    (SIMULATE_TWIN + " --mode hierarchical --ctg {data}/twin.ctg",
     OFFLINE + ("numpy.random",)),
    ("schedule --ctg {data}/twin.ctg --out {out}", ("numpy",)),
    ("classify --registry {data}/city.registry --out {out}", ("numpy",)),
    ("metrics --job {job} --out {out}", ("numpy.random",)),
], ids=["simulate-fixed", "simulate-hierarchical", "schedule", "classify", "metrics"])
def test_command_loads_only_its_modules(data_dir, tmp_path, argv, absent):
    job = tmp_path / "flexibility.job"
    job.write_text("[flexibility box]\nattrs = a:0:1, b:0:2\nrule = a <= 0.4\nn = 100000\n")
    argv = argv.format(data=data_dir, out=tmp_path / "out", job=job).split()
    done = fresh_python(
        f"import sys\nfrom civitas import cli\nassert cli.main({argv!r}) == 0\n"
        f"print(sorted(set({list(absent)!r}) & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n", f"{argv[0]} loaded {done.stdout.strip()}"


# The package's names at the time they were first imported eagerly, by the
# module that defines them.
PACKAGE_NAMES = {
    "fsm": ("SignalFsm", "SignalState", "TimingConstraint", "ImplementationMode",
            "IntersectionController", "apply_timing_constraints", "shortcut_to_safe"),
    "ctg": ("Ctg", "CtgTask", "ConditionSite", "ScheduleTable", "ZoneSchedule",
            "enumerate_scenarios", "resolve", "schedule", "build_table",
            "derive_timing_constraints", "load_ctg"),
    "ctmdp": ("Ctmdp", "ShiftLog", "make_ctmdp", "from_schedule_tables", "build_lp",
              "solve_model", "extract_policy"),
    "fgraph": ("PerfDistribution", "FunctionGraph", "FgNode", "GoalAllocation",
               "attach", "evaluate", "distribute_goals"),
    "fuzzy": ("FuzzyParams", "ParamRow", "RuleBase", "DEFAULT_RULES", "fuzzify",
              "infer", "defuzzify_centroid", "control", "surface", "lcu_update"),
    "hierarchy": ("HierarchyEngine", "ConstraintMsg", "ViolationMsg", "ReconcileReport"),
    "metrics": ("SpecBox", "EffortField", "CurvePair", "flexibility", "scalability",
                "autonomy", "efficiency", "predictability"),
    "registry": ("DmModule", "DmRegistry", "Goal", "Capability", "LinkRole",
                 "InteractionKind", "load_registry"),
    "world": ("StreetNetwork", "RoadSegment", "WorldState", "DemandProfile",
              "load_network", "load_demand", "make_world", "step", "observe_cycle",
              "check_zone_balance"),
}


class TestPackageApi:
    def test_all_lists_the_package_names(self):
        names = [n for names in PACKAGE_NAMES.values() for n in names]
        assert len(names) == 71 and civitas.__all__ == names
        assert civitas.__version__ == "0.1.0"

    def test_each_name_is_its_module_attribute(self):
        for module, names in PACKAGE_NAMES.items():
            mod = importlib.import_module(f"civitas.{module}")
            assert getattr(civitas, module) is mod
            for name in names:
                assert getattr(civitas, name) is getattr(mod, name), name

    def test_star_import_and_dir_list_every_name(self):
        namespace = {}
        exec("from civitas import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(civitas.__all__)
        assert set(civitas.__all__) <= set(dir(civitas))

    def test_unknown_name_is_named(self):
        with pytest.raises(AttributeError, match="'civitas' has no attribute 'no_such'"):
            civitas.no_such  # noqa: B018


def test_one_parser_serves_every_command_of_a_process(data_dir, tmp_path):
    """A fixed `simulate`, a usage error and a `schedule` in one process
    (one cached parser) exit and write as they do in fresh processes."""
    runs = [SIMULATE_TWIN.format(data=data_dir, out="{out}/sim"),
            f"schedule --ctg {data_dir}/twin.ctg --horizon 5 --out {{out}}/bad",
            f"schedule --ctg {data_dir}/twin.ctg --out {{out}}/sch"]

    def mains(argvs, out):
        return "from civitas import cli\n" + "".join(
            f"print(cli.main({argv.format(out=out).split()!r}))\n" for argv in argvs)
    fresh = [fresh_python(mains([argv], tmp_path / "fresh")) for argv in runs]
    one = fresh_python(mains(runs, tmp_path / "one")
                       + "assert cli.build_parser() is cli.build_parser()\n")
    assert one.returncode == 0, one.stderr
    assert one.stdout.split() == [f.stdout.strip() for f in fresh] == ["0", "1", "0"]
    written = sorted(p.relative_to(tmp_path / "fresh")
                     for p in (tmp_path / "fresh").rglob("*") if p.is_file())
    assert written and written == sorted(p.relative_to(tmp_path / "one")
                                         for p in (tmp_path / "one").rglob("*")
                                         if p.is_file())
    for rel in written:
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "fresh" / rel).read_bytes()


# ------------------------------------------------------------------- step

STEP_DTS = (0.1, 0.25, 1 / 3, 0.5, 0.7)


@st.composite
def step_runs(draw):
    """A random network with signals, capacity-1 and shared segments, random
    demand, dynamically routed vehicles placed by `seed_vehicles`, and the
    inputs of a run: dt, tick count, the tick of a mid-run `copy()`, and
    the seed and flip rate of per-tick controls."""
    net = draw(networks())
    nodes = [i.id for i in net.intersections]
    signalized = set(draw(st.lists(st.sampled_from(nodes), max_size=4, unique=True)))
    segments = tuple(replace(s, capacity=draw(st.sampled_from((1, 1, 2, 5))),
                             shared=draw(st.booleans()),
                             approach=draw(st.sampled_from((1, 2)))
                             if s.to_node in signalized else None)
                     for s in net.segments)
    net = w.StreetNetwork(segments, tuple(w.Intersection(n, n in signalized)
                                          for n in nodes))
    dt = draw(st.sampled_from(STEP_DTS))
    ticks = draw(st.integers(20, 400))
    horizon = ticks * dt
    router = w._Router(net)
    demand = w.DemandProfile(tuple(
        (e, (w.DemandWindow(0.0, horizon, draw(st.sampled_from((0.05, 0.3, 1.0)))),))
        for e in net.entries() if router.reachable_exits(e, net.exits())))
    world = w.make_world(net, demand, horizon, seed=draw(st.integers(0, 999)))
    placed = draw(st.lists(st.sampled_from(segments), max_size=4, unique=True))
    w.seed_vehicles(world, [(s.id, draw(st.integers(1, s.occupancy_limit)))
                            for s in placed])
    return (world, dt, ticks, draw(st.integers(0, ticks)), draw(st.integers(0, 999)),
            draw(st.sampled_from((0.01, 0.1, 0.5))), draw(st.booleans()))


def step_outcome(stepper, world, controls, dt):
    try:
        stepper(world, controls, dt)
    except w.TopologyError as exc:  # a dynamically routed vehicle stuck
        return str(exc)
    return None


def assert_same_world(got, want):
    assert got.clock == want.clock
    assert got.events == want.events
    assert got.queues == want.queues
    for records in ("completed_at", "traversal_time"):
        assert ({s: a.tobytes() for s, a in getattr(got, records).items()}
                == {s: a.tobytes() for s, a in getattr(want, records).items()})
    assert ((got.dropped, got.entered, got.exited, got.next_vid, got.arrival_idx)
            == (want.dropped, want.entered, want.exited, want.next_vid, want.arrival_idx))
    assert got.route_rng.state == want.route_rng.state  # lcg, inc and the buffered half


def run_side_by_side(world, dt, ticks, controls_at, copy_at=None):
    """Step `world` and a scanned twin together, comparing after every tick;
    from tick `copy_at` on, a copy of the stepped world is stepped too."""
    oracle, worlds = world.copy(), [world]
    for k in range(ticks):
        if k == copy_at:
            worlds.append(world.copy())
        controls = controls_at(k)
        want = step_outcome(scan_step, oracle, controls, dt)
        for got in worlds:
            assert step_outcome(w.step, got, controls, dt) == want
            assert_same_world(got, oracle)
        if want is not None:
            return


class TestStep:
    @settings(max_examples=150, deadline=None)
    @given(step_runs())
    def test_matches_scan(self, run):
        world, dt, ticks, copy_at, seed, flip, reuse = run
        rng = np.random.default_rng(seed)
        nodes = [i.id for i in world.network.intersections]
        signalized = set(world.network.signalized_nodes())
        shown = {n: CYCLIC_ORDER[rng.integers(3)] for n in nodes}
        kept = {}

        def controls_at(k):
            """Signals flip at random; an unsignalized node's state comes
            and goes.  With `reuse`, one dict is changed in place."""
            for n in nodes:
                if rng.random() < flip:
                    shown[n] = CYCLIC_ORDER[rng.integers(3)]
            controls = kept if reuse else {}
            for n in nodes:
                if n in signalized or rng.random() < 0.5:
                    controls[n] = shown[n]
                else:
                    controls.pop(n, None)
            return controls

        run_side_by_side(world, dt, ticks, controls_at, copy_at)

    def test_vehicles_seeded_mid_run(self):
        world = w.make_world(RING, None, 0, seed=3)
        oracle = world.copy()
        for k in range(800):
            for seeded in (world, oracle):
                if k == 0:
                    w.seed_vehicles(seeded, [("r1", 2), ("r3", 1)])
                if k == 300:  # r4 is empty then
                    w.seed_vehicles(seeded, [("r1", 1), ("r4", 2)])
            w.step(world, {}, 0.1)
            scan_step(oracle, {}, 0.1)
            assert_same_world(world, oracle)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_signalized_grid(self, seed):
        gen = perfbench_gen()
        net = w.load_network(gen.grid_network(4, np.random.default_rng(seed)))
        demand = w.load_demand(gen.grid_demand(4, 300.0).replace(
            f":{gen.GRID_RATE:g}", ":0.3"))
        world = w.make_world(net, demand, 300.0, seed)
        controllers = cli._build_controllers(net)
        run_side_by_side(world, 0.1, 3000, lambda k: {
            n: c.fsm.state_at(round((k + 1) * 0.1, 10)) for n, c in controllers.items()})


# ------------------------------------------------------------------ clock
#
# `world.step` used to accumulate `round(clock + dt, 10)`, and the tick loop
# of `cli.run_simulation` took `round((k + 1) * dt, 10)` for its time.  Both
# now read k * step_units(dt) / CLOCK_UNITS_PER_S at tick k (`step` and
# `tick_times`), which must be both old clocks exactly for every dt on the
# 1e-10 grid.

def accumulated_clock(dt, ticks, clock=0.0):
    """The clock `world.step` kept, after each of `ticks` steps."""
    for _ in range(ticks):
        clock = round(clock + dt, 10)
        yield clock


def rounded_tick_time(dt, k):
    """The time the tick loop gave tick k (counting from 1)."""
    return round(k * dt, 10)


def stepped_clock(dt, ticks, world=None):
    """`world.step`'s clock after each of `ticks` steps of an empty ring."""
    world = world or w.make_world(RING, None, 0, seed=0)
    for _ in range(ticks):
        yield w.step(world, {}, dt).clock


GRID_DTS = (0.05, 0.1, 0.13, 0.25, 0.3, 0.7)


class TestClock:
    @pytest.mark.parametrize("dt", GRID_DTS)
    def test_every_tick_of_four_hours(self, dt):
        ticks = math.ceil(14400 / dt)
        clocks = zip(stepped_clock(dt, ticks), w.tick_times(dt, ticks),
                     accumulated_clock(dt, ticks))
        for k, (got, tick, old) in enumerate(clocks, 1):
            assert got == tick == old == rounded_tick_time(dt, k), k
        assert got >= 14400.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**11), st.floats(0.0, 14400.0), st.integers(1, 60))
    def test_any_dt_on_the_grid(self, units, start, ticks):
        """From any tick of a 4 h run on, for the next `ticks` ticks."""
        dt = units / w.CLOCK_UNITS_PER_S
        assert w.step_units(dt) == units
        k0 = int(start / dt)
        world = w.make_world(RING, None, 0, seed=0)
        world.clock_units, world.clock = k0 * units, rounded_tick_time(dt, k0)
        old = accumulated_clock(dt, ticks, world.clock)
        for k, (got, want) in enumerate(zip(stepped_clock(dt, ticks, world), old),
                                        k0 + 1):
            assert got == want == rounded_tick_time(dt, k) == world.clock_units / 10**10

    def test_off_grid_dt_keeps_the_stepped_clock(self):
        """dt = 1/3 is 3333333333 units a tick: the clock `world.step` kept
        up to 2**17 s, where its rounding started to drift.  The tick loop's
        time was another clock, off by a unit from the second tick on."""
        dt, ticks = 1 / 3, 3 * 2**17
        for got, old in zip(stepped_clock(dt, ticks), accumulated_clock(dt, ticks)):
            assert got == old
        assert 131071.99 < got < 131072  # 3333333333 units are a bit under 1/3 s
        assert (rounded_tick_time(dt, 1), rounded_tick_time(dt, 2)) == (
            w.step_units(dt) / 10**10, 0.6666666667)
        assert 2 * w.step_units(dt) / 10**10 == 0.6666666666

    def test_tick_loop_reads_the_world_clock(self, tmp_path, data_dir):
        """Every signal state of a tick is read at the time its step ends
        (in fixed mode, where nothing else asks for one)."""
        times, ends, step, state_at = [], [], w.step, SignalFsm.state_at

        def stepped(world, controls, dt):
            step(world, controls, dt)
            ends.append((len(times), world.clock))
            return world

        def recorded(fsm, t):
            times.append(t)
            return state_at(fsm, t)

        for dt in (0.1, 1 / 3, 0.7):
            cfg = cli.RunConfig(str(data_dir / "twin.network"),
                                str(data_dir / "twin.demand"), None, 300.0, 2,
                                str(tmp_path / f"{dt:.3f}"), "fixed", dt)
            times.clear()
            ends.clear()
            with (mock.patch.object(w, "step", stepped),
                  mock.patch.object(SignalFsm, "state_at", recorded)):
                cli.run_simulation(cfg)
            assert len(ends) == round(300.0 / dt)
            start = 0
            for end, clock in ends:
                assert set(times[start:end]) == {clock}
                start = end


# ---------------------------------------------------------- idle step
#
# A step with nothing armed, the previous controls and a time before the
# agenda's next arrival or timer returns after moving the clock.  These
# cases sit on that edge; each is also checked against the scan.

def line_network():
    """Entry a (1 s long) into the signalized node x, then the exit b (2 s)."""
    return w.StreetNetwork(
        (w.RoadSegment("a", "n0", "x", 10.0, 10.0, 5, approach=1, entry=True),
         w.RoadSegment("b", "x", "n2", 20.0, 10.0, 5, exit=True)),
        (w.Intersection("n0"), w.Intersection("x", signalized=True),
         w.Intersection("n2")))


def line_world(arrivals=()):
    world = w.make_world(line_network(), None, 0, seed=0)
    world.arrivals = [(at, "a", ("a", "b")) for at in arrivals]
    return world


def crossings(world):
    return [(ev[1], ev[0]) for ev in world.events if ev[0] in ("move", "depart")]


RED, GREEN = SignalState.RED, SignalState.GREEN  # RED admits approach 1


class TestIdleStep:
    @pytest.mark.parametrize("dt", [0.1, 0.25, 0.7])
    def test_arrival_exactly_at_a_tick(self, dt):
        times = list(w.tick_times(dt, 9))
        at = [times[2], times[3], times[8]]
        world = line_world(at)
        run_side_by_side(world, dt, 40, lambda k: {"x": RED})
        arrived = [ev[1] for ev in world.events if ev[0] == "arrive"]
        assert arrived == at

    def test_arrival_joins_in_its_own_tick(self):
        world = line_world([0.5])
        for k in range(1, 7):
            w.step(world, {"x": RED}, 0.1)
            assert world.entered == (k >= 5)

    @pytest.mark.parametrize("dt", [0.1, 0.25, 0.5])
    def test_timer_due_exactly_at_a_tick(self, dt):
        """The head is ready at 1.5 s, its follower 2 s of headway later."""
        world = line_world([0.5, 0.5])
        run_side_by_side(world, dt, round(6 / dt), lambda k: {"x": RED})
        assert crossings(world) == [(1.5, "move"), (3.5, "move"),
                                    (3.5, "depart"), (5.5, "depart")]

    def test_controls_change_with_nothing_armed(self):
        world = line_world([0.5])
        signal = [GREEN] * 30 + [RED] * 10
        run_side_by_side(world, 0.1, 40, lambda k: {"x": signal[k]})
        assert crossings(world)[0] == (3.1, "move")

    def test_waiting_head_leaves_the_agenda_idle(self):
        world = line_world([0.5])
        for _ in range(30):
            w.step(world, {"x": GREEN}, 0.1)
        agenda = world.agenda
        assert (agenda.armed, agenda.timers, agenda.due) == (set(), [], math.inf)
        assert agenda.signal == {"x": [0]}
        w.step(world, {"x": RED}, 0.1)
        assert crossings(world) == [(3.1, "move")]

    def test_controls_updated_in_place_rearm_waiters(self):
        """One dict, changed in place, as a tick loop that keeps it would."""
        world, oracle = line_world([0.5]), line_world([0.5])
        controls = {"x": GREEN}
        for k in range(40):
            if k == 30:
                controls["x"] = RED
            w.step(world, controls, 0.1)
            scan_step(oracle, controls, 0.1)
            assert_same_world(world, oracle)
        assert crossings(world)[0] == (3.1, "move")


# -------------------------------------------------------------- tick loop
#
# `cli.run_simulation` used to build a new controls dict every tick from
# every controller and to find its epochs with `enumerate` and a modulo.
# That loop is the oracle: every `simulate` artifact must come out
# byte-identical with it, early switches (which replace a controller
# between epochs) included.

def dict_run_simulation(cfg, inputs=None):
    """`cli.run_simulation` with its tick loop as it was before `controls`
    became one dict filled in place; its epochs and artifacts are the CLI's."""
    os.makedirs(cfg.out, exist_ok=True)
    net, world, ctg, table, itus = inputs or cli.load_simulation(cfg)
    controllers = cli._build_controllers(net)
    cycle = max((c.fsm.cycle for c in controllers.values()), default=60.0)
    epochs = None
    if cfg.mode == "hierarchical":
        epochs = cli.EpochLoop(cfg, ctg, table, itus, controllers, cycle, world)

    ticks = int(round(cfg.horizon / cfg.dt))
    epoch_every = max(1, int(round(min(cycle / cfg.dt, ticks + 1))))
    early = [] if epochs else [n for n, c in controllers.items() if c.early_switch]
    for k, t in enumerate(w.tick_times(cfg.dt, ticks)):
        for node in early:
            controllers[node] = w.early_switch(world, controllers[node], t)
        controls = {node: ctrl.fsm.state_at(t) for node, ctrl in controllers.items()}
        w.step(world, controls, cfg.dt)
        if epochs is not None and (k + 1) % epoch_every == 0:
            epochs.close(t)
    return cli._write_artifacts(cfg, world, epochs)


def assert_same_artifacts(tmp_path, argv):
    """`simulate argv` writes the same files, byte for byte, with the tick
    loop of `cli.run_simulation` and with `dict_run_simulation`'s."""
    fast, oracle = tmp_path / "fast", tmp_path / "oracle"
    assert cli.main(["simulate", *argv, "--out", str(fast)]) == 0
    with mock.patch.object(cli, "run_simulation", dict_run_simulation):
        assert cli.main(["simulate", *argv, "--out", str(oracle)]) == 0
    names = sorted(os.listdir(oracle))
    assert sorted(os.listdir(fast)) == names and "events.log" in names
    for name in names:
        assert (fast / name).read_bytes() == (oracle / name).read_bytes(), name
    return (fast / "events.log").read_text()


def twin_args(data_dir, mode, seed, dt, network=None):
    return ["--network", str(network or data_dir / "twin.network"),
            "--demand", str(data_dir / "twin.demand"),
            "--ctg", str(data_dir / "twin.ctg"), "--mode", mode,
            "--seed", str(seed), "--dt", repr(dt), "--horizon", "1800"]


class TestTickLoop:
    @pytest.mark.parametrize("dt", [0.1, 0.25, 1 / 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["fixed", "hierarchical"])
    def test_twin_matches_dict_per_tick(self, tmp_path, data_dir, mode, seed, dt):
        assert_same_artifacts(tmp_path, twin_args(data_dir, mode, seed, dt))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_zone_over_its_deadline_reaches_the_area(self, tmp_path, data_dir, seed):
        # Every twin column takes longer than 20 s, so the first pass sends
        # a zone -> area `t_area` violation; an area has no recompute, so
        # every reconcile stops after that pass and engages safe mode.
        events = assert_same_artifacts(tmp_path, twin_args(
            data_dir, "hierarchical", seed, 0.1) + ["--deadline", "20"])
        rows = (tmp_path / "fast" / "reports.csv").read_text().splitlines()[1:]
        assert len(rows) == 31
        assert all(row.split(",", 1)[1] == "False,1,1,A;B" for row in rows)
        assert len(re.findall(r"^violation\t[^\t]+\tZ\tarea\tt_area\t", events,
                              re.M)) == 31

    def test_signalized_grid(self, tmp_path):
        gen = perfbench_gen()
        net, dem = tmp_path / "grid4.network", tmp_path / "grid4.demand"
        net.write_text(gen.grid_network(4, np.random.default_rng(4)))
        dem.write_text(gen.grid_demand(4, 600.0))
        events = assert_same_artifacts(tmp_path, [
            "--network", str(net), "--demand", str(dem), "--horizon", "600",
            "--seed", "4"])
        assert events.count("\nmove\t") > 1000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_early_switch_rebuilds_the_signals(self, tmp_path, data_dir, seed):
        # the only place a controller changes between epochs
        net = tmp_path / "early.network"
        net.write_text((data_dir / "twin.network").read_text().replace(
            "safe_mode = safe", "safe_mode = safe\nearly_switch = true"))
        events = assert_same_artifacts(tmp_path, twin_args(
            data_dir, "fixed", seed, 0.1, network=net))
        assert events.count("early_switch\t") > 10

    def test_call_shape(self, tmp_path, data_dir, monkeypatch):
        # One `world.step` looked up on the module per tick, which the
        # benchmark's set-up probe needs (it replaces `world.step` and puts
        # the original back on its first call, as `perfbench/child.py`'s
        # `Probes._one_shot` does), and one `state_at` per controller per
        # tick, called from `run_simulation` itself (the traced checks
        # count the calls made directly under it).
        calls = {"probe": 0, "step": 0, "state_at": 0, "state_at_in_loop": 0}
        step, state_at = w.step, SignalFsm.state_at

        def counted_step(*args):
            calls["step"] += 1
            return step(*args)

        def probe(*args):
            calls["probe"] += 1
            setattr(w, "step", counted_step)
            return counted_step(*args)

        def counted_state_at(fsm, t):
            calls["state_at"] += 1
            if sys._getframe(1).f_code is cli.run_simulation.__code__:
                calls["state_at_in_loop"] += 1
            return state_at(fsm, t)

        monkeypatch.setattr(w, "step", probe)
        monkeypatch.setattr(SignalFsm, "state_at", counted_state_at)
        argv = twin_args(data_dir, "fixed", 1, 0.1)
        assert cli.main(["simulate", *argv, "--out", str(tmp_path)]) == 0
        ticks, controllers = 18_000, 2
        assert calls == {"probe": 1, "step": ticks, "state_at": ticks * controllers,
                         "state_at_in_loop": ticks * controllers}


def test_epoch_work_is_done_once_per_input(tmp_path, data_dir, monkeypatch):
    # Over a twin hierarchical run the engine allocates the goal once per
    # (function graph object, target, deadline) that a push-down or the
    # artifact writer meets, derives constraints at most once per (table,
    # column, ITU) and applies constraints only to an (FSM, constraints)
    # pair of values it has not applied before.
    allocations, push_downs, derivations, applications = [], [], [], []
    distribute_goals = fgraph.distribute_goals
    derive = ctgmod.derive_timing_constraints
    apply = fsmmod.apply_timing_constraints
    push_down = HierarchyEngine.push_down

    def counted_distribute_goals(fg, target, deadline):
        allocations.append((fg, target, deadline))
        return distribute_goals(fg, target, deadline)

    def counted_derive(sched, itu, cycle=None):
        derivations.append((sched, itu))
        return derive(sched, itu, cycle=cycle)

    def counted_apply(fsm, constraints):
        applications.append((fsm, constraints))
        return apply(fsm, constraints)

    def recorded_push_down(engine, at=0.0):
        push_downs.append((engine.top.fg, engine.top.target, engine.top.deadline))
        return push_down(engine, at)

    monkeypatch.setattr(fgraph, "distribute_goals", counted_distribute_goals)
    monkeypatch.setattr(ctgmod, "derive_timing_constraints", counted_derive)
    monkeypatch.setattr(fsmmod, "apply_timing_constraints", counted_apply)
    monkeypatch.setattr(HierarchyEngine, "push_down", recorded_push_down)
    argv = twin_args(data_dir, "hierarchical", 1, 0.1)
    assert cli.main(["simulate", *argv, "--out", str(tmp_path)]) == 0

    def by_graph(keys):  # the graphs stay alive in the lists, so ids are unique
        return [(id(fg), target, deadline) for fg, target, deadline in keys]
    assert len(push_downs) == 31  # one pass per reconcile: 30 epochs and t = 0
    assert len(set(by_graph(allocations))) == len(allocations)
    assert set(by_graph(push_downs)) <= set(by_graph(allocations))
    # the t = 0 graph and one per CTMDP solve, every fifth epoch
    assert len(allocations) == 1 + 30 // 5
    derived = [(id(sched), itu) for sched, itu in derivations]
    assert len(set(derived)) == len(derived) <= 2 * 8  # 2 ITUs, 8 columns
    assert len(set(applications)) == len(applications) < 2 * 31


# ---------------------------------------------------------------- simplex
#
# The dense Bland tableau the revised simplex replaced, with its per-row
# pivot and ratio test, is the objective oracle on the LPs where it returns
# a feasible "optimal" point.  HiGHS (scipy) is the second oracle, and the
# only one on the ladder LPs, where the tableau drifts (32x2) or runs out
# of iterations (64x2).

def loop_pivot(tab, row, col):
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i] -= tab[i, col] * tab[row]


def loop_bland_step(tab, basis, costs):
    """One Bland pivot; returns the entering column, None at the optimum,
    -1 if unbounded."""
    m, width = tab.shape
    n = width - 1
    cb = costs[basis]
    reduced = costs[:n] - cb @ tab[:, :n]
    entering = None
    for j in range(n):
        if reduced[j] > simplex.PIVOT_TOL:
            entering = j
            break
    if entering is None:
        return None
    best_row, best_ratio = -1, np.inf
    for i in range(m):
        a = tab[i, entering]
        if a > simplex.PIVOT_TOL:
            ratio = tab[i, -1] / a
            if ratio < best_ratio - simplex.PIVOT_TOL or (
                    abs(ratio - best_ratio) <= simplex.PIVOT_TOL
                    and (best_row < 0 or basis[i] < basis[best_row])):
                best_row, best_ratio = i, ratio
    if best_row < 0:
        return -1
    loop_pivot(tab, best_row, entering)
    basis[best_row] = entering
    return entering


def tableau_solve(lp):
    """The dense two-phase Bland tableau; returns (status, x)."""
    n_x = len(lp.objective)
    m_eq, m_ge = lp.eq_lhs.shape[0], lp.ge_lhs.shape[0]
    m, n_total = m_eq + m_ge, n_x + m_ge
    A = np.zeros((m, n_total))
    A[:m_eq, :n_x] = lp.eq_lhs
    A[m_eq:, :n_x] = lp.ge_lhs
    A[m_eq:, n_x:] = -np.eye(m_ge)
    b = np.concatenate([lp.eq_rhs, lp.ge_rhs])
    A[b < 0] *= -1.0
    b = np.abs(b)
    tab = np.hstack([A, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n_total, n_total + m))
    phase1_costs = np.zeros(n_total + m)
    phase1_costs[n_total:] = -1.0
    iterations = 0
    while (step := loop_bland_step(tab, basis, phase1_costs)) is not None:
        iterations += 1
        if step == -1:  # cannot happen in phase 1 (bounded below by 0)
            return simplex.INFEASIBLE, None
        if iterations >= simplex.DEFAULT_MAX_ITERS:
            return simplex.ITERATION_LIMIT, None
    if -phase1_costs[basis] @ tab[:, -1] > simplex.FEAS_TOL:
        return simplex.INFEASIBLE, None
    keep = []
    for i in range(m):
        if basis[i] >= n_total:
            col = next((j for j in range(n_total)
                        if abs(tab[i, j]) > simplex.PIVOT_TOL), None)
            if col is None:
                continue  # redundant row
            loop_pivot(tab, i, col)
            basis[i] = col
        keep.append(i)
    tab = np.hstack([tab[np.ix_(keep, range(n_total))], tab[keep, -1:]])
    basis = [basis[i] for i in keep]
    costs = np.zeros(n_total)
    costs[:n_x] = lp.objective
    while (step := loop_bland_step(tab, basis, costs)) is not None:
        iterations += 1
        if step == -1:
            return simplex.UNBOUNDED, None
        if iterations >= simplex.DEFAULT_MAX_ITERS:
            return simplex.ITERATION_LIMIT, None
    x = np.zeros(n_total)
    x[basis] = tab[:, -1]
    return simplex.OPTIMAL, x[:n_x]


def tableau_optimum(lp):
    """The tableau's objective where it returns "optimal" at a point that
    satisfies the constraints, else None.  On larger LPs its pivots drift
    off the feasible set and it reports a wrong optimum: that point is no
    oracle."""
    with np.errstate(all="ignore"):
        status, x = tableau_solve(lp)
    if status != simplex.OPTIMAL:
        return None
    if np.any(np.abs(lp.eq_lhs @ x - lp.eq_rhs) > simplex.FEAS_TOL) or np.any(
            lp.ge_lhs @ x - lp.ge_rhs < -simplex.FEAS_TOL):
        return None
    return float(lp.objective @ x)


HIGHS_STATUS = {0: simplex.OPTIMAL, 2: simplex.INFEASIBLE, 3: simplex.UNBOUNDED}


def highs_solve(lp):
    """Status and objective from scipy's HiGHS; skips without scipy."""
    optimize = pytest.importorskip("scipy.optimize")
    n = len(lp.objective)

    def linprog(presolve):
        return optimize.linprog(
            -lp.objective, A_eq=lp.eq_lhs if lp.eq_lhs.size else None,
            b_eq=lp.eq_rhs if lp.eq_lhs.size else None,
            A_ub=-lp.ge_lhs if lp.ge_lhs.size else None,
            b_ub=-lp.ge_rhs if lp.ge_lhs.size else None,
            bounds=[(0, None)] * n, method="highs", options={"presolve": presolve})

    # HiGHS's presolve reports some unbounded LPs as infeasible, so it is
    # off; without it HiGHS leaves some LPs undecided (status 4, such as
    # max x2 s.t. x1 >= x2, which is unbounded), and those get presolve.
    res = linprog(False)
    if res.status == 4:
        res = linprog(True)
    status = HIGHS_STATUS[res.status]
    return status, (float(-res.fun) if status == simplex.OPTIMAL else None)


def assert_same_optimum(got, status, objective):
    assert got.status == status
    if status == simplex.OPTIMAL:
        assert got.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)


coefs = st.one_of(st.integers(-3, 3).map(float),
                  st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False))
# Quarters keep HiGHS's tolerances (1e-7) and the solver's (1e-10, 1e-9)
# from judging a coefficient such as 1e-9 differently.
quarters = st.integers(-20, 20).map(lambda k: k / 4)


@st.composite
def dense_lps(draw, coefs=coefs):
    """Equality and >= rows, negative right-hand sides, redundant rows."""
    n = draw(st.integers(1, 6))

    def rows(k):
        return [(draw(st.lists(coefs, min_size=n, max_size=n)), draw(coefs))
                for _ in range(k)]

    eq, ge = rows(draw(st.integers(0, 3))), rows(draw(st.integers(0, 3)))
    if draw(st.booleans()):  # bounded: the variables sum to a constant
        eq.append(([1.0] * n, draw(st.sampled_from([1.0, 2.5, 7.0]))))
    if eq and draw(st.booleans()):  # a redundant combination of equality rows
        scale = draw(st.sampled_from([1.0, -2.0, 0.3]))
        first, last = eq[0], eq[-1]
        eq.append(([a + scale * b for a, b in zip(first[0], last[0])],
                   first[1] + scale * last[1]))
    objective = draw(st.lists(coefs, min_size=n, max_size=n))
    return simplex.LinearProgram.build(objective, eq=eq, ge=ge)


def ctmdp_lp(seed, states, actions):
    """The occupation-measure LP of a random CTMDP, non-dyadic throughout."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 2.0, size=(states, states, actions))
    for a in range(actions):
        np.fill_diagonal(q[:, :, a], 0.0)
    rewards = rng.uniform(0.0, 10.0, size=(states, actions))
    return build_lp(make_ctmdp(tuple(f"s{i}" for i in range(states)),
                               tuple(f"a{a}" for a in range(actions)), q, rewards))


def perfbench_gen():
    """The benchmark's input generators, `perfbench/gen.py`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def ladder_inputs():
    """The schedule table and shift log of each rung of the benchmark's
    CTMDP ladder (16x3, 32x2, 32x3, 64x2), generated by `perfbench/gen.py`
    from `LADDER_SEED` as the `offline_plan` workload generates them."""
    gen = perfbench_gen()
    rng = np.random.default_rng(gen.LADDER_SEED)
    tables, inputs = {}, {}
    for sites, actions in gen.CTMDP_LADDER:
        if sites not in tables:
            tables[sites] = ctgmod.build_table(ctgmod.load_ctg(gen.ctg_text(sites, rng)))
        log = ctmdpmod.ShiftLog()
        for row in csv.DictReader(io.StringIO(gen.shift_log(sites, actions, rng))):
            log.record(row["state"], row["action"], float(row["dwell"]),
                       row["next"] or None)
        inputs[f"{2 ** sites}x{actions}"] = (tables[sites], log)
    return inputs


def ladder_models():
    """The CTMDPs of the benchmark's ladder."""
    return {rung: ctmdpmod.from_schedule_tables([table], log)
            for rung, (table, log) in ladder_inputs().items()}


LADDER_MAX_PIVOTS = 500


def dependent_row_lp(c0):
    """Maximize c0 x0 where row 2 = 2 * row 1 and phase 1 pivots on a
    3.3e-10 entry (the LP that once raised `LinAlgError`)."""
    return simplex.LinearProgram.build(
        [c0, 0.0], eq=[([-3.0, 1.0], 1.0), ([-6.0, 2.0], 2.0)],
        ge=[([0.0, 3.0], 0.0), ([2.0, -1e-9], -1e-11)])


class TestSimplexSolve:
    @settings(max_examples=200, deadline=None)
    @given(dense_lps(quarters))
    def test_random_lps_match_tableau(self, lp):
        objective = tableau_optimum(lp)
        if objective is not None:
            assert_same_optimum(simplex.solve(lp), simplex.OPTIMAL, objective)

    @settings(max_examples=200, deadline=None)
    @given(dense_lps(quarters))
    def test_random_lps_match_highs(self, lp):
        assert_same_optimum(simplex.solve(lp), *highs_solve(lp))

    @settings(max_examples=100, deadline=None)
    @given(dense_lps(quarters))
    def test_bland_rule_matches_highs(self, lp):
        """Bland's rule from the first pivot, as after a run of degenerate
        pivots."""
        with mock.patch.object(simplex, "BLAND_AFTER", 0):
            got = simplex.solve(lp)
        assert_same_optimum(got, *highs_solve(lp))

    @settings(max_examples=200, deadline=None)
    @given(dense_lps(), st.sampled_from([simplex.DEFAULT_MAX_ITERS, 1, 3]))
    def test_any_lp_gets_a_status(self, lp, max_iters):
        """Tiny and badly scaled coefficients too: no exception, and the
        budget is kept."""
        with np.errstate(all="ignore"):
            got = simplex.solve(lp, max_iters=max_iters)
        assert got.iterations <= max_iters
        assert got.status in (simplex.OPTIMAL, simplex.INFEASIBLE,
                              simplex.UNBOUNDED, simplex.ITERATION_LIMIT)
        assert (got.status == simplex.OPTIMAL) == (got.x is not None)

    @pytest.mark.parametrize("seed,states,actions", [(0, 6, 2), (1, 9, 3), (2, 14, 2)])
    def test_ctmdp_lps_match_tableau(self, seed, states, actions):
        lp = ctmdp_lp(seed, states, actions)
        assert_same_optimum(simplex.solve(lp), simplex.OPTIMAL, tableau_optimum(lp))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 14), st.integers(1, 3))
    def test_ctmdp_lps_match_highs(self, seed, states, actions):
        lp = ctmdp_lp(seed, states, actions)
        got = simplex.solve(lp)
        assert_same_optimum(got, *highs_solve(lp))
        ctmdpmod.check_optimality(lp, got)

    @pytest.fixture(scope="class")
    def ladder(self):
        return ladder_models()

    @pytest.mark.parametrize("rung", ["16x3", "32x2", "32x3", "64x2"])
    def test_ladder_matches_highs(self, ladder, rung):
        lp = build_lp(ladder[rung])
        got = simplex.solve(lp)
        assert_same_optimum(got, *highs_solve(lp))
        assert got.iterations <= LADDER_MAX_PIVOTS
        assert ctmdpmod.solve_model(ladder[rung]).objective == got.objective


# ------------------------------------------------------------ CTMDP arrays
#
# `Ctmdp` checks its generator rows, `build_lp` fills its balance rows and
# the simplex takes its pivot steps as whole-array operations; the per-row
# loops they replaced are in `tests/replay.py`.

@st.composite
def generators(draw):
    """(S, A, admissible, q): rates of a seeded draw, zero and -0.0 rates
    among them, diagonals filled as `make_ctmdp` fills them, then up to
    three rows spoiled by a negative off-diagonal rate, by any sum or by
    a sum within 1e-4 of `GENERATOR_TOL`, or, with 8 states or more,
    every row put within 1e-4 of it: there the summation order decides
    about one verdict in eight."""
    every_row_near = draw(st.booleans())
    S, A = draw(st.integers(8 if every_row_near else 1, 14)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = rng.uniform(0.0, 1.0, (S, S, A)) * 10.0 ** rng.integers(-3, 4, (S, S, A))
    q[rng.random((S, S, A)) < 0.2] = 0.0
    q[rng.random((S, S, A)) < 0.1] = -0.0
    q = make_ctmdp(range(S), range(A), q, np.zeros((S, A))).q
    admissible = rng.random((S, A)) < 0.8
    admissible[np.arange(S), rng.integers(0, A, S)] = True
    if every_row_near:
        spoils = [(i, a, "near") for i in range(S) for a in range(A)]
    else:
        spoils = [(int(rng.integers(S)), int(rng.integers(A)),
                   draw(st.sampled_from(("negative", "near", "any"))))
                  for _ in range(draw(st.integers(0, 3)))]
    for i, a, spoil in spoils:
        if spoil == "negative" and S > 1:
            q[i, (i + 1 + int(rng.integers(S - 1))) % S, a] = -rng.uniform(1e-9, 1.0)
        elif spoil == "near":
            scale = max(1.0, np.abs(q[i, :, a]).max())
            q[i, i, a] += (rng.choice((-1.0, 1.0)) * ctmdpmod.GENERATOR_TOL * scale
                           * (1.0 + rng.uniform(-1e-4, 1e-4)))
        elif spoil == "any":
            q[i, i, a] += rng.uniform(-1.0, 1.0)
    return S, A, admissible, q


def verdict(check, *args):
    """None when `check(*args)` passes, else its ValueError's message."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def same_bits(got, want):
    """Whether two arrays, floats or Nones hold the same bits."""
    if got is None or want is None:
        return got is want
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and (
        got.tobytes() == want.tobytes())


def list_solve(lp, max_iters=simplex.DEFAULT_MAX_ITERS):
    """`simplex.solve` with the pivot step of `tests/replay.py`."""
    with mock.patch.object(simplex, "_Basis", replay.ListBasis), \
            mock.patch.object(simplex, "_optimize", replay.list_optimize):
        return simplex.solve(lp, max_iters=max_iters)


def assert_same_solution(got, want):
    assert (got.status, got.iterations) == (want.status, want.iterations)
    for name in ("x", "objective", "duals", "dual_objective", "reduced_costs"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


def scan_schedule_tables(tables, shift_log):
    """`ctmdp.from_schedule_tables` scanning every logged shift for every
    (state, action) pair."""
    states, reward_of = [], []
    for table in tables:
        for scenario, sched in table.columns():
            states.append(ctmdpmod.state_name(table.zone, scenario))
            reward_of.append(sched.graph.total_n())
    actions = shift_log.observed_actions() or ("default",)
    S, A = len(states), len(actions)
    sidx = {s: i for i, s in enumerate(states)}
    observed_dwell = [d for d in shift_log.dwell.values() if d > 0]
    mean_dwell = (sum(observed_dwell) / len(observed_dwell)) if observed_dwell else 1.0
    q = np.zeros((S, S, A))
    prior_pairs = []
    for i, state in enumerate(states):
        for a, action in enumerate(actions):
            dwell = shift_log.dwell.get((state, action), 0.0)
            if dwell > 0:
                for (s, act, nxt), count in shift_log.shifts.items():
                    if s == state and act == action and nxt in sidx:
                        q[i, sidx[nxt], a] = count / dwell
            elif S > 1:
                prior_pairs.append((state, action))
                q[i, :, a] = 1.0 / (mean_dwell * (S - 1))
                q[i, i, a] = 0.0
    rewards = np.tile(np.array(reward_of)[None, :, None], (1, 1, A))
    return make_ctmdp(states, actions, q, rewards, prior_pairs=prior_pairs)


def loop_model_csv(m):
    """`ctmdp.model_to_csv` reading the rates cell by cell."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["kind", "i", "j", "a", "k", "value"])
    for a, action in enumerate(m.actions):
        for i, si in enumerate(m.states):
            for j, sj in enumerate(m.states):
                if i != j and m.q[i, j, a] != 0.0 and m.admissible[i, a]:
                    w.writerow(["rate", si, sj, action, "", "%.9g" % m.q[i, j, a]])
    for k in range(m.k):
        for a, action in enumerate(m.actions):
            for i, si in enumerate(m.states):
                if m.admissible[i, a]:
                    w.writerow(["reward", si, "", action, k, "%.9g" % m.rewards[k, i, a]])
    for k, bound in enumerate(m.bounds, start=1):
        w.writerow(["bound", "", "", "", k, "%.9g" % bound])
    return buf.getvalue()


def assert_same_model(got, want):
    assert (got.states, got.actions, got.bounds, got.prior_pairs) == (
        want.states, want.actions, want.bounds, want.prior_pairs)
    for name in ("admissible", "q", "rewards"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


@st.composite
def shift_logs(draw, states):
    """Shift logs over `states` and two names outside them, with up to
    four actions, zero and fractional dwells, self-shifts and rows
    without a next state."""
    names = list(states) + ["Z:(?)", "elsewhere"]
    actions = ["default", "r0", "r1", "r2"][:draw(st.integers(1, 4))]
    log = ctmdpmod.ShiftLog()
    for _ in range(draw(st.integers(0, 40))):
        log.record(draw(st.sampled_from(names)), draw(st.sampled_from(actions)),
                   draw(st.sampled_from([0.0, 0.5, 1.0, 60.0, 1e-3, 7.25])),
                   draw(st.sampled_from([None, *names])))
    return log


class TestCtmdpArrays:
    @settings(max_examples=300, deadline=None)
    @given(generators())
    def test_generator_checks_match_row_loop(self, drawn):
        S, A, admissible, q = drawn
        states, actions = tuple(f"s{i}" for i in range(S)), tuple(f"a{a}" for a in range(A))
        assert verdict(ctmdpmod.Ctmdp, states, actions, admissible, q,
                       np.zeros((1, S, A))) == verdict(
            replay.loop_check_generator, states, actions, admissible, q)

    @settings(max_examples=200, deadline=None)
    @given(generators(), st.integers(1, 3))
    def test_lp_matches_row_loop(self, drawn, criteria):
        S, A, admissible, q = drawn
        q = np.abs(q)  # a valid generator: rates >= 0, diagonals refilled
        rewards = np.arange(criteria * S * A, dtype=float).reshape(criteria, S, A)
        m = make_ctmdp(tuple(f"s{i}" for i in range(S)), tuple(f"a{a}" for a in range(A)),
                       q, rewards, admissible, bounds=(0.5,) * (criteria - 1))
        got, want = build_lp(m), replay.loop_build_lp(m)
        for name in ("objective", "eq_lhs", "eq_rhs", "ge_lhs", "ge_rhs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert np.array_equal(np.signbit(getattr(got, name)),
                                  np.signbit(getattr(want, name))), name
            assert getattr(got, name).flags.c_contiguous, name

    @pytest.fixture(scope="class")
    def ladder(self):
        return ladder_models()

    @pytest.fixture(scope="class")
    def twin_tables(self, twin_ctg_text):
        table = ctgmod.build_table(ctgmod.load_ctg(twin_ctg_text))
        return [table, replace(table, zone="Z2")]

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 2))
    def test_rates_match_shift_scan(self, twin_tables, data, n_tables):
        tables = twin_tables[:n_tables]
        states = [ctmdpmod.state_name(t.zone, s) for t in tables for s in t.scenarios]
        log = data.draw(shift_logs(states))
        got = ctmdpmod.from_schedule_tables(tables, log)
        assert_same_model(got, scan_schedule_tables(tables, log))
        assert ctmdpmod.model_to_csv(got) == loop_model_csv(got)

    @pytest.mark.parametrize("rung", ["16x3", "32x2", "32x3", "64x2"])
    def test_ladder_models_match_loops(self, rung):
        table, log = ladder_inputs()[rung]
        got = ctmdpmod.from_schedule_tables([table], log)
        assert_same_model(got, scan_schedule_tables([table], log))
        assert ctmdpmod.model_to_csv(got) == loop_model_csv(got)

    @settings(max_examples=200, deadline=None)
    @given(generators(), st.integers(1, 3))
    def test_model_csv_matches_cell_loop(self, drawn, criteria):
        S, A, admissible, q = drawn
        q = np.where(q == 0.0, q, np.abs(q))  # a valid generator, -0.0 rates kept
        rewards = np.arange(criteria * S * A, dtype=float).reshape(criteria, S, A) / 3
        m = make_ctmdp(tuple(f"s{i}" for i in range(S)), tuple(f"a{a}" for a in range(A)),
                       q, rewards, admissible, bounds=(0.5,) * (criteria - 1))
        assert ctmdpmod.model_to_csv(m) == loop_model_csv(m)

    @pytest.mark.parametrize("rung", ["16x3", "32x2", "32x3", "64x2"])
    def test_ladder_solves_match_pivot_loop(self, ladder, rung):
        lp = build_lp(ladder[rung])
        assert_same_solution(simplex.solve(lp), list_solve(lp))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(dense_lps(quarters), dense_lps(),
                     st.builds(ctmdp_lp, st.integers(0, 2 ** 32 - 1),
                               st.integers(2, 9), st.integers(1, 3))),
           st.sampled_from([simplex.BLAND_AFTER, 0]),
           st.sampled_from([simplex.DEFAULT_MAX_ITERS, 2]))
    # Dependent equality rows: rounding puts a basic column's entry in the
    # artificial's row above PIVOT_TOL after phase 1.
    @example(simplex.LinearProgram.build([-1.0, -1.0],
                                         eq=[([-3.0, 1.0], 1.0), ([-6.0, 2.0], 2.0)],
                                         ge=[([2.0, -5e-6], -1e-9)]),
             0, simplex.DEFAULT_MAX_ITERS)
    # Dependent equality rows behind a 3.3e-10 phase-1 pivot: the eta-updated
    # inverse carries noise of about 1e-7 in the artificial's row.
    @example(dependent_row_lp(2.0), simplex.BLAND_AFTER, simplex.DEFAULT_MAX_ITERS)
    @example(dependent_row_lp(-2.0), simplex.BLAND_AFTER, simplex.DEFAULT_MAX_ITERS)
    def test_solves_match_pivot_loop(self, lp, bland_after, max_iters):
        with mock.patch.object(simplex, "BLAND_AFTER", bland_after), \
                np.errstate(all="ignore"):
            assert_same_solution(simplex.solve(lp, max_iters=max_iters),
                                 list_solve(lp, max_iters=max_iters))


# ------------------------------------------------------------ task graphs
#
# `Ctg.gaps` derives a graph's exclusion pairs and their dead times once;
# `resolve` used to re-derive them for every scenario from two methods,
# both kept here.

def exclusion_pairs(ctg):
    """Task pairs sharing a shared road resource or a signal head."""
    pairs = set()
    for a, b in itertools.combinations(ctg.tasks, 2):
        if a.resources & b.resources & ctg.shared_resources:
            pairs.add(frozenset((a.id, b.id)))
        elif (a.itu is not None and a.itu == b.itu
              and a.direction is not None and b.direction is not None
              and a.direction != b.direction):
            pairs.add(frozenset((a.id, b.id)))
    return frozenset(pairs)


def pair_gap(ctg, a, b):
    """Required dead time between an exclusion pair's executions."""
    if (a.itu is not None and a.itu == b.itu
            and a.direction is not None and b.direction is not None
            and a.direction != b.direction):
        return ctg.clearance
    return 0.0


def pair_gaps(ctg, ids):
    """The (task, task, dead time) triples of the exclusion pairs in `ids`."""
    by_id = {t.id: t for t in ctg.tasks}
    exclusions = [p for p in exclusion_pairs(ctg) if p <= ids]
    return tuple(sorted((min(p), max(p), pair_gap(ctg, by_id[min(p)], by_id[max(p)]))
                        for p in exclusions))


def pair_rule_table(ctg, drop=frozenset()):
    """`build_table`, each scenario's gaps derived by the pair rule."""
    schedules = {}
    for scenario in ctgmod.enumerate_scenarios(ctg):
        graph = ctgmod.resolve(ctg, scenario, drop)
        graph = replace(graph, gaps=pair_gaps(ctg, {t.id for t in graph.tasks}))
        schedules[scenario] = ctgmod.schedule(graph)
    return ctgmod.ScheduleTable(ctg.zone, tuple(schedules), schedules)


@st.composite
def task_graphs(draw):
    """Guarded tasks on shared and private resources, crossing two
    intersections from either direction, some dummy, some skippable."""
    sites = tuple(ctgmod.ConditionSite(f"c{k}") for k in range(draw(st.integers(0, 2))))
    shared = frozenset(draw(st.sets(st.sampled_from(("r0", "r1", "r2")))))
    n = draw(st.integers(1, 7))
    tasks = []
    for i in range(n):
        dummy = draw(st.integers(0, 5)) == 0
        resources = frozenset(draw(st.sets(st.sampled_from(("r0", "r1", "r2", "p")))))
        guard = None
        if sites and draw(st.booleans()):
            guard = (draw(st.sampled_from(sites)).id, draw(st.sampled_from(("L", "H"))))
        tasks.append(ctgmod.CtgTask(
            f"T{i}", guard, resources - shared if dummy else resources,
            n=float(draw(st.integers(0, 9))),
            t_ex=float(draw(st.integers(0 if dummy else 1, 9))), dummy=dummy,
            itu=draw(st.sampled_from((None, "X", "Y"))),
            direction=draw(st.sampled_from((None, 1, 2))),
            skippable=draw(st.booleans())))
    arcs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                        .filter(lambda p: p[0] < p[1]), max_size=n))
    return ctgmod.Ctg(sites, tuple(tasks), tuple((f"T{a}", f"T{b}") for a, b in sorted(arcs)),
                      shared, clearance=draw(st.sampled_from((0.0, 2.5, 5.0))))


def skippable(ctg):
    return frozenset(t.id for t in ctg.tasks if t.skippable)


def assert_same_table(ctg, drop):
    got, want = ctgmod.build_table(ctg, drop=drop), pair_rule_table(ctg, drop)
    assert ctgmod.table_to_csv(got) == ctgmod.table_to_csv(want)
    assert [s.makespan for _, s in got.columns()] == [s.makespan for _, s in want.columns()]


class TestExclusionGaps:
    @settings(max_examples=300, deadline=None)
    @given(task_graphs())
    def test_gaps_match_pair_rule(self, ctg):
        assert ctg.gaps == pair_gaps(ctg, {t.id for t in ctg.tasks})

    @settings(max_examples=150, deadline=None)
    @given(task_graphs())
    def test_tables_match_pair_rule(self, ctg):
        for drop in {frozenset(), skippable(ctg)}:
            assert_same_table(ctg, drop)

    def test_benchmark_and_twin_graphs(self, twin_ctg_text):
        gen = perfbench_gen()
        rng = np.random.default_rng(gen.LADDER_SEED)
        texts = [twin_ctg_text] + [gen.ctg_text(sites, rng) for sites in (4, 5, 6)]
        for text in texts:
            assert_same_table(ctgmod.load_ctg(text), frozenset())

    @settings(max_examples=100, deadline=None)
    @given(task_graphs())
    def test_fallback_schedules_match_resolve(self, ctg):
        drop = skippable(ctg)
        assume(drop)
        scenarios = ctgmod.enumerate_scenarios(ctg)
        zone = ZoneUnit("Z", ctg, ctgmod.build_table(ctg), (), scenarios[0], 60.0)
        for column in scenarios:
            assert zone.schedule(column, True) == ctgmod.schedule(
                ctgmod.resolve(ctg, column, drop))


# `schedule` keeps its pending tasks in priority order, each with its
# count of unstarted predecessors and the time it is free, and starts the
# first that can start; it used to check every pending task against all
# its predecessors and partners at each step and take the minimum by
# (-priority, declaration index).

def rescan_schedule(graph, objective="makespan"):
    """The list scheduler that rescanned every pending task at each step."""
    order_idx = {t.id: i for i, t in enumerate(graph.tasks)}
    prio = ctgmod._priorities(graph, objective)
    preds = {t.id: [] for t in graph.tasks}
    for a, b in graph.arcs:
        preds[b].append(a)
    partners = {t.id: [] for t in graph.tasks}
    for a, b, gap in graph.gaps:
        partners[a].append((b, gap))
        partners[b].append((a, gap))
    starts, finishes = {}, {}
    pending = {t.id for t in graph.tasks}
    events = []
    now = 0.0
    while pending:
        startable = []
        for tid in pending:
            if any(p not in finishes or finishes[p] > now for p in preds[tid]):
                continue
            if not any(other in finishes and finishes[other] + gap > now
                       for other, gap in partners[tid]):
                startable.append(tid)
        if startable:
            tid = min(startable, key=lambda t: (-prio[t], order_idx[t]))
            starts[tid] = now
            finishes[tid] = now + graph.task(tid).duration
            heapq.heappush(events, finishes[tid])
            for other, gap in partners[tid]:
                if gap > 0:
                    heapq.heappush(events, finishes[tid] + gap)
            pending.discard(tid)
            continue
        while events and events[0] <= now:
            heapq.heappop(events)
        now = heapq.heappop(events)
    return ctgmod.ZoneSchedule(graph.scenario, starts, finishes,
                               max(finishes.values(), default=0.0), graph)


def assert_same_schedules(ctg, objective, drop=frozenset()):
    want = {}
    for scenario in ctgmod.enumerate_scenarios(ctg):
        graph = ctgmod.resolve(ctg, scenario, drop)
        got, want[scenario] = (ctgmod.schedule(graph, objective),
                               rescan_schedule(graph, objective))
        # Insertion order too: it is the order tasks were started in.
        assert list(got.starts.items()) == list(want[scenario].starts.items())
        assert list(got.finishes.items()) == list(want[scenario].finishes.items())
        assert got.makespan == want[scenario].makespan
    table = ctgmod.ScheduleTable(ctg.zone, tuple(want), want)
    assert (ctgmod.table_to_csv(ctgmod.build_table(ctg, objective, drop))
            == ctgmod.table_to_csv(table))


OBJECTIVES = ("makespan", "throughput")


class TestSchedule:
    @settings(max_examples=200, deadline=None)
    @given(task_graphs(), st.sampled_from(OBJECTIVES))
    def test_matches_rescan(self, ctg, objective):
        for drop in {frozenset(), skippable(ctg)}:
            assert_same_schedules(ctg, objective, drop)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_benchmark_and_twin_graphs(self, twin_ctg_text, objective):
        gen = perfbench_gen()
        texts = [twin_ctg_text]
        rng = np.random.default_rng(gen.LADDER_SEED)
        texts += [gen.ctg_text(sites, rng) for sites in (4, 5, 6)]
        rng = np.random.default_rng(0)
        texts += [gen.ctg_text(gen.SCHEDULE_SITES, rng) for _ in range(2)]
        for text in texts:
            assert_same_schedules(ctgmod.load_ctg(text), objective)


# ----------------------------------------------------------------- fgraph

def topo_order(fg):
    """Kahn's sort, ready nodes in declaration order: oracle of the order
    `evaluate` takes from the task-graph sort."""
    indeg = {n.id: 0 for n in fg.nodes}
    succs = {n.id: [] for n in fg.nodes}
    for a, b in fg.arcs:
        succs[a].append(b)
        indeg[b] += 1
    order_idx = {n.id: i for i, n in enumerate(fg.nodes)}
    ready = sorted((n for n, d in indeg.items() if d == 0), key=order_idx.get)
    out = []
    while ready:
        n = ready.pop(0)
        out.append(n)
        for s in succs[n]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
        ready.sort(key=order_idx.get)
    return out


def product_evaluate(fg):
    order = topo_order(fg)
    preds = {n.id: [] for n in fg.nodes}
    for a, b in fg.arcs:
        preds[b].append(a)
    supports = [fg.node(n).dist.points for n in order]
    sink_mass = {s: {} for s in fg.sinks()}
    for combo in itertools.product(*supports):
        prob = 1.0
        duration = {}
        for node_id, (value, p) in zip(order, combo):
            prob *= p
            duration[node_id] = value
        if prob == 0.0:
            continue
        completion = {}
        for node_id in order:
            base = max((completion[p] for p in preds[node_id]), default=0.0)
            completion[node_id] = base + duration[node_id]
        for sink in sink_mass:
            v = completion[sink]
            sink_mass[sink][v] = sink_mass[sink].get(v, 0.0) + prob
    return {sink: (fgraph.PerfDistribution.from_dict(mass),
                   fgraph.PerfDistribution.from_dict(mass).expectation())
            for sink, mass in sink_mass.items()}


def outcome(evaluate, fg):
    """The result, or the message of the ValueError raised instead."""
    try:
        return evaluate(fg)
    except ValueError as exc:
        return str(exc)


@st.composite
def perf_dists(draw):
    """Non-dyadic values and probabilities, sometimes with a zero weight."""
    k = draw(st.integers(1, 4))
    values = draw(st.lists(st.one_of(st.integers(0, 12).map(float),
                                     st.floats(0.1, 50.0)),
                           min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        weights[0] = 0.0
    total = sum(weights)
    points = tuple(zip(values, (x / total for x in weights)))
    assume(abs(sum(p for _, p in points) - 1.0) <= fgraph.PROB_TOL)
    return fgraph.PerfDistribution(points)


@st.composite
def dags(draw):
    """Random DAGs; dense arc draws give shared ancestors and joins."""
    n = draw(st.integers(1, 6))
    nodes = tuple(fgraph.FgNode(f"n{i}", draw(perf_dists())) for i in range(n))
    pairs = [(f"n{i}", f"n{j}") for i in range(n) for j in range(i + 1, n)]
    arcs = tuple(p for p in pairs if draw(st.booleans()))
    # Shuffled node order: topological order differs from declaration order.
    return fgraph.FunctionGraph(tuple(draw(st.permutations(nodes))), arcs)


def benchmark_graph(seed):
    """The function graph of `perfbench/gen.py` at `seed`, drawn after the
    schedule task graph as the offline_plan workload draws it."""
    gen = perfbench_gen()
    rng = np.random.default_rng(seed)
    gen.ctg_text(gen.SCHEDULE_SITES, rng)
    spec = json.loads(gen.function_graph(rng))
    return fgraph.FunctionGraph(
        tuple(fgraph.FgNode(n["id"], fgraph.PerfDistribution(tuple(map(tuple, n["points"]))),
                            n["capability"]) for n in spec["nodes"]),
        tuple(map(tuple, spec["arcs"])))


class TestEvaluate:
    @settings(max_examples=200, deadline=None)
    @given(dags(), st.sampled_from([1, 2, 3, 7, fgraph.BLOCK_POINTS]))
    def test_matches_product_enumeration(self, fg, block_points):
        with mock.patch.object(fgraph, "BLOCK_POINTS", block_points):
            got = outcome(fgraph.evaluate, fg)
        assert got == outcome(product_evaluate, fg)

    def test_many_blocks_of_a_shared_ancestor_graph(self):
        rng = np.random.default_rng(11)
        nodes = []
        for i in range(6):
            weights = rng.uniform(0.05, 1.0, 5)
            nodes.append(fgraph.FgNode(f"f{i}", fgraph.PerfDistribution(tuple(zip(
                np.round(rng.uniform(1.0, 20.0, 5), 1).tolist(),
                (weights / weights.sum()).tolist())))))
        fg = fgraph.FunctionGraph(tuple(nodes), (
            ("f0", "f1"), ("f0", "f2"), ("f1", "f3"), ("f2", "f3"),
            ("f0", "f4"), ("f3", "f5"), ("f4", "f5")))
        assert 5 ** 6 > fgraph.BLOCK_POINTS  # more than one block
        assert outcome(fgraph.evaluate, fg) == outcome(product_evaluate, fg)

    @pytest.mark.parametrize("seed", [3, 9])
    def test_benchmark_graphs(self, seed):
        # Drawn as the offline_plan workload draws its graph: 7 nodes of 5
        # points, 78 125 joint points in 25 blocks, here with 4 sinks.
        fg = benchmark_graph(seed)
        assert [len(n.dist.points) for n in fg.nodes] == [5] * 7
        assert 5 ** 5 <= fgraph.BLOCK_POINTS < 5 ** 6
        assert len(fg.sinks()) == 4
        assert outcome(fgraph.evaluate, fg) == outcome(product_evaluate, fg)

    def test_benchmark_graph_with_zero_durations(self):
        # A 0.0 duration at a source and at a join: completions of +0.0 and
        # of a predecessor maximum unchanged share slots with their equals.
        fg = benchmark_graph(3)
        heads = [b for _, b in fg.arcs]
        join = next(n.id for n in fg.nodes if heads.count(n.id) > 1)
        for node_id in ("f0", join):
            (_, p), *rest = fg.node(node_id).dist.points
            fg = fg.with_node(replace(fg.node(node_id), dist=fgraph.PerfDistribution(
                ((0.0, p), *rest))))
        assert outcome(fgraph.evaluate, fg) == outcome(product_evaluate, fg)


# ------------------------------------------------------------------ fuzzy

def loop_surface(params, rules=fuzzy.DEFAULT_RULES, n=121,
                 resolution=fuzzy.OUTPUT_RESOLUTION):
    i_axis = np.linspace(0.0, params.i.MI, n)
    d_axis = np.linspace(0.0, params.d.MI, n)
    out = np.empty((n, n))
    u_grid = np.linspace(0.0, params.u.MI, resolution)
    u_mus = fuzzy.output_terms(params.u, u_grid)
    for a, i_val in enumerate(i_axis):
        deg_i = fuzzy.fuzzify(i_val, params.i)
        for b, d_val in enumerate(d_axis):
            deg_d = fuzzy.fuzzify(d_val, params.d)
            agg = np.zeros_like(u_grid)
            for _, _, u_label, w_ in fuzzy.rule_activations(deg_i, deg_d, rules):
                if w_ > 0:
                    np.maximum(agg, np.minimum(w_, u_mus[u_label]), out=agg)
            total = float(np.sum(agg))
            out[a, b] = u_grid[-1] / 2.0 if total == 0.0 else float(
                np.sum(u_grid * agg) / total)
    return out


def sampled_control(i, d, params, rules, resolution):
    """`control` as fuzzify, sampled inference and sampled centroid."""
    return fuzzy.defuzzify_centroid(fuzzy.infer(
        fuzzy.fuzzify(i, params.i), fuzzy.fuzzify(d, params.d), rules,
        params.u, resolution))


@st.composite
def param_rows(draw):
    MI = draw(st.floats(0.05, 5.0))
    M = MI * draw(st.floats(0.02, 1.0))
    m = M * draw(st.floats(0.01, 0.99))
    assume(0 < m < M <= MI)
    return fuzzy.ParamRow(m, M, MI)


fuzzy_params = st.builds(fuzzy.FuzzyParams, param_rows(), param_rows(), param_rows())
rule_bases = st.lists(st.lists(st.sampled_from(fuzzy.LABELS), min_size=3, max_size=3)
                      .map(tuple), min_size=3, max_size=3).map(
                          lambda cells_: fuzzy.RuleBase(tuple(cells_)))


# The closed-form centroid and the sampled one add the same nonzero terms
# in a different association; they may differ by this many units in the
# last place (9-digit artifacts: see the golden surface digests).
CENTROID_ULPS = 2


def ulp_distance(a, b):
    """Largest distance in units in the last place of two non-negative arrays."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert not (np.signbit(a).any() or np.signbit(b).any())
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64)), initial=0))


class TestSurface:
    @settings(max_examples=150, deadline=None)
    @given(fuzzy_params, st.sampled_from([2, 7]), st.one_of(
        st.just(fuzzy.DEFAULT_RULES), rule_bases), st.sampled_from([11, 101, 1201]))
    def test_matches_sampled_loop(self, params, n, rules, resolution):
        got = fuzzy.surface(params, rules, n=n, resolution=resolution)
        assert ulp_distance(got, loop_surface(params, rules, n, resolution)) <= CENTROID_ULPS

    @settings(max_examples=4, deadline=None)
    @given(fuzzy_params)
    def test_matches_sampled_loop_at_n_121(self, params):
        assert ulp_distance(fuzzy.surface(params), loop_surface(params)) <= CENTROID_ULPS

    # The benchmark's row, and rows on which the closed form differs from
    # the sampled centroid in the last bits in hundreds of points.
    @pytest.mark.parametrize("row", [(0.5, 1.0, 1.2), (0.39, 0.47, 0.54),
                                     (1.34, 1.58, 1.71), (0.75, 1.25, 2.73)])
    def test_case_rows_at_n_121(self, row):
        params = fuzzy.FuzzyParams.uniform(*row)
        assert ulp_distance(fuzzy.surface(params), loop_surface(params)) <= CENTROID_ULPS

    def test_control_on_a_case_grid(self):
        params = fuzzy.FuzzyParams.uniform(1.34, 1.58, 1.71)
        axis = np.linspace(0.0, 1.71, 7).tolist()
        for i in axis:
            for d in axis:
                assert ulp_distance(fuzzy.control(i, d, params), sampled_control(
                    i, d, params, fuzzy.DEFAULT_RULES,
                    fuzzy.OUTPUT_RESOLUTION)) <= CENTROID_ULPS

    # At resolution 11 (step MI / 10) these command rows put two or three
    # singletons on one sample: m onto 0, m and M together, all three at 0.
    # Their weights merge by max, as in the sampled set; the weighted mean
    # of three separate spikes would count them twice.
    @pytest.mark.parametrize("u_row", [(0.04, 0.5, 1.0), (0.51, 0.54, 1.0),
                                       (0.01, 0.03, 1.0)])
    def test_coincident_spikes(self, u_row):
        row = fuzzy.ParamRow(0.5, 1.0, 1.2)
        params = fuzzy.FuzzyParams(row, row, fuzzy.ParamRow(*u_row))
        rules = fuzzy.RuleBase((("S", "M", "B"), ("M", "B", "S"), ("B", "S", "M")))
        axis = np.linspace(0.0, 1.2, 7).tolist()
        got = fuzzy.surface(params, rules, n=7, resolution=11)
        want = [[sampled_control(i, d, params, rules, 11) for d in axis] for i in axis]
        assert ulp_distance(got, want) <= CENTROID_ULPS
        for i, d in itertools.product(axis, axis):
            assert ulp_distance(fuzzy.control(i, d, params, rules, 11), sampled_control(
                i, d, params, rules, 11)) <= CENTROID_ULPS

    @settings(max_examples=200, deadline=None)
    @given(fuzzy_params, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.one_of(st.just(fuzzy.DEFAULT_RULES), rule_bases),
           st.sampled_from([11, 101, 1201]))
    def test_control_matches_sampled_inference(self, params, fi, fd, rules,
                                               resolution):
        i, d = fi * params.i.MI, fd * params.d.MI
        assert ulp_distance(fuzzy.control(i, d, params, rules, resolution),
                            sampled_control(i, d, params, rules, resolution)) <= CENTROID_ULPS


# `cmd_fuzzy_surface` formats the surface from Python floats; it used to
# index the numpy arrays once per number.

def loop_surface_csv(params, n):
    """surface.csv as written one numpy scalar at a time."""
    grid = fuzzy.surface(params, n=n)
    i_axis = np.linspace(0.0, params.i.MI, n)
    d_axis = np.linspace(0.0, params.d.MI, n)
    lines = ["i,d,u"]
    for a in range(n):
        for b in range(n):
            lines.append("%.9g,%.9g,%.9g" % (i_axis[a], d_axis[b], grid[a, b]))
    return "\n".join(lines) + "\n"


class TestSurfaceCsv:
    @pytest.mark.parametrize("row", ["0.5,1,1.2", "0.39,0.47,0.54", "0.75,1.25,2.73"])
    @pytest.mark.parametrize("n", [2, 3, 121, 200])
    def test_matches_scalar_loop(self, tmp_path, row, n):
        assert cli.main(["fuzzy-surface", row, str(n), "--out", str(tmp_path)]) == 0
        params = fuzzy.FuzzyParams.uniform(*map(float, row.split(",")))
        want = loop_surface_csv(params, n).encode()
        assert (tmp_path / "surface.csv").read_bytes() == want


# ---------------------------------------------------------------- metrics
#
# `flexibility` calls its predicate once per block of samples, on the
# block's columns; it used to call it on a dict per sample, and then once
# on the columns of all n samples drawn by numpy in one `uniform` call.

def loop_flexibility(feasible, box, n, seed):
    """The Monte Carlo share, one predicate call per sampled row."""
    rng = np.random.default_rng(seed)
    names = [r[0] for r in box.ranges]
    lows = np.array([r[1] for r in box.ranges])
    highs = np.array([r[2] for r in box.ranges])
    samples = rng.uniform(lows, highs, size=(n, len(names)))
    hits = 0
    for row in samples:
        if feasible(dict(zip(names, row))):
            hits += 1
    return hits / n


def numpy_flexibility(feasible, box, n, seed):
    """The Monte Carlo share of one `uniform` draw from numpy, one predicate call."""
    rng = np.random.default_rng(seed)
    names = [r[0] for r in box.ranges]
    lows = np.array([r[1] for r in box.ranges])
    highs = np.array([r[2] for r in box.ranges])
    samples = rng.uniform(lows, highs, size=(n, len(names)))
    accepted = feasible({name: samples[:, j] for j, name in enumerate(names)})
    return np.count_nonzero(np.broadcast_to(accepted, (n,))) / n


@st.composite
def spec_boxes(draw):
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    ranges = []
    for name in names:
        low = draw(st.floats(-100, 100))
        high = low + draw(st.floats(1e-3, 100))
        assume(low < high)
        ranges.append((name, low, high))
    return metricsmod.SpecBox(tuple(ranges))


@st.composite
def rules(draw, box):
    """A `metrics` job rule on one attribute, through the CLI's parser;
    its bound falls inside the box or up to half its width outside."""
    name, low, high = draw(st.sampled_from(box.ranges))
    op = draw(st.sampled_from(sorted(cli._RULE_OPS)))
    bound = low + (high - low) * draw(st.floats(-0.5, 1.5))
    sec = Section("flexibility", "box", {"rule": f"{name} {op} {bound!r}"})
    return cli._parse_rule(sec, {r[0]: None for r in box.ranges})


@st.composite
def predicates(draw, box):
    kind = draw(st.sampled_from(("rule", "sum", "constant")))
    if kind == "rule":
        return draw(rules(box))
    if kind == "constant":
        value = draw(st.booleans())
        return lambda pt: value
    names = [r[0] for r in box.ranges]
    threshold = draw(st.floats(-200, 200))
    return lambda pt: sum(pt[name] for name in names) < threshold


class TestFlexibility:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2000), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_row_loop(self, data, n, seed):
        box = data.draw(spec_boxes())
        feasible = data.draw(predicates(box))
        assert (metricsmod.flexibility(feasible, box, n, seed)
                == loop_flexibility(feasible, box, n, seed))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 64))
    def test_matches_one_numpy_draw(self, data, seed):
        rows = metricsmod.FLEXIBILITY_BLOCK_ROWS
        n = data.draw(st.one_of(st.integers(1, 3 * rows + 1),
                                st.sampled_from([rows - 1, rows, rows + 1, 2 * rows])))
        box = data.draw(spec_boxes())
        feasible = data.draw(predicates(box))
        assert (metricsmod.flexibility(feasible, box, n, seed)
                == numpy_flexibility(feasible, box, n, seed))

    def test_predicate_called_once_per_block(self):
        rows = metricsmod.FLEXIBILITY_BLOCK_ROWS
        box = metricsmod.SpecBox.from_dict({"a": (0.0, 1.0), "b": (-1.0, 1.0)})
        sizes = []

        def feasible(pt):
            sizes.append((len(pt["a"]), len(pt["b"])))
            return pt["a"] < 0.5

        metricsmod.flexibility(feasible, box, 2 * rows + 5, 3)
        assert sizes == [(rows, rows), (rows, rows), (5, 5)]

    def test_benchmark_job(self):
        gen = perfbench_gen()
        sec = parse_sections(gen.flexibility_job(np.random.default_rng(0)))[0]
        box = {name: (low, high) for name, low, high in
               sec.items("attrs", "name:low:high", str, float, float)}
        feasible = cli._parse_rule(sec, box)
        box = metricsmod.SpecBox.from_dict(box)
        n, seed = sec.get_int("n"), sec.get_int("seed")
        assert (metricsmod.flexibility(feasible, box, n, seed)
                == loop_flexibility(feasible, box, n, seed))
