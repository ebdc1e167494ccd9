"""Fast paths checked against the code they replaced.

Each oracle below is the earlier, direct implementation: the layout scan
of `SignalFsm.state_at`, the event-log recount of `observe_cycle`, the
networkx connectivity check, per-exit `has_path` reachability and
`shortest_path` routes of the network and `make_world`, the dense Bland
tableau of the simplex, the per-scenario exclusion-pair rule of the task
graph's `resolve`, the `itertools.product` enumeration of
`fgraph.evaluate` and the sampled per-point loop of `fuzzy.surface`.  The
fast paths must agree with them exactly, not approximately: every
artifact is byte-identical across the change, so floats are compared by
their bytes or with `==`.  There are two exceptions.  The fuzzy
centroid's closed form adds at most three terms where the sampled one
adds a whole output universe, so the two may differ in the last bits
(`CENTROID_ULPS`).  The revised simplex takes other pivots than the
tableau, so the two are compared by status and objective; HiGHS is a
second oracle.
"""

import csv
import importlib.util
import io
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import civitas
from civitas import cli, fgraph, fuzzy, simplex
from civitas import ctg as ctgmod
from civitas import ctmdp as ctmdpmod
from civitas import world as w
from civitas.ctmdp import build_lp, make_ctmdp
from civitas.fsm import CYCLIC_ORDER, SignalFsm, SignalState
from civitas.hierarchy import ZoneUnit


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
    succ = net.segment_graph()
    pred = w._predecessors(succ)
    for source, target in itertools.product(sources, targets):
        if nx.has_path(graph, source, target):
            assert (w._shortest_route(succ, pred, source, target)
                    == nx.shortest_path(graph, source, target, weight="weight"))
        else:
            with pytest.raises(w.TopologyError, match="no path"):
                w._shortest_route(succ, pred, source, target)


class TestReachableExits:
    @settings(max_examples=200)
    @given(networks())
    def test_matches_has_path(self, net):
        graph = nx_segment_graph(net)
        exits = net.exits()
        for entry in net.entries():
            assert (w._reachable_exits(net.segment_graph(), entry, exits)
                    == has_path_exits(graph, entry, exits))

    def test_twin_entries(self, twin_network_text):
        net = w.load_network(twin_network_text)
        graph = nx_segment_graph(net)
        for entry in net.entries():
            got = w._reachable_exits(net.segment_graph(), entry, net.exits())
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

    @settings(max_examples=100)
    @given(networks())
    def test_segment_graph_is_the_networkx_graph(self, net):
        graph = nx_segment_graph(net)
        succ = net.segment_graph()
        pred = w._predecessors(succ)
        assert list(succ) == list(graph)
        for seg in succ:
            assert list(succ[seg].items()) == [
                (nxt, d["weight"]) for nxt, d in graph.succ[seg].items()]
            assert list(pred[seg].items()) == [
                (prev, d["weight"]) for prev, d in graph.pred[seg].items()]


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
        segments = tuple(w.RoadSegment(f"s{i}", a, b, 10.0, 5.0, 5)
                         for i, (a, b) in enumerate(pairs))
        intersections = tuple(w.Intersection(n) for n in nodes)
        if nx.is_connected(graph):
            w.StreetNetwork(segments, intersections)
        else:
            with pytest.raises(w.TopologyError, match="not connected"):
                w.StreetNetwork(segments, intersections)


def test_import_leaves_networkx_out():
    src = str(Path(civitas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, civitas, civitas.cli; sys.exit('networkx' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr or "networkx was imported"


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
    res = optimize.linprog(
        -lp.objective, A_eq=lp.eq_lhs if lp.eq_lhs.size else None,
        b_eq=lp.eq_rhs if lp.eq_lhs.size else None,
        A_ub=-lp.ge_lhs if lp.ge_lhs.size else None,
        b_ub=-lp.ge_rhs if lp.ge_lhs.size else None,
        bounds=[(0, None)] * n, method="highs",
        # HiGHS's presolve reports some unbounded LPs as infeasible.
        options={"presolve": False})
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


def ladder_models():
    """The benchmark's CTMDP ladder (16x3, 32x2, 32x3, 64x2), generated by
    `perfbench/gen.py` from `LADDER_SEED` as the `offline_plan` workload
    generates it."""
    gen = perfbench_gen()
    rng = np.random.default_rng(gen.LADDER_SEED)
    ctgs, models = {}, {}
    for sites, actions in gen.CTMDP_LADDER:
        if sites not in ctgs:
            ctgs[sites] = ctgmod.build_table(ctgmod.load_ctg(gen.ctg_text(sites, rng)))
        log = ctmdpmod.ShiftLog()
        for row in csv.DictReader(io.StringIO(gen.shift_log(sites, actions, rng))):
            log.record(row["state"], row["action"], float(row["dwell"]),
                       row["next"] or None)
        models[f"{2 ** sites}x{actions}"] = ctmdpmod.from_schedule_tables(
            [ctgs[sites]], log)
    return models


LADDER_MAX_PIVOTS = 500


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
        zone.dropped_tasks = drop
        for column in scenarios:
            assert zone.schedule_for(column) == ctgmod.schedule(
                ctgmod.resolve(ctg, column, drop))


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
