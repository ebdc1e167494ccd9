"""Mesoscopic queue-based traffic world.

Vehicles traverse road segments at free-flow speed, then wait at the stop
line until their signal admits them, the required headway has elapsed,
and the downstream segment has room (a shared single-lane section holds
at most one vehicle).  Arrivals are Poisson with piecewise-constant rates
from seeded, per-entry split random streams, so runs are bit-reproducible
given (network, demand, seed, controls).
"""

from __future__ import annotations

import copy
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import count

import numpy as np

from .fsm import ImplementationMode, SignalFsm, SignalState
from .textfmt import ParseError, Section, finite, parse_sections

DEFAULT_HEADWAY = 2.0

Graph = dict[str, dict[str, float]]  # segment -> {neighbouring segment: weight}


class TopologyError(ValueError):
    """The parsed network violates a structural invariant."""


@dataclass(frozen=True)
class RoadSegment:
    id: str
    from_node: str
    to_node: str
    length: float
    free_flow_speed: float
    capacity: int
    shared: bool = False
    approach: int | None = None   # 1 or 2 at a signalized to-node
    entry: bool = False
    exit: bool = False
    turns: tuple[str, ...] | None = None  # allowed next segments; None = all non-U-turns

    def __post_init__(self):
        where = f"[segment {self.id}]"
        if not 0 < self.length < math.inf:
            raise ValueError(f"{where} length: must be a finite number > 0,"
                             f" got {self.length:g}")
        if not 0 < self.free_flow_speed < math.inf:
            raise ValueError(f"{where} speed: must be a finite number > 0,"
                             f" got {self.free_flow_speed:g}")
        if self.capacity < 1:
            raise ValueError(f"{where} capacity: must be >= 1, got {self.capacity}")

    @property
    def travel_time(self) -> float:
        return self.length / self.free_flow_speed

    @property
    def occupancy_limit(self) -> int:
        return 1 if self.shared else self.capacity


@dataclass(frozen=True)
class Intersection:
    id: str
    signalized: bool = False


@dataclass(frozen=True)
class SignalSpec:
    """Controller configuration embedded in the network file."""

    intersection: str
    fsm: SignalFsm
    modes: tuple[ImplementationMode, ...] = ()
    early_switch: bool = False


@dataclass(frozen=True)
class Zone:
    id: str
    members: frozenset[str]


@dataclass(frozen=True)
class StreetNetwork:
    segments: tuple[RoadSegment, ...]
    intersections: tuple[Intersection, ...]
    zones: tuple[Zone, ...] = ()
    signals: tuple[SignalSpec, ...] = ()

    def __post_init__(self):
        if not self.segments:
            raise TopologyError("network has no segments")
        nodes = {i.id for i in self.intersections}
        seg_ids = {s.id for s in self.segments}
        if len(seg_ids) != len(self.segments):
            raise TopologyError("duplicate segment id")
        for s in self.segments:
            for key, node in (("from", s.from_node), ("to", s.to_node)):
                if node not in nodes:
                    raise TopologyError(f"[segment {s.id}] {key}: unknown node {node!r}")
        signalized = {i.id for i in self.intersections if i.signalized}
        for s in self.segments:
            if s.to_node in signalized and s.approach not in (1, 2):
                raise TopologyError(f"[segment {s.id}] approach: must be 1 or 2, it"
                                    f" feeds signalized [intersection {s.to_node}]")
        for spec in self.signals:
            if spec.intersection not in signalized:
                raise TopologyError(f"[signal {spec.intersection}]: [intersection"
                                    f" {spec.intersection}] is not signalized")
        incoming = self.incoming()
        outgoing = self.outgoing()
        for s in self.segments:
            feeders, onward = incoming[s.from_node], outgoing[s.to_node]
            if s.entry and feeders:
                raise TopologyError(f"[segment {s.id}] entry: fed by [segment {feeders[0]}]")
            if s.exit and onward:
                raise TopologyError(f"[segment {s.id}] exit: leads on to [segment {onward[0]}]")
        for z in self.zones:
            unknown = z.members - seg_ids
            if unknown:
                raise TopologyError(f"[zone {z.id}] members: unknown {sorted(unknown)}")
        for s in self.segments:
            unknown = set(s.turns or ()) - seg_ids
            if unknown:
                raise TopologyError(f"[segment {s.id}] turns: segment {s.id}: turns to"
                                    f" unknown segments {sorted(unknown)}")
        cut_off = sorted(nodes - self._reached(nodes))
        if cut_off:
            raise TopologyError(f"network graph is not connected: [intersection {cut_off[0]}]"
                                f" is cut off from [segment {self.segments[0].id}]")

    def _reached(self, nodes: set[str]) -> set[str]:
        """The intersections joined to the first segment, ignoring direction."""
        adjacent: dict[str, list[str]] = {n: [] for n in nodes}
        for s in self.segments:
            adjacent[s.from_node].append(s.to_node)
            adjacent[s.to_node].append(s.from_node)
        start = self.segments[0].from_node
        seen, frontier = {start}, [start]
        while frontier:
            for node in adjacent[frontier.pop()]:
                if node not in seen:
                    seen.add(node)
                    frontier.append(node)
        return seen

    @cached_property
    def _segment_index(self) -> dict[str, RoadSegment]:
        return {s.id: s for s in self.segments}

    def segment(self, seg_id: str) -> RoadSegment:
        seg = self._segment_index.get(seg_id)
        if seg is None:
            raise KeyError(f"unknown segment {seg_id!r}")
        return seg

    def zone(self, zone_id: str) -> Zone:
        z = next((z for z in self.zones if z.id == zone_id), None)
        if z is None:
            raise KeyError(f"unknown zone {zone_id!r}")
        return z

    @cached_property
    def _incident(self) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
        """(segments into, segments out of) each intersection, in declaration order."""
        into: dict[str, list[str]] = {i.id: [] for i in self.intersections}
        out_of: dict[str, list[str]] = {i.id: [] for i in self.intersections}
        for s in self.segments:
            into[s.to_node].append(s.id)
            out_of[s.from_node].append(s.id)
        return ({n: tuple(ids) for n, ids in into.items()},
                {n: tuple(ids) for n, ids in out_of.items()})

    def incoming(self) -> dict[str, tuple[str, ...]]:
        return self._incident[0]

    def outgoing(self) -> dict[str, tuple[str, ...]]:
        return self._incident[1]

    @cached_property
    def _signalized(self) -> tuple[str, ...]:
        return tuple(i.id for i in self.intersections if i.signalized)

    def signalized_nodes(self) -> tuple[str, ...]:
        return self._signalized

    def entries(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.segments if s.entry)

    def exits(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.segments if s.exit)

    def allowed_turns(self, seg_id: str) -> tuple[str, ...]:
        s = self.segment(seg_id)
        if s.turns is not None:
            return s.turns
        outgoing = self.outgoing()[s.to_node]
        nexts = []
        for cand_id in outgoing:
            cand = self.segment(cand_id)
            if cand.to_node == s.from_node:
                continue  # no U-turns unless nothing else continues
            nexts.append(cand_id)
        return tuple(nexts) if nexts else tuple(outgoing)

    def segment_graph(self) -> Graph:
        """Successors of each segment under the allowed turns.

        Maps each segment to {next segment: its travel time}, the weight a
        route pays for taking that turn, in `allowed_turns` order.
        """
        return {s.id: {nxt: self.segment(nxt).travel_time
                       for nxt in self.allowed_turns(s.id)}
                for s in self.segments}


def load_network(text: str) -> StreetNetwork:
    """Parse and validate a network description."""
    intersections: list[Intersection] = []
    segments: list[RoadSegment] = []
    zones: list[Zone] = []
    signals: list[SignalSpec] = []
    for sec in parse_sections(text):
        if sec.kind == "intersection":
            intersections.append(Intersection(sec.name, sec.get_bool("signalized")))
        elif sec.kind == "segment":
            turns = tuple(sec.get_list("turns")) if "turns" in sec.values else None
            fields = (sec.require("from"), sec.require("to"), sec.number("length"),
                      sec.number("speed"), sec.get_int("capacity", 20),
                      sec.get_bool("shared"), sec.get_int("approach"),
                      sec.get_bool("entry"), sec.get_bool("exit"), turns)
            with sec.context():
                segments.append(RoadSegment(sec.name, *fields))
        elif sec.kind == "zone":
            zones.append(Zone(sec.name, frozenset(sec.get_list("members"))))
        elif sec.kind == "signal":
            signals.append(_load_signal(sec))
        else:
            raise ParseError(f"unknown section kind {sec.kind!r}")
    net = StreetNetwork(tuple(segments), tuple(intersections),
                        tuple(zones), tuple(signals))
    for s in net.segments:
        for nxt in s.turns or ():
            if net.segment(nxt).from_node != s.to_node:
                raise TopologyError(f"[segment {s.id}] turns: [segment {nxt}] does not"
                                    f" start at {s.to_node}")
        if not s.exit and not net.allowed_turns(s.id):  # a vehicle there would be stuck
            raise TopologyError(f"[segment {s.id}]: not an exit, yet no turn leaves it")
    return net


def _load_signal(sec: Section) -> SignalSpec:
    """A `[signal]` section as the controller it configures."""
    modes = sec.items("modes", "id:latency:cost", str, finite, finite)
    safe = sec.get("safe_mode")
    if modes and safe not in {m[0] for m in modes}:
        raise sec.error("safe_mode", "must name one mode")
    with sec.context("modes"):
        modes = tuple(ImplementationMode(*m, safe=m[0] == safe) for m in modes)
    splits = (sec.number(key, default, low=0, open_low=True)
              for key, default in (("green", 30.0), ("yellow", 5.0), ("red", 25.0)))
    timing = (*splits, sec.number("offset", 0.0, low=0),
              sec.choice("anchor", SignalState, SignalState.GREEN))
    with sec.context("offset"):  # the one bound the accessors cannot check
        fsm = SignalFsm(*timing)
    return SignalSpec(sec.name, fsm, modes, sec.get_bool("early_switch"))


@dataclass(frozen=True)
class DemandWindow:
    start: float
    end: float
    rate: float  # vehicles per second

    def __post_init__(self):
        # make_world draws arrivals until the end or the horizon: a nan end
        # or rate, or an infinite rate, would never stop it.
        if not (math.isfinite(self.start) and 0 <= self.rate < math.inf) or math.isnan(self.end):
            raise ValueError("window start must be finite, its end a number and its rate"
                             " a finite number >= 0")
        if self.end <= self.start:
            raise ValueError("window end must exceed start")


@dataclass(frozen=True)
class DemandProfile:
    arrivals: tuple[tuple[str, tuple[DemandWindow, ...]], ...]

    def __post_init__(self):
        for seg, windows in self.arrivals:
            for a, b in zip(windows, windows[1:]):
                if b.start != a.end:
                    raise ValueError(f"[arrivals {seg}] windows: must tile without"
                                     " gaps or overlap")


def load_demand(text: str) -> DemandProfile:
    arrivals = []
    for sec in parse_sections(text):
        if sec.kind != "arrivals":
            raise ParseError(f"unknown section kind {sec.kind!r} in demand file")
        windows = sec.items("windows", "start:end:rate", finite, float, finite)
        with sec.context("windows"):
            arrivals.append((sec.name, tuple(DemandWindow(*w) for w in windows)))
    return DemandProfile(tuple(arrivals))


@dataclass
class Vehicle:
    vid: int
    route: tuple[str, ...]
    leg: int
    entered_at: float
    ready_at: float
    pending_next: str | None = None


@dataclass
class Observation:
    """Per-site cycle observation: completed traversals and their mean time."""

    site: str
    n: int
    t_ex: float | None
    window: tuple[float, float]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("N must be >= 0")
        if self.n > 0 and (self.t_ex is None or self.t_ex <= 0):
            raise ValueError("T_ex must be > 0 when N > 0")


@dataclass
class WorldState:
    network: StreetNetwork
    clock: float = 0.0
    queues: dict[str, list[Vehicle]] = field(default_factory=dict)
    events: list[tuple] = field(default_factory=list)
    entered: int = 0
    exited: int = 0
    dropped: int = 0
    arrivals: list[tuple[float, str, tuple[str, ...]]] = field(default_factory=list)
    arrival_idx: int = 0
    next_vid: int = 0
    route_rng: np.random.Generator | None = None
    # Completed traversals per segment in completion order: when each
    # vehicle left the segment and how long it had been on it.  The last
    # completion is the segment's last crossing, the headway's origin.
    completed_at: dict[str, array] = field(default_factory=dict)
    traversal_time: dict[str, array] = field(default_factory=dict)

    def copy(self) -> "WorldState":
        return copy.deepcopy(self)

    def vehicle_count(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def log(self, *record) -> None:
        self.events.append(tuple(record))


def _predecessors(succ: Graph) -> Graph:
    """The reverse of a `segment_graph`, each segment's feeders in declaration order."""
    pred: Graph = {seg: {} for seg in succ}
    for seg, nexts in succ.items():
        for nxt, weight in nexts.items():
            pred[nxt][seg] = weight
    return pred


def _reachable_exits(succ: Graph, entry: str, exits: tuple[str, ...]) -> list[str]:
    """The exits a vehicle entering on `entry` can reach, in `exits` order."""
    seen, stack = {entry}, [entry]
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return [e for e in exits if e in seen]


def _shortest_route(succ: Graph, pred: Graph, source: str, target: str) -> list[str]:
    """Least-travel-time segment path from `source` to `target`.

    A transcription of networkx's `bidirectional_dijkstra` (3.6.1), which
    routes came from before.  Equal-time paths are common (a uniform grid
    has many), and which one is returned depends on the alternating
    directions, the shared insertion counter in the heap entries, the
    strict `<` relaxations, the strict meeting update and the neighbour
    order of `succ` and `pred`: change any of them and vehicles take other
    routes.  A single-source Dijkstra breaks those ties differently.
    """
    if source == target:
        return [source]
    dists: list[dict[str, float]] = [{}, {}]  # settled distances, [forward, backward]
    preds: list[dict[str, str | None]] = [{source: None}, {target: None}]
    seen: list[dict[str, float]] = [{source: 0}, {target: 0}]
    fringe: list[list] = [[], []]
    c = count()
    heappush(fringe[0], (0, next(c), source))
    heappush(fringe[1], (0, next(c), target))
    neighbors = (succ, pred)
    finaldist = meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
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
        for w, cost in neighbors[direction][v].items():
            vw_length = dist + cost
            # networkx raises here if vw_length < dists[direction][w], which
            # positive travel times rule out.
            if w in dists[direction]:
                continue
            if w not in seen[direction] or vw_length < seen[direction][w]:
                seen[direction][w] = vw_length
                heappush(fringe[direction], (vw_length, next(c), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    total = vw_length + seen[1 - direction][w]
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, w
    raise TopologyError(f"no path from {source} to {target}")


def make_world(network: StreetNetwork, demand: DemandProfile | None = None,
               horizon: float = 0.0, seed: int = 0) -> WorldState:
    """Build a world with all randomness drawn up front.

    Arrival instants follow a piecewise-constant-rate Poisson process per
    entry segment, each fed by its own stream split from the seed; routes
    are sampled at generation time (uniform over reachable exits, then the
    fastest path), so stepping the world consumes no randomness.
    """
    world = WorldState(network, queues={s.id: [] for s in network.segments},
                       completed_at={s.id: array("d") for s in network.segments},
                       traversal_time={s.id: array("d") for s in network.segments})
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(len(network.entries()) + 1)
    world.route_rng = np.random.default_rng(children[-1])
    if demand is None or horizon <= 0:
        return world

    succ = network.segment_graph()
    pred = _predecessors(succ)
    exits = network.exits()
    reachable_cache: dict[str, list[str]] = {}
    route_cache: dict[tuple[str, str], tuple[str, ...]] = {}

    def route_from(entry: str, rng: np.random.Generator) -> tuple[str, ...]:
        if entry not in reachable_cache:
            reachable_cache[entry] = _reachable_exits(succ, entry, exits)
        reachable = reachable_cache[entry]
        if not reachable:
            raise TopologyError(f"[segment {entry}] entry: no exit is reachable from it")
        target = reachable[int(rng.integers(len(reachable)))]
        key = (entry, target)
        if key not in route_cache:
            route_cache[key] = tuple(_shortest_route(succ, pred, entry, target))
        return route_cache[key]

    demand_map = dict(demand.arrivals)
    unknown = sorted(set(demand_map) - set(network.entries()))
    if unknown:
        raise TopologyError(f"[arrivals {unknown[0]}]: [segment {unknown[0]}] is not"
                            " an entry segment")
    pending: list[tuple[float, str, tuple[str, ...]]] = []
    for idx, entry in enumerate(network.entries()):
        windows = demand_map.get(entry)
        if not windows:
            continue
        rng = np.random.default_rng(children[idx])
        for w in windows:
            if w.rate <= 0:
                continue
            t = w.start
            while True:
                t += rng.exponential(1.0 / w.rate)
                if t >= min(w.end, horizon):
                    break
                pending.append((t, entry, route_from(entry, rng)))
    pending.sort(key=lambda rec: (rec[0], rec[1]))
    world.arrivals = pending
    return world


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


def _next_segment(world: WorldState, v: Vehicle, seg: RoadSegment) -> str | None:
    """Planned next leg; draws one lazily for dynamically routed vehicles."""
    if v.route:
        if v.leg + 1 < len(v.route):
            return v.route[v.leg + 1]
        return None  # end of route: leaves the network
    if seg.exit:
        return None
    if v.pending_next is None:
        options = world.network.allowed_turns(seg.id)
        if not options:
            raise TopologyError(f"vehicle stuck: no turns from {seg.id}")
        v.pending_next = options[int(world.route_rng.integers(len(options)))]
    return v.pending_next


def step(world: WorldState, controls: dict[str, SignalState], dt: float) -> WorldState:
    """Advance the world by dt seconds under the given signal states.

    Arrivals due in the interval join their entry queue (or are dropped
    and counted when it is full); then each segment's head vehicle crosses
    if it is ready, the signal admits its approach, the headway since the
    last crossing has elapsed and the downstream segment has room.
    Blocked vehicles simply wait.  Mutates and returns `world`.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    for node in world.network.signalized_nodes():
        if node not in controls:
            raise ValueError(f"controls missing signalized intersection {node}")
    # Snap to a fine grid so repeated fractional steps do not drift.
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
        v = Vehicle(world.next_vid, route, 0, at, at + seg.travel_time)
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
        if crossed and crossed[-1] + DEFAULT_HEADWAY > now:
            continue
        state = controls.get(seg.to_node)
        if state is not None and not state.admits(seg.approach or 0):
            continue
        nxt_id = _next_segment(world, v, seg)
        if nxt_id is None:
            if not seg.exit and v.route:
                raise TopologyError(f"route of vehicle {v.vid} ends on non-exit {seg.id}")
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


def observe_cycle(world: WorldState, site: str, window: tuple[float, float]) -> Observation:
    """Completed traversals of `site` within (t0, t1] and their mean time.

    Reads the per-segment completion records `step` keeps; their times
    never decrease, so the window is two bisections.
    """
    t0, t1 = window
    world.network.segment(site)  # validate id
    times = world.completed_at[site]
    lo, hi = bisect_right(times, t0), bisect_right(times, t1)
    durations = world.traversal_time[site][lo:hi]
    n = len(durations)
    t_ex = (sum(durations) / n) if n else None
    return Observation(site, n, t_ex, window)


def check_zone_balance(world: WorldState, zone_id: str,
                       window: tuple[float, float]) -> int:
    """entered - exited - delta(in-zone count) over the window; 0 when sound."""
    members = world.network.zone(zone_id).members
    t0, t1 = window
    entered = exited = 0
    count_t0 = count_t1 = 0
    for ev in world.events:
        kind, at = ev[0], ev[1]
        if kind == "arrive":
            delta_in = 1 if ev[3] in members else 0
            delta_out = 0
        elif kind == "depart":
            delta_in = 0
            delta_out = 1 if ev[3] in members else 0
        elif kind == "move":
            src_in, dst_in = ev[3] in members, ev[4] in members
            delta_in = 1 if (dst_in and not src_in) else 0
            delta_out = 1 if (src_in and not dst_in) else 0
        else:
            continue
        if at <= t0:
            count_t0 += delta_in - delta_out
        if at <= t1:
            count_t1 += delta_in - delta_out
        if t0 < at <= t1:
            entered += delta_in
            exited += delta_out
    return entered - exited - (count_t1 - count_t0)


def format_event(ev: tuple) -> str:
    """One tab-separated log line; floats carry 9 significant digits."""
    parts = []
    for item in ev:
        if isinstance(item, float):
            parts.append("%.9g" % item)
        else:
            parts.append(str(item))
    return "\t".join(parts)


def write_event_log(events: list[tuple], path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        for ev in events:
            fh.write(format_event(ev) + "\n")
