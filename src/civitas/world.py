"""Mesoscopic queue-based traffic world.

Vehicles traverse road segments at free-flow speed, then wait at the stop
line until their signal admits them, the required headway has elapsed,
and the downstream segment has room (a shared single-lane section holds
at most one vehicle).  Arrivals are Poisson with piecewise-constant rates
from seeded, per-entry split random streams, so runs are bit-reproducible
given (network, demand, seed, controls).  The streams are numpy's
`SeedSequence` and PCG64 draws, transcribed in `streams`, so the world
imports no numpy.
"""

from __future__ import annotations

import copy
import math
from array import array
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from .fsm import (DEFAULT_SPLITS, GREEN_MIN, RED_MIN, YELLOW_MIN,
                  ImplementationMode, IntersectionController, SignalFsm,
                  SignalState, skip_to_next_state)
from .textfmt import ParseError, Section, finite, parse_sections

if TYPE_CHECKING:
    from .streams import Pcg64

DEFAULT_HEADWAY = 2.0

# The clock counts whole units of 1e-10 s: tick k of a run with step dt
# ends at u = k * step_units(dt) units, at u / CLOCK_UNITS_PER_S seconds.
# Python rounds the quotient of two ints once, correctly, so that is the
# double nearest u * 1e-10: what snapping a time within half a unit of it
# with `round(x, 10)` gave.  (Multiplying by 1e-10, which is inexact, is not.)
CLOCK_UNITS_PER_S = 10**10

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
        if self.travel_time == math.inf:  # a vehicle on it would never leave
            raise ValueError(f"{where} length: {self.length:g} m at"
                             f" {self.free_flow_speed:g} m/s is no finite travel time")

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
class Zone:
    id: str
    members: frozenset[str]


@dataclass(frozen=True)
class StreetNetwork:
    segments: tuple[RoadSegment, ...]
    intersections: tuple[Intersection, ...]
    zones: tuple[Zone, ...] = ()
    signals: tuple[IntersectionController, ...] = ()  # one per [signal], in order

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
        for ctrl in self.signals:
            if ctrl.id not in signalized:
                raise TopologyError(f"[signal {ctrl.id}]: [intersection"
                                    f" {ctrl.id}] is not signalized")
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
        for s in self.segments:
            for nxt in s.turns or ():
                if self.segment(nxt).from_node != s.to_node:
                    raise TopologyError(f"[segment {s.id}] turns: [segment {nxt}] does"
                                        f" not start at {s.to_node}")
            if not s.exit and not self.allowed_turns(s.id):  # a vehicle would be stuck
                raise TopologyError(f"[segment {s.id}]: not an exit, yet no turn leaves it")

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

    @cached_property
    def _position(self) -> dict[str, int]:
        """Each segment's index in declaration order."""
        return {s.id: i for i, s in enumerate(self.segments)}

    def segment(self, seg_id: str) -> RoadSegment:
        seg = self._segment_index.get(seg_id)
        if seg is None:
            raise KeyError(f"unknown segment {seg_id!r}")
        return seg

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
    signals: list[IntersectionController] = []
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
            raise ParseError(f"line {sec.line}: unknown section kind {sec.kind!r}")
    return StreetNetwork(tuple(segments), tuple(intersections),
                         tuple(zones), tuple(signals))


def _load_signal(sec: Section) -> IntersectionController:
    """A `[signal]` section as the controller it configures."""
    modes = sec.items("modes", "id:latency:cost", str, finite, finite)
    safe = sec.get("safe_mode")
    if modes and safe not in {m[0] for m in modes}:
        raise sec.error("safe_mode", "must name one mode")
    splits = (sec.number(key, default, low=low) for key, default, low in zip(
        ("green", "yellow", "red"), DEFAULT_SPLITS, (GREEN_MIN, YELLOW_MIN, RED_MIN)))
    timing = (*splits, sec.number("offset", 0.0, low=0),
              sec.choice("anchor", SignalState, SignalState.GREEN))
    with sec.context("offset"):  # the one bound the accessors cannot check
        fsm = SignalFsm(*timing)
    with sec.context("modes"):  # finite costs, distinct ids, one of them safe
        modes = tuple(ImplementationMode(*m, safe=m[0] == safe) for m in modes)
        return IntersectionController(sec.name, fsm, modes,
                                      early_switch=sec.get_bool("early_switch"))


@dataclass(frozen=True)
class DemandWindow:
    start: float
    end: float
    rate: float  # vehicles per second

    def __post_init__(self):
        # make_world draws arrivals until the end or the horizon: a nan end
        # or rate, or an infinite rate, would never stop it.
        # A start before 0 would draw arrivals before the clock does.
        if not (0 <= self.start < math.inf and 0 <= self.rate < math.inf) or math.isnan(self.end):
            raise ValueError("window start must be a finite number >= 0, its end a number"
                             " and its rate a finite number >= 0")
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
            raise ParseError(f"line {sec.line}: unknown section kind {sec.kind!r}"
                             " in demand file")
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
class _Agenda:
    """Which queue heads `step` looks at, and when.

    Each non-empty segment (by index) is in exactly one place: armed,
    to be checked on the next call; in `timers`, until its head is ready
    and its headway has run; filed under the intersection whose signal
    refused its head, until that signal changes; or filed under the full
    segment its head waits to enter, until that segment pops.  Nothing
    else can let a waiting head cross, so checking only the armed heads,
    in declaration order, moves exactly the vehicles a scan of every head
    would move.
    """

    armed: set[int]
    timers: list[tuple[float, int]] = field(default_factory=list)  # heap
    signal: dict[str, list[int]] = field(default_factory=dict)
    room: dict[int, list[int]] = field(default_factory=dict)
    controls: dict[str, SignalState] | None = None  # the previous call's
    dt: float | None = None  # the previous call's, and its clock units
    dt_units: int = 0
    # The earliest pending arrival or timer, -inf while a head is armed:
    # a call before it under unchanged controls has nothing to do.
    due: float = -math.inf


class _Routes:
    """Each arrival's route, drawn from its entry's stream: a uniform pick
    among the exits the entry reaches, then the fastest path there.  Both
    are searched once per entry and per (entry, exit) pair."""

    def __init__(self, network: StreetNetwork):
        self.router = _Router(network)
        self.exits = network.exits()
        self.reachable: dict[str, list[str]] = {}
        self.paths: dict[tuple[str, str], tuple[str, ...]] = {}

    def draw(self, entry: str, rng: Pcg64) -> tuple[str, ...]:
        reachable = self.reachable.get(entry)
        if reachable is None:
            reachable = self.reachable[entry] = self.router.reachable_exits(
                entry, self.exits)
        if not reachable:
            raise TopologyError(f"[segment {entry}] entry: no exit is reachable from it")
        key = (entry, reachable[int(rng.integers(len(reachable)))])
        path = self.paths.get(key)
        if path is None:
            path = self.paths[key] = self.router.route(*key)
        return path


@dataclass
class _EntryStream:
    """One entry's Poisson arrivals: its random stream, its windows, the
    time the next draw counts from (the entry's last arrival, or the
    start of the window it falls in) and that window's index."""

    entry: str
    rng: Pcg64
    windows: tuple[DemandWindow, ...]
    last: float
    window: int = 0


@dataclass
class Arrivals:
    """The arrivals still to come, each drawn when the one before it is taken.

    `next` is a heap of (time, entry, route): each entry's next arrival
    before the horizon, at most one per entry.  `take` pops the first and
    draws that entry's next one, time then route, from the entry's
    stream.  An entry's windows tile and its times only grow, so the heap
    gives the arrivals in the (time, entry) order of drawing them all up
    front and sorting, with the same draws (`tests/replay.py` keeps that
    draw as the oracle).
    """

    horizon: float = 0.0
    streams: dict[str, _EntryStream] = field(default_factory=dict)
    routes: _Routes | None = None
    next: list[tuple[float, str, tuple[str, ...]]] = field(default_factory=list)

    def take(self) -> tuple[float, str, tuple[str, ...]]:
        record = heappop(self.next)
        self.draw(self.streams[record[1]])
        return record

    def draw(self, stream: _EntryStream) -> None:
        """Push `stream`'s next arrival, if it has one before the horizon."""
        windows, rng = stream.windows, stream.rng
        while stream.window < len(windows):
            w = windows[stream.window]
            if w.rate > 0:
                t = stream.last + rng.exponential(1.0 / w.rate)
                if t < min(w.end, self.horizon):
                    stream.last = t
                    route = self.routes.draw(stream.entry, rng)
                    heappush(self.next, (t, stream.entry, route))
                    return
            stream.window += 1
            if stream.window < len(windows):
                stream.last = windows[stream.window].start


@dataclass
class WorldState:
    network: StreetNetwork
    clock: float = 0.0  # clock_units / CLOCK_UNITS_PER_S, the time artifacts read
    clock_units: int = 0
    queues: dict[str, list[Vehicle]] = field(default_factory=dict)
    # The bytes of `events.log`: one UTF-8 line per event, formatted when
    # it happens, so the run holds no object per past event.
    events: bytearray = field(default_factory=bytearray)
    entered: int = 0
    exited: int = 0
    dropped: int = 0
    arrivals: Arrivals = field(default_factory=Arrivals)
    next_vid: int = 0
    route_rng: Pcg64 | None = None
    # Completed traversals per segment in completion order: when each
    # vehicle left the segment and how long it had been on it.  The last
    # completion is the segment's last crossing, the headway's origin.
    # `forget_crossings` drops those at or before `crossings_after`, but
    # each segment's last.
    completed_at: dict[str, array] = field(default_factory=dict)
    traversal_time: dict[str, array] = field(default_factory=dict)
    crossings_after: float = -math.inf
    # Built by the first `step`, which checks every head; None re-arms all.
    agenda: _Agenda | None = field(default=None, repr=False, compare=False)

    def copy(self) -> "WorldState":
        return copy.deepcopy(self)

    def vehicle_count(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def log(self, *record) -> None:
        self.events += (format_event(record) + "\n").encode()


class _Router:
    """Routes on a network's `segment_graph`, with segments as integer indices.

    `succ[i]` holds segment i's (next segment, travel time) pairs in
    `allowed_turns` order and `pred[i]` its (feeder, travel time) pairs in
    declaration order, the orders networkx kept for the graph routes came
    from before.
    """

    def __init__(self, network: StreetNetwork):
        self.ids = tuple(s.id for s in network.segments)
        self.index = index = network._position
        self.succ = tuple(tuple((index[nxt], time) for nxt, time in nexts.items())
                          for nexts in network.segment_graph().values())
        pred: list[list[tuple[int, float]]] = [[] for _ in self.ids]
        for i, nexts in enumerate(self.succ):
            for j, time in nexts:
                pred[j].append((i, time))
        self.pred = tuple(map(tuple, pred))

    def reachable_exits(self, entry: str, exits: tuple[str, ...]) -> list[str]:
        """The exits a vehicle entering on `entry` can reach, in `exits` order."""
        succ, start = self.succ, self.index[entry]
        seen, stack = [False] * len(succ), [start]
        seen[start] = True
        while stack:
            for j, _ in succ[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return [e for e in exits if seen[self.index[e]]]

    def route(self, source: str, target: str) -> tuple[str, ...]:
        """Least-travel-time segment path from `source` to `target`.

        networkx's `bidirectional_dijkstra` (3.6.1), which routes came from
        before, with its two directions written out.  Equal-time paths are
        common (a uniform grid has many), and which one is returned depends
        on the directions alternating, forward first; on heap ties going to
        the earlier push; on the strict `<` of the relaxations and of the
        meeting update; on stopping at the first pop the other direction
        has settled; and on the neighbour order of `succ` and `pred`.
        Change any of them and vehicles take other routes.  A single-source
        Dijkstra breaks those ties differently.  Raises TopologyError when
        either fringe empties first.  (`tests/test_fastpaths.py` keeps the
        string-keyed transcription this replaced as an oracle.)

        A segment a direction has not reached has a tentative time of nan,
        and `best` is nan before the first meeting: `not d >= nan` holds for
        every d, as "not seen yet" did, and is `d < x` once there is an x.
        (An inf start would refuse a path whose time overflows to inf.)
        """
        ids, succ, pred = self.ids, self.succ, self.pred
        s, t = self.index[source], self.index[target]
        if s == t:
            return (source,)
        n = len(ids)
        fdone, bdone = [False] * n, [False] * n  # settled, forward and backward
        fseen, bseen = [math.nan] * n, [math.nan] * n  # tentative times
        fprev, bprev = [-1] * n, [-1] * n  # the segment each was reached from
        fseen[s] = bseen[t] = 0.0
        ffringe, bfringe = [(0.0, 0, s)], [(0.0, 1, t)]
        pushes = 2  # the heaps' shared push counter: ties go to the earlier push
        best = math.nan  # the best meeting's total time, nan before the first
        meet = -1
        while ffringe and bfringe:
            dist, _, v = heappop(ffringe)
            if not fdone[v]:
                fdone[v] = True
                if bdone[v]:
                    break
                for w, cost in succ[v]:
                    if fdone[w]:
                        continue
                    d = dist + cost
                    if not d >= fseen[w]:
                        fseen[w], fprev[w] = d, v
                        heappush(ffringe, (d, pushes, w))
                        pushes += 1
                        other = bseen[w]
                        if other == other and not d + other >= best:  # seen, and better
                            best, meet = d + other, w
            if not ffringe:
                continue  # and the loop ends: no path
            dist, _, v = heappop(bfringe)
            if not bdone[v]:
                bdone[v] = True
                if fdone[v]:
                    break
                for w, cost in pred[v]:
                    if bdone[w]:
                        continue
                    d = dist + cost
                    if not d >= bseen[w]:
                        bseen[w], bprev[w] = d, v
                        heappush(bfringe, (d, pushes, w))
                        pushes += 1
                        other = fseen[w]
                        if other == other and not d + other >= best:
                            best, meet = d + other, w
        else:
            raise TopologyError(f"no path from {source} to {target}")
        path, node = [], meet
        while node >= 0:
            path.append(ids[node])
            node = fprev[node]
        path.reverse()
        node = bprev[meet]
        while node >= 0:
            path.append(ids[node])
            node = bprev[node]
        return tuple(path)


def make_world(network: StreetNetwork, demand: DemandProfile | None = None,
               horizon: float = 0.0, seed: int = 0) -> WorldState:
    """Build a world whose arrivals are drawn as they come due.

    Arrival instants follow a piecewise-constant-rate Poisson process per
    entry segment, each fed by its own stream split from the seed; each
    arrival's route is drawn from the same stream right after its time
    (uniform over reachable exits, then the fastest path).  Each entry's
    first arrival is drawn here, so an entry that reaches no exit raises
    TopologyError now; `step` draws an entry's next arrival when it takes
    the one before (`Arrivals`).  A vehicle without a route draws each
    turn from the world's own stream.

    Raises ValueError when the horizon is not finite and a window with a
    rate > 0 ends at inf: its arrivals would never end; and when the
    horizon is nan or below 0.  Horizon 0 draws no arrivals.
    """
    from .streams import spawn

    world = WorldState(network, queues={s.id: [] for s in network.segments},
                       completed_at={s.id: array("d") for s in network.segments},
                       traversal_time={s.id: array("d") for s in network.segments})
    *entry_rngs, world.route_rng = spawn(seed, len(network.entries()) + 1)
    if demand is None or horizon == 0:
        return world

    demand_map = dict(demand.arrivals)
    unknown = sorted(set(demand_map) - set(network.entries()))
    if unknown:
        raise TopologyError(f"[arrivals {unknown[0]}]: [segment {unknown[0]}] is not"
                            " an entry segment")
    if not horizon < math.inf:  # inf or nan: no window may run on without end
        for entry, windows in demand.arrivals:
            if any(w.rate > 0 and w.end == math.inf for w in windows):
                raise ValueError(f"[arrivals {entry}] windows: a window with a rate > 0"
                                 f" ends at inf and the horizon is {horizon}: its"
                                 " arrivals would never end")
    if not horizon >= 0:
        raise ValueError(f"horizon {horizon} is not a number >= 0")
    arrivals = world.arrivals = Arrivals(horizon, routes=_Routes(network))
    for entry, rng in zip(network.entries(), entry_rngs):
        windows = demand_map.get(entry)
        if windows:
            stream = arrivals.streams[entry] = _EntryStream(entry, rng, windows,
                                                            windows[0].start)
            arrivals.draw(stream)
    return world


def step_units(dt: float) -> int:
    """A step of dt seconds as a whole number of clock units, at least one.

    Raises ValueError when dt is not a finite number > 0, is too small to
    move the clock (it rounds to no unit) or too large to count in units.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be a finite number > 0, got {dt:g}")
    scaled = dt * CLOCK_UNITS_PER_S
    if scaled == math.inf:
        raise ValueError(f"dt {dt:g} overflows the clock's count of 1e-10 s units")
    units = round(scaled)
    if units == 0:
        raise ValueError(f"dt {dt:g} is below the clock's resolution of 1e-10 s")
    return units


def tick_times(dt: float, ticks: int) -> Iterator[float]:
    """When each of `ticks` steps of dt from zero ends: `step`'s clock."""
    unit = step_units(dt)
    return (k * unit / CLOCK_UNITS_PER_S for k in range(1, ticks + 1))


def _next_segment(world: WorldState, v: Vehicle, seg: RoadSegment) -> str | None:
    """Planned next leg; draws one lazily for dynamically routed vehicles."""
    if v.route:
        if v.leg + 1 < len(v.route):
            return v.route[v.leg + 1]
        return None  # end of route: leaves the network
    if seg.exit:
        return None
    if v.pending_next is None:  # the network gives every non-exit a turn
        options = world.network.allowed_turns(seg.id)
        v.pending_next = options[int(world.route_rng.integers(len(options)))]
    return v.pending_next


def step(world: WorldState, controls: dict[str, SignalState], dt: float) -> WorldState:
    """Advance the world by dt seconds under the given signal states.

    Arrivals due in the interval join their entry queue (or are dropped
    and counted when it is full), and each one taken draws its entry's
    next (`Arrivals.take`); then each segment's head vehicle crosses
    if it is ready, the signal admits its approach, the headway since the
    last crossing has elapsed and the downstream segment has room.
    Blocked vehicles simply wait.  Mutates and returns `world`.

    Only the heads `world.agenda` arms are looked at: the first call's,
    new heads, heads whose wait has run out, heads under a signal that
    changed and heads behind a segment that popped.  Each is checked in
    the tick and order a scan of every head would check it, so the result
    is that scan's (`tests/test_fastpaths.py` keeps it as the oracle).
    A call with nothing armed, the previous call's controls and a time
    before the agenda's next arrival or timer only moves the clock.  The
    agenda compares `controls` with its own copy of the previous call's,
    so a caller may fill one dict in place from tick to tick.

    The clock advances by `step_units(dt)` whole units, so it never
    drifts; dt must be a finite number > 0 of at least one unit.
    """
    agenda = world.agenda
    if agenda is None:
        agenda = world.agenda = _Agenda(set(range(len(world.network.segments))))
    if dt != agenda.dt:
        agenda.dt_units, agenda.dt = step_units(dt), dt
    units = world.clock_units + agenda.dt_units
    now = units / CLOCK_UNITS_PER_S
    if now < agenda.due and controls == agenda.controls:
        world.clock_units, world.clock = units, now
        return world
    network, queues = world.network, world.queues
    controls_changed = controls != agenda.controls
    if controls_changed:
        for node in network.signalized_nodes():
            if node not in controls:
                raise ValueError(f"controls missing signalized intersection {node}")
    world.clock_units, world.clock = units, now
    position, armed = network._position, agenda.armed
    # `format_event`'s lines for the four kinds logged here, one literal
    # format each: times are floats, vehicle ids ints, segment ids strs.
    segment, log = network._segment_index, world.events.extend

    arrivals = world.arrivals
    pending = arrivals.next
    while pending and pending[0][0] <= now:
        at, seg_id, route = arrivals.take()
        seg = segment[seg_id]
        queue = queues[seg_id]
        if len(queue) >= seg.occupancy_limit:
            world.dropped += 1
            log(("drop\t%.9g\t%s\n" % (at, seg_id)).encode())
            continue
        if not queue:
            armed.add(position[seg_id])
        v = Vehicle(world.next_vid, route, 0, at, at + seg.travel_time)
        world.next_vid += 1
        queue.append(v)
        world.entered += 1
        log(("arrive\t%.9g\t%d\t%s\n" % (at, v.vid, seg_id)).encode())

    if controls_changed:
        before = agenda.controls or {}
        for node in [n for n in agenda.signal if controls.get(n) != before.get(n)]:
            armed.update(agenda.signal.pop(node))
        agenda.controls = dict(controls)
    timers = agenda.timers
    while timers and timers[0][0] <= now:
        armed.add(heappop(timers)[1])
    if not armed:
        agenda.due = _next_due(world, timers)
        return world

    # Heads armed while this tick runs join it if a scan would still reach
    # them (a later index), and the next tick otherwise.  Should a head
    # raise, the agenda stays dropped and the next call checks every head.
    todo = sorted(armed)  # a sorted list is a heap
    armed.clear()
    world.agenda = None
    segments, completed_at, room = network.segments, world.completed_at, agenda.room
    last = -1
    while todo:
        i = heappop(todo)
        if i == last:
            continue
        last = i
        seg = segments[i]
        queue = queues[seg.id]
        if not queue:
            continue
        v = queue[0]
        crossed = completed_at[seg.id]
        due = v.ready_at
        if crossed and crossed[-1] + DEFAULT_HEADWAY > due:
            due = crossed[-1] + DEFAULT_HEADWAY
        if due > now:
            heappush(timers, (due, i))
            continue
        state = controls.get(seg.to_node)
        if state is not None and not state.admits(seg.approach or 0):
            agenda.signal.setdefault(seg.to_node, []).append(i)
            continue
        nxt_id = _next_segment(world, v, seg)
        if nxt_id is None:
            if not seg.exit and v.route:
                raise TopologyError(f"route of vehicle {v.vid} ends on non-exit {seg.id}")
        else:
            nxt = segment[nxt_id]
            if len(queues[nxt_id]) >= nxt.occupancy_limit:
                room.setdefault(position[nxt_id], []).append(i)
                continue
        queue.pop(0)
        crossed.append(now)
        world.traversal_time[seg.id].append(now - v.entered_at)
        if nxt_id is None:
            world.exited += 1
            log(("depart\t%.9g\t%d\t%s\n" % (now, v.vid, seg.id)).encode())
        else:
            v.leg += 1
            v.pending_next = None
            v.entered_at = now
            v.ready_at = now + nxt.travel_time
            queues[nxt_id].append(v)
            log(("move\t%.9g\t%d\t%s\t%s\n" % (now, v.vid, seg.id, nxt_id)).encode())
        woken = room.pop(i, [])
        if nxt_id is not None and nxt_id != seg.id and len(queues[nxt_id]) == 1:
            woken.append(position[nxt_id])  # a new head downstream
        for j in woken:
            if j > i:
                heappush(todo, j)
            else:
                armed.add(j)
        if queue:  # the new head waits out the headway at least
            heappush(timers, (max(queue[0].ready_at, now + DEFAULT_HEADWAY), i))
    agenda.due = -math.inf if armed else _next_due(world, timers)
    world.agenda = agenda
    return world


def _next_due(world: WorldState, timers: list[tuple[float, int]]) -> float:
    """The time of the next arrival or timer, whichever is first."""
    due = timers[0][0] if timers else math.inf
    pending = world.arrivals.next
    if pending:
        due = min(due, pending[0][0])
    return due


def early_switch(world: WorldState, ctrl: IntersectionController,
                 t: float) -> IntersectionController:
    """`ctrl` with its dwell cut short at `t` when the approach it admits is
    empty and the other is not; `ctrl` itself otherwise.

    Only used while no zone timing constraints are active (fixed mode);
    pools of vehicles must keep following the coordinated tables.
    """
    state = ctrl.fsm.state_at(t)
    if state is SignalState.YELLOW:
        return ctrl
    admitted = 2 if state is SignalState.GREEN else 1
    net = world.network
    queues = {1: 0, 2: 0}
    for seg_id in net.incoming()[ctrl.id]:
        queues[net.segment(seg_id).approach] += len(world.queues[seg_id])
    if queues[admitted] == 0 and queues[3 - admitted] > 0:
        world.log("early_switch", t, ctrl.id)
        return replace(ctrl, fsm=skip_to_next_state(ctrl.fsm, t))
    return ctrl


def observe_cycle(world: WorldState, site: str, window: tuple[float, float]) -> Observation:
    """Completed traversals of `site` within (t0, t1] and their mean time.

    Reads the per-segment completion records `step` keeps; their times
    never decrease, so the window is two bisections.  Raises ValueError
    for a window that starts before `world.crossings_after`, whose
    crossings `forget_crossings` may have dropped.
    """
    t0, t1 = window
    world.network.segment(site)  # validate id
    if t0 < world.crossings_after:
        raise ValueError(f"window ({t0:g}, {t1:g}] of {site} starts before"
                         f" {world.crossings_after:g}: crossings up to then"
                         " are no longer kept")
    times = world.completed_at[site]
    lo, hi = bisect_right(times, t0), bisect_right(times, t1)
    durations = world.traversal_time[site][lo:hi]
    n = len(durations)
    t_ex = (sum(durations) / n) if n else None
    return Observation(site, n, t_ex, window)


def forget_crossings(world: WorldState, upto: float) -> None:
    """Drop each segment's completion records at or before `upto`, but its
    last, the headway's origin.  `observe_cycle` refuses a window that
    starts before `upto` from then on."""
    traversal_time = world.traversal_time
    for site, times in world.completed_at.items():
        k = min(bisect_right(times, upto), len(times) - 1)
        if k > 0:
            del times[:k]
            del traversal_time[site][:k]
    world.crossings_after = max(world.crossings_after, upto)


def format_event(ev: tuple) -> str:
    """One tab-separated log line; floats carry 9 significant digits."""
    parts = []
    for item in ev:
        if isinstance(item, float):
            parts.append("%.9g" % item)
        else:
            parts.append(str(item))
    return "\t".join(parts)


def write_event_log(events: bytearray, path: str) -> None:
    """Append `WorldState.events`, the log's UTF-8 bytes, to the file at
    `path` as they are; the file is made if it does not exist."""
    with open(path, "ab") as fh:
        fh.write(events)
