"""Top-level function graphs with distribution-valued node performance.

Each node's performance is a finite discrete distribution induced by the
area-level scenario process (occupation mass on a column maps to mass on
that column's schedule makespan).  The graph evaluates deterministically:
node durations are independent, ordering arcs chain completions, and the
overall goal is split into per-node targets proportional to capability.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ctg import _toposort
from .ctmdp import Ctmdp, CtmdpSolution

PROB_TOL = 1e-12

# Guard against runaway joint enumeration; graphs here are small by design.
MAX_JOINT_SUPPORT = 2_000_000

# Joint points `evaluate` handles per numpy block; bounds its working memory.
BLOCK_POINTS = 4096


@dataclass(frozen=True)
class PerfDistribution:
    """Finite discrete distribution over a performance value."""

    points: tuple[tuple[float, float], ...]  # (value, probability)

    def __post_init__(self):
        if not self.points:
            raise ValueError("distribution needs at least one point")
        total = 0.0
        seen = set()
        for value, prob in self.points:
            if not (math.isfinite(value) and math.isfinite(prob)):
                raise ValueError(f"non-finite support point ({value}, {prob})")
            if prob < 0:
                raise ValueError(f"negative probability {prob}")
            if value in seen:
                raise ValueError(f"duplicate support value {value}")
            seen.add(value)
            total += prob
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total}")

    @classmethod
    def from_dict(cls, d: dict[float, float]) -> "PerfDistribution":
        return cls(tuple(sorted(d.items())))

    @classmethod
    def point(cls, value: float) -> "PerfDistribution":
        return cls(((value, 1.0),))

    def expectation(self) -> float:
        return sum(v * p for v, p in self.points)


@dataclass(frozen=True)
class FgNode:
    id: str
    dist: PerfDistribution
    capability: float = 0.0  # expected throughput (cars per period)


@dataclass(frozen=True)
class FunctionGraph:
    """Acyclic graph of performance nodes; unconnected nodes are allowed."""

    nodes: tuple[FgNode, ...]
    arcs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        known = set(ids)
        for a, b in self.arcs:
            if a not in known or b not in known:
                raise ValueError(f"arc ({a}, {b}) references unknown node")
        _toposort(ids, self.arcs, "node {}")

    def node(self, node_id: str) -> FgNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"no node {node_id!r} in the function graph")

    def sinks(self) -> list[str]:
        with_out = {a for a, _ in self.arcs}
        return [n.id for n in self.nodes if n.id not in with_out]

    def with_node(self, node: FgNode) -> "FunctionGraph":
        replaced = tuple(node if n.id == node.id else n for n in self.nodes)
        if node.id not in {n.id for n in self.nodes}:
            replaced = replaced + (node,)
        return FunctionGraph(replaced, self.arcs)


def attach(fg: FunctionGraph, node_id: str, sol: CtmdpSolution,
           m: Ctmdp, t_area: dict[str, float]) -> FunctionGraph:
    """Give a node the occupation-weighted mixture of its column makespans.

    `t_area` maps each CTMDP state to the makespan of its schedule-table
    column; the node's capability is the LP objective (expected cars per
    table period).
    """
    if sol.status != "optimal":
        raise ValueError(f"cannot attach a non-optimal solution ({sol.status})")
    mass: dict[float, float] = {}
    for state in m.states:
        p = sol.state_mass(state)
        if p <= 0:
            continue
        value = t_area[state]
        mass[value] = mass.get(value, 0.0) + p
    total = sum(mass.values())
    dist = PerfDistribution.from_dict({v: p / total for v, p in mass.items()})
    return fg.with_node(FgNode(node_id, dist, capability=float(sol.objective)))


def evaluate(fg: FunctionGraph) -> dict[str, tuple[PerfDistribution, float]]:
    """Exact end-to-end completion distribution and expectation per sink.

    Node durations are independent; the completion of a node is its own
    duration plus the maximum completion of its predecessors (series arcs
    therefore convolve, parallel joins take the maximum).  Evaluated by
    exhaustive enumeration of the joint duration support, which stays
    exact even when branches share ancestors.

    The support is enumerated in lexicographic order (the last node in
    topological order varies fastest), in blocks of at most about
    `BLOCK_POINTS` points: the leading nodes are walked one combination
    at a time and the trailing ones are broadcast.  A point's probability
    is the product of its node probabilities taken left to right, and
    each sink value's mass adds the point probabilities in enumeration
    order, so every sum keeps the association of a point-by-point loop.
    A block's sink values find their mass slots through one sort
    (`np.unique`) and a slot lookup per distinct value.  Equal values
    share a slot as dict keys would: completions are finite and never
    -0.0, being +0.0 or a predecessor maximum plus a duration.
    """
    order = _toposort([n.id for n in fg.nodes], fg.arcs)
    if not order:
        return {}
    preds: dict[str, list[str]] = {n.id: [] for n in fg.nodes}
    for a, b in fg.arcs:
        preds[b].append(a)
    supports = [fg.node(n).dist.points for n in order]
    sizes = [len(s) for s in supports]
    joint = 1
    for size in sizes:
        joint *= size
    if joint > MAX_JOINT_SUPPORT:
        raise ValueError(f"joint support of {joint} points is too large to enumerate")

    split = len(order) - 1  # nodes order[split:] are broadcast in a block
    block = sizes[split]
    while split > 0 and block * sizes[split - 1] <= BLOCK_POINTS:
        split -= 1
        block *= sizes[split]
    inner_values, inner_probs = [], []
    for axis, points in enumerate(supports[split:]):
        shape = [1] * (len(order) - split)
        shape[axis] = len(points)
        inner_values.append(np.array([v for v, _ in points], dtype=float).reshape(shape))
        inner_probs.append(np.array([p for _, p in points], dtype=float).reshape(shape))

    sinks = fg.sinks()
    slots: dict[str, dict[float, int]] = {s: {} for s in sinks}
    masses = {s: np.zeros(0) for s in sinks}
    for combo in itertools.product(*supports[:split]):
        prob = 1.0
        duration = {}
        for node_id, (value, p) in zip(order, combo):
            prob *= p
            duration[node_id] = value
        for p in inner_probs:
            prob = prob * p
        duration.update(zip(order[split:], inner_values))
        completion = {}
        for node_id in order:
            base = 0.0
            if preds[node_id]:
                base = functools.reduce(np.maximum, (completion[q] for q in preds[node_id]))
            completion[node_id] = base + duration[node_id]
        prob = prob.ravel()
        live = prob != 0.0
        prob = prob[live]
        for sink in sinks:
            values = np.broadcast_to(completion[sink], sizes[split:]).ravel()[live]
            distinct, inverse = np.unique(values, return_inverse=True)
            index = slots[sink]
            table = np.array([index.setdefault(v, len(index)) for v in distinct.tolist()],
                             dtype=np.intp)
            if len(index) > len(masses[sink]):
                masses[sink] = np.concatenate(
                    [masses[sink], np.zeros(len(index) - len(masses[sink]))])
            np.add.at(masses[sink], table[inverse], prob)
    out = {}
    for sink in sinks:
        mass = dict(zip(slots[sink], masses[sink].tolist()))
        dist = PerfDistribution.from_dict(mass)
        out[sink] = (dist, dist.expectation())
    return out


@dataclass(frozen=True)
class GoalAllocation:
    """Per-node throughput targets (cars per period) and deadlines."""

    targets: tuple[tuple[str, int], ...]
    deadlines: tuple[tuple[str, float], ...]

    def target(self, node_id: str) -> int:
        return dict(self.targets)[node_id]

    def deadline(self, node_id: str) -> float:
        return dict(self.deadlines)[node_id]


class AllocationInfeasible(RuntimeError):
    """The graph has no throughput capability to distribute goals over."""


def distribute_goals(fg: FunctionGraph, target: int, deadline: float) -> GoalAllocation:
    """Split the global goal into per-node goals proportional to capability.

    Targets use largest-remainder rounding so they always sum exactly to
    the global target; deadlines scale with each node's share of the
    summed expected completion time.
    """
    if target < 0 or deadline <= 0:
        raise ValueError("need target >= 0 and deadline > 0")
    if fg.nodes and sum(n.capability for n in fg.nodes) <= 0 and target > 0:
        raise AllocationInfeasible("zero total capability")

    shares = [Fraction(n.capability).limit_denominator(10**9) for n in fg.nodes]
    total = sum(shares) or Fraction(1)
    exact = [Fraction(target) * s / total for s in shares]
    floors = [int(e) for e in exact]
    leftover = target - sum(floors)
    order = sorted(range(len(fg.nodes)),
                   key=lambda i: (exact[i] - floors[i], -i), reverse=True)
    for i in order[:leftover]:
        floors[i] += 1
    targets = {node.id: t for node, t in zip(fg.nodes, floors)}

    exp_times = {n.id: n.dist.expectation() for n in fg.nodes}
    total_time = sum(exp_times.values())
    deadlines = {}
    for n in fg.nodes:
        share = exp_times[n.id] / total_time if total_time > 0 else 1.0 / len(fg.nodes)
        deadlines[n.id] = deadline * share
    return GoalAllocation(tuple((n.id, targets[n.id]) for n in fg.nodes),
                          tuple((n.id, deadlines[n.id]) for n in fg.nodes))


def allocation_to_csv(alloc: GoalAllocation) -> str:
    lines = ["node,target,deadline"]
    deadlines = dict(alloc.deadlines)
    for node, target in alloc.targets:
        lines.append("%s,%d,%.9g" % (node, target, deadlines[node]))
    return "\n".join(lines) + "\n"


def graph_to_csv(fg: FunctionGraph) -> str:
    """Nodes with their support points and capabilities, then order arcs."""
    lines = ["kind,node,successor,value,probability,capability"]
    for n in fg.nodes:
        for value, prob in n.dist.points:
            lines.append("node,%s,,%.9g,%.9g,%.9g" % (n.id, value, prob,
                                                      n.capability))
    for a, b in fg.arcs:
        lines.append(f"arc,{a},{b},,,")
    return "\n".join(lines) + "\n"
