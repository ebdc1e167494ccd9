"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` (or nothing, when the
input is fixed) and returns file text, so the same seed gives
byte-identical inputs.  The program under test only ever sees the files.
"""

from __future__ import annotations

import csv
import io
import itertools
import json

import numpy as np

GRID_CYCLE = (30.0, 5.0, 25.0)  # green, yellow, red of every grid signal
GRID_SPACING = 100.0
GRID_SPEED = 10.0
GRID_RATE = 0.05

TWIN_RATES = {"s1": 0.15, "s3": 0.04, "s5": 0.03, "s6": 0.05, "s8": 0.03}

# (sites, actions) per rung of the CTMDP ladder: 16x3, 32x2, 32x3, 64x2.
CTMDP_LADDER = ((4, 3), (5, 2), (5, 3), (6, 2))
LADDER_SEED = 0
SCHEDULE_SITES = 6
FGRAPH_NODES = 7
FGRAPH_SUPPORT = 5


def _section(kind: str, name: str, **values) -> str:
    lines = [f"[{kind} {name}]"]
    lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def grid_network(k: int, rng: np.random.Generator) -> str:
    """k x k signalized grid; 2k(k-1) two-way links plus 4k entries and exits.

    East-west segments use approach 1 and north-south segments approach 2.
    Every entry starts at its own source node and every exit ends at its
    own sink node, as the network validator requires.  Signal offsets are
    drawn from `rng`.
    """
    green, yellow, red = GRID_CYCLE
    cycle = green + yellow + red
    out = ["# Generated k x k signalized grid.\n"]

    def g(r: int, c: int) -> str:
        return f"g{r}_{c}"

    for r, c in itertools.product(range(k), range(k)):
        out.append(_section("intersection", g(r, c), signalized="true"))
    sides = ("w", "e", "n", "s")
    for side, i in itertools.product(sides, range(k)):
        out.append(_section("intersection", f"src_{side}{i}"))
        out.append(_section("intersection", f"snk_{side}{i}"))

    def seg(sid, a, b, approach=None, **flags):
        values = {"from": a, "to": b, "length": GRID_SPACING,
                  "speed": GRID_SPEED}
        if approach is not None:
            values["approach"] = approach
        values.update({key: "true" for key in flags})
        out.append(_section("segment", sid, **values))

    for r, c in itertools.product(range(k), range(k - 1)):
        seg(f"e{r}_{c}", g(r, c), g(r, c + 1), 1)
        seg(f"w{r}_{c + 1}", g(r, c + 1), g(r, c), 1)
    for r, c in itertools.product(range(k - 1), range(k)):
        seg(f"s{r}_{c}", g(r, c), g(r + 1, c), 2)
        seg(f"n{r + 1}_{c}", g(r + 1, c), g(r, c), 2)
    border = {"w": lambda i: g(i, 0), "e": lambda i: g(i, k - 1),
              "n": lambda i: g(0, i), "s": lambda i: g(k - 1, i)}
    for side, i in itertools.product(sides, range(k)):
        node = border[side](i)
        seg(f"in_{side}{i}", f"src_{side}{i}", node,
            1 if side in "we" else 2, entry=True)
        seg(f"out_{side}{i}", node, f"snk_{side}{i}", exit=True)
    offsets = rng.integers(0, int(cycle), size=k * k)
    for (r, c), offset in zip(itertools.product(range(k), range(k)), offsets):
        out.append(_section("signal", g(r, c), green=green, yellow=yellow,
                            red=red, offset=int(offset)))
    return "\n".join(out)


def grid_demand(k: int, horizon: float) -> str:
    """Constant GRID_RATE arrivals on each of the 4k entries."""
    out = []
    for side, i in itertools.product(("w", "e", "n", "s"), range(k)):
        out.append(_section("arrivals", f"in_{side}{i}",
                            windows=f"0:{horizon:g}:{GRID_RATE:g}"))
    return "\n".join(out)


def twin_demand(horizon: float) -> str:
    """Whole-horizon demand for the shipped twin network (TWIN_RATES)."""
    return "\n".join(_section("arrivals", seg, windows=f"0:{horizon:g}:{rate:g}")
                     for seg, rate in TWIN_RATES.items())


def ctg_text(sites: int, rng: np.random.Generator) -> str:
    """Zone task graph with `sites` binary condition sites.

    Each site feeds one approach task followed by a low- and a high-traffic
    crossing alternative at one of two signalized intersections; every
    crossing holds the shared link, so the list scheduler must serialise
    them with a clearance gap whenever the direction changes.
    """
    out = [_section("ctg", "Z", shared="x0", clearance=5)]
    for s in range(sites):
        out.append(_section("site", f"c{s}", segment=f"a{s}", labels="L, H",
                            thresholds=int(rng.integers(3, 9))))
    out.append(_section("task", "dT", dummy="true",
                        t_ex=int(rng.integers(5, 15))))
    for s in range(sites):
        n_lo, n_hi = int(rng.integers(1, 5)), int(rng.integers(6, 14))
        t_lo, t_hi = int(rng.integers(4, 8)), int(rng.integers(8, 14))
        out.append(_section("task", f"A{s}", site=f"c{s}", resources=f"a{s}",
                            n=f"L:{n_lo}, H:{n_hi}",
                            t_ex=f"L:{t_lo}, H:{t_hi}"))
        itu, direction = ("I0", "I1")[s % 2], 1 + (s // 2) % 2
        for label, n, t in (("L", n_lo, t_lo + 4), ("H", n_hi, t_hi + 8)):
            after = f"A{s}, dT" if s % 2 else f"A{s}"
            out.append(_section("task", f"X{s}{label}", guard=f"c{s}:{label}",
                                site=f"c{s}", resources="x0", itu=itu,
                                direction=direction, n=n, t_ex=t,
                                after=after))
    return "\n".join(out)


def state_names(sites: int) -> list[str]:
    """CTMDP state names in schedule-table column order."""
    return ["Z:(" + ",".join(combo) + ")"
            for combo in itertools.product(("L", "H"), repeat=sites)]


def shift_log(sites: int, actions: int, rng: np.random.Generator,
              epochs_per_state: int = 8, cycle: float = 60.0) -> str:
    """Shift log shaped like the one the closed loop records.

    The loop writes one row per epoch: the previous scenario, the action,
    one cycle of dwell and the scenario observed next.  Here every site
    label flips with its own probability per epoch, and the action of each
    epoch is drawn uniformly.  State names contain commas and are quoted.
    """
    names = state_names(sites)
    flip = rng.uniform(0.05, 0.4, size=sites)
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
    w.writerow(["state", "action", "dwell", "next"])
    state = 0
    for _ in range(epochs_per_state * len(names)):
        action = f"r{int(rng.integers(actions))}"
        nxt = state
        for bit in np.flatnonzero(rng.random(sites) < flip):
            nxt ^= 1 << (sites - 1 - int(bit))
        w.writerow([names[state], action, f"{cycle:g}", names[nxt]])
        state = nxt
    return buf.getvalue()


def function_graph(rng: np.random.Generator, nodes: int = FGRAPH_NODES,
                   support: int = FGRAPH_SUPPORT) -> str:
    """Acyclic function graph as JSON with dyadic node distributions.

    Values are multiples of 0.25 and probabilities multiples of 1/64, so
    every joint probability and every sink mass is exact in binary
    floating point and the sink masses must sum to exactly 1.
    """
    out_nodes = []
    for i in range(nodes):
        values = sorted(rng.choice(np.arange(4, 256), size=support,
                                   replace=False) * 0.25)
        cuts = sorted(rng.choice(np.arange(1, 64), size=support - 1,
                                 replace=False))
        probs = np.diff([0, *cuts, 64]) / 64.0
        out_nodes.append({"id": f"f{i}",
                          "points": [[float(v), float(p)]
                                     for v, p in zip(values, probs)],
                          "capability": float(rng.integers(5, 40))})
    arcs = []
    for j in range(1, nodes):
        preds = rng.choice(j, size=min(j, int(rng.integers(1, 3))),
                           replace=False)
        arcs += [[f"f{int(i)}", f"f{j}"] for i in sorted(preds)]
    return json.dumps({"nodes": out_nodes, "arcs": arcs}, indent=1) + "\n"


def flexibility_job(rng: np.random.Generator, n: int = 100_000) -> str:
    """Metrics job with one flexibility section over a 3-attribute box."""
    bound = round(float(rng.uniform(0.2, 0.8)), 3)
    return _section("flexibility", "box", attrs="a:0:1, b:0:2, c:-1:1",
                    rule=f"a <= {bound}", n=n,
                    seed=int(rng.integers(1 << 30)))
