"""Two-level ambient lighting controller.

The zone-level controller is a Mamdani loop: fuzzify crisp illumination
and traffic-density readings into small/medium/big degrees, run max-min
inference over a 3x3 rule base, and defuzzify the aggregated output set
with the centroid method.  The upper level adapts the membership
parameters from closed-loop feedback by bounded exponential smoothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

LABELS = ("S", "M", "B")

# Samples on the command universe [0, a_uMI]; 1201 points gives a 0.001
# step on the default universe [0, 1.2].
OUTPUT_RESOLUTION = 1201


@dataclass(frozen=True)
class ParamRow:
    """Membership parameters (medium, maximum, limited maximum) of one variable."""

    m: float
    M: float
    MI: float

    def __post_init__(self):
        if not (0 < self.m < self.M <= self.MI and math.isfinite(self.MI)):
            raise ValueError(f"need 0 < m < M <= MI < inf, got {(self.m, self.M, self.MI)}")


@dataclass(frozen=True)
class FuzzyParams:
    """3x3 parameter matrix: one row per variable i, d, u."""

    i: ParamRow
    d: ParamRow
    u: ParamRow

    @classmethod
    def uniform(cls, m: float, M: float, MI: float) -> "FuzzyParams":
        row = ParamRow(m, M, MI)
        return cls(row, row, row)


@dataclass(frozen=True)
class MembershipDegrees:
    mu_s: float
    mu_m: float
    mu_b: float

    def __post_init__(self):
        for v in (self.mu_s, self.mu_m, self.mu_b):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"membership degree {v} outside [0, 1]")

    def __getitem__(self, label: str) -> float:
        return {"S": self.mu_s, "M": self.mu_m, "B": self.mu_b}[label]


@dataclass(frozen=True)
class RuleBase:
    """Mapping (i label, d label) -> u label; all nine cells defined."""

    cells: tuple[tuple[str, str, str], ...]  # rows i = B, M, S over d = S, M, B

    def __post_init__(self):
        if len(self.cells) != 3 or any(len(r) != 3 for r in self.cells):
            raise ValueError("rule base must be 3x3")
        for row in self.cells:
            for label in row:
                if label not in LABELS:
                    raise ValueError(f"unknown output label {label!r}")

    def output_label(self, i_label: str, d_label: str) -> str:
        row = {"B": 0, "M": 1, "S": 2}[i_label]
        col = {"S": 0, "M": 1, "B": 2}[d_label]
        return self.cells[row][col]


#: Default rule base: dim when bright, brighten when dark, scale with traffic.
DEFAULT_RULES = RuleBase((
    ("S", "S", "S"),   # i = B
    ("S", "M", "M"),   # i = M
    ("M", "B", "B"),   # i = S
))


def fuzzify(x: float, row: ParamRow) -> MembershipDegrees:
    """Degrees of small/medium/big for a crisp value on [0, MI].

    Shapes: S is a falling shoulder hitting zero at m, B rises on [m, M]
    and saturates at 1 up to MI, and M is the complement 1 - S - B, which
    makes the three degrees partition unity on [0, M] exactly.
    """
    if not 0 <= x <= row.MI:
        raise ValueError(f"input {x} outside universe [0, {row.MI}]")
    deg = membership_grid(row, np.array([x], dtype=float))
    return MembershipDegrees(*(float(deg[label][0]) for label in LABELS))


def membership_grid(row: ParamRow, grid: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorised membership functions sampled on `grid`."""
    mu_s = np.maximum(0.0, (row.m - grid) / row.m)
    mu_b = np.clip((grid - row.m) / (row.M - row.m), 0.0, 1.0)
    mu_b[grid >= row.M] = 1.0
    mu_m = np.where(grid <= row.M, (1.0 - mu_s) - mu_b, 0.0)
    return {"S": mu_s, "M": np.clip(mu_m, 0.0, 1.0), "B": mu_b}


def _commands(deg_i, deg_d, rules: RuleBase, u_row: ParamRow,
              resolution: int) -> np.ndarray:
    """Centroid command for each pair of input degrees, like `control`.

    `deg_i[label]` and `deg_d[label]` are degrees (`MembershipDegrees`, or
    dicts of arrays that broadcast against each other).  The output terms
    S, M and B are singletons at 0, m and M, each on the nearest of
    `resolution` samples of [0, MI]: a clipped asymmetric shape would
    shift its centroid with the activation level and put humps into the
    surface where neighbouring rules share a label.  A pair's aggregated
    output set is therefore zero except at the spike samples, and its
    centroid is the weighted mean of those (at most three) sample points.
    A spike's weight is the max activation of the rules whose output label
    snaps onto it: labels whose singletons round to the same sample merge
    by max, as in the sampled set.  (`tests/replay.py` keeps the sampled
    max-min inference and centroid as the oracle.)
    """
    grid = np.linspace(0.0, u_row.MI, resolution)
    step = grid[1] - grid[0]
    spike = {label: int(round(c / step))
             for label, c in (("S", 0.0), ("M", u_row.m), ("B", u_row.M))}
    weights = {}
    for i_label in ("B", "M", "S"):
        for d_label in ("S", "M", "B"):
            k = spike[rules.output_label(i_label, d_label)]
            weights[k] = np.maximum(weights.get(k, 0.0),
                                    np.minimum(deg_i[i_label], deg_d[d_label]))
    spikes = sorted(weights.items())
    total = sum(w for _, w in spikes)
    moment = sum(grid[k] * w for k, w in spikes)
    empty = total == 0.0
    return np.where(empty, grid[-1] / 2.0, moment / np.where(empty, 1.0, total))


def control(i: float, d: float, params: FuzzyParams,
            rules: RuleBase = DEFAULT_RULES,
            resolution: int = OUTPUT_RESOLUTION) -> float:
    """Crisp command for crisp inputs: fuzzify, max-min inference over the
    rule base, centroid of the aggregated output set."""
    deg_i = fuzzify(i, params.i)
    deg_d = fuzzify(d, params.d)
    return float(_commands(deg_i, deg_d, rules, params.u, resolution))


def surface(params: FuzzyParams, rules: RuleBase = DEFAULT_RULES,
            n: int = 121, resolution: int = OUTPUT_RESOLUTION) -> np.ndarray:
    """Command sampled on the uniform n x n grid over the input universes.

    Returns an (n, n) array with rows indexed by i and columns by d; entry
    (a, b) equals `control(i_axis[a], d_axis[b], ...)` exactly.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    deg_i = membership_grid(params.i, np.linspace(0.0, params.i.MI, n))
    deg_d = membership_grid(params.d, np.linspace(0.0, params.d.MI, n))
    return _commands({x: deg_i[x][:, None] for x in LABELS}, deg_d, rules,
                     params.u, resolution)


@dataclass(frozen=True)
class LampFeedback:
    """Closed-loop report used by the upper-level parameter adaptation."""

    target_illumination: float
    achieved_illumination: float
    over_energy_budget: bool = False


# Per-update relative step bound for the smoothing law.
LCU_MAX_STEP = 0.05
LCU_GAIN = 0.5


def lcu_update(params: FuzzyParams, feedback: LampFeedback) -> FuzzyParams:
    """Adapt the command-row parameters toward zero illumination error.

    The relative adjustment is an exponentially smoothed error signal
    clamped to +/-5% per update; an update that would break the row
    ordering invariant is clamped instead of applied.
    """
    if feedback.target_illumination <= 0:
        raise ValueError("target illumination must be > 0")
    err = (feedback.target_illumination - feedback.achieved_illumination)
    rel = err / feedback.target_illumination
    if feedback.over_energy_budget and rel > 0:
        rel = 0.0  # never push brighter while over budget
    step = max(-LCU_MAX_STEP, min(LCU_MAX_STEP, LCU_GAIN * rel))
    if step == 0.0:
        return params
    u = params.u
    new_m = u.m * (1.0 + step)
    new_M = u.M * (1.0 + step)
    # Clamp into the ordering invariant 0 < m < M <= MI.
    new_M = min(new_M, u.MI)
    new_m = min(new_m, new_M * (u.m / u.M))
    if not 0 < new_m < new_M <= u.MI:
        return params
    return replace(params, u=ParamRow(new_m, new_M, u.MI))
