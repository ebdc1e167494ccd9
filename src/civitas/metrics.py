"""Evaluation metrics for decision-making systems.

Five run-level measures: flexibility (feasible share of the requirement
box), scalability (resource cost of a performance step), autonomy
(integrated human effort), efficiency (average adaptive overhead) and
predictability (estimate-vs-actual error statistics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import streams


# Samples drawn, tested and counted at a time: memory is O(block), not O(n).
FLEXIBILITY_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SpecBox:
    """Requirement ranges per performance attribute."""

    ranges: tuple[tuple[str, float, float], ...]  # (attribute, low, high)

    def __post_init__(self):
        if not self.ranges:
            raise ValueError("need at least one attribute")
        for name, lo, hi in self.ranges:
            if not lo < hi:
                raise ValueError(f"attribute {name!r}: need low < high")
            if not math.isfinite(float(hi) - float(lo)):
                raise ValueError(f"attribute {name!r}: high - low is not finite")

    @classmethod
    def from_dict(cls, d: Mapping[str, tuple[float, float]]) -> "SpecBox":
        return cls(tuple((k, lo, hi) for k, (lo, hi) in d.items()))


def flexibility(feasible: Callable[[Mapping[str, np.ndarray]], np.ndarray | bool],
                box: SpecBox, n: int, seed: int) -> float:
    """Monte Carlo share of the requirement box the predicate accepts.

    The samples are those of `numpy.random.default_rng(seed).uniform(lows,
    highs, size=(n, attributes))`, drawn from `civitas.streams`
    `FLEXIBILITY_BLOCK_ROWS` rows at a time.  `feasible` is called once per
    block, on its columns: a map from each attribute to the block's sampled
    values.  It returns one truth value per sample, or a single one that
    holds for all of them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    names = [r[0] for r in box.ranges]
    lows = np.array([r[1] for r in box.ranges], dtype=float)
    widths = np.array([r[2] for r in box.ranges], dtype=float) - lows
    d = len(names)
    hits = 0
    for u in streams.default_rng(seed).doubles(n * d, FLEXIBILITY_BLOCK_ROWS * d):
        samples = lows + widths * u.reshape(-1, d)
        accepted = feasible({name: samples[:, j] for j, name in enumerate(names)})
        hits += np.count_nonzero(np.broadcast_to(accepted, (len(samples),)))
    return hits / n


def scalability(p1: float, cost1: float, p2: float, cost2: float) -> float:
    """Relative resource cost of moving performance from p1 to p2."""
    for name, v in (("p1", p1), ("cost1", cost1), ("p2", p2), ("cost2", cost2)):
        if v <= 0:
            raise ValueError(f"{name} must be > 0")
    return (p1 * cost2) / (p2 * cost1)


@dataclass(frozen=True)
class EffortField:
    """Human-effort samples at cell midpoints of a 3-D grid.

    Axes are cell-edge arrays over (performance, area, time); `values`
    has shape (len(perf)-1, len(area)-1, len(time)-1).
    """

    perf_edges: np.ndarray
    area_edges: np.ndarray
    time_edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name, edges in (("perf", self.perf_edges), ("area", self.area_edges),
                            ("time", self.time_edges)):
            if len(edges) < 2 or np.any(np.diff(edges) <= 0):
                raise ValueError(f"{name} axis must be strictly increasing with >= 2 edges")
        shape = (len(self.perf_edges) - 1, len(self.area_edges) - 1,
                 len(self.time_edges) - 1)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} != {shape}")
        if np.any(self.values < 0):
            raise ValueError("efforts must be >= 0")

    @classmethod
    def from_function(cls, f: Callable[[float, float, float], float],
                      perf: tuple[float, float], area: tuple[float, float],
                      time: tuple[float, float], shape: tuple[int, int, int]
                      ) -> "EffortField":
        axes = [np.linspace(lo, hi, k + 1)
                for (lo, hi), k in zip((perf, area, time), shape)]
        mids = [(ax[:-1] + ax[1:]) / 2.0 for ax in axes]
        values = np.empty(shape)
        for a, p in enumerate(mids[0]):
            for b, v in enumerate(mids[1]):
                for c, t in enumerate(mids[2]):
                    values[a, b, c] = f(p, v, t)
        return cls(axes[0], axes[1], axes[2], values)


def autonomy(field: EffortField) -> float:
    """Midpoint-rule triple integral of human effort over the field."""
    dp = np.diff(field.perf_edges)
    da = np.diff(field.area_edges)
    dt = np.diff(field.time_edges)
    cells = np.einsum("i,j,k->ijk", dp, da, dt)
    return float(np.sum(field.values * cells))


@dataclass(frozen=True)
class CurvePair:
    """Adaptive and single-design overhead curves on a common grid."""

    grid: np.ndarray
    adaptive: np.ndarray
    single: np.ndarray

    def __post_init__(self):
        if not (self.grid.shape == self.adaptive.shape == self.single.shape):
            raise ValueError("curves must share the sample grid")
        if len(self.grid) < 2 or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing with >= 2 points")


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def efficiency(curves: CurvePair) -> float:
    """Average overhead of the adaptive curve over the performance range."""
    width = float(curves.grid[-1] - curves.grid[0])
    diff = curves.adaptive - curves.single
    return float(_trapezoid(diff, curves.grid) / width)


@dataclass(frozen=True)
class PredictabilityReport:
    max_abs_error: float
    rmse: float
    within_limit: bool


def predictability(records: Sequence[tuple[float, float]],
                   limit: float) -> PredictabilityReport:
    """Error statistics of (estimated, actual) pairs against a tolerance."""
    if not records:
        raise ValueError("need at least one (estimated, actual) record")
    errors = [abs(e - a) for e, a in records]
    max_abs = max(errors)
    rmse = math.sqrt(sum(e * e for e in errors) / len(errors))
    return PredictabilityReport(max_abs, rmse, max_abs <= limit)
