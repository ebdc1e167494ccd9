"""Self-time arithmetic over the span arrays a traced run writes.

A span's self time is its duration minus the durations of its direct
children.  Calls in one process are strictly nested, so the children of
a span never overlap and the subtraction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The civitas modules a traced run wraps; span names are "<layer>.<function>".
LAYERS = ("world", "fsm", "ctg", "ctmdp", "simplex", "fgraph", "hierarchy",
          "registry", "fuzzy", "metrics", "textfmt", "cli")


@dataclass
class LayerSplit:
    self_s: dict[str, float]   # span name -> summed self time
    calls: dict[str, int]      # span name -> number of spans
    covered_s: float           # summed duration of the root spans
    min_self_s: float          # most negative self time of any one span


def self_times(names, name_id, parent, start, end) -> LayerSplit:
    """Per-name self time and call count of one run's spans.

    `parent[i]` is the index of span i's enclosing span, or -1 for a root.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - child
    per_name = np.bincount(name_id, weights=own, minlength=len(names))
    calls = np.bincount(name_id, minlength=len(names))
    return LayerSplit({n: float(per_name[i]) for i, n in enumerate(names)},
                      {n: int(calls[i]) for i, n in enumerate(names)},
                      float(dur[~nested].sum()),
                      float(own.min()) if len(own) else 0.0)


def load(path: str) -> tuple[LayerSplit, dict]:
    """Self times of a span archive plus its raw arrays."""
    with np.load(path) as data:
        raw = {key: data[key] for key in data.files}
    split = self_times(list(raw["names"]), raw["name_id"], raw["parent"],
                       raw["start"], raw["end"])
    return split, raw


def calls_under(raw: dict, name: str, parent_name: str) -> int:
    """Number of `name` spans whose direct parent is a `parent_name` span."""
    names = list(raw["names"])
    if name not in names or parent_name not in names:
        return 0
    nid, pid = names.index(name), names.index(parent_name)
    mask = (raw["name_id"] == nid) & (raw["parent"] >= 0)
    return int(np.sum(raw["name_id"][raw["parent"][mask]] == pid))
