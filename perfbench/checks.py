"""Output checks.  Each returns a list of problems; empty means it passed.

The checks read the artifacts a run wrote and compare them with
invariants or with an independent oracle.  SciPy is used here only, never
inside timed code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

SIMULATE_DIGESTED = ("events.log", "summary.csv", "reports.csv")
OBJECTIVE_RTOL = 1e-6


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file an operation wrote, keyed by relative path."""
    found = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            found[os.path.relpath(path, out_dir)] = digest(path)
    return dict(sorted(found.items()))


def event_counts(events_path: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    with open(events_path) as fh:
        for line in fh:
            kind = line.split("\t", 1)[0]
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def check_simulate(out_dir: str, epochs: int) -> list[str]:
    """Conservation, event-log/summary agreement and one report per epoch."""
    problems = []
    paths = {name: os.path.join(out_dir, name) for name in SIMULATE_DIGESTED}
    missing = [name for name, path in paths.items() if not os.path.exists(path)]
    if missing:
        return [f"missing artifacts {missing}"]
    with open(paths["summary.csv"]) as fh:
        row = next(csv.DictReader(fh))
    summary = {k: int(row[k]) for k in ("entered", "exited", "dropped", "remaining")}
    entered, exited = summary["entered"], summary["exited"]
    if not (entered > 0 and exited > 0):
        problems.append(f"entered={entered} exited={exited}: both must be > 0")
    if entered != exited + summary["remaining"]:
        problems.append(f"entered {entered} != exited {exited} + remaining "
                        f"{summary['remaining']}")
    counts = event_counts(paths["events.log"])
    for kind, key in (("arrive", "entered"), ("depart", "exited"),
                      ("drop", "dropped")):
        if counts.get(kind, 0) != summary[key]:
            problems.append(f"events.log has {counts.get(kind, 0)} {kind} "
                            f"events, summary.csv {key}={summary[key]}")
    with open(paths["reports.csv"]) as fh:
        rows = len(fh.read().splitlines()) - 1
    expected = epochs + 1 if epochs else 0
    if rows != expected:
        problems.append(f"reports.csv has {rows} rows, expected {expected}")
    return problems


def check_schedule(out_dir: str, ctg_path: str) -> list[str]:
    """Every column present; precedence and shared-resource exclusion hold."""
    from civitas import ctg as ctgmod
    with open(ctg_path) as fh:
        ctg = ctgmod.load_ctg(fh.read())
    columns: dict[str, dict[str, tuple[float, float, set]]] = {}
    with open(os.path.join(out_dir, "schedule_table.csv")) as fh:
        for row in csv.DictReader(fh):
            columns.setdefault(row["scenario"], {})[row["task"]] = (
                float(row["start"]), float(row["finish"]),
                set(filter(None, row["resource"].split(";"))))
    problems = []
    expected = 2 ** len(ctg.sites)
    if len(columns) != expected:
        problems.append(f"{len(columns)} schedule columns, expected {expected}")
    for scenario, tasks in columns.items():
        for a, b in ctg.arcs:
            if a in tasks and b in tasks and tasks[a][1] > tasks[b][0] + 1e-9:
                problems.append(f"{scenario}: {b} starts before {a} finishes")
        shared = sorted((s, f) for s, f, res in tasks.values()
                        if res & ctg.shared_resources)
        for (s0, f0), (s1, _) in zip(shared, shared[1:]):
            if s1 < f0 - 1e-9:
                problems.append(f"{scenario}: shared resource overlap at {s1:g}")
    return problems


def _ctmdp_model(ctg_path: str, shifts_path: str):
    from civitas import ctg as ctgmod, ctmdp as ctmdpmod
    with open(ctg_path) as fh:
        ctg = ctgmod.load_ctg(fh.read())
    table = ctgmod.build_table(ctg)
    log = ctmdpmod.ShiftLog()
    with open(shifts_path, newline="") as fh:
        for row in csv.DictReader(fh):
            log.record(row["state"], row["action"], float(row["dwell"]),
                       row.get("next") or None)
    return ctmdpmod.from_schedule_tables([table], log)


def highs_objective(ctg_path: str, shifts_path: str) -> float:
    """Optimal objective of the same occupation LP, solved by HiGHS."""
    from scipy.optimize import linprog
    from civitas import ctmdp as ctmdpmod
    lp = ctmdpmod.build_lp(_ctmdp_model(ctg_path, shifts_path))
    kwargs = {}
    if lp.ge_lhs.size:
        kwargs.update(A_ub=-lp.ge_lhs, b_ub=-lp.ge_rhs)
    res = linprog(-lp.objective, A_eq=lp.eq_lhs, b_eq=lp.eq_rhs,
                  bounds=(0, None), method="highs", **kwargs)
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the LP: {res.message}")
    return float(-res.fun)


def ctmdp_objective(out_dir: str, ctg_path: str, shifts_path: str) -> float:
    """Objective of the occupation measure the program wrote."""
    m = _ctmdp_model(ctg_path, shifts_path)
    reward = {(s, a): m.rewards[0, i, j] for i, s in enumerate(m.states)
              for j, a in enumerate(m.actions)}
    total = 0.0
    with open(os.path.join(out_dir, "ctmdp_solution.csv")) as fh:
        for row in csv.DictReader(fh):
            total += float(row["x"]) * reward[(row["i"], row["a"])]
    return total


def check_fuzzy(out_dir: str, params: tuple[float, float, float], n: int,
                rng: np.random.Generator, samples: int = 40) -> list[str]:
    """Row count, then sampled grid points against pointwise fuzzy.control."""
    from civitas import fuzzy
    with open(os.path.join(out_dir, "surface.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    if len(rows) != n * n:
        return [f"surface.csv has {len(rows)} rows, expected {n * n}"]
    fp = fuzzy.FuzzyParams.uniform(*params)
    i_axis = np.linspace(0.0, fp.i.MI, n)
    d_axis = np.linspace(0.0, fp.d.MI, n)
    problems = []
    for idx in rng.choice(n * n, size=samples, replace=False):
        a, b = divmod(int(idx), n)
        u = float(rows[int(idx)].split(",")[2])
        want = fuzzy.control(float(i_axis[a]), float(d_axis[b]), fp)
        if abs(u - want) > 1e-8 * max(1.0, abs(want)):
            problems.append(f"surface[{a},{b}]={u!r}, control gives {want!r}")
    return problems


def check_fgraph(sinks_csv: str, graph_json: str) -> list[str]:
    """One distribution per sink node, each summing exactly to 1."""
    with open(graph_json) as fh:
        graph = json.load(fh)
    with_out = {a for a, _ in graph["arcs"]}
    sinks = {n["id"] for n in graph["nodes"]} - with_out
    mass: dict[str, float] = {}
    with open(sinks_csv) as fh:
        for row in csv.DictReader(fh):
            mass[row["sink"]] = mass.get(row["sink"], 0.0) + float(row["probability"])
    problems = []
    if set(mass) != sinks:
        problems.append(f"sinks {sorted(mass)} != graph sinks {sorted(sinks)}")
    for sink, total in sorted(mass.items()):
        if abs(total - 1.0) > 1e-12:
            problems.append(f"sink {sink} mass sums to {total!r}")
    return problems


def check_flexibility(out_dir: str, job_path: str) -> list[str]:
    """The Monte Carlo share, recomputed with the same stream in numpy."""
    from civitas.textfmt import parse_sections
    with open(job_path) as fh:
        sec = parse_sections(fh.read())[0]
    box = [item.split(":") for item in sec.get_list("attrs")]
    lows = np.array([float(lo) for _, lo, _ in box])
    highs = np.array([float(hi) for _, _, hi in box])
    attr, _, bound = sec.require("rule").partition("<=")
    col = [name for name, _, _ in box].index(attr.strip())
    n = sec.get_int("n")
    rng = np.random.default_rng(sec.get_int("seed"))
    samples = rng.uniform(lows, highs, size=(n, len(box)))
    want = "%.9g" % (np.count_nonzero(samples[:, col] <= float(bound)) / n)
    with open(os.path.join(out_dir, "metrics.csv")) as fh:
        rows = [r for r in csv.DictReader(fh) if r["metric"] == "flexibility"]
    if len(rows) != 1 or rows[0]["value"] != want:
        return [f"flexibility rows {rows}, expected value {want}"]
    return []


def check_classify(out_dir: str, registry_path: str) -> list[str]:
    """One classified row per [link] section, each of a known kind."""
    with open(registry_path) as fh:
        links = sum(1 for line in fh if line.startswith("[link "))
    with open(os.path.join(out_dir, "interactions.csv")) as fh:
        rows = list(csv.DictReader(fh))
    kinds = {"Collaborative", "Competing", "Guiding", "Enabling"}
    problems = []
    if len(rows) != links:
        problems.append(f"{len(rows)} classified links, registry has {links}")
    bad = [r for r in rows if r["kind"] not in kinds]
    if bad:
        problems.append(f"unknown interaction kinds {bad[:3]}")
    return problems
