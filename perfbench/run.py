#!/usr/bin/env python3
"""Closed-loop benchmark of civitas: three workloads, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload twin_hier_4h --seed 1 --seconds 40 --trace 0

Inputs are generated from ``--seed`` into ``.perfbench/<workload>/``.
Each measured run starts a fresh single-threaded interpreter
(``perfbench/child.py``) that calls ``civitas.cli.main`` on the generated
files.  Runs repeat while the next one still fits in ``--seconds`` (at
least three untraced), and every figure is the median over them; the
times the gate uses are rescaled to a reference host speed measured
around each run (see ``calibration_s``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced runs and
prints the per-layer split.  A human-readable report comes first; the
last line of standard output is one JSON object for tools.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
DATA = SRC / "civitas" / "data"
MIN_UNTRACED = 3
REP_TIMEOUT_S = 150.0
# The reference speed of setup_s and run_s: the one at which the
# calibration work (calibration_s) takes this many seconds.
CALIBRATION_REFERENCE_S = 0.5

TWIN_HORIZON, TWIN_DT, TWIN_CYCLE = 14400.0, 0.1, 60.0
GRID_K, GRID_HORIZON, GRID_DT = 8, 600.0, 0.1
FUZZY_PARAMS, FUZZY_N = (0.5, 1.0, 1.2), 121

# Self-time metrics of single functions, reported for every workload.
SELF_TIMED = (
    "fsm.state_at", "world.step", "world.make_world", "world.observe_cycle",
    "world.write_event_log", "cli._write", "hierarchy.reconcile",
    "fsm.apply_timing_constraints", "ctg.derive_timing_constraints",
    "fgraph.distribute_goals", "ctmdp.from_schedule_tables",
    "ctmdp.solve_model", "simplex.solve", "ctg.schedule", "fuzzy.surface",
    "fgraph.evaluate", "metrics.flexibility", "registry.classify",
    "textfmt.parse_sections",
)
CALL_COUNTED = ("fsm.state_at", "world.step", "world.observe_cycle",
                "hierarchy.reconcile", "simplex.solve", "registry.link_kind")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing source, a run timed out)."""


@dataclass
class Outcome:
    op: str
    status: str = "ok"   # ok | exit (non-zero exit) | wrong (a check failed)
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


@dataclass
class Rep:
    traced: bool
    codes: list[int]
    run_s: float
    setup_s: float | None = None
    sim_rate: float | None = None
    peak_rss_mb: float = 0.0
    calibration_s: float | None = None
    epoch_ms: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    outcomes: list[Outcome] = field(default_factory=list)


# --------------------------------------------------------------------------
# Workloads: inputs from the seed, the operations of one run, their checks.

class Workload:
    name = ""
    setup_end = ""

    def __init__(self, inputs: Path, seed: int):
        self.inputs = inputs
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def ops(self, rep_dir: Path) -> list[dict]:
        raise NotImplementedError

    def check(self, rep_dir: Path, codes: list[int]) -> list[Outcome]:
        raise NotImplementedError

    def trace_checks(self, layers: dict, raw: dict) -> list[str]:
        return []


def error_lines(stderr_path: Path) -> list[str]:
    """The one failure message the CLI prints per failed command, in order."""
    out = []
    for line in stderr_path.read_text().splitlines():
        for marker in ("runtime failure: ", "civitas: error: "):
            if marker in line:
                out.append(line.split(marker, 1)[1])
    return out


class Simulate(Workload):
    setup_end = "world.step"
    horizon = dt = 0.0
    epochs = controllers = 0

    def argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def ops(self, rep_dir):
        return [{"name": "simulate", "kind": "cli", "dir": "out",
                 "argv": self.argv(rep_dir / "out")}]

    @property
    def ticks(self) -> int:
        return int(round(self.horizon / self.dt))

    def check(self, rep_dir, codes):
        if codes[0] != 0:
            message = (error_lines(rep_dir / "stderr.txt") or ["no message"])[0]
            return [Outcome("simulate", "exit", f"exit {codes[0]} ({message})")]
        problems = checks.check_simulate(str(rep_dir / "out"), self.epochs)
        return [Outcome("simulate", "wrong" if problems else "ok",
                        "; ".join(problems))]

    def trace_checks(self, layers, raw):
        want = {"world.step_calls": self.ticks,
                "world.observe_cycle_calls": 3 * self.epochs,
                "hierarchy.reconcile_calls": self.epochs + 1 if self.epochs else 0,
                "ctmdp.solve_model_calls": self.epochs // 5}
        problems = [f"{k}={layers.get(k)} expected {v}"
                    for k, v in want.items() if layers.get(k) != v]
        tick_states = spans.calls_under(raw, "fsm.state_at", "cli.run_simulation")
        if tick_states != self.ticks * self.controllers:
            problems.append(f"tick-loop state_at calls {tick_states}, expected "
                            f"{self.ticks * self.controllers}")
        return problems


class TwinHier4h(Simulate):
    name = "twin_hier_4h"
    horizon, dt = TWIN_HORIZON, TWIN_DT
    epochs = int(round(TWIN_HORIZON / TWIN_DT)) // int(round(TWIN_CYCLE / TWIN_DT))
    controllers = 2

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        (inputs / "twin.demand").write_text(gen.twin_demand(self.horizon))

    def argv(self, out):
        return ["simulate", "--network", str(DATA / "twin.network"),
                "--demand", str(self.inputs / "twin.demand"),
                "--ctg", str(DATA / "twin.ctg"), "--mode", "hierarchical",
                "--horizon", f"{self.horizon:g}", "--dt", f"{self.dt:g}",
                "--seed", str(self.seed), "--out", str(out)]


class Grid8Fixed(Simulate):
    name = "grid8_fixed"
    horizon, dt = GRID_HORIZON, GRID_DT
    controllers = GRID_K * GRID_K

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        (inputs / "grid.network").write_text(gen.grid_network(GRID_K, self.rng))
        (inputs / "grid.demand").write_text(gen.grid_demand(GRID_K, self.horizon))

    def argv(self, out):
        return ["simulate", "--network", str(self.inputs / "grid.network"),
                "--demand", str(self.inputs / "grid.demand"), "--mode", "fixed",
                "--horizon", f"{self.horizon:g}", "--dt", f"{self.dt:g}",
                "--seed", str(self.seed), "--out", str(out)]


class OfflinePlan(Workload):
    name = "offline_plan"
    setup_end = "ctg.schedule"

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        # The CTMDP ladder is one fixed instance.  Bland's rule takes from a
        # few hundred to over 10 000 pivots on LPs of one size, so a ladder
        # drawn per seed moves run_s by 25-50 % between seeds (see README).
        ladder_rng = np.random.default_rng(gen.LADDER_SEED)
        self.rungs = []
        ctgs = {}
        for sites, actions in gen.CTMDP_LADDER:
            if sites not in ctgs:
                ctgs[sites] = inputs / f"ladder_z{sites}.ctg"
                ctgs[sites].write_text(gen.ctg_text(sites, ladder_rng))
            shifts = inputs / f"ladder_{2 ** sites}x{actions}.csv"
            shifts.write_text(gen.shift_log(sites, actions, ladder_rng))
            self.rungs.append((f"ctmdp_{2 ** sites}x{actions}", ctgs[sites], shifts))
        self.schedule_ctg = inputs / f"schedule_z{gen.SCHEDULE_SITES}.ctg"
        self.schedule_ctg.write_text(gen.ctg_text(gen.SCHEDULE_SITES, self.rng))
        self.graph = inputs / "fgraph.json"
        self.graph.write_text(gen.function_graph(self.rng))
        self.job = inputs / "flexibility.job"
        self.job.write_text(gen.flexibility_job(self.rng))
        self.registry = DATA / "city.registry"
        self.check_seed = int(self.rng.integers(1 << 30))
        self._highs: dict[str, float | str] = {}

    def ops(self, rep_dir):
        """Each op writes into rep_dir / its name."""
        def cli(name, *argv):
            return {"name": name, "kind": "cli", "dir": name,
                    "argv": [*argv, "--out", str(rep_dir / name)]}
        fuzzy_params = ",".join(f"{x:g}" for x in FUZZY_PARAMS)
        return [
            cli("schedule", "schedule", "--ctg", str(self.schedule_ctg)),
            *(cli(name, "ctmdp", "--ctg", str(ctg), "--shifts", str(shifts))
              for name, ctg, shifts in self.rungs),
            cli("fuzzy-surface", "fuzzy-surface", fuzzy_params, str(FUZZY_N)),
            {"name": "fgraph.evaluate", "kind": "fgraph", "dir": "fgraph.evaluate",
             "graph": str(self.graph),
             "out": str(rep_dir / "fgraph.evaluate" / "sinks.csv")},
            cli("metrics", "metrics", "--job", str(self.job)),
            cli("classify", "classify", "--registry", str(self.registry)),
        ]

    def highs(self, name, ctg, shifts):
        if name not in self._highs:
            try:
                self._highs[name] = checks.highs_objective(str(ctg), str(shifts))
            except RuntimeError as exc:
                self._highs[name] = str(exc)
        return self._highs[name]

    def check(self, rep_dir, codes):
        ops = self.ops(rep_dir)
        errors = iter(error_lines(rep_dir / "stderr.txt"))
        outcomes = []
        for op, code in zip(ops, codes):
            name = op["name"]
            if code != 0:
                detail = f"exit {code} ({next(errors, 'no message')})"
                rung = next((r for r in self.rungs if r[0] == name), None)
                if rung is not None:
                    ref = self.highs(*rung)
                    detail += (f"; HiGHS optimum {ref:.9g}" if isinstance(ref, float)
                               else f"; {ref}")
                outcomes.append(Outcome(name, "exit", detail))
                continue
            problems = []
            if name == "schedule":
                problems = checks.check_schedule(str(rep_dir / name),
                                                 str(self.schedule_ctg))
            elif name.startswith("ctmdp_"):
                _, ctg, shifts = next(r for r in self.rungs if r[0] == name)
                ref = self.highs(name, ctg, shifts)
                got = checks.ctmdp_objective(str(rep_dir / name), str(ctg),
                                             str(shifts))
                if not isinstance(ref, float):
                    problems = [f"objective {got:.9g} but {ref}"]
                elif abs(got - ref) > checks.OBJECTIVE_RTOL * max(1.0, abs(ref)):
                    problems = [f"objective {got:.9g}, HiGHS optimum {ref:.9g}"]
            elif name == "fuzzy-surface":
                problems = checks.check_fuzzy(
                    str(rep_dir / name), FUZZY_PARAMS, FUZZY_N,
                    np.random.default_rng(self.check_seed))
            elif name == "fgraph.evaluate":
                problems = checks.check_fgraph(str(rep_dir / name / "sinks.csv"),
                                               str(self.graph))
            elif name == "metrics":
                problems = checks.check_flexibility(str(rep_dir / name), str(self.job))
            elif name == "classify":
                problems = checks.check_classify(str(rep_dir / name),
                                                 str(self.registry))
            outcomes.append(Outcome(name, "wrong" if problems else "ok",
                                    "; ".join(problems)))
        return outcomes

    def trace_checks(self, layers, raw):
        columns = 2 ** gen.SCHEDULE_SITES + sum(2 ** s for s, _ in gen.CTMDP_LADDER)
        want = {"ctg.schedule_calls": columns,
                "simplex.solve_calls": len(gen.CTMDP_LADDER),
                "fuzzy.surface_calls": 1, "fgraph.evaluate_calls": 1,
                "metrics.flexibility_calls": 1, "world.step_calls": 0}
        return [f"{k}={layers.get(k)} expected {v}"
                for k, v in want.items() if layers.get(k) != v]


WORKLOADS = {cls.name: cls for cls in (TwinHier4h, Grid8Fixed, OfflinePlan)}


# --------------------------------------------------------------------------
# Running one measured run in a fresh interpreter.

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def epoch_latencies(observe: list[float], reconciled: list[float]) -> list[float]:
    """ms from the first observe_cycle of each epoch to its reconcile return.

    The reconcile at t = 0 has no observation before it and is skipped.
    """
    out, i = [], 0
    for end in reconciled:
        first = None
        while i < len(observe) and observe[i] < end:
            first = observe[i] if first is None else first
            i += 1
        if first is not None:
            out.append((end - first) * 1e3)
    return out


class _Vehicle:
    __slots__ = ("pos", "speed", "seg")

    def __init__(self, i: int):
        self.pos, self.speed, self.seg = 0.0, 1.0 + (i % 5) * 0.1, i % 37


def calibration_s(rounds: int = 240_000) -> float:
    """Seconds a fixed piece of pure-Python work takes now.

    On a shared 2-vCPU host the cores' speed drifts by up to about 30 %
    over minutes, which moves the median of a whole invocation; timing
    this work around each run lets the gated times be rescaled to one
    speed (see README "Noise").  The work mimics the simulator's mix
    (attribute updates, dict counts, list appends, string formatting,
    sorting) and uses nothing from civitas, so a change to the program
    leaves it alone.
    """
    vehicles = [_Vehicle(i) for i in range(200)]
    counts: dict[int, int] = {}
    log: list[str] = []
    gc.disable()
    try:
        t0 = time.perf_counter()
        for t in range(rounds):
            for v in vehicles[t % 7::7]:
                v.pos += v.speed * 0.1
                if v.pos > 10.0:
                    v.pos, v.seg = 0.0, (v.seg + 3) % 37
                    counts[v.seg] = counts.get(v.seg, 0) + 1
                    log.append(f"{t} {v.seg} {v.pos:.2f}")
            if t % 1000 == 0:
                log.sort()
                del log[:-100]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def reference_time(seconds: float | None, calibration: float) -> float | None:
    """Wall `seconds` rescaled to the host speed at which the calibration
    work takes CALIBRATION_REFERENCE_S."""
    return None if seconds is None else seconds * CALIBRATION_REFERENCE_S / calibration


def run_rep(wl: Workload, rep_dir: Path, traced: bool) -> Rep:
    rep_dir.mkdir(parents=True)
    ops = wl.ops(rep_dir)
    spec_path = rep_dir / "spec.json"
    spec = {"ops": ops, "trace": traced, "setup_end": wl.setup_end,
            "result": str(rep_dir / "result.json"),
            "spans": str(rep_dir / "spans.npz")}
    spec_path.write_text(json.dumps(spec))
    with open(rep_dir / "stdout.txt", "w") as out, \
            open(rep_dir / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                 str(spec_path)], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{wl.name}: a run exceeded {REP_TIMEOUT_S:g} s")
    if code != 0:
        raise BenchError(f"{wl.name}: benchmark child exited {code}; see "
                         f"{rep_dir / 'stderr.txt'}")
    res = json.loads((rep_dir / "result.json").read_text())
    rep = Rep(traced, res["codes"], res["end"] - t0,
              peak_rss_mb=res["maxrss_kb"] / 1024.0)
    marks = res.get("marks", {})
    if "setup_end" in marks:
        rep.setup_s = marks["setup_end"] - t0
        if "loop_end" in marks and isinstance(wl, Simulate):
            rep.sim_rate = wl.horizon / (marks["loop_end"] - marks["setup_end"])
    rep.epoch_ms = epoch_latencies(res.get("observe", []),
                                   res.get("reconciled", []))
    rep.outcomes = wl.check(rep_dir, rep.codes)
    # Artifacts live in one directory per operation; the run's own files
    # (spec, result, spans, captured output) sit at the top and are skipped.
    rep.digests = {k: v for k, v in checks.digests(str(rep_dir)).items()
                   if os.path.dirname(k)}
    if traced:
        rep.layers, problems = layer_metrics(wl, rep_dir, rep)
        if problems:
            rep.outcomes.append(Outcome("trace", "wrong", "; ".join(problems)))
    return rep


def layer_metrics(wl: Workload, rep_dir: Path, rep: Rep) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, and the problems found in them."""
    split, raw = spans.load(str(rep_dir / "spans.npz"))
    layers: dict[str, float] = {}
    for name in SELF_TIMED:
        layers[f"{name.replace('cli._write', 'cli.write')}_s"] = split.self_s.get(name, 0.0)
    for name, calls in split.calls.items():
        layers[f"{name}_calls"] = calls
    uncovered = rep.run_s - split.covered_s
    cli_self = sum(v for k, v in split.self_s.items() if k.startswith("cli.")
                   and k != "cli._write") + uncovered
    layer_sum = sum(v for k, v in split.self_s.items()
                    if not k.startswith("cli.") or k == "cli._write")
    layers["trace.accounted_ratio"] = (layer_sum + cli_self) / rep.run_s
    for mod in spans.LAYERS:
        if mod != "cli":
            layers[f"{mod}.self_s"] = sum(v for k, v in split.self_s.items()
                                          if k.startswith(mod + "."))
    layers["cli.self_s"] = cli_self
    layers["cli.uncovered_s"] = uncovered
    statuses = list(raw["solve_status"])
    layers["simplex.iterations"] = int(np.sum(raw["solve_iterations"]))
    layers["simplex.optimal_ratio"] = (statuses.count("optimal") / len(statuses)
                                       if statuses else 0.0)
    out = rep_dir / "out"
    events = out / "events.log"
    layers["world.events"] = (sum(checks.event_counts(str(events)).values())
                              if events.exists() else 0)
    passes = converged = reports = safe = 0
    if (out / "reports.csv").exists():
        for line in (out / "reports.csv").read_text().splitlines()[1:]:
            _, conv, n_pass, _, engaged = line.split(",")
            reports += 1
            passes += int(n_pass)
            converged += conv == "True"
            safe += len([x for x in engaged.split(";") if x])
    layers["hierarchy.passes"] = passes
    layers["hierarchy.converged_ratio"] = converged / reports if reports else 0.0
    layers["hierarchy.safe_engaged"] = safe
    problems = wl.trace_checks(layers, raw)
    if split.min_self_s < 0:
        problems.append(f"a span has negative self time {split.min_self_s:.3g} s")
    if abs(layers["trace.accounted_ratio"] - 1.0) > 0.05:
        problems.append(f"layer self times sum to {layers['trace.accounted_ratio']:.4f}"
                        " of the traced run_s")
    return layers, problems


# --------------------------------------------------------------------------
# Metadata, reference digests, reporting.

def metadata(seed: int, workload: str, seconds: int) -> dict:
    import hashlib
    import networkx
    import scipy
    src = hashlib.sha256()
    for path in sorted((SRC / "civitas").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), platform.processor()) \
        if Path("/proc/cpuinfo").exists() else platform.processor()
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": np.__version__, "networkx": networkx.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "source_sha256": src.hexdigest()}


def reference_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Artifact digests recorded for this workload and seed, if any."""
    path = HERE / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def _flag(wl: Workload, rep: Rep, paths: list[str], why: str) -> None:
    """Mark the operations that wrote `paths` as having failed a check."""
    dirs = [op["dir"] for op in wl.ops(Path())]
    for k in sorted({dirs.index(Path(p).parts[0]) for p in paths}):
        outcome = rep.outcomes[k]
        if outcome.status == "ok":
            outcome.status = "wrong"
        outcome.detail = "; ".join(filter(None, [outcome.detail, why]))


def cross_checks(wl: Workload, reps: list[Rep]) -> str:
    """Every run wrote the same bytes, and they match the recorded reference.

    A mismatch marks the operation that wrote the file; the return value
    says what the reference comparison found.
    """
    first = reps[0].digests
    for i, rep in enumerate(reps[1:], start=1):
        diff = sorted(k for k in set(first) | set(rep.digests)
                      if first.get(k) != rep.digests.get(k))
        if diff:
            kind = "traced" if rep.traced else "untraced"
            _flag(wl, rep, diff, f"run {i} ({kind}) differs from run 0 in {diff}")
    ref = reference_digests(wl.name, wl.seed)
    if ref is None:
        return "no reference digests for this seed"
    diff = sorted(k for k, v in ref.items() if first.get(k) != v)
    if diff:
        _flag(wl, reps[0], diff, f"differs from the reference in {diff}")
        return f"{len(diff)} of {len(ref)} reference digests differ"
    return f"all {len(ref)} reference digests match"


def median(values):
    """Median; counts stay whole numbers (the lower middle of an even set)."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def percentile(values, q):
    return float(np.percentile(values, q)) if values else None


def summarize(wl: Workload, reps: list[Rep], reference: str) -> dict:
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    outcomes = [o for r in reps for o in r.outcomes]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    # setup_s and run_s are in reference seconds (see calibration_s);
    # the _wall_s figures are the unscaled wall times.
    e2e = {"setup_s": (median(reference_time(r.setup_s, r.calibration_s)
                              for r in plain), "s"),
           "run_s": (median(reference_time(r.run_s, r.calibration_s)
                            for r in plain), "s"),
           "setup_wall_s": (median(r.setup_s for r in plain), "s"),
           "run_wall_s": (median(r.run_s for r in plain), "s"),
           "calibration_s": (median(r.calibration_s for r in plain), "s"),
           "peak_rss_mb": (median(r.peak_rss_mb for r in plain), "MB")}
    if isinstance(wl, Simulate):
        e2e["sim_rate"] = (median(r.sim_rate for r in plain), "sim_s/s")
    epochs = [ms for r in plain for ms in r.epoch_ms]
    if epochs:
        e2e["epoch_p50_ms"] = (percentile(epochs, 50), "ms")
        e2e["epoch_p95_ms"] = (percentile(epochs, 95), "ms")
        e2e["epoch_samples"] = (len(epochs), "count")
    e2e["error_rate"] = (failed / attempted if attempted else 0.0, "ratio")
    layers = {}
    if traced:
        keys = sorted({k for r in traced for k in r.layers})
        layers = {k: median(r.layers.get(k) for r in traced) for k in keys}
        layers["trace.overhead_s"] = (median(r.run_s for r in traced)
                                      - e2e["run_wall_s"][0])
    return {"e2e": e2e, "layers": layers, "attempted": attempted,
            "failed": failed, "outcomes": outcomes,
            "correct": not any(o.status == "wrong" for o in outcomes),
            "reference": reference, "plain": len(plain), "traced": len(traced)}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def report(wl: Workload, meta: dict, summary: dict, why: str) -> None:
    print(f"workload {wl.name}  seed {wl.seed}  why: {why}")
    print("metadata " + json.dumps(meta, sort_keys=True))
    print(f"runs: {summary['plain']} untraced, {summary['traced']} traced "
          "(one fresh interpreter each; figures are medians)")
    print("end-to-end (untraced):")
    for name, (value, unit) in summary["e2e"].items():
        print(f"  {name:<28} {value:.6g} {unit}" if value is not None
              else f"  {name:<28} n/a")
    print(f"operations: attempted {summary['attempted']}, failed "
          f"{summary['failed']}")
    seen = set()
    for o in summary["outcomes"]:
        if o.status != "ok" and (o.op, o.status, o.detail) not in seen:
            seen.add((o.op, o.status, o.detail))
            print(f"  {o.status:<6} {o.op}: {o.detail}")
    print(f"reference: {summary['reference']}")
    if summary["layers"]:
        print("per-layer (traced; _s is self time; every call count is in "
              "result.json):")
        counted = {f"{name}_calls" for name in CALL_COUNTED}
        for name, value in summary["layers"].items():
            if not name.endswith("_calls") or name in counted:
                print(f"  {name:<36} {value:.6g} {unit_of(name)}")


def result_line(spec: dict, summary: dict, trace: bool) -> dict:
    """The last output line: BENCHMARK.json's end_to_end or per_layer set.

    Only per-layer metrics that are non-zero on every workload, or are
    counts or ratios, are listed there; the report carries the rest.
    """
    if trace:
        metrics = {m["name"]: {"value": summary["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": summary["e2e"][m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def prepare(workload: str, seed: int) -> tuple[Workload, Path]:
    if not (SRC / "civitas" / "cli.py").is_file():
        raise BenchError(f"no civitas source under {SRC}; run from the root "
                         "of a source checkout")
    sys.path.insert(0, str(SRC))  # the checks read artifacts with civitas
    work = ROOT / ".perfbench" / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    wl = WORKLOADS[workload](work / "inputs", seed)
    # Compile and load the package once so no measured run pays for it.
    subprocess.run([sys.executable, "-c", "import civitas.cli"], check=True,
                   env=child_env(), cwd=ROOT, timeout=120)
    return wl, work


def measure(wl: Workload, work: Path, seconds: float, trace: bool) -> list[Rep]:
    """Runs until the next one would end past `seconds`, with a floor.

    Untraced runs need at least MIN_UNTRACED for a median; with tracing,
    untraced and traced runs alternate, at least one of each.  The
    calibration work runs before the first run and after each; a run's
    calibration_s is the mean of the two around it.
    """
    reps: list[Rep] = []
    took: dict[bool, list[float]] = {False: [], True: []}
    t0 = time.perf_counter()
    calibrations = [calibration_s()]
    while True:
        traced = trace and bool(reps) and not reps[-1].traced
        plain_n, traced_n = len(took[False]), len(took[True])
        floor_met = (plain_n >= 1 and traced_n >= 1) if trace else plain_n >= MIN_UNTRACED
        if floor_met:
            expected = statistics.median(took[traced] or took[not traced])
            if time.perf_counter() - t0 + expected > seconds:
                return reps
        started = time.perf_counter()
        reps.append(run_rep(wl, work / f"run{len(reps)}", traced))
        calibrations.append(calibration_s())
        reps[-1].calibration_s = statistics.fmean(calibrations[-2:])
        took[traced].append(time.perf_counter() - started)
        if len(reps) > 1:
            shutil.rmtree(work / f"run{len(reps) - 2}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        wl, work = prepare(args.workload, args.seed)
        meta = metadata(args.seed, args.workload, args.seconds)
        (work / "metadata.json").write_text(json.dumps(meta, indent=1) + "\n")
        reps = measure(wl, work, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    summary = summarize(wl, reps, cross_checks(wl, reps))
    report(wl, meta, summary, why)
    line = result_line(spec, summary, bool(args.trace))
    (work / "result.json").write_text(json.dumps(
        {"metadata": meta, "result": line, "end_to_end": summary["e2e"],
         "per_layer": summary["layers"],
         "runs": [{"traced": r.traced, "run_s": r.run_s, "setup_s": r.setup_s,
                   "calibration_s": r.calibration_s} for r in reps]},
        indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
