"""Command-line entry points and deterministic run orchestration.

Every command reads structured-text inputs, writes CSV and event-log
artifacts into the output directory, and is byte-reproducible given the
same inputs and seed.  A command runs in two phases: reading and building
its inputs (flags, files, the world with its arrivals, the schedule table),
then the run.  Any error in the first phase exits 1, any error in the
second exits 2, and success exits 0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import logging
import math
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import __version__
from .textfmt import ParseError, finite, integer, parse_sections

if TYPE_CHECKING:  # each command imports the modules it runs
    from . import ctg as ctgmod
    from . import ctmdp as ctmdpmod
    from . import fsm as fsmmod
    from . import hierarchy as hiermod
    from . import world as worldmod

logger = logging.getLogger("civitas")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        raise ConfigError(message)


@contextmanager
def _naming(what: str):
    """Name `what` in any ValueError, KeyError or OSError the body raises."""
    try:
        yield
    except (ValueError, KeyError, OSError) as exc:
        reason = (exc.strerror or exc) if isinstance(exc, OSError) else (
            exc.args[0] if isinstance(exc, KeyError) else exc)
        raise ConfigError(f"{what}: {reason}") from exc


def _load(path: str, what: str, parse):
    """`parse` applied to the text of the `what` file at `path`."""
    with _naming(f"{what} {path}"), open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _write(path: str, content: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(content)


@dataclass
class RunConfig:
    network: str
    demand: str
    ctg: str | None
    horizon: float
    seed: int
    out: str
    mode: str
    dt: float = 0.1
    target: int | None = None
    deadline: float | None = None

    def __post_init__(self):
        from .world import step_units
        if self.seed < 0:
            raise ConfigError("--seed must be >= 0")
        if self.target is not None and self.target < 0:
            raise ConfigError("--target must be >= 0")
        if self.deadline is not None and not 0 < self.deadline < math.inf:
            raise ConfigError("--deadline must be a finite number > 0")
        if not 0 < self.horizon < math.inf:
            raise ConfigError("--horizon must be a finite number > 0")
        if not 0 < self.dt < math.inf:
            raise ConfigError("--dt must be a finite number > 0")
        if not math.isfinite(self.horizon / self.dt):
            raise ConfigError(f"--horizon {self.horizon:g} / --dt {self.dt:g}"
                              " is not a finite number of ticks")
        if round(self.horizon / self.dt) < 1:
            raise ConfigError(f"--horizon {self.horizon:g} / --dt {self.dt:g}"
                              " rounds to no tick")
        with _naming("--dt"):
            step_units(self.dt)
        if self.mode not in ("fixed", "hierarchical"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "hierarchical" and not self.ctg:
            raise ConfigError("hierarchical mode needs a --ctg file")


def _build_controllers(net: worldmod.StreetNetwork
                       ) -> dict[str, fsmmod.IntersectionController]:
    """The network's `[signal]` controllers in declaration order, then a
    default-timed one for every other signalized node."""
    from .fsm import DEFAULT_SPLITS, IntersectionController, SignalFsm
    controllers = {ctrl.id: ctrl for ctrl in net.signals}
    for node in net.signalized_nodes():
        if node not in controllers:
            controllers[node] = IntersectionController(node, SignalFsm(*DEFAULT_SPLITS))
    return controllers


def _payload_desc(payload: object) -> str:
    if isinstance(payload, tuple):
        return f"constraints={len(payload)}"
    return repr(payload)


def _zone_itus(net: worldmod.StreetNetwork, ctg: ctgmod.Ctg) -> tuple[str, ...]:
    """The ITUs of the network zone `ctg` names: the signalized nodes its
    member segments enter.  A network without zones is one implicit zone
    of every segment.  Each site's segment and each task's ITU must be
    the zone's, and each ITU's signal needs a safe mode to fall back to."""
    members = {s.id for s in net.segments}
    if net.zones:
        zone = next((z for z in net.zones if z.id == ctg.zone), None)
        if zone is None:
            raise ValueError(f"[ctg {ctg.zone}]: the network has no [zone {ctg.zone}]")
        members = zone.members
    itus = tuple(sorted({net.segment(m).to_node for m in members}
                        & set(net.signalized_nodes())))
    modes = {ctrl.id: ctrl.modes for ctrl in net.signals}
    for itu in itus:
        if not modes.get(itu):
            where = f"[signal {itu}] modes" if itu in modes else f"[intersection {itu}]"
            raise ValueError(f"{where}: ITU {itu} of zone {ctg.zone} has no safe mode")
    for site in ctg.sites:
        if site.segment not in members:
            raise ValueError(f"[site {site.id}] segment: {site.segment!r} is not"
                             f" a segment of zone {ctg.zone}")
    for task in ctg.tasks:
        if task.itu is not None and task.itu not in itus:
            raise ValueError(f"[task {task.id}] itu: {task.itu!r} is not an ITU of"
                             f" zone {ctg.zone} ({', '.join(itus)})")
    return itus


def load_simulation(cfg: RunConfig) -> tuple:
    """The inputs of a run: the phase of `simulate` whose errors exit 1."""
    from . import world as worldmod
    net = _load(cfg.network, "network", worldmod.load_network)
    demand = _load(cfg.demand, "demand", worldmod.load_demand)
    with _naming(f"network {cfg.network} with demand {cfg.demand}"):
        world = worldmod.make_world(net, demand, cfg.horizon, cfg.seed)
    ctg = table = itus = None
    if cfg.mode == "hierarchical":
        from . import ctg as ctgmod
        ctg = _load(cfg.ctg, "ctg", ctgmod.load_ctg)
        with _naming(f"ctg {cfg.ctg} on network {cfg.network}"):
            itus = _zone_itus(net, ctg)
        with _naming(f"ctg {cfg.ctg}"):
            table = ctgmod.build_table(ctg)
    return net, world, ctg, table, itus


class EpochLoop:
    """The hierarchical half of a run: the global unit `tcu` over one area
    `area` over the zone `ctg` describes, whose ITUs are `itus`, and the
    state its epochs carry.  The engine replaces entries of `controllers`
    in place.  Building it reconciles once, at time 0."""

    def __init__(self, cfg: RunConfig, ctg: ctgmod.Ctg, table: ctgmod.ScheduleTable,
                 itus: tuple[str, ...],
                 controllers: dict[str, fsmmod.IntersectionController],
                 cycle: float, world: worldmod.WorldState):
        from . import ctg as ctgmod
        from . import ctmdp as ctmdpmod
        from . import fgraph as fgmod
        from . import hierarchy as hiermod
        initial = tuple(s.labels[0] for s in ctg.sites)
        self.zone = hiermod.ZoneUnit(ctg.zone, ctg, table, itus, initial, cycle)
        self.area = hiermod.AreaUnit("area", (self.zone.id,))
        capability = table.schedules[initial].graph.total_n()
        fg = fgmod.FunctionGraph(
            (fgmod.FgNode("area", fgmod.PerfDistribution.point(
                table.t_area(initial)), capability),))
        target = cfg.target if cfg.target is not None else int(capability)
        deadline = cfg.deadline if cfg.deadline is not None else cycle
        self.engine = hiermod.HierarchyEngine(
            hiermod.GlobalUnit("tcu", fg, target, deadline), {"area": self.area},
            {self.zone.id: self.zone}, controllers)
        self.table, self.cycle, self.world = table, cycle, world
        self.estimators = [ctgmod.RunningMedianThreshold(s) for s in ctg.sites]
        self.t_area = {ctmdpmod.state_name(table.zone, s): table.t_area(s)
                       for s in table.scenarios}
        self.shift_log = ctmdpmod.ShiftLog()
        self.state: str | None = None  # the CTMDP state of the last epoch
        self.count = 0
        self.reports: list[tuple[float, hiermod.ReconcileReport]] = []
        self._reconcile(0.0)

    def close(self, t: float) -> None:
        """End the epoch at `t`: observe each site over the last cycle,
        classify the scenario, log the shift, re-solve the area CTMDP every
        fifth epoch and attach it to the function graph, then reconcile."""
        from . import ctmdp as ctmdpmod
        from . import world as worldmod
        from .fgraph import attach
        self.count += 1
        scenario = tuple(est.observe(worldmod.observe_cycle(
            self.world, est.site.segment, (t - self.cycle, t)).n)
            for est in self.estimators)
        state = ctmdpmod.state_name(self.table.zone, scenario)
        if self.state is not None:
            self.shift_log.record(self.state, "default", self.cycle, state)
        self.state = state
        self.zone.set_scenario(scenario)
        if self.count % 5 == 0:
            model = ctmdpmod.from_schedule_tables([self.table], self.shift_log)
            sol = ctmdpmod.solve_model(model)
            if sol.status == "optimal":
                self.area.objective = sol.objective
                top = self.engine.top
                top.fg = attach(top.fg, "area", sol, model, self.t_area)
        self._reconcile(t)

    def _reconcile(self, t: float) -> None:
        """Reconcile at `t`, then log the engine's messages to the world."""
        from .hierarchy import ConstraintMsg, ViolationMsg
        engine, log = self.engine, self.world.log
        self.reports.append((t, engine.reconcile(at=t)))
        for msg in engine.messages:
            if isinstance(msg, ConstraintMsg):
                log("constraint", msg.issued_at, msg.source, msg.target,
                    _payload_desc(msg.payload))
            elif isinstance(msg, ViolationMsg):
                log("violation", msg.occurred_at, msg.source, msg.target,
                    msg.quantity, msg.shortfall)
            else:
                log("safe_mode", msg.engaged_at, f"{msg.target} violation="
                    f"reconcile {msg.why} at {msg.engaged_at}")
        engine.messages.clear()


def run_simulation(cfg: RunConfig, inputs: tuple | None = None) -> dict:
    from . import world as worldmod
    os.makedirs(cfg.out, exist_ok=True)
    net, world, ctg, table, itus = inputs or load_simulation(cfg)
    controllers = _build_controllers(net)
    cycle = max((c.fsm.cycle for c in controllers.values()), default=60.0)
    epochs = None
    if cfg.mode == "hierarchical":
        epochs = EpochLoop(cfg, ctg, table, itus, controllers, cycle, world)

    ticks = int(round(cfg.horizon / cfg.dt))
    # a cycle longer than the horizon has no epoch (and may not fit an int)
    epoch_every = max(1, int(round(min(cycle / cfg.dt, ticks + 1))))
    early = [] if epochs else [n for n, c in controllers.items() if c.early_switch]
    # The signal states are one dict filled in place every tick; `world.step`
    # compares it with its own copy of the last tick's, so a changed state
    # still re-arms the heads that wait on it.  Controllers change only on an
    # early switch or in a reconcile, and `fsms` is rebuilt after either.
    controls: dict[str, fsmmod.SignalState] = {}

    def current_fsms():
        return [(node, ctrl.fsm) for node, ctrl in controllers.items()]
    fsms = current_fsms()
    countdown = epoch_every  # ticks left to the next epoch (hierarchical mode)
    for t in worldmod.tick_times(cfg.dt, ticks):
        for node in early:
            ctrl = controllers[node]
            switched = worldmod.early_switch(world, ctrl, t)
            if switched is not ctrl:
                controllers[node] = switched
                fsms = current_fsms()
        for node, fsm in fsms:
            controls[node] = fsm.state_at(t)
        # looked up on the module every tick: the benchmark's set-up probe
        # replaces `world.step` and restores it on its first call
        worldmod.step(world, controls, cfg.dt)

        countdown -= 1
        if countdown == 0 and epochs is not None:
            countdown = epoch_every
            epochs.close(t)
            fsms = current_fsms()

    summary = _write_artifacts(cfg, world, epochs)
    logger.info("simulate: %s", summary)
    return summary


def _write_artifacts(cfg: RunConfig, world: worldmod.WorldState,
                     epochs: EpochLoop | None) -> dict:
    """Write every artifact of a finished run into `cfg.out`; return the
    summary.  `epochs` is None in fixed mode."""
    from . import world as worldmod
    if epochs is not None:
        from . import fgraph as fgmod
        engine = epochs.engine
        _write(os.path.join(cfg.out, "goal_allocation.csv"),
               fgmod.allocation_to_csv(engine.allocation()))
        _write(os.path.join(cfg.out, "function_graph.csv"),
               fgmod.graph_to_csv(engine.top.fg))

    worldmod.write_event_log(world.events, os.path.join(cfg.out, "events.log"))
    summary = {
        "mode": cfg.mode, "seed": cfg.seed, "horizon": cfg.horizon,
        "entered": world.entered, "exited": world.exited,
        "dropped": world.dropped, "remaining": world.vehicle_count(),
    }
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(list(summary))
    w.writerow([summary[k] for k in summary])
    _write(os.path.join(cfg.out, "summary.csv"), buf.getvalue())

    lines = ["time,converged,passes,unresolved,safe_engaged"]
    for at, report in epochs.reports if epochs else ():
        lines.append("%.9g,%s,%d,%d,%s" % (
            at, report.converged, report.passes, len(report.unresolved),
            ";".join(report.safe_engaged)))
    _write(os.path.join(cfg.out, "reports.csv"), "\n".join(lines) + "\n")
    if epochs is not None:
        from .ctg import table_to_csv
        _write(os.path.join(cfg.out, "schedule_table.csv"),
               table_to_csv(epochs.table))
    return summary


def cmd_simulate(args):
    cfg = RunConfig(args.network, args.demand, args.ctg, args.horizon, args.seed,
                    args.out, args.mode, args.dt, args.target, args.deadline)
    inputs = load_simulation(cfg)
    return lambda: run_simulation(cfg, inputs)


def _load_table(path: str, objective: str = "makespan") -> ctgmod.ScheduleTable:
    from .ctg import build_table, load_ctg
    return _load(path, "ctg", lambda text: build_table(load_ctg(text), objective))


def cmd_schedule(args):
    from .ctg import table_to_csv
    table = _load_table(args.ctg, args.objective)

    def run():
        _write(os.path.join(args.out, "schedule_table.csv"), table_to_csv(table))
        logger.info("schedule: %d columns", len(table.scenarios))
    return run


def _parse_shift_log(path: str, text: str, states: set[str]) -> ctmdpmod.ShiftLog:
    """The shift log at `path`, whose states (and next states) are `states`."""
    from .ctmdp import ShiftLog
    reader = csv.DictReader(io.StringIO(text), restval="")
    missing = [c for c in ("state", "action", "dwell")
               if c not in (reader.fieldnames or ())]
    if missing:
        raise ParseError(f"missing column {', '.join(missing)}")
    log = ShiftLog()
    for row in reader:
        for column in ("state", "next"):  # an empty next means no shift
            name = row.get(column)
            if (name or column == "state") and name not in states:
                raise ConfigError(f"shifts {path}, line {reader.line_num}: {column}"
                                  f" {name!r} is not a state of the task graph")
        if not row["action"]:
            raise ConfigError(f"shifts {path}, line {reader.line_num}: empty action")
        with _naming(f"shifts {path}, line {reader.line_num}: bad dwell"
                     f" {row['dwell']!r}"):
            log.record(row["state"], row["action"], float(row["dwell"]),
                       row.get("next") or None)
    return log


def cmd_ctmdp(args):
    from . import ctmdp as ctmdpmod
    if args.model:
        model = _load(args.model, "model", ctmdpmod.model_from_csv)
    elif args.ctg and args.shifts:
        table = _load_table(args.ctg)
        states = {ctmdpmod.state_name(table.zone, s) for s in table.scenarios}
        shifts = _load(args.shifts, "shifts",
                       lambda text: _parse_shift_log(args.shifts, text, states))
        model = ctmdpmod.from_schedule_tables([table], shifts)
    else:
        raise ConfigError("ctmdp needs --model or both --ctg and --shifts")
    if model.prior_pairs:
        logger.warning("unvisited pairs given the uniform prior: %s",
                       ", ".join(f"{s}/{a}" for s, a in model.prior_pairs))

    def run():
        sol = ctmdpmod.solve_model(model)
        if sol.status != "optimal":
            raise RuntimeError(f"CTMDP solve failed: {sol.status}")
        _write(os.path.join(args.out, "ctmdp_solution.csv"),
               ctmdpmod.solution_to_csv(sol, model))
        _write(os.path.join(args.out, "ctmdp_model.csv"), ctmdpmod.model_to_csv(model))
        logger.info("ctmdp objective %.9g", sol.objective)
    return run


def cmd_fuzzy_surface(args):
    import numpy as np

    from . import fuzzy as fuzzymod
    with _naming(f"params {args.params!r}"):
        m, M, MI = (float(x) for x in args.params.split(","))
        params = fuzzymod.FuzzyParams.uniform(m, M, MI)
    if args.n < 2:
        raise ConfigError(f"fuzzy-surface n must be >= 2, got {args.n}")
    try:
        grid = fuzzymod.surface(params, n=args.n)
    except MemoryError as exc:
        raise ConfigError(f"fuzzy-surface n: {args.n} x {args.n} points do not fit"
                          f" in memory ({exc})") from exc

    def run():
        # Python floats format faster than numpy scalars; an axis value once
        i_axis = ["%.9g," % x for x in np.linspace(0.0, params.i.MI, args.n).tolist()]
        d_axis = ["%.9g," % x for x in np.linspace(0.0, params.d.MI, args.n).tolist()]
        lines = ["i,d,u"]
        for i, row in zip(i_axis, grid):
            lines.extend([i + d + "%.9g" % u for d, u in zip(d_axis, row.tolist())])
        _write(os.path.join(args.out, "surface.csv"), "\n".join(lines) + "\n")
        logger.info("surface: %d rows", args.n * args.n)
    return run


# "<=" before "<": the first operator found in a rule is its comparison.
_RULE_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


def _parse_rule(sec, attrs: dict):
    rule = sec.require("rule")
    for op, compare in _RULE_OPS.items():
        if op in rule:
            attr, _, value = (part.strip() for part in rule.partition(op))
            with sec.context("rule"):
                bound = finite(value)
            if attr not in attrs:
                raise sec.error("rule", f"{attr!r} is not one of attrs")
            return lambda pt: compare(pt[attr], bound)
    raise sec.error("rule", f"bad predicate {rule!r}")


def _metric_row(sec, base: str) -> tuple[str, str, str]:
    """The metrics.csv row of one job section; `base` resolves its files."""
    import numpy as np

    from . import metrics as metricsmod
    if sec.kind == "scalability":
        value = metricsmod.scalability(*(sec.number(key) for key in
                                         ("p1", "cost1", "p2", "cost2")))
        return ("scalability", "%.9g" % value,
                f"name={sec.name};p1={sec.get('p1')};p2={sec.get('p2')}")
    if sec.kind == "efficiency":
        path = os.path.join(base, sec.require("file"))
        data = np.genfromtxt(path, delimiter=",", names=True)
        curves = metricsmod.CurvePair(np.atleast_1d(data["p"]),
                                      np.atleast_1d(data["adaptive"]),
                                      np.atleast_1d(data["single"]))
        return ("efficiency", "%.9g" % metricsmod.efficiency(curves),
                f"name={sec.name};file={sec.require('file')}")
    if sec.kind == "predictability":
        limit = sec.number("limit", 0.0, low=0)
        path = os.path.join(base, sec.require("file"))
        with open(path) as fh:
            reader = csv.DictReader(fh)
            if not {"estimated", "actual"} <= set(reader.fieldnames or ()):
                raise sec.error("file", f"{path} needs columns estimated and actual")
            pairs = [(float(row["estimated"]), float(row["actual"])) for row in reader]
        rep = metricsmod.predictability(pairs, limit)
        return ("predictability", "%.9g" % rep.max_abs_error,
                f"name={sec.name};rmse={rep.rmse:.9g};"
                f"within_limit={rep.within_limit}")
    if sec.kind == "autonomy":
        ranges = {}
        for axis in ("perf", "area", "time"):
            ranges[axis] = tuple(sec.numbers(axis))
            if len(ranges[axis]) != 2:
                raise sec.error(axis, f"expected low, high, got {sec.get(axis)!r}")
        effort = sec.number("constant")
        shape = tuple(sec.numbers("shape", integer)) or (1, 1, 1)
        if len(shape) != 3 or min(shape) < 1:
            raise sec.error("shape", f"expected 3 counts >= 1, got {sec.get('shape')!r}")
        fieldv = metricsmod.EffortField.from_function(
            lambda p, a, t: effort, ranges["perf"], ranges["area"],
            ranges["time"], shape)
        return ("autonomy", "%.9g" % metricsmod.autonomy(fieldv),
                f"name={sec.name};constant={effort}")
    if sec.kind == "flexibility":
        box = {name: (low, high) for name, low, high in
               sec.items("attrs", "name:low:high", str, finite, finite)}
        pred = _parse_rule(sec, box)
        with sec.context("attrs"):
            spec = metricsmod.SpecBox.from_dict(box)
        value = metricsmod.flexibility(pred, spec, sec.get_int("n", 10000),
                                       sec.get_int("seed", 0, low=0))
        return ("flexibility", "%.9g" % value,
                f"name={sec.name};n={sec.get('n')};seed={sec.get('seed')}")
    raise ParseError(f"line {sec.line}: unknown metrics section {sec.kind!r}")


def _metric_rows(text: str, base: str) -> list[tuple[str, str, str]]:
    rows = [("metric", "value", "parameters")]
    for sec in parse_sections(text):
        with sec.context():  # a value the metric or its data file rejects
            rows.append(_metric_row(sec, base))
    return rows


def cmd_metrics(args):
    base = os.path.dirname(os.path.abspath(args.job))
    rows = _load(args.job, "metrics job", lambda text: _metric_rows(text, base))

    def run():
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        _write(os.path.join(args.out, "metrics.csv"), buf.getvalue())
    return run


def cmd_classify(args):
    from .registry import classification_report, load_registry
    reg = _load(args.registry, "registry", load_registry)

    def run():
        _write(os.path.join(args.out, "interactions.csv"),
               classification_report(reg))
        logger.info("classify: %d links", len(reg.links()))
    return run


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: `main` only reads it."""
    parser = _Parser(prog="civitas", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="closed-loop traffic simulation")
    sim.add_argument("--network", required=True)
    sim.add_argument("--demand", required=True)
    sim.add_argument("--ctg")
    sim.add_argument("--horizon", type=float, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--mode", choices=("fixed", "hierarchical"), default="fixed")
    sim.add_argument("--dt", type=float, default=0.1)
    sim.add_argument("--target", type=int)
    sim.add_argument("--deadline", type=float)
    sim.set_defaults(func=cmd_simulate)

    sch = sub.add_parser("schedule", help="build the zone schedule table")
    sch.add_argument("--ctg", required=True)
    sch.add_argument("--out", required=True)
    sch.add_argument("--objective", choices=("makespan", "throughput"),
                     default="makespan")
    sch.set_defaults(func=cmd_schedule)

    mdp = sub.add_parser("ctmdp", help="solve the area scenario process")
    mdp.add_argument("--model", help="CTMDP CSV export to solve directly")
    mdp.add_argument("--ctg", help="build states from this task graph")
    mdp.add_argument("--shifts", help="CSV shift log (state,action,dwell,next)")
    mdp.add_argument("--out", required=True)
    mdp.set_defaults(func=cmd_ctmdp)

    fz = sub.add_parser("fuzzy-surface", help="sample the lighting control surface")
    fz.add_argument("params", help="membership parameters m,M,MI")
    fz.add_argument("n", type=int, help="grid size per axis")
    fz.add_argument("--out", required=True)
    fz.set_defaults(func=cmd_fuzzy_surface)

    met = sub.add_parser("metrics", help="evaluate metrics from a job file")
    met.add_argument("--job", required=True)
    met.add_argument("--out", required=True)
    met.set_defaults(func=cmd_metrics)

    cls = sub.add_parser("classify", help="classify registry interactions")
    cls.add_argument("--registry", required=True)
    cls.add_argument("--out", required=True)
    cls.set_defaults(func=cmd_classify)
    return parser


def _setup_logging() -> None:
    level = {"quiet": logging.ERROR, "info": logging.INFO,
             "trace": logging.DEBUG}.get(os.environ.get("CIVITAS_LOG", "info"),
                                         logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:  # phase one: flags and input files
        args = build_parser().parse_args(argv)
        run = args.func(args)
        with _naming(f"--out {args.out}"):  # the run writes into it
            os.makedirs(args.out, exist_ok=True)
    except Exception as exc:
        logger.debug("input failure", exc_info=True)
        print(f"civitas: error: {exc}", file=sys.stderr)
        return 1
    try:
        run()
    except Exception as exc:  # runtime failure, never a stack-trace crash
        logger.debug("runtime failure", exc_info=True)
        logger.error("runtime failure: %s", exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
