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
import io
import logging
import math
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from . import ctg as ctgmod
from . import ctmdp as ctmdpmod
from . import fgraph as fgmod
from . import fsm as fsmmod
from . import fuzzy as fuzzymod
from . import hierarchy as hiermod
from . import metrics as metricsmod
from . import registry as regmod
from . import world as worldmod
from .textfmt import ParseError, finite, integer, parse_sections

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
    registry: str | None
    horizon: float
    seed: int
    out: str
    mode: str
    dt: float = 0.1
    target: int | None = None
    deadline: float | None = None

    def __post_init__(self):
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
        if round(self.horizon / self.dt) < 1:
            raise ConfigError(f"--horizon {self.horizon:g} / --dt {self.dt:g}"
                              " rounds to no tick")
        if self.mode not in ("fixed", "hierarchical"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "hierarchical" and not self.ctg:
            raise ConfigError("hierarchical mode needs a --ctg file")


def _build_controllers(net: worldmod.StreetNetwork
                       ) -> dict[str, fsmmod.IntersectionController]:
    controllers = {}
    for spec in net.signals:
        controllers[spec.intersection] = fsmmod.IntersectionController(
            spec.intersection, spec.fsm, spec.modes, early_switch=spec.early_switch)
    for node in net.signalized_nodes():
        if node not in controllers:
            fsm = fsmmod.SignalFsm(30.0, 5.0, 25.0)
            controllers[node] = fsmmod.IntersectionController(node, fsm)
    return controllers


def _maybe_early_switch(net: worldmod.StreetNetwork, world: worldmod.WorldState,
                        ctrl: fsmmod.IntersectionController,
                        t: float) -> fsmmod.IntersectionController:
    """Cut a dwell short when the admitted approach is empty.

    Only used while no zone timing constraints are active (fixed mode);
    pools of vehicles must keep following the coordinated tables.
    """
    state = ctrl.fsm.state_at(t)
    if state is fsmmod.SignalState.YELLOW:
        return ctrl
    admitted = 2 if state is fsmmod.SignalState.GREEN else 1
    queues = {1: 0, 2: 0}
    for seg_id in net.incoming()[ctrl.id]:
        queues[net.segment(seg_id).approach] += len(world.queues[seg_id])
    if queues[admitted] == 0 and queues[3 - admitted] > 0:
        world.log("early_switch", t, ctrl.id)
        return replace(ctrl, fsm=fsmmod.skip_to_next_state(ctrl.fsm, t))
    return ctrl


def _runtime_registry(top_id: str, area_id: str, zone_id: str,
                      itus: tuple[str, ...]) -> regmod.DmRegistry:
    """Registry mirroring the engine's modules so routing can be checked."""
    reg = regmod.DmRegistry()
    maximize = regmod.Direction.MAXIMIZE
    reg.register(regmod.DmModule(top_id, hiermod.LEVEL_GLOBAL,
                                 (regmod.Goal("network_throughput", maximize),),
                                 inputs=("caps",), outputs=("goals",)))
    reg.register(regmod.DmModule(area_id, hiermod.LEVEL_AREA,
                                 (regmod.Goal("area_throughput", maximize),),
                                 inputs=("goals", "zone_caps"),
                                 outputs=("zone_bounds", "caps")))
    reg.register(regmod.DmModule(zone_id, hiermod.LEVEL_ZONE,
                                 (regmod.Goal("zone_throughput", maximize),),
                                 inputs=("zone_bounds", "itu_caps"),
                                 outputs=("itu_deadlines", "zone_caps")))
    for itu in itus:
        reg.register(regmod.DmModule(itu, hiermod.LEVEL_INTERSECTION,
                                     (regmod.Goal("throughput", maximize),),
                                     inputs=("deadlines",), outputs=("caps",)))
    reg.wire((top_id, "goals"), (area_id, "goals"), regmod.LinkRole.GOAL_SETTING)
    reg.wire((area_id, "zone_bounds"), (zone_id, "zone_bounds"),
             regmod.LinkRole.GOAL_SETTING)
    reg.wire((area_id, "caps"), (top_id, "caps"), regmod.LinkRole.CAPABILITY_REPORT)
    reg.wire((zone_id, "zone_caps"), (area_id, "zone_caps"),
             regmod.LinkRole.CAPABILITY_REPORT)
    for itu in itus:
        reg.wire((zone_id, "itu_deadlines"), (itu, "deadlines"),
                 regmod.LinkRole.GOAL_SETTING)
        reg.wire((itu, "caps"), (zone_id, "itu_caps"),
                 regmod.LinkRole.CAPABILITY_REPORT)
    return reg


def _payload_desc(payload: object) -> str:
    if isinstance(payload, tuple):
        return f"constraints={len(payload)}"
    return repr(payload)


def _drain_engine_events(engine: hiermod.HierarchyEngine,
                         world: worldmod.WorldState) -> None:
    """Append pending messages and controller events to the world log."""
    for msg in engine.messages:
        if isinstance(msg, hiermod.ConstraintMsg):
            world.log("constraint", msg.issued_at, msg.source, msg.target,
                      _payload_desc(msg.payload))
        else:
            world.log("violation", msg.occurred_at, msg.source, msg.target,
                      msg.quantity, msg.shortfall)
    engine.messages.clear()
    for ctrl in engine.controllers.values():
        for at, kind, detail in ctrl.events:
            world.log(kind, at, detail)
        ctrl.events.clear()


def load_simulation(cfg: RunConfig) -> tuple:
    """The inputs of a run: the phase of `simulate` whose errors exit 1."""
    net = _load(cfg.network, "network", worldmod.load_network)
    demand = _load(cfg.demand, "demand", worldmod.load_demand)
    with _naming(f"network {cfg.network} with demand {cfg.demand}"):
        world = worldmod.make_world(net, demand, cfg.horizon, cfg.seed)
    ctg = table = registry = None
    if cfg.mode == "hierarchical":
        ctg = _load(cfg.ctg, "ctg", ctgmod.load_ctg)
        with _naming(f"ctg {cfg.ctg}"):
            for site in ctg.sites:
                if site.segment not in {s.id for s in net.segments}:
                    raise ValueError(f"[site {site.id}] segment: {site.segment!r} is"
                                     f" not a segment of network {cfg.network}")
            table = ctgmod.build_table(ctg)
    if cfg.registry:
        registry = _load(cfg.registry, "registry", regmod.load_registry)
    return net, world, ctg, table, registry


def run_simulation(cfg: RunConfig, inputs: tuple | None = None) -> dict:
    os.makedirs(cfg.out, exist_ok=True)
    net, world, ctg, table, registry = inputs or load_simulation(cfg)
    controllers = _build_controllers(net)

    engine = None
    estimators: list[ctgmod.RunningMedianThreshold] = []
    shift_log = ctmdpmod.ShiftLog()
    zone = None
    reports: list[tuple[float, hiermod.ReconcileReport]] = []
    cycle = max((c.fsm.cycle for c in controllers.values()), default=60.0)

    if cfg.mode == "hierarchical":
        itus = tuple(sorted(controllers))
        initial = tuple(s.labels[0] for s in ctg.sites)
        zone = hiermod.ZoneUnit(ctg.zone, ctg, table, itus, initial, cycle)
        area = hiermod.AreaUnit("area", (zone.id,))
        capability = table.schedules[initial].graph.total_n()
        fg = fgmod.FunctionGraph(
            (fgmod.FgNode("area", fgmod.PerfDistribution.point(
                table.t_area(initial)), capability),))
        target = cfg.target if cfg.target is not None else int(capability)
        deadline = cfg.deadline if cfg.deadline is not None else cycle
        top = hiermod.GlobalUnit("tcu", fg, target, deadline, ("area",))
        engine = hiermod.HierarchyEngine(top, {"area": area}, {zone.id: zone},
                                         controllers,
                                         _runtime_registry("tcu", "area", zone.id, itus))
        estimators = [ctgmod.RunningMedianThreshold(s) for s in ctg.sites]
        reports.append((0.0, engine.reconcile(at=0.0)))
        _drain_engine_events(engine, world)
        controllers = engine.controllers

    ticks = int(round(cfg.horizon / cfg.dt))
    # a cycle longer than the horizon has no epoch (and may not fit an int)
    epoch_every = max(1, int(round(min(cycle / cfg.dt, ticks + 1))))
    epoch_count = 0
    prev_state_name = None
    early = [] if engine else [n for n, c in controllers.items() if c.early_switch]
    for k in range(ticks):
        t = round((k + 1) * cfg.dt, 10)
        for node in early:
            controllers[node] = _maybe_early_switch(net, world, controllers[node], t)
        controls = {node: ctrl.fsm.state_at(t) for node, ctrl in controllers.items()}
        worldmod.step(world, controls, cfg.dt)

        if engine is not None and (k + 1) % epoch_every == 0:
            epoch_count += 1
            labels = []
            for est in estimators:
                obs = worldmod.observe_cycle(world, est.site.segment,
                                             (t - cycle, t))
                labels.append(est.observe(obs.n))
            scenario = tuple(labels)
            state_name = ctmdpmod.state_name(table.zone, scenario)
            if prev_state_name is not None:
                shift_log.record(prev_state_name, "default", cycle, state_name)
            prev_state_name = state_name
            zone.set_scenario(scenario)
            if epoch_count % 5 == 0:
                model = ctmdpmod.from_schedule_tables([table], shift_log)
                sol = ctmdpmod.solve_model(model)
                if sol.status == "optimal":
                    engine.areas["area"].objective = sol.objective
                    t_area = {ctmdpmod.state_name(table.zone, s): table.t_area(s)
                              for s in table.scenarios}
                    engine.top.fg = fgmod.attach(engine.top.fg, "area", sol,
                                                 model, t_area)
            report = engine.reconcile(at=t)
            reports.append((t, report))
            _drain_engine_events(engine, world)

    if registry is not None:
        _write(os.path.join(cfg.out, "interactions.csv"),
               regmod.classification_report(registry))
    if engine is not None:
        alloc = fgmod.distribute_goals(engine.top.fg, engine.top.target,
                                       engine.top.deadline)
        _write(os.path.join(cfg.out, "goal_allocation.csv"),
               fgmod.allocation_to_csv(alloc))
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
    for at, report in reports:
        lines.append("%.9g,%s,%d,%d,%s" % (
            at, report.converged, report.passes, len(report.unresolved),
            ";".join(report.safe_engaged)))
    _write(os.path.join(cfg.out, "reports.csv"), "\n".join(lines) + "\n")
    if table is not None:
        _write(os.path.join(cfg.out, "schedule_table.csv"),
               ctgmod.table_to_csv(table))
    logger.info("simulate: %s", summary)
    return summary


def cmd_simulate(args):
    cfg = RunConfig(args.network, args.demand, args.ctg, args.registry,
                    args.horizon, args.seed, args.out, args.mode, args.dt,
                    args.target, args.deadline)
    inputs = load_simulation(cfg)
    return lambda: run_simulation(cfg, inputs)


def _load_table(path: str, objective: str = "makespan") -> ctgmod.ScheduleTable:
    return _load(path, "ctg", lambda text: ctgmod.build_table(ctgmod.load_ctg(text),
                                                               objective))


def cmd_schedule(args):
    table = _load_table(args.ctg, args.objective)

    def run():
        _write(os.path.join(args.out, "schedule_table.csv"), ctgmod.table_to_csv(table))
        logger.info("schedule: %d columns", len(table.scenarios))
    return run


def _parse_shift_log(path: str, text: str) -> ctmdpmod.ShiftLog:
    reader = csv.DictReader(io.StringIO(text), restval="")
    missing = [c for c in ("state", "action", "dwell")
               if c not in (reader.fieldnames or ())]
    if missing:
        raise ParseError(f"missing column {', '.join(missing)}")
    log = ctmdpmod.ShiftLog()
    for row in reader:
        with _naming(f"shift log {path}, line {reader.line_num}: bad dwell"
                     f" {row['dwell']!r}"):
            log.record(row["state"], row["action"], float(row["dwell"]),
                       row.get("next") or None)
    return log


def cmd_ctmdp(args):
    if args.model:
        model = _load(args.model, "model", ctmdpmod.model_from_csv)
    elif args.ctg and args.shifts:
        table = _load_table(args.ctg)
        shifts = _load(args.shifts, "shift log",
                       lambda text: _parse_shift_log(args.shifts, text))
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
    with _naming(f"params {args.params!r}"):
        m, M, MI = (float(x) for x in args.params.split(","))
        params = fuzzymod.FuzzyParams.uniform(m, M, MI)
    if args.n < 2:
        raise ConfigError(f"fuzzy-surface n must be >= 2, got {args.n}")

    def run():
        grid = fuzzymod.surface(params, n=args.n)
        i_axis = np.linspace(0.0, params.i.MI, args.n)
        d_axis = np.linspace(0.0, params.d.MI, args.n)
        lines = ["i,d,u"]
        for a in range(args.n):
            for b in range(args.n):
                lines.append("%.9g,%.9g,%.9g" % (i_axis[a], d_axis[b], grid[a, b]))
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
        value = metricsmod.flexibility(
            pred, metricsmod.SpecBox.from_dict(box),
            sec.get_int("n", 10000), sec.get_int("seed", 0))
        return ("flexibility", "%.9g" % value,
                f"name={sec.name};n={sec.get('n')};seed={sec.get('seed')}")
    raise ParseError(f"unknown metrics section {sec.kind!r}")


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
    reg = _load(args.registry, "registry", regmod.load_registry)

    def run():
        _write(os.path.join(args.out, "interactions.csv"),
               regmod.classification_report(reg))
        logger.info("classify: %d links", len(reg.links()))
    return run


def build_parser() -> _Parser:
    parser = _Parser(prog="civitas", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="closed-loop traffic simulation")
    sim.add_argument("--network", required=True)
    sim.add_argument("--demand", required=True)
    sim.add_argument("--ctg")
    sim.add_argument("--registry")
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
