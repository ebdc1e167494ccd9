"""One measured run of civitas, executed in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec lists the
operations to run in order (``civitas.cli.main`` argument lists, or a
function-graph evaluation), whether to trace, and where to write the
result.  The parent process times the run from the moment it spawned
this interpreter; every timestamp written here comes from
``time.perf_counter``, which is the system-wide monotonic clock on Linux,
so both processes read the same clock.

Untraced runs install only cheap probes: a one-shot probe on the first
call that ends set-up, a one-shot probe on the start of the event-log
write, and a timestamp per ``observe_cycle`` and ``reconcile`` call for
the per-epoch decision latency.  Traced runs wrap every public function
of every civitas module and keep one span per call in memory.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time
import traceback
from array import array

import civitas
import civitas.cli
from spans import LAYERS
# Methods that carry a layer's work but are not module-level functions.
METHODS = {"fsm": ("SignalFsm.state_at",),
           "hierarchy": ("HierarchyEngine.reconcile",),
           "registry": ("DmRegistry.link_kind", "DmRegistry.classify")}
# Private functions named by a per-layer metric.
PRIVATE = {"cli": ("_write",)}
# format_event is the per-line body of write_event_log; leaving it
# unwrapped keeps world.write_event_log_s the whole cost of the write.
UNWRAPPED = {"world.format_event"}


def _modules():
    return {name: getattr(civitas, name) for name in LAYERS}


def _rebind(replacements: dict) -> None:
    """Point every civitas module attribute bound to an original at its wrapper.

    Modules import some functions by name (hierarchy imports solve_model
    and distribute_goals, each loader imports parse_sections), so the
    name must be replaced where it is looked up, not only where defined.
    """
    for module in (civitas, *_modules().values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(module, attr, replacements[value])


class Tracer:
    """Spans kept in flat arrays: name id, parent span index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.solves: list[tuple[str, int]] = []

    def wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_id.append(nid)
            parent.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def install(self) -> None:
        replacements = {}
        for short, module in _modules().items():
            for attr, value in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (not inspect.isfunction(value)
                        or value.__module__ != module.__name__
                        or name in UNWRAPPED
                        or (attr.startswith("_")
                            and attr not in PRIVATE.get(short, ()))):
                    continue
                on_result = self._record_solve if name == "simplex.solve" else None
                replacements[value] = self.wrap(name, value, on_result)
            for qual in METHODS.get(short, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(f"{short}.{meth}", getattr(cls, meth)))
        _rebind(replacements)

    def _record_solve(self, sol) -> None:
        self.solves.append((sol.status, sol.iterations))

    def dump(self, path: str) -> None:
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 solve_status=np.array([s for s, _ in self.solves], dtype=str),
                 solve_iterations=np.array([i for _, i in self.solves],
                                           dtype=np.int64))


class Probes:
    """The few timestamps the end-to-end metrics need, nothing per tick."""

    def __init__(self, setup_end: str):
        self.marks: dict[str, float] = {}
        self.observe: list[float] = []
        self.reconciled: list[float] = []
        module_name, attr = setup_end.split(".")
        self._one_shot("setup_end", getattr(civitas, module_name), attr)
        self._one_shot("loop_end", civitas.world, "write_event_log")
        clock = time.perf_counter
        world = civitas.world
        observe_cycle = world.observe_cycle

        def observed(*args, **kwargs):
            self.observe.append(clock())
            return observe_cycle(*args, **kwargs)
        world.observe_cycle = observed
        engine = civitas.hierarchy.HierarchyEngine
        reconcile = engine.reconcile

        def reconciled(*args, **kwargs):
            result = reconcile(*args, **kwargs)
            self.reconciled.append(clock())
            return result
        engine.reconcile = reconciled

    def _one_shot(self, mark: str, module, attr: str) -> None:
        original = getattr(module, attr)

        def probe(*args, **kwargs):
            self.marks[mark] = time.perf_counter()
            setattr(module, attr, original)
            return original(*args, **kwargs)
        setattr(module, attr, probe)


def _evaluate_graph(graph_path: str, out_path: str) -> int:
    """Evaluate a JSON function graph; exit-code style result like the CLI."""
    fgraph = civitas.fgraph
    with open(graph_path) as fh:
        spec = json.load(fh)
    nodes = tuple(fgraph.FgNode(n["id"], fgraph.PerfDistribution(
        tuple((float(v), float(p)) for v, p in n["points"])), n["capability"])
        for n in spec["nodes"])
    fg = fgraph.FunctionGraph(nodes, tuple(tuple(a) for a in spec["arcs"]))
    try:
        result = fgraph.evaluate(fg)
    except Exception:  # a runtime failure of the layer, reported as exit 2
        traceback.print_exc()
        return 2
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write("sink,value,probability\n")
        for sink, (dist, _) in result.items():
            for value, prob in dist.points:
                fh.write(f"{sink},{value!r},{prob!r}\n")
    return 0


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    ru_maxrss would also count the parent's memory: Linux carries the
    pre-exec high-water mark of the forked image into it.  VmHWM belongs
    to the current address space only.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = probes = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    else:
        probes = Probes(spec["setup_end"])
    codes = []
    for op in spec["ops"]:
        if op["kind"] == "cli":
            codes.append(civitas.cli.main(op["argv"]))
        else:
            codes.append(_evaluate_graph(op["graph"], op["out"]))
    t_end = time.perf_counter()
    result = {"end": t_end, "codes": codes,
              "maxrss_kb": peak_rss_kb()}
    if probes is not None:
        result.update(marks=probes.marks, observe=probes.observe,
                      reconciled=probes.reconciled)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(spec["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
