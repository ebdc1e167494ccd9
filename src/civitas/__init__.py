"""Hierarchical decision-making simulator and control library for urban infrastructure.

Four coordination levels close the loop around a mesoscopic traffic
world: reactive signal controllers, conditional-task-graph zone
schedules, a constrained continuous-time Markov decision process per
area, and a top-level function graph distributing global goals.  A
Mamdani fuzzy lighting controller, the five evaluation metrics and the
goal-oriented module registry round out the library.

Importing the package loads none of its modules: each name below, and
each module (`civitas.world`, `civitas.simplex`, ...), is imported on
first use.
"""

import importlib

# The package's names, by the module that defines them.
_EXPORTS = {
    "fsm": ("SignalFsm", "SignalState", "TimingConstraint", "ImplementationMode",
            "IntersectionController", "apply_timing_constraints",
            "shortcut_to_safe"),
    "ctg": ("Ctg", "CtgTask", "ConditionSite", "ScheduleTable", "ZoneSchedule",
            "enumerate_scenarios", "resolve", "schedule", "build_table",
            "derive_timing_constraints", "load_ctg"),
    "ctmdp": ("Ctmdp", "ShiftLog", "make_ctmdp", "from_schedule_tables",
              "build_lp", "solve_model", "extract_policy"),
    "fgraph": ("PerfDistribution", "FunctionGraph", "FgNode", "GoalAllocation",
               "attach", "evaluate", "distribute_goals"),
    "fuzzy": ("FuzzyParams", "ParamRow", "RuleBase", "DEFAULT_RULES",
              "fuzzify", "control", "surface", "lcu_update"),
    "hierarchy": ("HierarchyEngine", "ConstraintMsg", "ViolationMsg",
                  "ReconcileReport"),
    "metrics": ("SpecBox", "EffortField", "CurvePair", "flexibility",
                "scalability", "autonomy", "efficiency", "predictability"),
    "registry": ("DmModule", "DmRegistry", "Goal", "Capability", "LinkRole",
                 "InteractionKind", "load_registry"),
    "world": ("StreetNetwork", "RoadSegment", "WorldState", "DemandProfile",
              "load_network", "load_demand", "make_world", "step",
              "observe_cycle"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset((*_EXPORTS, "simplex", "streams", "textfmt", "cli"))

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
