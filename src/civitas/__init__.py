"""Hierarchical decision-making simulator and control library for urban infrastructure.

Four coordination levels close the loop around a mesoscopic traffic
world: reactive signal controllers, conditional-task-graph zone
schedules, a constrained continuous-time Markov decision process per
area, and a top-level function graph distributing global goals.  A
Mamdani fuzzy lighting controller, the five evaluation metrics and the
goal-oriented module registry round out the library.
"""

from .fsm import (SignalFsm, SignalState, TimingConstraint, ImplementationMode,
                  IntersectionController, apply_timing_constraints,
                  shortcut_to_safe)
from .ctg import (Ctg, CtgTask, ConditionSite, ScheduleTable, ZoneSchedule,
                  enumerate_scenarios, resolve, schedule, build_table,
                  derive_timing_constraints, load_ctg)
from .ctmdp import (Ctmdp, ShiftLog, make_ctmdp, from_schedule_tables,
                    build_lp, solve_model, extract_policy)
from .fgraph import (PerfDistribution, FunctionGraph, FgNode, GoalAllocation,
                     attach, evaluate, distribute_goals)
from .fuzzy import (FuzzyParams, ParamRow, RuleBase, DEFAULT_RULES,
                    fuzzify, infer, defuzzify_centroid, control, surface,
                    lcu_update)
from .hierarchy import (HierarchyEngine, ConstraintMsg, ViolationMsg,
                        ReconcileReport)
from .metrics import (SpecBox, EffortField, CurvePair, flexibility,
                      scalability, autonomy, efficiency, predictability)
from .registry import (DmModule, DmRegistry, Goal, Capability, LinkRole,
                       InteractionKind, load_registry)
from .world import (StreetNetwork, RoadSegment, WorldState, DemandProfile,
                    load_network, load_demand, make_world, step,
                    observe_cycle, check_zone_balance)

__version__ = "0.1.0"
