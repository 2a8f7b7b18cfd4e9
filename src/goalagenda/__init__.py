"""Goal-ordering analysis and agenda-driven planning for ground STRIPS/ADL
problems: planning-graph and direct-analysis orderings, goal agendas, an
agenda-driven driver over GraphPlan or breadth-first base planners, and an
exhaustive oracle that checks the approximations on small instances."""

from .agenda import Agenda, GoalGraph, compute_agenda
from .graphplan import (FalseSet, GraphContext, PlanningGraph, build_graph,
                        false_set, graphplan_search)
from .kernel import backend as kernel_backend
from .model import (
    AdlAction,
    AtomTable,
    ConditionalEffect,
    Plan,
    PlanningProblem,
    ResourceLimit,
    StripsAction,
    SuccessorTable,
    Unsolvable,
    validate_plan,
)
from .driver import forward_search, next_initial_state, plan_with_agenda
from .ordering import (
    FixpointResult,
    ProblemIndex,
    compute_f_da,
    fixpoint_reduce,
    implied_deletes,
    order_e,
    order_h,
    possibly_achievable,
)
from .oracle import (
    InvertibilityReport,
    ReachabilityIndex,
    check_invertibility,
    decide_forced,
    decide_reasonable,
    enumerate_reachable,
    find_deadlocks,
)
from .pddl import ground, parse

__version__ = "0.1.0"
