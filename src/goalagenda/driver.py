"""Agenda-driven planning: solve cumulative goal sets episode by episode.

Each episode plans for the union of all agenda entries so far, starting
from the state the previous episode's plan produced; the final plan is the
concatenation of the episode plans and is validated against the original
problem before being returned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

from . import oracle
from .agenda import Agenda
from .graphplan import GraphContext, graphplan_search
from .model import (
    MAX_LAYERS,
    MAX_NODES,
    MAX_STATES,
    Plan,
    PlanningError,
    PlanningProblem,
    ResourceLimit,
    SuccessorTable,
    Unsolvable,
    _execute,
    _unwind,
    mask_ids,
    mask_of,
    transitions,
    validate_plan,
)


class InvalidPlanError(PlanningError):
    pass


def next_initial_state(problem: PlanningProblem, state: frozenset,
                       plan: Plan) -> frozenset:
    """Execute a plan from ``state`` under validate_plan's parallel-step
    rule. Raises on any issue: episode plans must never contain an
    inapplicable action or a conflicting step."""
    state, issues = _execute(problem, mask_of(state), plan)
    if issues:
        raise InvalidPlanError(f"episode plan does not execute: {issues}")
    return frozenset(mask_ids(state))


def forward_search(table: SuccessorTable, init, goals,
                   max_states: int = MAX_STATES):
    """Breadth-first search with duplicate detection from init to the goals,
    over states as int bitmasks: shortest sequential plan, complete on
    finite state spaces within the state budget."""
    goals = mask_of(goals)
    start = mask_of(init)
    if start & goals == goals:
        return Plan(())
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for action_id, succ, _ in transitions(table, state):
            if succ in parents:
                continue
            parents[succ] = (state, action_id)
            if succ & goals == goals:
                return _unwind(parents, succ)
            if len(parents) > max_states:
                return ResourceLimit("max_states", max_states)
            queue.append(succ)
    return Unsolvable("state space exhausted")


@dataclass(frozen=True)
class PlanEpisode:
    index: int  # 1-based agenda position
    initial: frozenset
    goals: frozenset
    plan: Plan
    outcome: str  # solved | unsolvable | resource_limit


@dataclass(frozen=True)
class AgendaPlanResult:
    status: str  # solved | episode_unsolvable | resource_limit
    plan: Plan
    episodes: tuple  # tuple[PlanEpisode, ...]
    failed_episode: int = 0  # 0 when solved
    invertibility_certified: bool = None
    validation: object = None


def _base_planner(name: str, problem: PlanningProblem, limits: dict):
    """The episode planner, a function of an initial state and goals, over
    the one per-problem table that every episode shares."""
    if name == "graphplan":
        return partial(graphplan_search, GraphContext(problem),
                       max_layers=limits.get("max_layers", MAX_LAYERS),
                       max_nodes=limits.get("max_nodes", MAX_NODES))
    if name == "forward":
        return partial(forward_search, SuccessorTable(problem),
                       max_states=limits.get("max_states", MAX_STATES))
    raise ValueError(f"unknown base planner {name!r}")


def _certified(problem: PlanningProblem, max_states: int) -> bool:
    """Whether a STRIPS problem is certified invertible against its
    reachable states, enumerated within ``max_states``; an ADL problem, or
    one past the budget, stays uncertified."""
    if problem.is_adl:
        return False
    try:
        reachable = oracle.enumerate_reachable(problem, max_states)
    except oracle.LimitExceeded:
        return False
    return oracle.check_invertibility(reachable).certified


def plan_with_agenda(problem: PlanningProblem, agenda: Agenda,
                     base: str = "graphplan", linearize_entries: bool = False,
                     limits: dict = None) -> AgendaPlanResult:
    """Run the base planner over incrementally growing goal sets.

    An unsolvable episode aborts the run; that verdict is definitive for the
    whole problem only when the problem is deadlock-free, so the result
    carries the invertibility certification status alongside. A STRIPS
    problem is certified against its reachable states, enumerated within
    the ``max_states`` budget; past the budget it stays uncertified.
    ``limits`` may set ``max_layers``, ``max_nodes`` and ``max_states``;
    any other key raises ValueError.
    """
    limits = limits or {}
    unknown = sorted(limits.keys() - {"max_layers", "max_nodes", "max_states"})
    if unknown:
        raise ValueError(f"unknown limits {unknown}")
    planner = _base_planner(base, problem, limits)
    entries = list(agenda.entries)
    if linearize_entries:
        entries = [frozenset([g]) for entry in entries for g in sorted(entry)]

    episodes = []
    all_steps: list = []
    state = frozenset(problem.init)
    cumulative = frozenset()
    for index, entry in enumerate(entries, start=1):
        cumulative |= entry
        outcome = planner(state, cumulative)
        if not isinstance(outcome, Plan):
            unsolvable = isinstance(outcome, Unsolvable)
            episodes.append(PlanEpisode(
                index, state, cumulative, Plan(()),
                "unsolvable" if unsolvable else "resource_limit"))
            return AgendaPlanResult(
                status="episode_unsolvable" if unsolvable
                else "resource_limit",
                plan=Plan(()),
                episodes=tuple(episodes),
                failed_episode=index,
                invertibility_certified=_certified(
                    problem, limits.get("max_states", MAX_STATES))
                if unsolvable else None,
            )
        episodes.append(PlanEpisode(index, state, cumulative, outcome,
                                    "solved"))
        state = next_initial_state(problem, state, outcome)
        if not cumulative <= state:
            raise InvalidPlanError(
                f"episode {index} ended without its cumulative goals")
        all_steps.extend(outcome.steps)

    plan = Plan(tuple(all_steps))
    report = validate_plan(problem, plan)
    if not report.valid:
        raise InvalidPlanError(
            f"concatenated plan failed validation: {report.issues}")
    return AgendaPlanResult(
        status="solved",
        plan=plan,
        episodes=tuple(episodes),
        validation=report,
    )
