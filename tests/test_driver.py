from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from goalagenda import corpus
from goalagenda.agenda import compute_agenda
from goalagenda.corpus import problem_from_dict
from goalagenda.driver import (
    InvalidPlanError,
    next_initial_state,
    plan_with_agenda,
)
from goalagenda.kernel import GraphKernel
from goalagenda.model import (
    Plan,
    PlanningProblem,
    ResourceLimit,
    SuccessorTable,
    Unsolvable,
    validate_plan,
)

from conftest import TWO_ROOMS, atoms, forward_on, graphplan_on, names_of
from test_kernels import random_problem
from test_oracle import strips_problem
from test_problem_index import count_builds, random_adl_problem, subsets


def test_forward_search_goals_already_true(load):
    problem = load("blocks3")
    trivial = PlanningProblem(problem.atoms, problem.actions, problem.init,
                              atoms(problem, "arm-empty()"))
    assert forward_on(trivial).steps == ()


def test_forward_search_trap_single_goal(load):
    problem = load("trap")
    single = PlanningProblem(problem.atoms, problem.actions, problem.init,
                             atoms(problem, "A"))
    plan = forward_on(single)
    assert [problem.actions[a].name for s in plan.steps for a in s] == \
        ["op2", "op3", "op4"]


def test_forward_search_trap_both_goals(load):
    problem = load("trap")
    plan = forward_on(problem)
    assert plan.action_count() == 4
    assert validate_plan(problem, plan).valid


def test_forward_search_unsolvable(load):
    problem = load("trap")
    stuck = PlanningProblem(problem.atoms, problem.actions,
                            atoms(problem, "B", "C"), problem.goals)
    assert isinstance(forward_on(stuck), Unsolvable)


def test_forward_search_state_budget(load):
    result = forward_on(load("gripper2"), max_states=3)
    assert isinstance(result, ResourceLimit)


def test_forward_search_handles_conditional_effects():
    from goalagenda.pddl import ground, parse
    from test_pddl import ADL_DOMAIN, ADL_PROBLEM

    problem = ground(*parse(ADL_DOMAIN, ADL_PROBLEM))
    plan = forward_on(problem)
    assert [problem.actions[a].name for s in plan.steps for a in s] == \
        ["flip(s1)"]
    assert validate_plan(problem, plan).valid


def goal_distance(problem):
    """Fewest actions from the initial state to a state holding the goals,
    by breadth-first search over the naive reference's state space; None
    when no such state is reachable."""
    states, edges, _ = ref.naive_enumerate(problem)
    depth = {0: 0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        if problem.goals <= states[i]:
            return depth[i]
        for _, j in edges[i]:
            if j not in depth:
                depth[j] = depth[i] + 1
                queue.append(j)
    return None


def check_forward_search(problem, max_states: int = 200_000):
    """The same plan or non-answer as the frozenset reference; a plan is as
    long as the goal's breadth-first distance, and ``Unsolvable`` means no
    goal state is reachable."""
    result = forward_on(problem, max_states=max_states)
    assert result == ref.naive_forward_search(problem, max_states)
    if isinstance(result, Plan):
        assert validate_plan(problem, result).valid
        assert result.action_count() == goal_distance(problem)
    elif isinstance(result, Unsolvable):
        assert goal_distance(problem) is None


@pytest.mark.parametrize("name", corpus.EXHAUSTIBLE)
def test_forward_search_matches_reference_on_corpus(load, name):
    check_forward_search(load(name))


@settings(max_examples=300, deadline=None)
@given(random_problem(max_facts=6, max_actions=8), st.data())
def test_forward_search_matches_reference_on_random_strips(spec, data):
    check_forward_search(strips_problem(spec, data.draw(subsets(spec[0]))),
                         data.draw(st.integers(1, 40)))


@settings(max_examples=200, deadline=None)
@given(random_adl_problem(max_atoms=6), st.data())
def test_forward_search_matches_reference_on_random_adl(problem, data):
    n_atoms = len(problem.atoms)
    check_forward_search(
        PlanningProblem(problem.atoms, problem.actions,
                        data.draw(subsets(n_atoms)),
                        data.draw(subsets(n_atoms))),
        data.draw(st.integers(1, 40)))


def test_next_initial_state_trap(load):
    problem = load("trap")
    state = next_initial_state(problem, problem.init,
                               Plan.sequential([problem.action_named("op1")]))
    assert state == atoms(problem, "B", "C")
    assert next_initial_state(problem, problem.init, Plan(())) == problem.init


def test_next_initial_state_blocks_episode(load):
    problem = load("blocks3")
    plan = Plan.sequential([problem.action_named("pickup(b)"),
                            problem.action_named("stack(b,c)")])
    state = next_initial_state(problem, problem.init, plan)
    assert state == atoms(problem, "on(b,c)", "on-table(a)", "on-table(c)",
                          "clear(a)", "clear(b)", "arm-empty()")


def test_next_initial_state_rejects_inapplicable(load):
    problem = load("trap")
    with pytest.raises(InvalidPlanError):
        next_initial_state(problem, problem.init,
                           Plan.sequential([problem.action_named("op3")]))


def test_next_initial_state_parallel_step(load):
    problem = load("gripper2")
    step = frozenset({problem.action_named("pick(ball1,roomA,left)"),
                      problem.action_named("pick(ball2,roomA,right)")})
    state = next_initial_state(problem, problem.init, Plan((step,)))
    assert atoms(problem, "carry(ball1,left)", "carry(ball2,right)") <= state
    assert not (atoms(problem, "at(ball1,roomA)", "free(left)") & state)


def test_hanoi_agenda_run_matches_episode_structure(load):
    problem = load("hanoi_3")
    agenda = compute_agenda(problem, "h")
    result = plan_with_agenda(problem, agenda, base="graphplan")
    assert result.status == "solved"
    assert [ep.plan.action_count() for ep in result.episodes] == [4, 2, 1]
    assert result.plan.action_count() == 7
    assert result.validation.valid
    # each episode state keeps the cumulative goals satisfied
    state = problem.init
    for ep in result.episodes:
        state = next_initial_state(problem, state, ep.plan)
        assert ep.goals <= state


def test_one_entry_agenda_equals_plain_search(load):
    problem = load("gripper2")
    agenda = compute_agenda(problem, "h")
    assert len(agenda.entries) == 1
    direct = graphplan_on(problem)
    driven = plan_with_agenda(problem, agenda, base="graphplan")
    assert driven.status == "solved"
    assert driven.plan == direct


@pytest.mark.parametrize("name, base, table, episodes", [
    ("tyreworld_3", "graphplan", GraphKernel, 7),
    ("tyreworld_1", "forward", SuccessorTable, 6),
])
def test_one_planning_table_per_plan_with_agenda_call(load, monkeypatch, name,
                                                      base, table, episodes):
    """Every episode plans over the per-problem table the call builds once:
    the layer kernel for the layered planner, the successor table for the
    forward one."""
    problem = load(name)
    agenda = compute_agenda(problem, "h")
    built = count_builds(monkeypatch, table)
    result = plan_with_agenda(problem, agenda, base=base)
    assert result.status == "solved"
    assert len(result.episodes) == episodes
    assert len(built) == 1


def test_trap_agenda_fails_in_episode_two(load):
    problem = load("trap")
    agenda = compute_agenda(problem, "h")
    assert [names_of(problem, e) for e in agenda.entries] == [["B"], ["A"]]
    for base in ("graphplan", "forward"):
        result = plan_with_agenda(problem, agenda, base=base)
        assert result.status == "episode_unsolvable"
        assert result.failed_episode == 2
        assert result.invertibility_certified is False
        assert result.episodes[0].plan.action_count() == 1


def test_unsolvable_invertible_problem_is_certified():
    problem = problem_from_dict(TWO_ROOMS)
    agenda = compute_agenda(problem, "h")
    for base in ("graphplan", "forward"):
        result = plan_with_agenda(problem, agenda, base=base)
        assert result.status == "episode_unsolvable"
        assert result.failed_episode == 1
        assert result.invertibility_certified is True


def test_certification_past_the_state_budget_is_false():
    problem = problem_from_dict(TWO_ROOMS)
    agenda = compute_agenda(problem, "h")
    result = plan_with_agenda(problem, agenda, base="graphplan",
                              limits={"max_states": 1})
    assert result.status == "episode_unsolvable"
    assert result.invertibility_certified is False


def test_linearize_entries_splits_singletons(load):
    problem = load("gripper2")
    agenda = compute_agenda(problem, "h")
    result = plan_with_agenda(problem, agenda, base="graphplan",
                              linearize_entries=True)
    assert result.status == "solved"
    assert len(result.episodes) == len(problem.goals)
    assert result.validation.valid


def test_driver_resource_limit_reported(load):
    problem = load("gripper2")
    agenda = compute_agenda(problem, "h")
    result = plan_with_agenda(problem, agenda, base="forward",
                              limits={"max_states": 2})
    assert result.status == "resource_limit"
    assert result.failed_episode == 1


def test_misspelled_limit_is_rejected(load):
    """A budget under a key the planners do not read would leave its
    default in force, so an unknown key is refused before any search."""
    problem = load("blocks3")
    agenda = compute_agenda(problem, "h")
    with pytest.raises(ValueError, match=r"\['max_node'\]"):
        plan_with_agenda(problem, agenda, limits={"max_node": 1})
    result = plan_with_agenda(problem, agenda, limits={"max_nodes": 1})
    assert result.status == "resource_limit"


def test_solved_runs_validate_against_original(load):
    for name in ("blocks3", "stack_4", "hanoi_3", "gripper2", "diamond",
                 "latch"):
        problem = load(name)
        agenda = compute_agenda(problem, "h")
        base = "graphplan" if not problem.is_adl else "forward"
        result = plan_with_agenda(problem, agenda, base=base)
        assert result.status == "solved", name
        report = validate_plan(problem, result.plan)
        assert report.valid, name
        if name == "latch":
            # the agenda is what makes this solvable: the signal must wait
            assert [names_of(problem, e) for e in agenda.entries] == \
                [["message"], ["signal"]]
