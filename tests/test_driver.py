from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from goalagenda import corpus, driver
from goalagenda.agenda import Agenda, compute_agenda
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

from conftest import (TWO_ROOMS, TWO_ROOMS_ADL, atoms, forward_on,
                      graphplan_on, names_of)
from test_kernels import random_problem
from test_oracle import strips_problem
from test_problem_index import count_builds, random_adl_problem, subsets


@pytest.mark.parametrize("base", ["graphplan", "forward"])
@pytest.mark.parametrize("bad", [999, -1])
def test_plan_with_agenda_rejects_goals_that_are_not_atoms(load, base, bad):
    """An agenda goal outside the atom table is a ValueError naming it,
    before any episode runs, for either base planner."""
    problem = load("blocks3")
    agenda = Agenda((problem.goals, frozenset({bad})), "h")
    with pytest.raises(ValueError, match=f"atom id {bad} out of range"):
        plan_with_agenda(problem, agenda, base=base)


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


def test_adl_problem_is_never_certified():
    """TWO_ROOMS in ADL form fails the same episode, but certification is
    defined for STRIPS only, so the verdict stays uncertified."""
    problem = problem_from_dict(TWO_ROOMS_ADL)
    result = plan_with_agenda(problem, compute_agenda(problem, "h"),
                              base="forward")
    assert result.status == "episode_unsolvable"
    assert result.failed_episode == 1
    assert result.invertibility_certified is False


def _empty_plans(name, problem, limits):
    """A base planner that returns the empty plan for every episode."""
    return lambda state, goals: Plan(())


@pytest.mark.parametrize("case, error, message", [
    ("unknown base", ValueError, "unknown base planner 'astar'"),
    ("episode plan misses its goals", InvalidPlanError,
     "episode 1 ended without its cumulative goals"),
    ("agenda misses a goal", InvalidPlanError,
     "concatenated plan failed validation"),
])
def test_plan_with_agenda_refuses(load, monkeypatch, case, error, message):
    """An unknown base is refused before any search. A plan that does not
    reach its episode's goals is refused after that episode, and a run
    whose agenda leaves a goal out fails the final validation (every
    episode plan executes and reaches its own goals, so only the problem's
    goals can be missed)."""
    problem = load("blocks3")
    agenda = compute_agenda(problem, "h")
    base = "graphplan"
    if case == "unknown base":
        base = "astar"
    elif case == "episode plan misses its goals":
        monkeypatch.setattr(driver, "_base_planner", _empty_plans)
    else:
        agenda = Agenda(agenda.entries[:-1], agenda.method)
    with pytest.raises(error, match=message):
        plan_with_agenda(problem, agenda, base=base)


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


def _agendas(problem, graph):
    """The one-entry agenda (every goal at once) and the ``h`` and ``e``
    agendas of a problem."""
    return {"one": Agenda((problem.goals,), "h"),
            "h": compute_agenda(problem, "h"),
            "e": compute_agenda(problem, "e", graph)}


@pytest.mark.parametrize("name", ["stack_8", "stack_10", "tyreworld_2"])
def test_agenda_plans_where_one_entry_runs_out(load, graph_of, name):
    """The paper's claim at small scale, as counts: under a budget of 1,000
    backward-search nodes per episode the one-entry run runs out in its
    one episode, while the ``h`` and ``e`` agendas both plan."""
    problem = load(name)
    for label, agenda in _agendas(problem, graph_of(name)).items():
        result = plan_with_agenda(problem, agenda,
                                  limits={"max_nodes": 1000})
        if label == "one":
            assert (result.status, result.failed_episode) == \
                ("resource_limit", 1)
        else:
            assert result.status == "solved", label
            assert validate_plan(problem, result.plan).valid, label


@pytest.mark.parametrize("name, runs", [
    ("tyreworld_2", {"one": (30, 18), "h": (32, 24), "e": (32, 23)}),
    ("stack_10", {"h": (18, 18), "e": (18, 18)}),
])
def test_agenda_plan_lengths_are_pinned(load, graph_of, name, runs):
    """Plan actions and steps at the default budgets: the one-entry run's
    plan is step-optimal, an agenda's is a concatenation of per-episode
    plans, so it may be longer (tyreworld_2)."""
    problem = load(name)
    agendas = _agendas(problem, graph_of(name))
    for label, (actions, steps) in runs.items():
        result = plan_with_agenda(problem, agendas[label])
        assert result.status == "solved", label
        assert (result.plan.action_count(), len(result.plan.steps)) == \
            (actions, steps), label
