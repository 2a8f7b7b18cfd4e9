import importlib.util
import inspect
import random
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from goalagenda import corpus, graphplan
from goalagenda.agenda import compute_agenda
from goalagenda.driver import AgendaPlanResult, plan_with_agenda
from goalagenda.graphplan import (
    GraphContext,
    build_graph,
    false_set,
    graph_dump,
    graphplan_search,
)
from goalagenda.model import (
    AtomTable,
    LimitExceeded,
    PlanningProblem,
    ResourceLimit,
    StripsAction,
    Unsolvable,
    mask_ids,
    mask_of,
    validate_plan,
)
from goalagenda.oracle import enumerate_reachable
from goalagenda.pddl import ground, parse

from conftest import TWO_ROOMS_ADL, atoms, graphplan_on, names_of
from reference import LinearScanSearch, RecursiveSearch
from test_kernels import random_problem


def strips(table, name, pre, add, dele):
    return StripsAction(name, frozenset(map(table.id, pre)),
                        frozenset(map(table.id, add)),
                        frozenset(map(table.id, dele)))


def recorded(run, search_class):
    """``run()`` with each backward search made by ``search_class``: the
    result, and the searches, in the order they ran."""
    searches = []

    class Recorded(search_class):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    with mock.patch.object(graphplan, "_BackwardSearch", Recorded):
        result = run()
    return result, searches


def footprint(search):
    """The nodes a search used and the size of its memo per fact layer."""
    return search.nodes_used, {t: len(m) for t, m in search.memo.items() if m}


def assert_matches_scan(run, search_class=graphplan._BackwardSearch):
    """The indexed subset-nogood test finds exactly the nogoods the linear
    scan finds: the same result, and search by search the same nodes,
    backjumps and memo sizes. Returns the result and the searches of
    ``search_class``."""
    result, searches = recorded(run, search_class)
    expected, scans = recorded(run, LinearScanSearch)
    assert result == expected
    assert list(map(footprint, searches)) == list(map(footprint, scans))
    assert [search.backjumps for search in searches] == \
        [scan.backjumps for scan in scans]
    return result, searches


def out_of_nodes(result) -> bool:
    if isinstance(result, AgendaPlanResult):
        return result.status == "resource_limit"
    return isinstance(result, ResourceLimit)


def assert_matches_reference(run):
    """The search cuts only subtrees that hold no plan, so against the
    recursive reference search it returns the same plan or Unsolvable
    verdict, runs out of nodes only where the reference does, and uses no
    more nodes in any search. Under a small budget it may finish where the
    reference runs out."""
    result, searches = recorded(run, graphplan._BackwardSearch)
    expected, expected_searches = recorded(run, RecursiveSearch)
    nodes = [search.nodes_used for search in searches]
    expected_nodes = [search.nodes_used for search in expected_searches]
    if out_of_nodes(expected):
        if isinstance(expected, AgendaPlanResult):
            before = expected.failed_episode - 1
            assert result.episodes[:before] == expected.episodes[:before]
    else:
        assert result == expected
        assert len(nodes) == len(expected_nodes)
    assert not out_of_nodes(result) or out_of_nodes(expected)
    assert all(n <= m for n, m in zip(nodes, expected_nodes)), \
        (nodes, expected_nodes)


def test_three_block_false_sets(load, graph_of):
    problem = load("blocks3")
    graph = graph_of("blocks3")
    on_bc = problem.atom("on(b,c)")
    fs_bc = false_set(graph, {on_bc})
    assert names_of(problem, fs_bc) == sorted([
        "clear(c)", "on-table(b)", "holding(c)", "holding(b)",
        "on(a,c)", "on(c,b)", "on(b,a)"])
    fs_ab = false_set(graph, atoms(problem, "on(a,b)"))
    assert names_of(problem, fs_ab) == sorted([
        "clear(b)", "on-table(a)", "holding(b)", "holding(a)",
        "on(a,c)", "on(c,b)", "on(b,a)"])
    # the anchor is not mutex with itself at level-off
    assert not graph.fact_mutex[graph.leveled_at][on_bc] >> on_bc & 1


def test_false_set_of_empty_anchor_is_empty(graph_of):
    assert false_set(graph_of("blocks3"), frozenset()) == frozenset()


def test_false_set_set_anchor_unions_rows(load, graph_of):
    problem = load("blocks3")
    graph = graph_of("blocks3")
    both = false_set(graph, atoms(problem, "on(b,c)", "on(a,b)"))
    single = false_set(graph, atoms(problem, "on(b,c)")) | \
        false_set(graph, atoms(problem, "on(a,b)"))
    assert both == single - atoms(problem, "on(b,c)", "on(a,b)")


@pytest.mark.parametrize("bad", [999, -1])
def test_false_set_rejects_ids_that_are_not_atoms(graph_of, bad):
    """An id outside the atom table is a ValueError naming it, neither the
    unreachable-anchor signal (which means a trivial ordering) nor a
    negative shift."""
    with pytest.raises(ValueError, match=f"atom id {bad} out of range"):
        false_set(graph_of("blocks3"), {0, bad})


@pytest.mark.parametrize("bad", [999, -1])
def test_graphplan_search_rejects_ids_that_are_not_atoms(load, bad):
    """An init or goal id outside the atom table is a ValueError naming it,
    neither an Unsolvable verdict nor a negative shift."""
    problem = load("blocks3")
    context = GraphContext(problem)
    message = f"atom id {bad} out of range"
    with pytest.raises(ValueError, match=message):
        graphplan_search(context, problem.init, problem.goals | {bad})
    with pytest.raises(ValueError, match=message):
        graphplan_search(context, problem.init | {bad}, problem.goals)


def test_unreachable_anchor_has_no_false_set():
    """An anchor atom that never enters the graph gives None, the trivial
    ordering, also beside a reachable anchor atom."""
    table = AtomTable(["P", "Q", "Z"])
    problem = PlanningProblem(
        table, (strips(table, "a", ["P"], ["Q"], []),),
        frozenset({table.id("P")}), frozenset({table.id("Z")}))
    graph = build_graph(problem)
    assert false_set(graph, {table.id("Z")}) is None
    assert false_set(graph, {table.id("P"), table.id("Z")}) is None


def test_no_action_problem_levels_off_immediately():
    table = AtomTable(["P", "Q"])
    problem = PlanningProblem(table, (), frozenset({table.id("P")}),
                              frozenset({table.id("P")}))
    graph = build_graph(problem)
    assert graph.leveled_at == 0
    assert graph.fact_layers[0] == mask_of(problem.init)
    assert graph.mutex_counts == [0, 0]


def test_layer_monotonicity(load):
    """Fact layers only grow; a pair present and non-exclusive never turns
    exclusive; once the fact set reaches its final value the pair count
    never grows. (A fact layer may stall and grow again later when a mutex
    relaxation unlocks an action, so "final", not "first repeated".)"""
    for name in ("blocks3", "hanoi_3", "gripper2", "stack_4"):
        graph = build_graph(load(name), retain_layers=True)
        layers = graph.fact_layers
        stable_from = min(t for t in range(len(layers))
                          if layers[t] == layers[-1])
        for t in range(len(layers) - 1):
            assert not layers[t] & ~layers[t + 1]
            rows_now = graph.fact_mutex[t]
            rows_next = graph.fact_mutex[t + 1]
            for p in mask_ids(layers[t]):
                for q in mask_ids(layers[t]):
                    if p < q and not rows_now[p] >> q & 1:
                        assert not rows_next[p] >> q & 1
        for t in range(stable_from, len(layers) - 1):
            assert graph.mutex_counts[t] >= graph.mutex_counts[t + 1]


def test_level_off_bound(load):
    for name in ("blocks3", "gripper2", "hanoi_3"):
        problem = load(name)
        graph = build_graph(problem)
        n = len(problem.atoms)
        assert graph.leveled_at <= n + n * (n - 1) // 2


def test_light_retention_keeps_leveled_rows(load):
    """Light retention, build_graph's default, drops the mutex rows below
    level-off and the action tables, and keeps what graph-dump and the
    benchmark counters read: the layers, their node ids, their pair counts
    and the level-off layer."""
    for name in corpus.ALL_NAMED:
        graph = build_graph(load(name))
        leveled = graph.leveled_at
        assert graph.fact_mutex[leveled] is not None
        assert all(rows is None for rows in graph.fact_mutex[:leveled])
        assert graph.action_mutex[0] is None
        full = build_graph(load(name), retain_layers=True)
        assert graph.fact_layers == full.fact_layers, name
        assert graph.action_layers == full.action_layers, name
        assert graph.mutex_counts == full.mutex_counts, name
        assert leveled == full.leveled_at, name
        assert graph.fact_mutex[leveled] == full.fact_mutex[leveled], name


def test_search_three_blocks(load):
    problem = load("blocks3")
    plan = graphplan_on(problem)
    assert len(plan.steps) == 4 and plan.action_count() == 4
    report = validate_plan(problem, plan)
    assert report.valid


def test_search_goals_already_true(load):
    problem = load("blocks3")
    trivial = PlanningProblem(problem.atoms, problem.actions, problem.init,
                              atoms(problem, "on-table(a)"))
    assert graphplan_on(trivial).steps == ()


def test_search_reports_unsolvable_when_goal_never_appears():
    table = AtomTable(["C", "A", "P", "Q", "R", "B"])
    inner = strips(table, "inner", ["P"], ["Q"], [])
    o_i1 = strips(table, "o_i1", ["C"], ["A"], ["C"])
    o_i2 = strips(table, "o_i2", ["A"], ["P"], ["A"])
    o_g = strips(table, "o_g", ["R"], ["B"], [])  # R can never hold
    problem = PlanningProblem(table, (inner, o_i1, o_i2, o_g),
                              frozenset({table.id("C")}),
                              frozenset({table.id("B")}))
    graph = build_graph(problem)
    assert not any(layer >> table.id("B") & 1 for layer in graph.fact_layers)
    assert isinstance(graphplan_on(problem), Unsolvable)

    solvable = PlanningProblem(
        table, (inner, o_i1, o_i2, strips(table, "o_g", ["Q"], ["B"], [])),
        frozenset({table.id("C")}), frozenset({table.id("B")}))
    assert any(layer >> table.id("B") & 1
               for layer in build_graph(solvable).fact_layers)
    plan = graphplan_on(solvable)
    assert validate_plan(solvable, plan).valid


def test_search_unsolvable_by_memo_exhaustion():
    """Three pairwise-compatible goals that can never hold jointly: binary
    mutexes cannot see it, so the proof must come from memoization."""
    table = AtomTable(["A", "B", "C"])
    acts = (strips(table, "ab", [], ["A", "B"], ["C"]),
            strips(table, "bc", [], ["B", "C"], ["A"]),
            strips(table, "ca", [], ["C", "A"], ["B"]))
    problem = PlanningProblem(table, acts, frozenset(),
                              frozenset({0, 1, 2}))
    result, searches = recorded(lambda: graphplan_on(problem),
                                graphplan._BackwardSearch)
    assert isinstance(result, Unsolvable)
    assert "memoized" in result.reason
    # the proof starts counting at the leveled horizon: nodes and memo
    # sizes as recorded with the graph built to level-off before the search
    assert list(map(footprint, searches)) == [(5, {1: 1, 2: 1})]
    for max_nodes in (10, 30, 10 ** 7):
        assert_matches_reference(
            lambda: graphplan_on(problem, max_nodes=max_nodes))


def test_search_resource_limit(load):
    result = graphplan_on(load("blocks3"), max_nodes=3)
    assert isinstance(result, ResourceLimit)
    assert result.limit == "max_nodes"


def test_parallel_steps_are_conflict_free(load):
    problem = load("gripper2")
    plan = graphplan_on(problem)
    report = validate_plan(problem, plan)
    assert report.valid
    assert any(len(step) > 1 for step in plan.steps), \
        "both balls can be picked in one step"


def test_deterministic_plans(load):
    problem = load("hanoi_3")
    assert graphplan_on(problem) == graphplan_on(problem)


def test_max_layers_bounds_the_layers_grown_not_the_horizon(load):
    """hanoi_3's graph levels off at layer 5 and its plan takes 7 steps: a
    budget of 6 layers reaches level-off, so the horizons past it need no
    layer and find the plan; a budget of 5 ends before level-off."""
    problem = load("hanoi_3")
    plan = graphplan_on(problem)
    assert len(plan.steps) == 7 and build_graph(problem).leveled_at == 5
    assert graphplan_on(problem, max_layers=6) == plan
    with pytest.raises(LimitExceeded):
        graphplan_on(problem, max_layers=5)


@pytest.mark.parametrize("name", ["tyreworld_2", "trap"])
def test_episodes_share_one_context(load, name):
    """An agenda's episodes, replayed in reverse order over one context, get
    the outcomes they get over fresh contexts, and the context's tables are
    still those of a fresh build: no search writes to the context."""
    problem = load(name)
    result = plan_with_agenda(problem, compute_agenda(problem, "h"))
    assert len(result.episodes) > 1
    shared = GraphContext(problem)
    for episode in reversed(result.episodes):
        outcome = graphplan_search(shared, episode.initial, episode.goals)
        assert outcome == graphplan_search(GraphContext(problem),
                                           episode.initial, episode.goals)
        if episode.outcome == "solved":
            assert outcome == episode.plan
    fresh = GraphContext(problem)
    assert shared.kernel.n_actions == fresh.kernel.n_actions
    assert vars(shared.kernel) == vars(fresh.kernel)


def test_graph_dump_shape(load, graph_of):
    dump = graph_dump(graph_of("blocks3"))
    assert dump["leveled_at"] == len(dump["layers"]) - 2
    assert all(layer["facts"] >= 0 for layer in dump["layers"])


def test_adl_actions_split_into_effect_nodes(load):
    from test_pddl import ADL_DOMAIN, ADL_PROBLEM

    problem = ground(*parse(ADL_DOMAIN, ADL_PROBLEM))
    flip_id = problem.action_named("flip(s1)")
    flip = problem.ways[flip_id]
    assert len(flip) == 3  # unconditional part plus two when clauses
    pre0 = problem.actions[flip_id].effects[0].condition
    assert all(pre0 <= condition for condition, _, _ in flip)
    assert GraphContext(problem).kernel.n_actions == \
        sum(map(len, problem.ways))
    graph = build_graph(problem)
    assert graph.fact_layers[graph.leveled_at] >> problem.atom("lit(s1)") & 1


def test_search_requires_a_strips_problem():
    problem = corpus.problem_from_dict(TWO_ROOMS_ADL)
    with pytest.raises(ValueError, match="requires a STRIPS problem"):
        graphplan_on(problem)


@pytest.mark.parametrize("method", ["h", "e"])
@pytest.mark.parametrize("name", ["blocks3", "gripper2", "hanoi_3", "hanoi_4",
                                  "stack_6", "tyreworld_1", "tyreworld_2",
                                  "trap", "revival", "diamond"])
def test_search_matches_reference_on_corpus(load, name, method):
    """The reference's steps and verdicts, episode by episode over the goal
    agenda, in no more nodes, also under small node budgets."""
    problem = load(name)
    graph = build_graph(problem, retain_layers=False) if method == "e" else None
    agenda = compute_agenda(problem, method, graph)
    for max_nodes in (50, 500, 5000, 10 ** 7):
        assert_matches_reference(
            lambda: plan_with_agenda(problem, agenda,
                                     limits={"max_nodes": max_nodes}))


def problem_of(n_facts, nodes, init, goals):
    table = AtomTable(f"f{i}" for i in range(n_facts))
    actions = tuple(StripsAction(f"a{i}", frozenset(pre), frozenset(add),
                                 frozenset(dele))
                    for i, (pre, add, dele) in enumerate(nodes))
    return PlanningProblem(table, actions, frozenset(init), frozenset(goals))


@settings(max_examples=300, deadline=None)
@given(random_problem(max_facts=8, max_actions=14), st.data())
def test_search_matches_reference_on_random_problems(spec, data):
    """The recursive search's result in no more nodes; small node budgets
    make the ResourceLimit verdict check the node count itself."""
    n_facts, nodes, init = spec
    goals = data.draw(st.lists(st.integers(0, n_facts - 1), min_size=1,
                               max_size=5, unique=True))
    max_nodes = data.draw(st.integers(1, 60) | st.just(10 ** 7))
    problem = problem_of(n_facts, nodes, init, goals)
    assert_matches_reference(
        lambda: graphplan_on(problem, max_nodes=max_nodes))
    assert_matches_scan(lambda: graphplan_on(problem, max_nodes=max_nodes))


@pytest.mark.parametrize("name, nodes", [
    ("hanoi_4", [1757, 50, 10, 5]),
    ("tyreworld_3", [15, 2883, 968, 14, 15, 16, 17]),
])
def test_agenda_search_nodes_are_pinned(load, name, nodes):
    """``plan -m h`` makes one search per agenda episode; the nodes each
    uses were recorded under the linear subset scan, and the scan still
    agrees search by search. The chronological search used 1895 and 51222
    nodes in the largest episodes; backjumping below level-off cut them to
    1757 and 5386. Symmetric nogoods, which count no nodes, then cut
    tyreworld_3's episodes 2 and 3 from 5386 and 1333 nodes to 2883 and
    968; hanoi_4 has no symmetry, and its counts stayed."""
    problem = load(name)
    agenda = compute_agenda(problem, "h", None)
    _, searches = assert_matches_scan(lambda: plan_with_agenda(problem, agenda))
    assert [search.nodes_used for search in searches] == nodes


def grown_graphs(run):
    """The graph each backward search of ``run()`` grew, in the order the
    searches ran."""
    _, searches = recorded(run, graphplan._BackwardSearch)
    return [search.graph for search in searches]


def assert_grown_layers_match_build(graph):
    """Every layer the search grew over its context, from its initial state,
    equals the layer of the same index in the graph built to level-off from
    that state, and growth saw level-off where it reached it."""
    init = frozenset(mask_ids(graph.fact_layers[0]))
    full = build_graph(replace(graph.context.problem, init=init),
                       retain_layers=True)
    grown = len(graph.action_layers)
    if graph.leveled_at is None:
        assert grown <= full.leveled_at
    else:
        assert graph.leveled_at == full.leveled_at
    assert len(graph.fact_layers) == grown + 1
    assert graph.fact_layers == full.fact_layers[:grown + 1]
    assert graph.action_layers == full.action_layers[:grown]
    assert graph.action_mutex == full.action_mutex[:grown]
    assert graph.achievers == full.achievers[:grown]
    assert graph.fact_mutex == full.fact_mutex[:grown + 1]
    assert graph.mutex_counts == full.mutex_counts[:grown + 1]


def assert_growth_matches_build(problem, methods):
    """Plain, and episode by episode over the agenda of each method."""
    runs = [lambda: graphplan_on(problem)]
    for method in methods:
        graph = build_graph(problem, retain_layers=False) \
            if method == "e" else None
        agenda = compute_agenda(problem, method, graph)
        runs.append(lambda agenda=agenda: plan_with_agenda(problem, agenda))
    for run in runs:
        for graph in grown_graphs(run):
            assert_grown_layers_match_build(graph)


@pytest.mark.parametrize("name", [n for n in corpus.ALL_NAMED
                                  if n != "latch"])
def test_grown_layers_match_build_on_corpus(load, name):
    assert_growth_matches_build(load(name), ("h", "e"))


@settings(max_examples=200, deadline=None)
@given(random_problem(max_facts=8, max_actions=14), st.data())
def test_grown_layers_match_build_on_random_problems(spec, data):
    n_facts, nodes, init = spec
    goals = data.draw(st.lists(st.integers(0, n_facts - 1), min_size=1,
                               max_size=5, unique=True))
    method = data.draw(st.sampled_from("he"))
    assert_growth_matches_build(problem_of(n_facts, nodes, init, goals),
                                (method,))


@pytest.mark.parametrize("name, method, layers, leveled", [
    # every episode plans at horizon 2, while the episodes' graphs level
    # off at layers 4, 6, ..., 16
    ("stack_8", "e", [2] * 7, [None] * 7),
    ("tyreworld_3", "h", [3, 14, 9, 1, 1, 1, 1], [None, 13] + [None] * 5),
])
def test_layers_grown_per_episode_are_pinned(load, name, method, layers,
                                            leveled):
    problem = load(name)
    graph = build_graph(problem, retain_layers=False) if method == "e" \
        else None
    agenda = compute_agenda(problem, method, graph)
    graphs = grown_graphs(lambda: plan_with_agenda(problem, agenda))
    assert [len(g.action_layers) for g in graphs] == layers
    assert [g.leveled_at for g in graphs] == leveled


def parallel_successors(problem, state):
    """The states one parallel step leads to from ``state``: each step a
    non-empty set of pairwise non-interfering actions applicable in it."""
    applicable = [a for a in problem.actions if a.pre <= state]
    out = set()

    def extend(start, step, adds, deletes):
        for i in range(start, len(applicable)):
            a = applicable[i]
            if any(a.delete & (b.pre | b.add) or b.delete & (a.pre | a.add)
                   for b in step):
                continue
            out.add((state | adds | a.add) - (deletes | a.delete))
            extend(i + 1, step + [a], adds | a.add, deletes | a.delete)

    extend(0, [], frozenset(), frozenset())
    return out


def fewest_parallel_steps(problem):
    """Breadth-first search over parallel steps: the fewest steps that reach
    the goals; None when no reachable state holds the goals."""
    frontier = {problem.init}
    seen = set(frontier)
    steps = 0
    while frontier:
        if any(problem.goals <= state for state in frontier):
            return steps
        successors = set()
        for state in frontier:
            successors |= parallel_successors(problem, state) - seen
        seen |= successors
        frontier = successors
        steps += 1
    return None


def assert_nogoods_sound(problem, searches):
    """Every goal set memoized at fact layer t, at and below level-off
    alike, holds in no state reachable from the search's initial state
    within t parallel steps (a step may keep the state as it is)."""
    successors: dict = {}
    reached: dict = {}  # initial state -> the states reachable within t steps
    for search in searches:
        init = frozenset(mask_ids(search.graph.fact_layers[0]))
        layers = reached.setdefault(init, [{init}])
        for t, nogoods in search.memo.items():
            while len(layers) <= t:
                within = set(layers[-1])
                for state in layers[-1]:
                    if state not in successors:
                        successors[state] = parallel_successors(problem,
                                                                state)
                    within |= successors[state]
                layers.append(within)
            for nogood in nogoods:
                facts = frozenset(mask_ids(nogood))
                assert not any(facts <= state for state in layers[t]), \
                    (t, sorted(facts))


@settings(max_examples=300, deadline=None)
@given(random_problem(max_facts=6, max_actions=6), st.data())
def test_search_is_sound_and_step_optimal_on_random_problems(spec, data):
    """An Unsolvable verdict holds in the exhaustive state space; a plan is
    valid and has the fewest parallel steps; every memoized set is a
    nogood."""
    n_facts, nodes, init = spec
    goals = data.draw(st.lists(st.integers(0, n_facts - 1), min_size=1,
                               max_size=4, unique=True))
    problem = problem_of(n_facts, nodes, init, goals)
    result, searches = recorded(lambda: graphplan_on(problem),
                                graphplan._BackwardSearch)
    assert_nogoods_sound(problem, searches)
    fewest = fewest_parallel_steps(problem)
    if isinstance(result, Unsolvable):
        assert not any(problem.goals <= state
                       for state in enumerate_reachable(problem).states)
        assert fewest is None
    else:
        assert validate_plan(problem, result).valid
        assert len(result.steps) == fewest


@st.composite
def cycle_problem(draw):
    """The ab/bc/ca fixture grown to k goal facts in a cycle, with noise.

    Cycle action i adds goals i and i+1 (mod k) and deletes goal i+2. Noise
    actions draw preconditions, adds and deletes over all facts, extra facts
    included, and each deletes a goal it does not add. Every action deletes
    a goal and the initial state lacks goal 0, so no state holds all k;
    every pair of goals is jointly reachable, so no binary mutex separates
    them, and only the memoized nogoods can prove the goals unsolvable."""
    k = draw(st.integers(3, 5))
    n_facts = k + draw(st.integers(0, 3))
    facts = st.lists(st.integers(0, n_facts - 1), max_size=3, unique=True)
    nodes = [([], [i, (i + 1) % k], [(i + 2) % k]) for i in range(k)]
    for _ in range(draw(st.integers(0, 4))):
        goal = draw(st.integers(0, k - 1))
        pre = draw(facts)
        add = [f for f in draw(facts) if f != goal]
        nodes.append((pre, add, sorted({goal, *draw(facts)} - set(add))))
    init = [f for f in draw(facts) if f != 0]
    order = draw(st.permutations(range(len(nodes))))
    return n_facts, [nodes[i] for i in order], init, range(k)


@settings(max_examples=60, deadline=None)
@given(cycle_problem(), st.integers(1, 60) | st.just(10 ** 7))
def test_search_proves_cycles_unsolvable_by_memo_exhaustion(spec, max_nodes):
    """Every problem of the family reaches the level-off exhaustion proof,
    which the exhaustive state space confirms, every memoized set is a
    nogood, and the search agrees with the reference under any node
    budget."""
    problem = problem_of(*spec)
    result, searches = recorded(lambda: graphplan_on(problem),
                                graphplan._BackwardSearch)
    assert_nogoods_sound(problem, searches)
    assert isinstance(result, Unsolvable)
    assert "memoized" in result.reason
    assert not any(problem.goals <= state
                   for state in enumerate_reachable(problem).states)
    assert_matches_reference(
        lambda: graphplan_on(problem, max_nodes=max_nodes))


def bottleneck_problem(rng):
    """Goals that share one bottleneck fact, achieved through nested
    preconditions.

    Fact 0 is the bottleneck: every goal achiever needs and deletes it, and
    an action with no precondition adds it back, so the goals come one at a
    time. Facts 1..r form a chain, each added by an action that needs the
    one before. Each goal has one to three achievers, each needing the
    bottleneck plus a prefix of the chain, so one goal's achievers leave
    nested subgoal sets. The actions are shuffled, so a longer prefix is
    tried before a shorter one about as often as after. An achiever may
    delete another goal; in a cyclic problem each achiever of goal i
    deletes goal i + 1, so no state holds every goal, as in
    cycle_problem."""
    def maybe(facts, p=0.5):
        return facts if rng.random() < p else []

    r = rng.randint(1, 3)
    m = rng.randint(2, 4)
    chain = list(range(1, r + 1))
    goals = list(range(r + 1, r + 1 + m))
    nodes = [([], [0], [])]
    for j, fact in enumerate(chain):
        nodes.append((chain[j - 1:j] + maybe([0]), [fact], maybe([0])))
    cyclic = m >= 3 and rng.random() < 0.3
    for i, goal in enumerate(goals):
        for j in rng.sample(range(r + 1), rng.randint(1, min(3, r + 1))):
            if cyclic:
                other = [goals[(i + 1) % m]]
            else:
                other = maybe([rng.choice(goals)], 0.3)
            nodes.append(([0] + chain[:j], [goal],
                          sorted({0, *other} - {goal})))
    rng.shuffle(nodes)
    return r + 1 + m, nodes, maybe([0]), goals


class CutProbe(graphplan._BackwardSearch):
    """The search, recording per fact layer the sets that failed by
    containing a nogood, and counting the opened sets that are proper
    subsets of a nogood."""

    def __init__(self, *args):
        super().__init__(*args)
        self.cut: dict = {}
        self.subsets_opened = 0

    def _open(self, goals, t):
        memoized = goals in self.memo.get(t, ())
        level = super()._open(goals, t)
        if isinstance(level, int):
            if not memoized:
                self.cut.setdefault(t, set()).add(goals)
        elif any(goals | n == n for n in self.memo[t]):
            self.subsets_opened += 1
        return level


def test_subset_nogoods_on_nested_goal_sets_over_a_bottleneck():
    """Seeded problems whose searches reopen, at one fact layer, both
    supersets of a failed set (cut there) and proper subsets of one (which
    must be searched). The index holds, under its highest fact, the nogood
    memoized for each set the search failed (the set itself, or below
    level-off its explanation), and nothing for a set that failed by a cut;
    every memoized set is a nogood; the search visits what the linear scan
    visits, agrees with the recursive reference, and its Unsolvable
    verdicts hold in the exhaustive state space."""
    cuts = subsets_opened = unsolvable = backjumps = 0
    for seed in range(200):
        rng = random.Random(seed)
        problem = problem_of(*bottleneck_problem(rng))
        for max_nodes in (rng.randint(1, 60), 10 ** 7):
            run = lambda: graphplan_on(problem, max_nodes=max_nodes)
            result, searches = assert_matches_scan(run, CutProbe)
            assert_matches_reference(run)
            assert_nogoods_sound(problem, searches)
        for search in searches:
            for t, nogoods in search.memo.items():
                failed = nogoods.keys() - search.cut.get(t, set())
                indexed = [(f, n) for f, bucket
                           in search.by_top.get(t, {}).items()
                           for n in bucket]
                assert sorted(indexed) == sorted(
                    (n.bit_length() - 1, n)
                    for n in {nogoods[g] for g in failed})
            backjumps += search.backjumps
            cuts += sum(map(len, search.cut.values()))
            subsets_opened += search.subsets_opened
        if isinstance(result, Unsolvable):
            unsolvable += 1
            assert not any(problem.goals <= state
                           for state in enumerate_reachable(problem).states)
        else:
            assert validate_plan(problem, result).valid
    assert cuts and subsets_opened and unsolvable and backjumps, \
        (cuts, subsets_opened, unsolvable, backjumps)


def resource_problem(rng):
    """Four to six goals that compete for two or three resource facts.

    Facts 0..r-1 are the resources, each added by an action that needs
    nothing or another resource. Each goal has one or two achievers; each
    needs one or two resources and may delete resources and, now and then,
    another goal. Goal sets are large and most achiever pairs interfere
    through a resource, so below level-off a goal often runs out of
    achievers because of a choice made several goals back: the search
    backjumps, and memoizes an explanation smaller than the set."""
    r = rng.randint(2, 3)
    m = rng.randint(4, 6)
    resources = list(range(r))
    goals = list(range(r, r + m))
    nodes = [(rng.sample(resources, rng.randint(0, 1)), [f], [])
             for f in resources]
    for goal in goals:
        for _ in range(rng.randint(1, 2)):
            pre = rng.sample(resources, rng.randint(1, 2))
            dele = set(rng.sample(resources, rng.randint(0, 2)))
            if rng.random() < 0.4:
                dele.add(rng.choice(goals))
            nodes.append((pre, [goal], sorted(dele - {goal})))
    rng.shuffle(nodes)
    return r + m, nodes, rng.sample(resources, rng.randint(0, r)), goals


def test_nogoods_sound_on_goals_competing_for_resources():
    """Seeded problems from ``resource_problem``, a second family besides
    the bottleneck one, where failures below level-off that backjump are
    common: every memoized set, explanations included, is a nogood, and the
    verdicts hold in the exhaustive state space. An explanation that
    leaves out a forward-check conflict or a goal's accumulated conflict
    names too few goals, and is not a nogood on many of these problems."""
    backjumps = 0
    for seed in range(200):
        problem = problem_of(*resource_problem(random.Random(seed)))
        result, searches = recorded(lambda: graphplan_on(problem),
                                    graphplan._BackwardSearch)
        assert_nogoods_sound(problem, searches)
        backjumps += sum(search.backjumps for search in searches)
        if isinstance(result, Unsolvable):
            assert not any(problem.goals <= state
                           for state in enumerate_reachable(problem).states)
        else:
            assert validate_plan(problem, result).valid
    assert backjumps


def object_swaps(problem, generator):
    """The object pairs a symmetry generator swaps, read off the names of
    the atoms it moves."""
    def args(atom):
        name = problem.atoms.name(atom)
        return name[name.index("(") + 1:-1].split(",")

    moved, perm = generator
    return sorted({tuple(sorted(pair)) for i in mask_ids(moved)
                   for pair in zip(args(i), args(perm[i]))
                   if pair[0] != pair[1]})


def tires(i, j):
    return [(f"hub{i}", f"hub{j}"), (f"n{i}", f"n{j}"), (f"r{i}", f"r{j}"),
            (f"w{i}", f"w{j}")]


SYMMETRIES = {
    "gripper2": [[("ball1", "ball2")], [("left", "right")]],
    "tyreworld_2": [tires(1, 2)],
    "tyreworld_3": [tires(1, 2), tires(1, 3)],
}


@pytest.mark.parametrize("name", corpus.ALL_NAMED + ("tyreworld_3",
                                                     "stack_8"))
def test_object_symmetries_are_pinned(load, name):
    """The generators each corpus instance gets, as object swaps; hanoi,
    blocks, the stack goal towers and the ground-JSON fixtures get none.
    Each maps init, the goals and the set of (pre, add, delete) ways onto
    themselves, checked here over frozensets."""
    problem = load(name)
    symmetries = GraphContext(problem).symmetries
    assert [object_swaps(problem, g) for g in symmetries] == \
        SYMMETRIES.get(name, [])
    ways = set(chain.from_iterable(problem.ways))
    for moved, perm in symmetries:
        def image(ids):
            return frozenset(perm[i] for i in ids)

        assert moved == mask_of(i for i, j in enumerate(perm) if i != j)
        assert image(problem.init) == problem.init
        assert image(problem.goals) == problem.goals
        assert {tuple(map(image, way)) for way in ways} == ways


def test_swaps_that_fail_a_check_are_dropped(load):
    """A swap is dropped when its atom map leaves the atom table, when it
    does not map the ways onto themselves, or when it cannot be extended
    along the init and goal facts."""
    gripper = load("gripper2")

    def swaps(problem):
        return [object_swaps(problem, g)
                for g in GraphContext(problem).symmetries]

    # marked(ball2) is no atom
    marked = replace(gripper, atoms=AtomTable([*gripper.atoms,
                                               "marked(ball1)"]))
    assert swaps(marked) == [[("left", "right")]]
    # neither swap maps pick(ball2,roomA,right) to an action
    lopsided = replace(gripper, actions=tuple(
        a for a in gripper.actions if a.name != "pick(ball2,roomA,right)"))
    assert swaps(lopsided) == []
    # s(a,e,e) would map onto s(b,f,g), and e onto both f and g
    clash = corpus.problem_from_dict({
        "name": "clash", "actions": [],
        "init": ["r(a)", "r(b)", "s(a,e,e)", "s(b,f,g)"],
        "goals": ["r(a)", "r(b)"]})
    assert swaps(clash) == []


@pytest.mark.parametrize("name, method, detections", [
    ("stack_8", "e", 0),
    ("tyreworld_3", "h", 1),
])
def test_symmetries_are_found_once_and_only_at_a_failure(load, name, method,
                                                         detections):
    """Detection runs at the first goal set a search on the context fails,
    and once per context: stack_8's episodes fail none, and tyreworld_3's
    episodes 2 and 3 both fail sets."""
    problem = load(name)
    graph = build_graph(problem, retain_layers=False) if method == "e" \
        else None
    agenda = compute_agenda(problem, method, graph)
    with mock.patch.object(graphplan, "_object_symmetries",
                           wraps=graphplan._object_symmetries) as detect:
        result = plan_with_agenda(problem, agenda)
    assert result.status == "solved"
    assert detect.call_count == detections


def test_unparsed_names_get_no_symmetries(load):
    """tyreworld_3 with atom names that do not parse as ``pred(args)`` gets
    no generators, and its searches use the nodes they used before
    symmetric nogoods."""
    problem = load("tyreworld_3")
    renamed = replace(problem, atoms=AtomTable(
        name.replace("(", "[") for name in problem.atoms))
    assert GraphContext(renamed).symmetries == ()
    agenda = compute_agenda(renamed, "h", None)
    _, searches = recorded(lambda: plan_with_agenda(renamed, agenda),
                           graphplan._BackwardSearch)
    assert [search.nodes_used for search in searches] == \
        [15, 5386, 1333, 14, 15, 16, 17]
    assert not any(search.images for search in searches)


_INPUTS_SPEC = importlib.util.spec_from_file_location(
    "perfbench_inputs",
    Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
perfbench_inputs = importlib.util.module_from_spec(_INPUTS_SPEC)
sys.modules[_INPUTS_SPEC.name] = perfbench_inputs  # read by its dataclass
_INPUTS_SPEC.loader.exec_module(perfbench_inputs)


@pytest.mark.parametrize("name, seed, images", [
    ("gripper2", 1, [0]),
    ("tyreworld_2", 1, [0] * 7),
    ("tyreworld_2", 2, [0] * 7),
    ("tyreworld_2", 3, [0] * 7),
    ("tyreworld_3", 1, [0, 106, 14, 0, 0, 0, 0]),
])
def test_symmetric_nogoods_on_benchmark_texts(name, seed, images):
    """``plan -m h`` on the benchmark's renamed and reordered texts: the
    reference's plans in no more nodes, the scan's nodes and memo, and the
    images memoized per episode."""
    instance = perfbench_inputs.make(name, seed, corpus)
    problem = ground(*parse(corpus.domain_text(instance.domain),
                            instance.text))
    agenda = compute_agenda(problem, "h", None)
    run = lambda: plan_with_agenda(problem, agenda)  # noqa: E731
    _, searches = assert_matches_scan(run)
    assert_matches_reference(run)
    assert [search.images for search in searches] == images


def block_problem(rng):
    """Two or three interchangeable blocks of objects o1, o2, ... that
    compete for one shared fact, with seeded facts that break the symmetry.

    free() is shared: an action with no precondition adds it. Each block x
    has a chain c1(x)..cr(x), each link added by an action that needs the
    one before and may need and delete free(), and a goal goal(x), added
    by one or two actions that each need free() and a prefix of the chain
    and delete free(). Every block gets the same actions, so the blocks
    are interchangeable, until the initial state gives c1(x) to some
    blocks and not to others."""
    def maybe(items, p=0.5):
        return items if rng.random() < p else []

    r = rng.randint(1, 2)
    template = [([("c", j - 1)] if j > 1 else maybe(["free"]), [("c", j)],
                 maybe(["free"])) for j in range(1, r + 1)]
    for j in rng.sample(range(r + 1), rng.randint(1, min(2, r + 1))):
        template.append((["free"] + [("c", i) for i in range(1, j + 1)],
                         ["goal"], ["free"] + maybe([("c", 1)], 0.3)))
    blocks = [f"o{i}" for i in range(1, rng.randint(2, 3) + 1)]

    def name(fact, x):
        if fact in ("free", "goal"):
            return f"{fact}({x if fact == 'goal' else ''})"
        return f"c{fact[1]}({x})"

    table = AtomTable(["free()"] + [
        name(fact, x) for x in blocks
        for fact in [("c", j) for j in range(1, r + 1)] + ["goal"]])

    def ids(facts, x):
        return frozenset(table.id(name(fact, x)) for fact in facts)

    actions = [StripsAction("release()", frozenset(), ids(["free"], ""),
                            frozenset())]
    actions += [StripsAction(f"a{i}({x})", ids(pre, x), ids(add, x),
                             ids(dele, x) - ids(add, x))
                for x in blocks for i, (pre, add, dele) in enumerate(template)]
    rng.shuffle(actions)
    init = ids(maybe(["free"]), "").union(*(
        ids([("c", 1)], x) for x in blocks if rng.random() < 0.25))
    return PlanningProblem(table, tuple(actions), init,
                           frozenset().union(*(ids(["goal"], x)
                                               for x in blocks)))


def test_symmetric_nogoods_on_interchangeable_blocks():
    """Seeded problems from ``block_problem``, each planned plainly, over
    its ``h`` agenda, and from its initial state with one fact flipped,
    those searches sharing one context: the reference's plans and verdicts
    in no more nodes, the scan's nodes and memo, and every memoized set,
    images included, a nogood from the search's own initial state. A
    search whose initial state a generator does not fix drops it; keeping
    it memoizes images that are not nogoods on some of these problems."""
    images = dropped = 0
    for seed in range(40):
        problem = block_problem(random.Random(seed))
        agenda = compute_agenda(problem, "h", None)
        context = GraphContext(problem)
        flipped = [problem.init ^ {f} for f in range(len(problem.atoms))]
        for run in (lambda: graphplan_on(problem),
                    lambda: plan_with_agenda(problem, agenda),
                    lambda: [graphplan_search(context, init, problem.goals)
                             for init in flipped]):
            _, searches = assert_matches_scan(run)
            assert_matches_reference(run)
            assert_nogoods_sound(problem, searches)
            for search in searches:
                images += search.images
                if search.generators is not None:
                    dropped += len(search.graph.context.symmetries) - \
                        len(search.generators)
    assert images and dropped, (images, dropped)


def test_search_leaves_recursion_limit_alone(load):
    before = sys.getrecursionlimit()
    graphplan_on(load("hanoi_3"))
    assert sys.getrecursionlimit() == before


@pytest.mark.parametrize("name", ["hanoi_4", "tyreworld_2"])
def test_search_runs_in_a_shallow_stack(load, name):
    """Long sequential plans need no deep interpreter stack: the search is
    not recursive."""
    problem = load(name)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        plan = graphplan_on(problem)
    finally:
        sys.setrecursionlimit(before)
    assert validate_plan(problem, plan).valid
