"""The index-based ordering layer against the scans in ``reference``: the
always-deleted set, action views (the blocked ways, read back as surviving
actions and effects), the fixpoint, one-step achievability and the graph
route's test (no usable way adds the atom), on the corpus and on random
STRIPS and ADL problems; the index's build count; and the linear
invertibility check against the pairwise inverse search."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from goalagenda import agenda, corpus, oracle, ordering
from goalagenda.graphplan import GraphContext, false_set
from goalagenda.model import (
    AdlAction,
    AtomTable,
    ConditionalEffect,
    PlanningProblem,
    StripsAction,
)
from goalagenda.ordering import (
    ProblemIndex,
    compute_f_da,
    fixpoint_reduce,
    possibly_achievable,
)

from test_kernels import random_problem


def surviving(view, pairs):
    """A view's surviving ways as the reference's ``ScanView`` holds them:
    per action with a surviving way, the indices of its surviving
    effects. ``pairs`` is the (action, effect) pair of each way id."""
    out: dict = {}
    for w, (action_id, effect_index) in enumerate(pairs):
        if w not in view.blocked:
            out.setdefault(action_id, []).append(effect_index)
    return {a: tuple(effects) for a, effects in out.items()}


def check_views(view, ref_view, pairs, atoms):
    """The surviving ways, the addable atoms (the index's minus the lost
    ones), each atom's surviving achieving conditions and the one-step
    test equal the scan's."""
    index = view.index
    kept = surviving(view, pairs)
    assert frozenset(kept) == ref_view.action_ids
    if ref_view.surviving_effects is not None:
        assert kept == ref_view.surviving_effects
    assert view.lost <= index.addable
    assert index.addable - view.lost == ref_view.addable_atoms()
    for p in atoms:
        assert [index.condition[w] for w in index.adders[p]
                if w not in view.blocked] == \
            list(ref_view.achieving_conditions(p)), p
        assert possibly_achievable(p, view) == \
            ref.possibly_achievable(p, ref_view), p


def check_against_scan(problem, anchors, false_sets=()):
    """Every index-based result equals the scan's, per anchor: F_DA, the
    anchor's view, the fixpoint and its view, the view under each given
    false set, and the graph test of every atom against each false set."""
    index = ProblemIndex(problem)
    pairs = [(action_id, effect_index)
             for action_id, ways in enumerate(problem.ways)
             for effect_index in range(len(ways))]
    atoms = range(len(problem.atoms))
    for anchor in anchors:
        anchor = frozenset(anchor)
        f_da = compute_f_da(index, anchor)
        assert f_da == ref.compute_f_da(problem, anchor)
        check_views(index.view(anchor),
                    ref.usable_given(problem, anchor, frozenset()), pairs,
                    atoms)
        fx = fixpoint_reduce(index, anchor)
        ref_fx = ref.fixpoint_reduce(problem, anchor)
        assert (fx.f_star, fx.iterations) == (ref_fx.f_star, ref_fx.iterations)
        check_views(fx.o_star, ref_fx.o_star, pairs, atoms)
        for f_set in false_sets:
            check_views(index.view(anchor, f_set),
                        ref.usable_given(problem, anchor, f_set), pairs,
                        atoms)
        for f_atoms in {f_da, fx.f_star, *false_sets}:
            view = index.view(anchor, f_atoms)
            for b in atoms:
                assert (not view.adds(b)) == \
                    ref.graph_test(problem, f_atoms, anchor, b), (anchor, b)


@pytest.mark.parametrize("name", corpus.ALL_NAMED)
def test_ordering_layer_matches_scan_on_corpus(load, graph_of, name):
    """Anchors: every goal alone and all goals together; false sets: the
    planning graph's, as the graph route uses them. The problem's ways are
    the graph's nodes and the index's ways, are made anew by ``replace``
    and take no part in ``==`` or ``repr``."""
    problem = load(name)
    n_ways = sum(map(len, problem.ways))
    assert n_ways == GraphContext(problem).kernel.n_actions
    assert n_ways == len(ProblemIndex(problem).condition)
    assert replace(problem, init=frozenset()).ways == problem.ways
    twin = replace(problem)
    object.__setattr__(twin, "ways", ())
    assert twin == problem
    assert "ways=" not in repr(problem)
    goals = sorted(problem.goals)
    anchors = [{g} for g in goals] + [goals]
    false_sets = [false_set(graph_of(name), anchor) for anchor in anchors]
    check_against_scan(problem, anchors,
                       [f_set for f_set in false_sets if f_set is not None])


def subsets(n_atoms):
    return st.frozensets(st.integers(0, n_atoms - 1), max_size=4)


@settings(max_examples=200, deadline=None)
@given(random_problem(max_facts=7, max_actions=10), st.data())
def test_ordering_layer_matches_scan_on_random_strips(spec, data):
    n_facts, nodes, init = spec
    table = AtomTable(f"f{i}" for i in range(n_facts))
    actions = tuple(StripsAction(f"a{i}", frozenset(pre), frozenset(add),
                                 frozenset(dele))
                    for i, (pre, add, dele) in enumerate(nodes))
    problem = PlanningProblem(table, actions, frozenset(init), frozenset())
    anchors = [{p} for p in range(n_facts)] + [data.draw(subsets(n_facts))]
    false_sets = data.draw(st.lists(subsets(n_facts), max_size=3))
    check_against_scan(problem, anchors, false_sets)


@st.composite
def random_adl_problem(draw, max_atoms=7, max_actions=5, max_effects=4):
    """Ground ADL problems whose conditional effects often nest (an effect's
    condition extends an earlier one's, so firing it implies the earlier
    effect's deletes), next to empty conditions and unconditional deletes
    in effect 0. No atom is both added and deleted by one action, so no
    state makes its effects clash."""
    n_atoms = draw(st.integers(1, max_atoms))
    atom_sets = subsets(n_atoms)

    actions = []
    for k in range(draw(st.integers(1, max_actions))):
        conditions = [draw(atom_sets)]
        for _ in range(draw(st.integers(0, max_effects - 1))):
            base = frozenset()
            if len(conditions) > 1 and draw(st.booleans()):
                base = draw(st.sampled_from(conditions[1:]))
            conditions.append(base | draw(atom_sets))
        adds = [draw(atom_sets) for _ in conditions]
        added = frozenset().union(*adds)
        actions.append(AdlAction(f"o{k}", tuple(
            ConditionalEffect(condition, add, draw(atom_sets) - added)
            for condition, add in zip(conditions, adds))))
    table = AtomTable(f"f{i}" for i in range(n_atoms))
    return PlanningProblem(table, tuple(actions), frozenset(), frozenset())


@settings(max_examples=300, deadline=None)
@given(random_adl_problem(), st.data())
def test_ordering_layer_matches_scan_on_random_adl(problem, data):
    n_atoms = len(problem.atoms)
    anchors = [{p} for p in range(n_atoms)] + [data.draw(subsets(n_atoms))]
    false_sets = data.draw(st.lists(subsets(n_atoms), max_size=3))
    check_against_scan(problem, anchors, false_sets)


def test_effect_0_takes_its_conditional_effects_with_it():
    """Blocking an action's effect 0, through the anchor or through the
    false set, blocks its conditional effects too."""
    table = AtomTable("PQAF")
    i = table.id
    action = AdlAction("o", (
        ConditionalEffect(frozenset({i("F")}), frozenset(),
                          frozenset({i("A")})),
        ConditionalEffect(frozenset({i("Q")}), frozenset({i("P")}),
                          frozenset()),
    ))
    problem = PlanningProblem(table, (action,), frozenset(), frozenset())
    index = ProblemIndex(problem)
    for view in (index.view({i("A")}), index.view((), {i("F")})):
        assert view.blocked == {0, 1}
        assert view.lost == {i("P")}
        assert not view.adds(i("P"))
        assert not possibly_achievable(i("P"), view)
    assert index.view(()).blocked == frozenset()
    check_against_scan(problem, [(), {i("A")}],
                       [frozenset({i("F")}), frozenset({i("Q")})])


def test_lost_atoms_by_counting_and_the_static_condition_check():
    """P has two adders in one action, effect 0 and a conditional effect:
    blocking one (the false set holds Q, which only the conditional
    effect needs) leaves P addable, so u, which needs P, still achieves R;
    blocking both (A is the precondition) makes P lost and R
    unachievable. r needs N, which no way adds, so it never achieves S,
    although no view blocks it."""
    table = AtomTable("AQPRNS")
    i = table.id

    def action(name, condition, adds, *more):
        return AdlAction(name, (ConditionalEffect(
            frozenset(map(i, condition)), frozenset(map(i, adds)),
            frozenset()),) + more)

    problem = PlanningProblem(table, (
        action("o", "A", "P", ConditionalEffect(
            frozenset({i("Q")}), frozenset({i("P")}), frozenset())),
        action("u", "P", "R"),
        action("r", "N", "S"),
        action("s", "", "AQ"),
    ), frozenset(), frozenset())
    index = ProblemIndex(problem)
    assert index.adders[i("P")] == [0, 1]
    assert index.addable == {i("A"), i("Q"), i("P"), i("R"), i("S")}
    one, both = index.view((), {i("Q")}), index.view((), {i("A")})
    assert (one.blocked, one.lost) == ({1}, frozenset())
    assert (both.blocked, both.lost) == ({0, 1}, {i("P")})
    assert one.adds(i("P")) and not both.adds(i("P"))
    assert possibly_achievable(i("R"), one)
    assert not possibly_achievable(i("R"), both)
    for view in (index.view(()), one, both):
        assert view.adds(i("S")) and 3 not in view.blocked
        assert not possibly_achievable(i("S"), view)
    check_against_scan(problem, [()],
                       [frozenset({i("Q")}), frozenset({i("A")})])


def count_builds(monkeypatch, cls=ProblemIndex):
    """The instances of ``cls`` constructed from now on, in order."""
    built = []
    original = cls.__init__

    def counting(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.mark.parametrize("method", ["h", "e"])
def test_one_index_per_compute_agenda_call(load, monkeypatch, method):
    """One build per call, shared by the goal graph and the separate-set
    placement; a second call on the same problem builds its own."""
    problem = load("diamond")
    built = count_builds(monkeypatch)
    seen = []
    for name in ("build_goal_graph", "place_gsep"):
        original = getattr(agenda, name)

        def recording(*args, _original=original, _name=name, **kwargs):
            seen.append((_name, args[0]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(agenda, name, recording)
    first = agenda.compute_agenda(problem, method)
    assert first.gsep and first.gsep_placement != "empty"
    assert len(built) == 1
    assert seen == [("build_goal_graph", built[0]),
                    ("place_gsep", built[0])]
    assert agenda.compute_agenda(problem, method) == first
    assert len(built) == 2


def test_top_level_orderings_build_one_index(load, graph_of, monkeypatch):
    problem = load("tyreworld_1")
    graph = graph_of("tyreworld_1")
    goals = sorted(problem.goals)
    built = count_builds(monkeypatch)
    ordering.order_h(problem, goals[0], goals[1])
    ordering.order_e(problem, graph, goals[0], goals[1])
    oracle.verify_matrix(load("diamond"))
    assert len(built) == 3


STRIPS_NAMED = [n for n in corpus.ALL_NAMED if n != "latch"]


@pytest.mark.parametrize("name", STRIPS_NAMED)
def test_invertibility_report_matches_pairwise_search(load, index_of, name,
                                                      monkeypatch):
    """The linear inverse search equals the pairwise one on every STRIPS
    instance, and so does the whole report on the exhaustible ones."""
    problem = load(name)
    assert oracle._inverse_ids(problem) == ref.quadratic_inverse_ids(problem)
    if name in corpus.EXHAUSTIBLE:
        report = oracle.check_invertibility(index_of(name))
        monkeypatch.setattr(oracle, "_inverse_ids", ref.quadratic_inverse_ids)
        assert report == oracle.check_invertibility(index_of(name))


@settings(max_examples=200, deadline=None)
@given(random_problem(max_facts=6, max_actions=8), st.data())
def test_inverse_ids_match_pairwise_search_on_random_problems(spec, data):
    """Mirrored copies of the actions (adds and deletes swapped, a random
    precondition) give several candidates per (add, delete) pair, some of
    which fail the precondition test."""
    n_facts, nodes, _ = spec
    nodes = list(nodes)
    for pre, add, dele in list(nodes):
        for _ in range(data.draw(st.integers(0, 2))):
            nodes.append((data.draw(subsets(n_facts)), dele, add))
    table = AtomTable(f"f{i}" for i in range(n_facts))
    actions = tuple(StripsAction(f"a{i}", frozenset(pre), frozenset(add),
                                 frozenset(dele))
                    for i, (pre, add, dele) in enumerate(nodes))
    problem = PlanningProblem(table, actions, frozenset(), frozenset())
    assert oracle._inverse_ids(problem) == ref.quadratic_inverse_ids(problem)
