import pytest
from hypothesis import given, strategies as st

from goalagenda import agenda as agenda_module
from goalagenda.agenda import (
    Agenda,
    GoalGraph,
    agenda_to_dict,
    build_goal_graph,
    compute_agenda,
    degree_partition,
    place_gsep,
    transitive_closure,
)
from goalagenda.corpus import problem_from_dict
from goalagenda.ordering import ProblemIndex

from conftest import TWO_ROOMS, atoms, names_of


def test_goal_graph_rejects_self_loops():
    with pytest.raises(ValueError):
        GoalGraph(frozenset({1, 2}), frozenset({(1, 1)}))


def test_goal_graph_rejects_edges_off_its_vertices():
    with pytest.raises(ValueError, match="edge endpoints must be vertices"):
        GoalGraph(frozenset({1, 2}), frozenset({(1, 3)}))


@pytest.mark.parametrize("method", ["e", "h"])
def test_goal_less_problem(method):
    """A problem without goals has the empty agenda, and no goal graph."""
    problem = problem_from_dict(dict(TWO_ROOMS, goals=[]))
    assert compute_agenda(problem, method) == Agenda((), method)
    with pytest.raises(ValueError, match="problem has no goals"):
        build_goal_graph(ProblemIndex(problem), method)


def test_place_gsep_merges_what_no_edge_orders_into_one_entry(load):
    """gripper2's two goals are not ordered either way, so an entry of one
    and a separate set of the other merge into a single entry."""
    problem = load("gripper2")
    first, second = sorted(problem.goals)
    agenda = place_gsep(ProblemIndex(problem), [{first}], {second}, "h")
    assert agenda.entries == (frozenset({first, second}),)
    assert agenda.gsep_placement == "defaulted_last"


def test_build_goal_graph_three_blocks(load):
    problem = load("blocks3")
    for method in ("e", "h"):
        gg = build_goal_graph(ProblemIndex(problem), method)
        assert gg.edges == frozenset(
            {(problem.atom("on(b,c)"), problem.atom("on(a,b)"))})


def test_transitive_closure_diamond_shape():
    g = GoalGraph(frozenset("ABCDE"),
                  frozenset({("A", "B"), ("B", "C"), ("B", "D")}))
    closed = transitive_closure(g)
    assert closed.edges == frozenset(
        {("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D")})
    assert transitive_closure(closed) == closed  # idempotent


def test_transitive_closure_three_cycle_is_complete():
    g = GoalGraph(frozenset("ABC"),
                  frozenset({("A", "B"), ("B", "C"), ("C", "A")}))
    closed = transitive_closure(g)
    assert closed.edges == frozenset(
        (x, y) for x in "ABC" for y in "ABC" if x != y)


def test_degree_partition_diamond_shape():
    closed = transitive_closure(GoalGraph(
        frozenset("ABCDE"),
        frozenset({("A", "B"), ("B", "C"), ("B", "D")})))
    entries, gsep = degree_partition(closed)
    assert entries == [frozenset("A"), frozenset("B"), frozenset({"C", "D"})]
    assert gsep == frozenset("E")
    in_deg = {v: sum(1 for a, b in closed.edges if b == v) for v in "ABCD"}
    out_deg = {v: sum(1 for a, b in closed.edges if a == v) for v in "ABCD"}
    degrees = {v: in_deg[v] - out_deg[v] for v in "ABCD"}
    assert degrees == {"A": -3, "B": -1, "C": 2, "D": 2}


def test_degree_partition_all_isolated():
    entries, gsep = degree_partition(GoalGraph(frozenset("XYZ"), frozenset()))
    assert entries == [] and gsep == frozenset("XYZ")


def test_degree_partition_cycle_merges():
    closed = transitive_closure(GoalGraph(
        frozenset("ABC"),
        frozenset({("A", "B"), ("B", "C"), ("C", "A")})))
    entries, gsep = degree_partition(closed)
    assert entries == [frozenset("ABC")] and gsep == frozenset()


def test_place_gsep_identity_when_empty(load):
    problem = load("blocks3")
    entries = [atoms(problem, "on(b,c)"), atoms(problem, "on(a,b)")]
    agenda = place_gsep(ProblemIndex(problem), entries, frozenset(), "h")
    assert agenda.entries == tuple(entries)
    assert agenda.gsep_placement == "empty"


def test_place_gsep_defaults_disconnected_goal_last(load):
    """The independent goal finds no set-level relation and merges into the
    final entry, leaving the derived order intact."""
    problem = load("diamond")
    agenda = compute_agenda(problem, "h")
    assert [names_of(problem, e) for e in agenda.entries] == [
        ["goal-a"], ["goal-b"], ["goal-c", "goal-d", "goal-e"]]
    assert names_of(problem, agenda.gsep) == ["goal-e"]
    assert agenda.gsep_placement == "defaulted_last"


def diamond_place_gsep(problem, method):
    """The diamond's separate set placed against its derived entries."""
    entries = [atoms(problem, "goal-a"), atoms(problem, "goal-b"),
               atoms(problem, "goal-c", "goal-d")]
    return place_gsep(ProblemIndex(problem), entries,
                      atoms(problem, "goal-e"), method)


ENTRY_POINTS = {
    "build_goal_graph": lambda problem, method: build_goal_graph(
        ProblemIndex(problem), method),
    "place_gsep": diamond_place_gsep,
    "compute_agenda": compute_agenda,
}


@pytest.mark.parametrize("method", ["E", "H", "x"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_share_one_method_rule(load, entry, method):
    """Every entry point reads the method in either case and rejects any
    other."""
    call = ENTRY_POINTS[entry]
    problem = load("diamond")
    if method == "x":
        with pytest.raises(ValueError):
            call(problem, method)
    else:
        assert call(problem, method) == call(problem, method.lower())


@pytest.mark.parametrize("method", ["e", "h"])
@pytest.mark.parametrize("name", ["diamond", "tyreworld_2", "hanoi_3"])
def test_compute_agenda_tests_each_anchor_once(load, monkeypatch, name,
                                               method):
    """One ordered_before call per goal, plus one per derived entry and
    one for the separate set when both exist."""
    problem = load(name)
    entries, gsep = degree_partition(
        transitive_closure(build_goal_graph(ProblemIndex(problem), method)))
    anchors = []
    original = agenda_module.ordered_before

    def counting(index, method, graph, anchor, candidates):
        anchors.append(frozenset(anchor))
        return original(index, method, graph, anchor, candidates)

    monkeypatch.setattr(agenda_module, "ordered_before", counting)
    compute_agenda(problem, method)
    set_level = entries + [gsep] if gsep and entries else []
    assert anchors == [frozenset({g}) for g in sorted(problem.goals)] + \
        set_level


def test_place_gsep_single_goal(load):
    problem = load("blocks2")
    agenda = compute_agenda(problem, "h")
    assert agenda.entries == (atoms(problem, "on(a,b)"),)


@pytest.mark.parametrize("method", ["e", "h"])
def test_hanoi_agendas_are_singleton_chains(load, method):
    problem = load("hanoi_3")
    agenda = compute_agenda(problem, method)
    assert [names_of(problem, e) for e in agenda.entries] == [
        ["on(d3,peg3)"], ["on(d2,d3)"], ["on(d1,d2)"]]


@pytest.mark.parametrize("n", [4, 5])
def test_hanoi_entry_counts(load, n):
    problem = load(f"hanoi_{n}")
    agenda = compute_agenda(problem, "h")
    assert len(agenda.entries) == n
    assert all(len(e) == 1 for e in agenda.entries)
    first = next(iter(agenda.entries[0]))
    assert problem.atoms.name(first) == f"on(d{n},peg3)"


def test_stack_agenda_bottom_up(load):
    problem = load("stack_6")
    agenda = compute_agenda(problem, "h")
    assert [names_of(problem, e) for e in agenda.entries] == [
        ["on(b5,b6)"], ["on(b4,b5)"], ["on(b3,b4)"], ["on(b2,b3)"],
        ["on(b1,b2)"]]


def test_tyreworld_agenda_structure(load):
    problem = load("tyreworld_2")
    agenda = compute_agenda(problem, "h")
    entry_of = {}
    for pos, entry in enumerate(agenda.entries):
        for atom in entry:
            entry_of[problem.atoms.name(atom)] = pos
    assert entry_of["inflated(r1)"] < entry_of["on(r1,hub1)"] \
        < entry_of["tight(n1,hub1)"] < entry_of["closed(boot)"]
    assert entry_of["inflated(r1)"] == entry_of["inflated(r2)"]
    assert entry_of["closed(boot)"] == len(agenda.entries) - 1


def test_trivial_edges_flagged_for_unreachable_goal():
    """A goal no action can reach orders everything before it vacuously;
    those edges stay in the graph but are tagged for diagnostics."""
    from goalagenda.model import AtomTable, PlanningProblem, StripsAction

    table = AtomTable(["P", "G", "Z"])
    mk = StripsAction("mk", frozenset({table.id("P")}),
                      frozenset({table.id("G")}), frozenset())
    problem = PlanningProblem(table, (mk,), frozenset({table.id("P")}),
                              frozenset({table.id("G"), table.id("Z")}))
    agenda = compute_agenda(problem, "e")
    g, z = table.id("G"), table.id("Z")
    assert (g, z) in agenda.edges
    assert (g, z) in agenda.trivial_edges
    # the reverse direction holds vacuously too (no action achieves Z), so
    # the two goals form a cycle and share an entry
    assert (z, g) in agenda.edges
    assert (z, g) not in agenda.trivial_edges
    assert agenda.entries == (frozenset({g, z}),)


def test_agenda_partitions_goals(load):
    for name in ("blocks3", "hanoi_4", "tyreworld_2", "diamond", "trap",
                 "revival", "gripper2", "latch"):
        problem = load(name)
        agenda = compute_agenda(problem, "h")
        union = frozenset().union(*agenda.entries)
        assert union == problem.goals
        total = sum(len(e) for e in agenda.entries)
        assert total == len(union), f"{name}: entries overlap"


def test_agenda_respects_closure_paths(load):
    """A strict path in the closed goal graph forces entry order."""
    for name in ("blocks3", "hanoi_4", "stack_6", "tyreworld_2", "diamond"):
        problem = load(name)
        agenda = compute_agenda(problem, "h")
        closure = transitive_closure(
            build_goal_graph(ProblemIndex(problem), "h"))
        position = {}
        for pos, entry in enumerate(agenda.entries):
            for atom in entry:
                position[atom] = pos
        for a, b in closure.edges:
            if (b, a) not in closure.edges:
                assert position[a] < position[b], name


def test_agenda_no_relations_single_entry(load):
    problem = load("gripper2")
    agenda = compute_agenda(problem, "h")
    assert len(agenda.entries) == 1
    assert agenda.entries[0] == problem.goals


def test_agenda_determinism(load):
    for name in ("tyreworld_2", "hanoi_4", "diamond"):
        problem = load(name)
        assert compute_agenda(problem, "h") == compute_agenda(problem, "h")


def test_agenda_json_shape(load):
    problem = load("hanoi_3")
    payload = agenda_to_dict(problem, compute_agenda(problem, "h"))
    assert set(payload) == {"entries", "method", "edges", "gsep",
                            "trivial_edges", "gsep_placement"}
    assert payload["entries"] == [["on(d3,peg3)"], ["on(d2,d3)"],
                                  ["on(d1,d2)"]]
    assert payload["method"] == "h"


@given(st.integers(min_value=1, max_value=8),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=14))
def test_closure_properties_on_random_graphs(n, raw_edges):
    vertices = frozenset(range(n))
    edges = frozenset((a % n, b % n) for a, b in raw_edges if a % n != b % n)
    g = GoalGraph(vertices, edges)
    closed = transitive_closure(g)
    assert closed.edges >= g.edges
    assert transitive_closure(closed) == closed
    entries, gsep = degree_partition(closed)
    all_atoms = set(gsep)
    for entry in entries:
        assert not (entry & all_atoms)
        all_atoms |= entry
    assert all_atoms == set(vertices)
