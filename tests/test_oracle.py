import pytest

from goalagenda import agenda, ordering
from goalagenda.model import AtomTable, PlanningProblem, StripsAction
from goalagenda.oracle import (
    LimitExceeded,
    check_invertibility,
    decide_forced,
    decide_reasonable,
    enumerate_reachable,
    find_deadlocks,
    relaxed_achievable,
    verify_matrix,
)

from conftest import atoms, names_of


def strips(table, name, pre, add, dele):
    return StripsAction(name, frozenset(map(table.id, pre)),
                        frozenset(map(table.id, add)),
                        frozenset(map(table.id, dele)))


def test_enumerate_single_action_wrapper():
    table = AtomTable(["C", "A"])
    o = strips(table, "o_i1", ["C"], ["A"], ["C"])
    problem = PlanningProblem(table, (o,), frozenset({table.id("C")}),
                              frozenset({table.id("A")}))
    index = enumerate_reachable(problem)
    assert set(index.states) == {frozenset({table.id("C")}),
                                 frozenset({table.id("A")})}


def test_enumerate_no_actions():
    table = AtomTable(["P"])
    problem = PlanningProblem(table, (), frozenset({0}), frozenset({0}))
    index = enumerate_reachable(problem)
    assert index.states == (frozenset({0}),)


def test_enumerate_two_blocks_has_five_states(index_of):
    assert len(index_of("blocks2").states) == 5


def test_enumerate_limit():
    with pytest.raises(LimitExceeded):
        from goalagenda import corpus
        enumerate_reachable(corpus.load("gripper2"), limit=4)


def test_entry_adds_recorded(load, index_of):
    problem = load("trap")
    index = index_of("trap")
    b_entered = [names_of(problem, s) for i, s in enumerate(index.states)
                 if problem.atom("B") in index.entry_adds[i]]
    # every state with an incoming op1 transition, self-loops included
    assert sorted(b_entered) == [["A", "B", "C", "E", "F"], ["B", "C"],
                                 ["B", "C", "E"], ["B", "C", "E", "F"]]
    # the generic-state collection for the forced/reasonable tests filters
    # out the states where the other goal already holds
    with_a_false = [s for i, s in enumerate(index.states)
                    if problem.atom("B") in index.entry_adds[i]
                    and problem.atom("A") not in s]
    assert len(with_a_false) == 3


def test_reasonable_orderings_three_blocks(load, index_of):
    problem = load("blocks3")
    index = index_of("blocks3")
    on_bc, on_ab = problem.atom("on(b,c)"), problem.atom("on(a,b)")
    good = decide_reasonable(problem, on_bc, on_ab, index=index)
    assert good.holds and not good.trivial
    bad = decide_reasonable(problem, on_ab, on_bc, index=index)
    assert not bad.holds
    state, plan = bad.witness
    assert problem.atom("on(b,c)") in state
    final = state
    for step in plan.steps:
        for action_id in step:
            action = problem.actions[action_id]
            assert action.pre <= final
            assert on_bc not in action.delete
            final = (final | action.add) - action.delete
    assert on_ab in final


def test_reasonable_ordering_wrapper_with_solvable_core():
    """Reduction-style wrapper: reaching the second goal from the decoy
    state is exactly solving the embedded problem, so no ordering holds."""
    table = AtomTable(["C", "A", "D", "P", "Q", "B"])
    acts = (
        strips(table, "o_i1", ["C"], ["A", "D"], ["C"]),
        strips(table, "o_i2", ["A", "D"], ["P"], ["D"]),
        strips(table, "inner", ["P"], ["Q"], []),
        strips(table, "o_g", ["Q"], ["B"], []),
    )
    problem = PlanningProblem(table, acts, frozenset({table.id("C")}),
                              frozenset({table.id("A"), table.id("B")}))
    verdict = decide_reasonable(problem, table.id("B"), table.id("A"))
    assert not verdict.holds


def test_forced_orderings_trap(load, index_of):
    problem = load("trap")
    index = index_of("trap")
    a, b = problem.atom("A"), problem.atom("B")
    backwards = decide_forced(problem, b, a, index=index)
    assert not backwards.holds  # C persists, op1 can still run
    forwards = decide_forced(problem, a, b, index=index)
    # Exhaustive refutation: B can be achieved at {B,C,E} after op2, and A
    # is still reachable from there through op3, op4.
    assert not forwards.holds
    state, plan = forwards.witness
    assert names_of(problem, state) == ["B", "C", "E"]
    assert [problem.actions[i].name for s in plan.steps for i in s] == \
        ["op3", "op4"]


def test_forced_implies_reasonable(load, index_of):
    for name in ("blocks3", "trap", "revival", "diamond", "gripper2"):
        problem = load(name)
        index = index_of(name)
        for a in sorted(problem.goals):
            for b in sorted(problem.goals):
                if a == b:
                    continue
                f = decide_forced(problem, b, a, index=index)
                r = decide_reasonable(problem, b, a, index=index)
                if f.holds:
                    assert r.holds, (name, b, a)


def test_forced_ordering_on_diamond(load, index_of):
    """Burning goal-c's locks before goal-b is a dead end: a genuine,
    non-trivial forced ordering, and therefore a deadlock witness."""
    problem = load("diamond")
    index = index_of("diamond")
    verdict = decide_forced(problem, problem.atom("goal-b"),
                            problem.atom("goal-c"), index=index)
    assert verdict.holds and not verdict.trivial
    assert find_deadlocks(problem, index=index)


def test_forced_ordering_on_conditional_fixture(load, index_of):
    """The conditional effect that raises the signal always burns the
    latch, so the message is both reasonably and forcedly ordered first."""
    problem = load("latch")
    index = index_of("latch")
    msg, sig = problem.atom("message"), problem.atom("signal")
    assert decide_reasonable(problem, msg, sig, index=index).holds
    forced = decide_forced(problem, msg, sig, index=index)
    assert forced.holds and not forced.trivial
    assert find_deadlocks(problem, index=index)


def test_leveled_mutex_pairs_never_coreachable(load, index_of):
    """Ground truth for the whole mutex machinery: no reachable state may
    contain two atoms the leveled graph calls mutually exclusive."""
    from goalagenda.graphplan import build_graph

    for name in ("blocks2", "blocks3", "stack_4", "hanoi_3", "gripper2",
                 "tyreworld_1", "trap", "revival", "diamond", "latch"):
        problem = load(name)
        rows = build_graph(problem, retain_layers=False).leveled_rows()
        index = index_of(name)
        for state in index.states:
            mask = 0
            for atom in state:
                mask |= 1 << atom
            for atom in state:
                assert rows[atom] & mask == 0, \
                    f"{name}: mutex pair inside a reachable state"


def test_nontrivial_forced_orderings_imply_deadlocks(load, index_of):
    for name in ("blocks3", "trap", "revival", "diamond", "gripper2",
                 "stack_4", "hanoi_3", "latch"):
        problem = load(name)
        index = index_of(name)
        deadlocks = find_deadlocks(problem, index=index)
        for a in sorted(problem.goals):
            for b in sorted(problem.goals):
                if a == b:
                    continue
                verdict = decide_forced(problem, b, a, index=index)
                if verdict.holds and not verdict.trivial:
                    assert deadlocks, (name, b, a)


def test_invertible_solvable_problems_have_no_forced_orderings(load,
                                                               index_of):
    for name in ("stack_4", "gripper2"):
        problem = load(name)
        index = index_of(name)
        assert check_invertibility(problem, index=index).certified
        for a in sorted(problem.goals):
            for b in sorted(problem.goals):
                if a == b:
                    continue
                verdict = decide_forced(problem, b, a, index=index)
                assert not (verdict.holds and not verdict.trivial), \
                    (name, b, a)


def test_trivial_verdicts(load, index_of):
    problem = load("trap")
    # nothing ever adds C, so orderings anchored at C are trivial
    verdict = decide_reasonable(problem, problem.atom("A"), problem.atom("C"),
                                index=index_of("trap"))
    assert verdict.holds and verdict.trivial


def test_deadlocks_trap(load, index_of):
    problem = load("trap")
    deadlocks = find_deadlocks(problem, index=index_of("trap"))
    assert [names_of(problem, s) for s in deadlocks] == [["B", "C"]]


def test_deadlocks_blocks3_empty(load, index_of):
    assert find_deadlocks(load("blocks3"), index=index_of("blocks3")) == []


def test_deadlocks_unsolvable_problem_lists_everything():
    table = AtomTable(["P", "Z"])
    problem = PlanningProblem(table, (), frozenset({table.id("P")}),
                              frozenset({table.id("Z")}))
    index = enumerate_reachable(problem)
    assert find_deadlocks(problem, index=index) == [problem.init]


def test_invertibility_blocks_pairs(load, index_of):
    problem = load("blocks3")
    report = check_invertibility(problem, index=index_of("blocks3"))
    by_id = {e.action_id: e for e in report.entries}
    stack_ab = problem.action_named("stack(a,b)")
    assert by_id[stack_ab].inverse_id == problem.action_named("unstack(a,b)")
    pickup_a = problem.action_named("pickup(a)")
    assert by_id[pickup_a].inverse_id == problem.action_named("putdown(a)")
    assert report.semantic_checked


def test_invertibility_gripper_certified(load, index_of):
    problem = load("gripper2")
    report = check_invertibility(problem, index=index_of("gripper2"))
    assert report.certified
    move_ab = problem.action_named("move(roomA,roomB)")
    move_ba = problem.action_named("move(roomB,roomA)")
    by_id = {e.action_id: e for e in report.entries}
    assert by_id[move_ab].inverse_id == move_ba
    assert by_id[move_ba].inverse_id == move_ab


def test_invertibility_stack_certified(load, index_of):
    report = check_invertibility(load("stack_4"), index=index_of("stack_4"))
    assert report.certified


def test_invertibility_tyreworld_not_certified(load, index_of):
    problem = load("tyreworld_1")
    report = check_invertibility(problem, index=index_of("tyreworld_1"))
    assert not report.certified
    inflate_notes = [n for n in report.notes if n.startswith("inflate(")]
    assert inflate_notes and "deletes only its own preconditions" in \
        inflate_notes[0]
    assert any(n.startswith("cuss(") for n in report.notes)


def test_invertibility_without_index_is_unverified(load):
    report = check_invertibility(load("gripper2"))
    assert not report.semantic_checked
    assert not report.certified


def test_relaxed_achievable(load):
    problem = load("revival")
    acts = problem.actions
    assert relaxed_achievable(atoms(problem, "B"), problem.atom("B"), acts)
    assert relaxed_achievable(atoms(problem, "C", "A"), problem.atom("B"),
                              acts)
    trap = load("trap")
    assert not relaxed_achievable(atoms(trap, "A"), trap.atom("B"),
                                  trap.actions)
    # monotone in the state and the action set
    assert relaxed_achievable(atoms(trap, "A", "C"), trap.atom("B"),
                              trap.actions)
    assert not relaxed_achievable(atoms(trap, "A", "C"), trap.atom("B"),
                                  trap.actions[1:])


def test_verify_matrix_runs_one_fixpoint_per_goal(load, monkeypatch):
    problem = load("diamond")
    calls = []
    original = ordering.fixpoint_reduce

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ordering, "fixpoint_reduce", counting)
    monkeypatch.setattr(agenda, "fixpoint_reduce", counting)
    matrix = verify_matrix(problem)
    n = len(problem.goals)
    assert len(matrix["pairs"]) == n * (n - 1)
    assert len(calls) == n


def test_verify_matrix_single_goal():
    table = AtomTable(["C", "A"])
    o = strips(table, "o_i1", ["C"], ["A"], ["C"])
    problem = PlanningProblem(table, (o,), frozenset({table.id("C")}),
                              frozenset({table.id("A")}))
    matrix = verify_matrix(problem)
    assert matrix["pairs"] == []
    assert matrix["states"] == 2
