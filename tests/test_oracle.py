import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
import test_state_digests
from goalagenda import agenda, corpus, oracle, ordering
from goalagenda.graphplan import build_graph
from goalagenda.model import (
    AdlAction,
    AtomTable,
    ConditionalEffect,
    ConflictingEffects,
    PlanningProblem,
    StripsAction,
)
from goalagenda.oracle import (
    LimitExceeded,
    _deleters,
    check_invertibility,
    decide_forced,
    decide_reasonable,
    enumerate_reachable,
    find_deadlocks,
    verify_matrix,
)
from goalagenda.ordering import ProblemIndex

from conftest import forward_on, names_of
from test_kernels import random_problem
from test_problem_index import random_adl_problem, subsets


def strips_problem(spec, goals=frozenset()) -> PlanningProblem:
    """The STRIPS problem of a ``random_problem`` draw."""
    n_facts, nodes, init = spec
    return PlanningProblem(
        AtomTable(f"f{i}" for i in range(n_facts)),
        tuple(StripsAction(f"a{i}", frozenset(pre), frozenset(add),
                           frozenset(dele))
              for i, (pre, add, dele) in enumerate(nodes)),
        frozenset(init), goals)


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


def test_clashing_effects_in_a_reachable_state_raise():
    """``clash`` applies only after ``set``, and then fires an effect adding
    G next to one deleting it: both searches expand that state and refuse
    it, before either could report G unreachable."""
    table = AtomTable(["P", "Q", "G"])
    p, q, g = (frozenset({table.id(n)}) for n in "PQG")
    none = frozenset()
    set_q = AdlAction("set", (ConditionalEffect(p, q, none),))
    clash = AdlAction("clash", (ConditionalEffect(q, none, none),
                                ConditionalEffect(q, g, none),
                                ConditionalEffect(p, none, g)))
    problem = PlanningProblem(table, (set_q, clash), p, g)
    with pytest.raises(ConflictingEffects):
        enumerate_reachable(problem)
    with pytest.raises(ConflictingEffects):
        forward_on(problem)


def test_entry_adds_recorded(load, index_of):
    problem = load("trap")
    index = index_of("trap")
    b_entered = index.entered[problem.atom("B")]
    assert list(b_entered) == sorted(set(b_entered))
    # every state with an incoming op1 transition, self-loops included
    assert sorted(names_of(problem, index.states[i]) for i in b_entered) == \
        [["A", "B", "C", "E", "F"], ["B", "C"], ["B", "C", "E"],
         ["B", "C", "E", "F"]]
    # the generic-state collection for the forced/reasonable tests filters
    # out the states where the other goal already holds
    with_a_false = [i for i in b_entered
                    if problem.atom("A") not in index.states[i]]
    assert len(with_a_false) == 3


def test_reasonable_orderings_three_blocks(load, index_of):
    problem = load("blocks3")
    index = index_of("blocks3")
    on_bc, on_ab = problem.atom("on(b,c)"), problem.atom("on(a,b)")
    good = decide_reasonable(index, on_bc, on_ab)
    assert good.holds and not good.trivial
    bad = decide_reasonable(index, on_ab, on_bc)
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
    verdict = decide_reasonable(enumerate_reachable(problem), table.id("B"),
                                table.id("A"))
    assert not verdict.holds


def test_forced_orderings_trap(load, index_of):
    problem = load("trap")
    index = index_of("trap")
    a, b = problem.atom("A"), problem.atom("B")
    backwards = decide_forced(index, b, a)
    assert not backwards.holds  # C persists, op1 can still run
    forwards = decide_forced(index, a, b)
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
                f = decide_forced(index, b, a)
                r = decide_reasonable(index, b, a)
                if f.holds:
                    assert r.holds, (name, b, a)


def test_forced_ordering_on_diamond(load, index_of):
    """Burning goal-c's locks before goal-b is a dead end: a genuine,
    non-trivial forced ordering, and therefore a deadlock witness."""
    problem = load("diamond")
    index = index_of("diamond")
    verdict = decide_forced(index, problem.atom("goal-b"),
                            problem.atom("goal-c"))
    assert verdict.holds and not verdict.trivial
    assert find_deadlocks(index)


def test_forced_ordering_on_conditional_fixture(load, index_of):
    """The conditional effect that raises the signal always burns the
    latch, so the message is both reasonably and forcedly ordered first."""
    problem = load("latch")
    index = index_of("latch")
    msg, sig = problem.atom("message"), problem.atom("signal")
    assert decide_reasonable(index, msg, sig).holds
    forced = decide_forced(index, msg, sig)
    assert forced.holds and not forced.trivial
    assert find_deadlocks(index)


def test_leveled_mutex_pairs_never_coreachable(load, index_of):
    """Ground truth for the whole mutex machinery: no reachable state may
    contain two atoms the leveled graph calls mutually exclusive."""
    from goalagenda.graphplan import build_graph

    for name in ("blocks2", "blocks3", "stack_4", "hanoi_3", "gripper2",
                 "tyreworld_1", "trap", "revival", "diamond", "latch"):
        problem = load(name)
        graph = build_graph(problem, retain_layers=False)
        rows = graph.fact_mutex[graph.leveled_at]
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
        deadlocks = find_deadlocks(index)
        for a in sorted(problem.goals):
            for b in sorted(problem.goals):
                if a == b:
                    continue
                verdict = decide_forced(index, b, a)
                if verdict.holds and not verdict.trivial:
                    assert deadlocks, (name, b, a)


#: check_invertibility's verdict on every STRIPS instance of the corpus
#: within the default state budget.
CERTIFIED = {
    "blocks2": True, "blocks3": True, "stack_4": True, "hanoi_3": True,
    "gripper2": True, "stack_6": True, "hanoi_4": True,
    "tyreworld_1": False, "trap": False, "revival": False, "diamond": False,
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certification_verdicts(index_of, name):
    """Only actions that label some edge must pass. blocks2, blocks3,
    hanoi_3 and hanoi_4 certify through that exemption alone: each has
    failing actions (stack(x,x), a bigger disc onto a smaller one), none of
    which applies in a reachable state."""
    index = index_of(name)
    report = check_invertibility(index)
    assert report.certified is CERTIFIED[name]
    ran = {action_id for out in index.edges for action_id, _ in out}
    failing = {e.action_id for e in report.entries
               if e.inverse_id < 0 or not e.delete_within_pre
               or not e.adds_false_when_applicable}
    assert bool(failing & ran) is not CERTIFIED[name]
    assert bool(failing - ran) is \
        (name in ("blocks2", "blocks3", "hanoi_3", "hanoi_4"))


def test_invertible_solvable_problems_have_no_forced_orderings(load,
                                                               index_of):
    for name in sorted(n for n in CERTIFIED if CERTIFIED[n]):
        problem = load(name)
        index = index_of(name)
        assert check_invertibility(index).certified
        assert find_deadlocks(index) == [], name
        for a in sorted(problem.goals):
            for b in sorted(problem.goals):
                if a == b:
                    continue
                verdict = decide_forced(index, b, a)
                assert not (verdict.holds and not verdict.trivial), \
                    (name, b, a)


def test_trivial_verdicts(load, index_of):
    problem = load("trap")
    # nothing ever adds C, so orderings anchored at C are trivial
    verdict = decide_reasonable(index_of("trap"), problem.atom("A"),
                                problem.atom("C"))
    assert verdict.holds and verdict.trivial


def test_deadlocks_trap(load, index_of):
    problem = load("trap")
    deadlocks = find_deadlocks(index_of("trap"))
    assert [names_of(problem, s) for s in deadlocks] == [["B", "C"]]


def test_deadlocks_blocks3_empty(index_of):
    assert find_deadlocks(index_of("blocks3")) == []


def test_deadlocks_unsolvable_problem_lists_everything():
    table = AtomTable(["P", "Z"])
    problem = PlanningProblem(table, (), frozenset({table.id("P")}),
                              frozenset({table.id("Z")}))
    index = enumerate_reachable(problem)
    assert find_deadlocks(index) == [problem.init]


def test_invertibility_blocks_pairs(load, index_of):
    problem = load("blocks3")
    report = check_invertibility(index_of("blocks3"))
    by_id = {e.action_id: e for e in report.entries}
    stack_ab = problem.action_named("stack(a,b)")
    assert by_id[stack_ab].inverse_id == problem.action_named("unstack(a,b)")
    pickup_a = problem.action_named("pickup(a)")
    assert by_id[pickup_a].inverse_id == problem.action_named("putdown(a)")


def test_invertibility_gripper_certified(load, index_of):
    problem = load("gripper2")
    report = check_invertibility(index_of("gripper2"))
    assert report.certified
    move_ab = problem.action_named("move(roomA,roomB)")
    move_ba = problem.action_named("move(roomB,roomA)")
    by_id = {e.action_id: e for e in report.entries}
    assert by_id[move_ab].inverse_id == move_ba
    assert by_id[move_ba].inverse_id == move_ab


def test_invertibility_stack_certified(index_of):
    report = check_invertibility(index_of("stack_4"))
    assert report.certified


def test_invertibility_tyreworld_not_certified(index_of):
    report = check_invertibility(index_of("tyreworld_1"))
    assert not report.certified
    inflate_notes = [n for n in report.notes if n.startswith("inflate(")]
    assert inflate_notes and "deletes only its own preconditions" in \
        inflate_notes[0]
    assert any(n.startswith("cuss(") for n in report.notes)


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


def test_verify_matrix_decides_each_pair_through_the_entry_points(
        load, monkeypatch):
    """verify_matrix decides every ordered goal pair with one
    decide_reasonable and one decide_forced call, which the traced
    benchmark run counts as oracle decisions."""
    problem = load("diamond")
    calls = {"decide_reasonable": 0, "decide_forced": 0}
    for name in calls:
        original = getattr(oracle, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counting)
    matrix = verify_matrix(problem)
    n = len(problem.goals)
    assert n >= 2 and matrix["states"] is not None
    assert calls == {"decide_reasonable": n * (n - 1),
                     "decide_forced": n * (n - 1)}


@pytest.mark.parametrize("name", ["diamond", "latch", "trap", "blocks3"])
def test_verify_matrix_r_column_matches_decide_reasonable(load, index_of,
                                                          name):
    """The r column equals decide_reasonable's verdict on each pair."""
    problem = load(name)
    index = index_of(name)
    matrix = verify_matrix(problem)
    ids = {problem.atoms.name(g): g for g in problem.goals}
    for row in matrix["pairs"]:
        verdict = decide_reasonable(index, ids[row["before"]],
                                    ids[row["after"]])
        assert (row["r"], row["r_trivial"]) == \
            (verdict.holds, verdict.trivial), row


def test_verify_matrix_single_goal():
    table = AtomTable(["C", "A"])
    o = strips(table, "o_i1", ["C"], ["A"], ["C"])
    problem = PlanningProblem(table, (o,), frozenset({table.id("C")}),
                              frozenset({table.id("A")}))
    matrix = verify_matrix(problem)
    assert matrix["pairs"] == []
    assert matrix["states"] == 2


def check_deletes_record(problem):
    """The actions the deletes record does not ban for an atom are the
    reference's allowed actions of the reasonable ordering."""
    deleters = _deleters(problem)
    every = frozenset(range(len(problem.actions)))
    for a in range(len(problem.atoms)):
        assert every - deleters.get(a, frozenset()) == \
            ref.allowed_actions(problem, "r", a), a


def test_direct_ordering_error_rates_on_random_problems():
    """e and h against the exact r on 3000 seeded random STRIPS and ADL
    problems, over every ordered atom pair, one anchor at a time.

    Criterion 6 beyond the corpus: every pair that the graph ordering e
    accepts is reasonable by r. The counts pin how many pairs e accepts and
    how many of them r decided from reachable anchor states. For h they pin
    how many pairs it accepts and how many of those r refutes (false
    positives). For both they pin how many pairs r holds from reachable
    anchor states that the ordering rejects (false negatives)."""
    pairs = accepted = false_positives = false_negatives = 0
    e_accepted = e_nontrivial = e_false_negatives = 0
    for seed in range(3000):
        problem = test_state_digests.random_problem(seed)
        graph = build_graph(problem, retain_layers=False)
        index = enumerate_reachable(problem)
        problem_index = ProblemIndex(problem)
        atoms = range(len(problem.atoms))
        for a in atoms:
            others = [b for b in atoms if b != a]
            e = ordering.ordered_before(problem_index, "e", graph, {a},
                                        others)
            if e is None:  # the anchor never enters the graph
                e = others
            h = ordering.ordered_before(problem_index, "h", None, {a},
                                        others)
            for b in others:
                r = decide_reasonable(index, b, a)
                assert b not in e or r.holds, (problem.name, b, a)
                e_accepted += b in e
                e_nontrivial += b in e and not r.trivial
                e_false_negatives += b not in e and r.holds and not r.trivial
                pairs += 1
                accepted += b in h
                false_positives += b in h and not r.holds
                false_negatives += b not in h and r.holds and not r.trivial
    assert (e_accepted, e_nontrivial) == (16400, 3942)
    assert (pairs, accepted, false_positives, false_negatives) == \
        (41934, 14947, 224, 2095)
    assert e_false_negatives == 2536


#: The goal pairs (before, after) that h orders and r refutes, per
#: exhaustible corpus instance; the others have none. On tyreworld_1, for
#: one, h orders inflated(r1) before closed(boot), yet with the pump
#: already out of the boot, r1 can be inflated after the boot is closed.
H_FALSE_POSITIVES = {
    "tyreworld_1": [
        ("inflated(r1)", "closed(boot)"),
        ("inflated(r1)", "in(jack,boot)"),
        ("inflated(r1)", "in(w1,boot)"),
        ("inflated(r1)", "in(wrench,boot)"),
        ("inflated(r1)", "on(r1,hub1)"),
        ("inflated(r1)", "tight(n1,hub1)"),
        ("on(r1,hub1)", "in(wrench,boot)"),
        ("tight(n1,hub1)", "closed(boot)"),
    ],
    "trap": [("B", "A")],
}


@pytest.mark.parametrize("name", corpus.EXHAUSTIBLE)
def test_direct_ordering_errors_on_corpus(load, name):
    """h's false positives against r are the pinned pairs. Neither h nor e
    has a false negative on any exhaustible instance: each rejects no goal
    pair that r holds from reachable anchor states (over the seeded random
    problems e has 2536 and h 2095)."""
    rows = verify_matrix(load(name))["pairs"]
    assert sorted((row["before"], row["after"]) for row in rows
                  if row["h"] and not row["r"]) == \
        H_FALSE_POSITIVES.get(name, [])
    for method in ("h", "e"):
        assert not [row for row in rows if not row[method] and row["r"]
                    and not row["r_trivial"]], method


@pytest.mark.parametrize("name", corpus.ALL_NAMED)
def test_keeping_scan_matches_problem_index_on_corpus(load, name):
    """The actions decide_reasonable leaves to each anchor atom are the
    reference's allowed actions."""
    check_deletes_record(load(name))


@settings(max_examples=200, deadline=None)
@given(random_problem(max_facts=6, max_actions=8))
def test_deletes_record_matches_allowed_actions_on_random_strips(spec):
    check_deletes_record(strips_problem(spec))


@settings(max_examples=200, deadline=None)
@given(random_adl_problem(max_atoms=6))
def test_deletes_record_matches_allowed_actions_on_random_adl(problem):
    check_deletes_record(problem)


# --- differential tests against the naive reference ---------------------------

def check_witness(problem, verdict, b, allowed):
    """The witness plan applies from its state, uses allowed actions only
    and ends in a state holding b."""
    state, plan = verdict.witness
    for step in plan.steps:
        (action_id,) = step
        assert action_id in allowed
        assert problem.actions[action_id].pre <= state
        state = ref.apply_action(state, problem.actions[action_id])
    assert b in state


def check_against_naive(problem, index, pairs):
    for b, a in pairs:
        for relation, decide in (("r", decide_reasonable),
                                 ("f", decide_forced)):
            allowed = ref.allowed_actions(problem, relation, a)
            verdict = decide(index, b, a)
            assert verdict == ref.naive_decide(index, relation, b, a,
                                               allowed), (relation, b, a)
            if not verdict.holds:
                check_witness(problem, verdict, b, allowed)


@pytest.mark.parametrize("name", corpus.EXHAUSTIBLE + ("stack_6", "hanoi_4"))
def test_decisions_match_naive_reference_on_corpus(load, index_of, name):
    problem = load(name)
    goals = sorted(problem.goals)
    check_against_naive(problem, index_of(name),
                        [(b, a) for a in goals for b in goals if a != b])


def check_enumeration(problem, index):
    states, edges, entered = ref.naive_enumerate(problem)
    assert list(index.states) == states
    assert list(index.edges) == edges
    assert {atom: list(js) for atom, js in index.entered.items()} == entered


@pytest.mark.parametrize("name", corpus.EXHAUSTIBLE + ("stack_6",))
def test_enumeration_matches_naive_reference_on_corpus(load, index_of, name):
    check_enumeration(load(name), index_of(name))


def checked_on_all_pairs(problem):
    """The enumeration and every ordering decision on all atom pairs against
    the naive references."""
    index = enumerate_reachable(problem)
    check_enumeration(problem, index)
    atom_ids = range(len(problem.atoms))
    check_against_naive(problem, index, [(b, a) for a in atom_ids
                                         for b in atom_ids if a != b])


@settings(max_examples=300, deadline=None)
@given(random_problem(max_facts=6, max_actions=8))
def test_decisions_match_naive_reference_on_random_strips(spec):
    checked_on_all_pairs(strips_problem(spec))


@st.composite
def adl_with_init(draw):
    problem = draw(random_adl_problem(max_atoms=6))
    return PlanningProblem(problem.atoms, problem.actions,
                           draw(subsets(len(problem.atoms))), frozenset())


@st.composite
def late_anchor_adl_problem(draw):
    """ADL problems in which several states are entered adding A and only a
    later one reaches B. From S, ``go(i)`` leads to route R(i); one action,
    ``mark``, adds A through a conditional effect per route, so the anchor
    states {R(i), A} are discovered in the order of the ``go`` actions;
    ``finish`` adds B only on a route that is not the first. Drawn action
    order and extra effects on spare atoms vary the rest."""
    k = draw(st.integers(2, 4))
    n_spare = draw(st.integers(0, 2))
    table = AtomTable(["S", "A", "B"] + [f"R{i}" for i in range(k)]
                      + [f"X{i}" for i in range(n_spare)])
    s, a, b = 0, 1, 2
    routes = range(3, 3 + k)
    spare = st.frozensets(st.sampled_from(range(3 + k, 3 + k + n_spare)),
                          max_size=2) if n_spare else st.just(frozenset())
    none = frozenset()

    def extra():
        return ConditionalEffect(draw(spare), draw(spare), none)

    order = draw(st.permutations(routes))
    goes = [AdlAction(f"go{r}", (
        ConditionalEffect(frozenset({s}), frozenset({r}), frozenset({s})),
        extra())) for r in order]
    mark = AdlAction("mark", (ConditionalEffect(none, none, none),)
                     + tuple(ConditionalEffect(frozenset({r}),
                                               frozenset({a}), none)
                             for r in routes))
    late = draw(st.sampled_from(order[1:]))
    finish = AdlAction("finish", (
        ConditionalEffect(frozenset({late, a}), frozenset({b}), none),
        extra()))
    actions = draw(st.permutations([mark, finish]))
    return PlanningProblem(table, tuple(goes) + tuple(actions),
                           frozenset({s}), frozenset())


@settings(max_examples=200, deadline=None)
@given(st.one_of(adl_with_init(), late_anchor_adl_problem()))
def test_decisions_match_naive_reference_on_random_adl(problem):
    checked_on_all_pairs(problem)
