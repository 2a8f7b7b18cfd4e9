import pytest

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
    implied_deletes,
    order_e,
    order_h,
    ordered_before,
    possibly_achievable,
)

from goalagenda.oracle import decide_forced, decide_reasonable

from conftest import atoms, names_of


def before(problem, method, bs, as_, graph=None) -> frozenset:
    """The goals of bs that the set-level test orders before the set as_."""
    return ordered_before(ProblemIndex(problem), method, graph,
                          frozenset(as_), frozenset(bs))


def test_reduced_actions_three_blocks(load):
    """The anchor's view (the reduced action set) blocks exactly the
    actions that delete the anchor."""
    problem = load("blocks3")
    view = ProblemIndex(problem).view(atoms(problem, "on(b,c)"))
    owners = [action for action, ways in zip(problem.actions, problem.ways)
              for _ in ways]
    assert [owners[w].name for w in sorted(view.blocked)] == ["unstack(b,c)"]


def test_reduced_actions_empty_anchor_keeps_all(load):
    problem = load("blocks3")
    assert ProblemIndex(problem).view(frozenset()).blocked == frozenset()


def _conditional_example():
    table = AtomTable("UVWXYA")
    i = table.id
    action = AdlAction("o", (
        ConditionalEffect(frozenset({i("U")}), frozenset({i("W")}),
                          frozenset({i("X")})),
        ConditionalEffect(frozenset({i("V"), i("W")}), frozenset({i("A")}),
                          frozenset({i("X")})),
        ConditionalEffect(frozenset({i("W")}), frozenset({i("U")}),
                          frozenset({i("Y")})),
    ))
    problem = PlanningProblem(table, (action,), frozenset(),
                              frozenset({i("A")}))
    return table, action, problem


def test_implied_deletes():
    table, action, _ = _conditional_example()
    assert names_of(_p(table, action), implied_deletes(action, 1)) == ["X", "Y"]
    assert names_of(_p(table, action), implied_deletes(action, 0)) == ["X"]


def _p(table, action):
    return PlanningProblem(table, (action,), frozenset(), frozenset())


def test_reduced_actions_drops_entailed_effects():
    table, action, problem = _conditional_example()
    view = ProblemIndex(problem).view({table.id("Y")})
    # the effect deleting Y goes, and so does the one whose condition
    # entails firing it; the unconditional part (way 0) survives
    assert view.blocked == {1, 2}


def test_always_deleted_set_of_conditional_achiever():
    table, action, problem = _conditional_example()
    assert names_of(problem, compute_f_da(ProblemIndex(problem),
                                          {table.id("A")})) == ["X", "Y"]
    # adding A unconditionally shrinks the set to the common part
    i = table.id
    variant = AdlAction("o", (
        ConditionalEffect(frozenset({i("U")}), frozenset({i("W"), i("A")}),
                          frozenset({i("X")})),
    ) + action.effects[1:])
    problem2 = PlanningProblem(table, (variant,), frozenset(),
                               frozenset({i("A")}))
    assert names_of(problem2, compute_f_da(ProblemIndex(problem2),
                                           {i("A")})) == ["X"]


def test_f_da_three_blocks(load):
    problem = load("blocks3")
    index = ProblemIndex(problem)
    assert names_of(problem, compute_f_da(index, atoms(problem, "on(b,c)"))) \
        == ["clear(c)", "holding(b)"]
    assert names_of(problem, compute_f_da(index, atoms(problem, "on(a,b)"))) \
        == ["clear(b)", "holding(a)"]


def test_f_da_intersects_over_achievers():
    table = AtomTable("ACD")
    a1 = StripsAction("a1", frozenset(), frozenset({table.id("A")}),
                      frozenset({table.id("C"), table.id("D")}))
    a2 = StripsAction("a2", frozenset(),
                      frozenset({table.id("A"), table.id("C")}),
                      frozenset({table.id("D")}))
    problem = PlanningProblem(table, (a1, a2), frozenset(),
                              frozenset({table.id("A")}))
    assert names_of(problem, compute_f_da(ProblemIndex(problem),
                                          {table.id("A")})) == ["D"]


def test_f_da_unachievable_anchor_contributes_nothing(load):
    problem = load("trap")
    # nothing adds C
    assert compute_f_da(ProblemIndex(problem),
                        atoms(problem, "C")) == frozenset()


def test_fixpoint_revives_deletions(load):
    problem = load("revival")
    index = ProblemIndex(problem)
    fx = fixpoint_reduce(index, atoms(problem, "A"))
    assert fx.f_star == frozenset()
    assert fx.o_star.blocked == frozenset()
    assert fx.iterations <= len(compute_f_da(index, atoms(problem, "A"))) + 1
    assert not order_h(problem, problem.atom("B"), problem.atom("A")).holds


def test_fixpoint_leaves_blocks_sets_alone(load):
    problem = load("blocks3")
    fx = fixpoint_reduce(ProblemIndex(problem), atoms(problem, "on(b,c)"))
    assert names_of(problem, fx.f_star) == ["clear(c)", "holding(b)"]
    assert fx.iterations == 1


def test_fixpoint_empty_f_da(load):
    problem = load("trap")
    fx = fixpoint_reduce(ProblemIndex(problem), atoms(problem, "A"))
    assert fx.f_star == frozenset()
    assert fx.o_star.blocked == frozenset()
    assert fx.iterations == 1


def test_possibly_achievable_blocks(load):
    problem = load("blocks3")
    index = ProblemIndex(problem)
    view_bc = fixpoint_reduce(index, atoms(problem, "on(b,c)")).o_star
    assert possibly_achievable(problem.atom("on(a,b)"), view_bc)
    view_ab = fixpoint_reduce(index, atoms(problem, "on(a,b)")).o_star
    assert not possibly_achievable(problem.atom("on(b,c)"), view_ab)


def test_possibly_achievable_no_preconditions():
    table = AtomTable("P")
    action = StripsAction("free", frozenset(), frozenset({table.id("P")}),
                          frozenset())
    problem = PlanningProblem(table, (action,), frozenset(),
                              frozenset({table.id("P")}))
    view = ProblemIndex(problem).view(frozenset())
    assert possibly_achievable(table.id("P"), view)


def test_order_e_three_blocks(load, graph_of):
    problem = load("blocks3")
    graph = graph_of("blocks3")
    on_bc, on_ab = problem.atom("on(b,c)"), problem.atom("on(a,b)")
    assert order_e(problem, graph, on_bc, on_ab).holds
    assert not order_e(problem, graph, on_ab, on_bc).holds


def test_order_e_vacuous_when_no_achiever():
    table = AtomTable(["P", "B", "A"])
    mk_a = StripsAction("mk_a", frozenset({table.id("P")}),
                        frozenset({table.id("A")}), frozenset())
    problem = PlanningProblem(table, (mk_a,), frozenset({table.id("P")}),
                              frozenset({table.id("A"), table.id("B")}))
    from goalagenda.graphplan import build_graph
    graph = build_graph(problem)
    assert order_e(problem, graph, table.id("B"), table.id("A")).holds


def test_order_e_trivial_flag_on_unreachable_anchor():
    table = AtomTable(["P", "B", "A"])
    mk_b = StripsAction("mk_b", frozenset({table.id("P")}),
                        frozenset({table.id("B")}), frozenset())
    problem = PlanningProblem(table, (mk_b,), frozenset({table.id("P")}),
                              frozenset({table.id("A"), table.id("B")}))
    from goalagenda.graphplan import build_graph
    graph = build_graph(problem)
    decision = order_e(problem, graph, table.id("B"), table.id("A"))
    assert decision.holds and decision.trivial


def test_order_h_three_blocks(load):
    problem = load("blocks3")
    on_bc, on_ab = problem.atom("on(b,c)"), problem.atom("on(a,b)")
    assert order_h(problem, on_bc, on_ab).holds
    assert not order_h(problem, on_ab, on_bc).holds


def test_orderings_through_conditional_effects(load, graph_of):
    """Both routes see the implied latch deletion: every way of sending the
    message needs the latch, which cannot hold once the signal is up."""
    problem = load("latch")
    msg, sig = problem.atom("message"), problem.atom("signal")
    graph = graph_of("latch")
    from goalagenda.graphplan import false_set
    assert false_set(graph, {sig}) == atoms(problem, "latch")
    assert order_e(problem, graph, msg, sig).holds
    assert not order_e(problem, graph, sig, msg).holds
    assert order_h(problem, msg, sig).holds
    assert not order_h(problem, sig, msg).holds
    assert compute_f_da(ProblemIndex(problem), {sig}) == \
        atoms(problem, "latch")


def test_order_h_trap_regression(load):
    """The one-level analysis both over-commits and under-detects here:
    it orders B first (wrong) and misses the only correct ordering."""
    problem = load("trap")
    a, b = problem.atom("A"), problem.atom("B")
    assert order_h(problem, b, a).holds
    assert not order_h(problem, a, b).holds


def test_order_sets_degenerate_to_atomic(load, graph_of):
    problem = load("blocks3")
    graph = graph_of("blocks3")
    bs = atoms(problem, "on(b,c)")
    as_ = atoms(problem, "on(a,b)")
    assert bool(before(problem, "e", bs, as_, graph)) == \
        order_e(problem, graph, problem.atom("on(b,c)"),
                problem.atom("on(a,b)")).holds
    assert before(problem, "h", bs, as_)
    assert not before(problem, "h", as_, bs)
    # the method rule of the agenda's entry points
    assert before(problem, "H", bs, as_) == before(problem, "h", bs, as_)
    with pytest.raises(ValueError, match="unknown ordering method"):
        before(problem, "x", bs, as_)


def test_order_sets_tyreworld_families(load):
    """Wheels must go on while the jack is still out of the boot, and
    nothing can be stowed after the boot is closed; the nut goals carry no
    such constraint against the jack."""
    problem = load("tyreworld_3")
    on_goals = atoms(problem, "on(r1,hub1)", "on(r2,hub2)", "on(r3,hub3)")
    tight_goals = atoms(problem, "tight(n1,hub1)", "tight(n2,hub2)",
                        "tight(n3,hub3)")
    in_jack = atoms(problem, "in(jack,boot)")
    closed = atoms(problem, "closed(boot)")
    assert before(problem, "h", on_goals, in_jack)
    assert not before(problem, "h", tight_goals, in_jack)
    assert before(problem, "h", tight_goals, closed)
    assert before(problem, "h", atoms(problem, "in(w1,boot)"), closed)


def test_order_E_tyreworld_on_before_tight(load, graph_of):
    """Graph route at set level: no wheel can go on once its nuts are
    tight (mounting needs the hub unfastened, which excludes tight)."""
    problem = load("tyreworld_3")
    graph = graph_of("tyreworld_3")
    on_goals = atoms(problem, "on(r1,hub1)", "on(r2,hub2)", "on(r3,hub3)")
    tight_goals = atoms(problem, "tight(n1,hub1)", "tight(n2,hub2)",
                        "tight(n3,hub3)")
    assert before(problem, "e", on_goals, tight_goals, graph)


def test_fixpoint_result_invariants(load):
    """The surviving set never exceeds the initial delete intersection, no
    surviving action deletes the anchor, and none needs a surviving-set
    atom."""
    for name in ("blocks3", "hanoi_3", "tyreworld_1", "trap", "revival",
                 "diamond"):
        problem = load(name)
        index = ProblemIndex(problem)
        owners = [action for action, ways
                  in zip(problem.actions, problem.ways) for _ in ways]
        for anchor_atom in sorted(problem.goals):
            anchor = frozenset({anchor_atom})
            fx = fixpoint_reduce(index, anchor)
            assert fx.f_star <= compute_f_da(index, anchor)
            assert fx.iterations <= len(compute_f_da(index, anchor)) + 1
            for w, action in enumerate(owners):
                if w in fx.o_star.blocked:
                    continue
                assert not (action.delete & anchor)
                assert not (action.pre & fx.f_star)


def test_direct_analysis_growth_is_polynomial():
    """Coarse guard against accidental exponential behavior: quadrupling
    the stacking instance must stay within a (very generous) cubic-growth
    envelope. Times are medians of three runs with a floor against noise."""
    import time

    from goalagenda import corpus
    from goalagenda.agenda import compute_agenda

    def med3(n):
        problem = corpus.load(f"stack_{n}")
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            compute_agenda(problem, "h")
            samples.append(time.perf_counter() - t0)
        return sorted(samples)[1]

    small, large = med3(8), med3(32)
    assert large <= 300 * max(small, 0.005)


def test_ordering_functions_are_pure(load, graph_of):
    problem = load("blocks3")
    graph = graph_of("blocks3")
    on_bc, on_ab = problem.atom("on(b,c)"), problem.atom("on(a,b)")
    assert order_e(problem, graph, on_bc, on_ab) == \
        order_e(problem, graph, on_bc, on_ab)
    assert order_h(problem, on_bc, on_ab) == order_h(problem, on_bc, on_ab)



@pytest.mark.parametrize("bad", [999, -1])
@pytest.mark.parametrize("side", ["b", "a"])
@pytest.mark.parametrize(
    "test", ["order_e", "order_h", "decide_reasonable", "decide_forced"])
def test_ordering_tests_reject_ids_that_are_not_atoms(load, graph_of,
                                                      index_of, test, side,
                                                      bad):
    """Every public ordering test raises ValueError naming an id outside
    ``range(len(problem.atoms))`` (19 on blocks3), on either side, rather
    than answer with a verdict that means nothing."""
    problem = load("blocks3")
    assert len(problem.atoms) == 19
    graph, reachable = graph_of("blocks3"), index_of("blocks3")
    call = {
        "order_e": lambda b, a: order_e(problem, graph, b, a),
        "order_h": lambda b, a: order_h(problem, b, a),
        "decide_reasonable": lambda b, a: decide_reasonable(reachable, b, a),
        "decide_forced": lambda b, a: decide_forced(reachable, b, a),
    }[test]
    b, a = (bad, 0) if side == "b" else (0, bad)
    with pytest.raises(ValueError, match=f"atom id {bad} out of range"):
        call(b, a)


@pytest.mark.parametrize("bad", [-1, 19])
@pytest.mark.parametrize(
    "call", ["compute_f_da", "fixpoint_reduce", "ordered_before e anchor",
             "ordered_before h candidate"])
def test_ordering_layer_rejects_ids_that_are_not_atoms(load, graph_of,
                                                       call, bad):
    """The index-level functions raise ValueError naming an id outside
    ``range(len(problem.atoms))`` (19 on blocks3) instead of reading
    another atom's postings (-1 reads the last atom's) or failing with an
    IndexError."""
    problem = load("blocks3")
    assert len(problem.atoms) == 19
    index, graph = ProblemIndex(problem), graph_of("blocks3")
    run = {
        "compute_f_da": lambda: compute_f_da(index, {0, bad}),
        "fixpoint_reduce": lambda: fixpoint_reduce(index, {bad}),
        "ordered_before e anchor":
            lambda: ordered_before(index, "e", graph, {bad}, {0}),
        "ordered_before h candidate":
            lambda: ordered_before(index, "h", None, {0}, {bad}),
    }[call]
    with pytest.raises(ValueError, match=f"atom id {bad} out of range"):
        run()


@pytest.mark.parametrize("test", ["order_e", "order_h", "decide_reasonable",
                                  "decide_forced"])
def test_ordering_needs_two_distinct_goals(load, graph_of, index_of, test):
    """The approximations and the exact tests alike refuse a pair whose two
    goals are one atom."""
    problem = load("blocks3")
    goal = min(problem.goals)
    call = {
        "order_e": lambda: order_e(problem, graph_of("blocks3"), goal, goal),
        "order_h": lambda: order_h(problem, goal, goal),
        "decide_reasonable":
            lambda: decide_reasonable(index_of("blocks3"), goal, goal),
        "decide_forced": lambda: decide_forced(index_of("blocks3"), goal, goal),
    }[test]
    with pytest.raises(ValueError, match="two distinct goals"):
        call()
