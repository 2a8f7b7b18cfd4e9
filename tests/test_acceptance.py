"""Acceptance suite: every exit criterion as a dedicated test with its
stated tolerance (exact set equality unless noted) and time budget. The
terminal summary prints one line per criterion."""

import json
import time

import pytest

from goalagenda import corpus
from goalagenda.agenda import (
    GoalGraph,
    compute_agenda,
    degree_partition,
    transitive_closure,
)
from goalagenda.cli import main as cli_main
from goalagenda.corpus import problem_from_dict
from goalagenda.driver import plan_with_agenda
from goalagenda.graphplan import build_graph, false_set
from goalagenda.model import (
    AdlAction,
    AtomTable,
    ConditionalEffect,
    PlanningProblem,
    Unsolvable,
    validate_plan,
)
from goalagenda.oracle import (
    LimitExceeded,
    check_invertibility,
    decide_forced,
    decide_reasonable,
    enumerate_reachable,
    find_deadlocks,
)
from goalagenda.ordering import (
    ProblemIndex,
    compute_f_da,
    fixpoint_reduce,
    order_e,
    order_h,
)

from conftest import atoms, graphplan_on, names_of

EXHAUSTIBLE = corpus.EXHAUSTIBLE


@pytest.mark.criterion(1, "three-block false sets and orderings, both methods")
def test_c1_blocks_ordering(load, graph_of, index_of):
    t0 = time.perf_counter()
    problem = load("blocks3")
    graph = build_graph(problem, retain_layers=False)
    on_bc, on_ab = problem.atom("on(b,c)"), problem.atom("on(a,b)")
    assert false_set(graph, {on_bc}) == atoms(
        problem, "clear(c)", "on-table(b)", "holding(c)", "holding(b)",
        "on(a,c)", "on(c,b)", "on(b,a)")
    index = ProblemIndex(problem)
    assert compute_f_da(index, {on_bc}) == atoms(problem, "clear(c)",
                                                 "holding(b)")
    assert compute_f_da(index, {on_ab}) == atoms(problem, "clear(b)",
                                                 "holding(a)")
    assert order_e(problem, graph, on_bc, on_ab).holds
    assert not order_e(problem, graph, on_ab, on_bc).holds
    assert order_h(problem, on_bc, on_ab).holds
    assert not order_h(problem, on_ab, on_bc).holds
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(2, "fixpoint shrinks the revival set, keeps blocks")
def test_c2_fixpoint_behavior(load):
    t0 = time.perf_counter()
    revival = load("revival")
    fx = fixpoint_reduce(ProblemIndex(revival), atoms(revival, "A"))
    assert fx.f_star == frozenset()
    assert not order_h(revival, revival.atom("B"), revival.atom("A")).holds
    blocks = load("blocks3")
    anchor = atoms(blocks, "on(b,c)")
    blocks_index = ProblemIndex(blocks)
    assert fixpoint_reduce(blocks_index, anchor).f_star == \
        compute_f_da(blocks_index, anchor)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(3, "incompleteness regression on the trap fixture")
def test_c3_trap_regression(load, index_of):
    t0 = time.perf_counter()
    problem = load("trap")
    a, b = problem.atom("A"), problem.atom("B")
    assert order_h(problem, b, a).holds          # derived, and wrong
    assert not order_h(problem, a, b).holds      # the real ordering, missed
    index = index_of("trap")
    assert not decide_forced(index, b, a).holds
    # nor is A forced before B: in {B, C, E}, just entered by op1 with A
    # false, the long route still runs (op3, op4)
    verdict = decide_forced(index, a, b)
    assert not verdict.holds
    state, plan = verdict.witness
    assert names_of(problem, state) == ["B", "C", "E"]
    assert [problem.actions[i].name for step in plan.steps for i in step] \
        == ["op3", "op4"]
    agenda = compute_agenda(problem, "h")
    result = plan_with_agenda(problem, agenda, base="forward")
    assert result.status == "episode_unsolvable"
    assert result.failed_episode == 2
    assert result.invertibility_certified is False
    deadlocks = find_deadlocks(index)
    assert [names_of(problem, s) for s in deadlocks] == [["B", "C"]]
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion("3-pinned", "forced ordering once op1 closes the "
                      "long route")
def test_c3_trap_forced_ordering_pin():
    """The trap with op1 deleting E and F too: once B is in, the long route
    to A is gone for good, so A is forced before B. Both orderings see it,
    and the agenda it gives plans."""
    data = json.loads(corpus.micro_text("trap"))
    data["actions"][0]["del"] = ["D", "E", "F"]
    problem = problem_from_dict(data)
    a, b = problem.atom("A"), problem.atom("B")
    index = enumerate_reachable(problem)
    forced = decide_forced(index, a, b)
    assert forced.holds and not forced.trivial
    assert decide_reasonable(index, a, b).holds
    assert not decide_forced(index, b, a).holds
    graph = build_graph(problem, retain_layers=False)
    assert order_e(problem, graph, a, b).holds
    assert not order_e(problem, graph, b, a).holds
    agenda = compute_agenda(problem, "e", graph)
    assert [names_of(problem, e) for e in agenda.entries] == [["A"], ["B"]]
    result = plan_with_agenda(problem, agenda, base="forward")
    assert result.status == "solved"
    assert validate_plan(problem, result.plan).valid
    assert [names_of(problem, s) for s in find_deadlocks(index)] == \
        [["B", "C"]]


@pytest.mark.criterion(4, "closure, degrees and separate set on the diamond")
def test_c4_agenda_pipeline(load):
    t0 = time.perf_counter()
    g = GoalGraph(frozenset("ABCDE"),
                  frozenset({("A", "B"), ("B", "C"), ("B", "D")}))
    closed = transitive_closure(g)
    assert closed.edges == frozenset({("A", "B"), ("A", "C"), ("A", "D"),
                                      ("B", "C"), ("B", "D")})
    in_deg = {v: sum(1 for _, y in closed.edges if y == v) for v in "ABCD"}
    out_deg = {v: sum(1 for x, _ in closed.edges if x == v) for v in "ABCD"}
    assert [in_deg[v] - out_deg[v] for v in "ABCD"] == [-3, -1, 2, 2]
    entries, gsep = degree_partition(closed)
    assert entries == [frozenset("A"), frozenset("B"), frozenset({"C", "D"})]
    assert gsep == frozenset("E")

    # the same shape realized by a ground problem, driven end to end
    problem = load("diamond")
    agenda = compute_agenda(problem, "h")
    assert [names_of(problem, e) for e in agenda.entries] == [
        ["goal-a"], ["goal-b"], ["goal-c", "goal-d", "goal-e"]]
    assert names_of(problem, agenda.gsep) == ["goal-e"]
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(5, "corpus agenda structure (hanoi, stack, tyreworld)")
def test_c5_corpus_agendas():
    for n in range(3, 8):
        t0 = time.perf_counter()
        problem = corpus.load(f"hanoi_{n}")
        agenda = compute_agenda(problem, "h")
        assert time.perf_counter() - t0 < 10.0
        assert len(agenda.entries) == n
        assert all(len(e) == 1 for e in agenda.entries)
        order = [problem.atoms.name(next(iter(e))) for e in agenda.entries]
        expected = [f"on(d{n},peg3)"] + \
            [f"on(d{i},d{i + 1})" for i in range(n - 1, 0, -1)]
        assert order == expected

    t0 = time.perf_counter()
    stack20 = corpus.load("stack_20")
    agenda = compute_agenda(stack20, "h")
    assert time.perf_counter() - t0 < 10.0
    assert len(agenda.entries) == 19

    tyre = corpus.load("tyreworld_3")
    agenda = compute_agenda(tyre, "h")
    position = {}
    for pos, entry in enumerate(agenda.entries):
        for atom in entry:
            position[tyre.atoms.name(atom)] = pos
    for i in (1, 2, 3):
        assert position[f"inflated(r{i})"] < position[f"on(r{i},hub{i})"] \
            < position[f"tight(n{i},hub{i})"]
    assert position["closed(boot)"] == len(agenda.entries) - 1


@pytest.mark.criterion(6, "graph ordering sound wrt exhaustive reasonable")
def test_c6_soundness_sweep(load, graph_of, index_of):
    t0 = time.perf_counter()
    checked = 0
    for name in EXHAUSTIBLE:
        problem = load(name)
        graph = graph_of(name)
        try:
            index = index_of(name)
        except LimitExceeded:
            continue  # unknown, never asserted
        for a in sorted(problem.goals):
            for b in sorted(problem.goals):
                if a == b:
                    continue
                if order_e(problem, graph, b, a).holds:
                    verdict = decide_reasonable(index, b, a)
                    assert verdict.holds, \
                        f"{name}: unsound graph ordering {b} before {a}"
                    checked += 1
    assert checked > 0
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(7, "false sets never co-hold with their anchor")
def test_c7_false_set_sweep(load, graph_of, index_of):
    t0 = time.perf_counter()
    for name in EXHAUSTIBLE:
        problem = load(name)
        graph = graph_of(name)
        try:
            index = index_of(name)
        except LimitExceeded:
            continue
        for goal in sorted(problem.goals):
            fs = false_set(graph, {goal})
            if fs is None:
                assert all(goal not in s for s in index.states)
                continue
            for state in index.states:
                if goal in state:
                    assert not (state & fs), \
                        f"{name}: {goal} co-holds with its false set"
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(8, "certified invertible problems solve end to end")
def test_c8_invertibility_chain(load, index_of):
    t0 = time.perf_counter()
    certified_names = []
    for name in EXHAUSTIBLE:
        problem = load(name)
        if problem.is_adl:
            continue
        index = index_of(name)
        report = check_invertibility(index)
        direct = graphplan_on(problem)
        solvable = not isinstance(direct, Unsolvable)
        if report.certified and solvable:
            certified_names.append(name)
            assert find_deadlocks(index) == [], name
            agenda = compute_agenda(problem, "h")
            result = plan_with_agenda(problem, agenda, base="graphplan")
            assert result.status == "solved", name
            assert validate_plan(problem, result.plan).valid, name
    # the chain must actually bite: the invertible corpus members certify
    assert set(certified_names) >= {"stack_4", "gripper2"}
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.criterion(9, "implied-delete sets of conditional effects")
def test_c9_adl_d_sets():
    t0 = time.perf_counter()
    table = AtomTable("UVWXYA")
    i = table.id
    tail = (
        ConditionalEffect(frozenset({i("V"), i("W")}), frozenset({i("A")}),
                          frozenset({i("X")})),
        ConditionalEffect(frozenset({i("W")}), frozenset({i("U")}),
                          frozenset({i("Y")})),
    )
    action = AdlAction("o", (
        ConditionalEffect(frozenset({i("U")}), frozenset({i("W")}),
                          frozenset({i("X")})),
    ) + tail)
    problem = PlanningProblem(table, (action,), frozenset(),
                              frozenset({i("A")}))
    from goalagenda.ordering import implied_deletes
    assert implied_deletes(action, 1) == frozenset({i("X"), i("Y")})
    assert compute_f_da(ProblemIndex(problem), {i("A")}) == \
        frozenset({i("X"), i("Y")})

    unconditional = AdlAction("o", (
        ConditionalEffect(frozenset({i("U")}), frozenset({i("W"), i("A")}),
                          frozenset({i("X")})),
    ) + tail)
    problem2 = PlanningProblem(table, (unconditional,), frozenset(),
                               frozenset({i("A")}))
    assert compute_f_da(ProblemIndex(problem2), {i("A")}) == \
        frozenset({i("X")})
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(10, "byte-identical analyze and plan output")
def test_c10_determinism(tmp_path, capsys):
    plan_args = {
        "trap": ["--base", "forward"],
        "revival": ["--base", "forward"],
        "diamond": ["--base", "forward"],
    }
    for name in corpus.ALL_NAMED:
        for command in ("analyze", "plan"):
            outputs = []
            for attempt in (0, 1):
                target = tmp_path / f"{name}-{command}-{attempt}.json"
                args = [command, "--corpus", name, "--method", "h",
                        "--out", str(target)]
                if command == "plan":
                    args += plan_args.get(name, [])
                cli_main(args)
                outputs.append(target.read_bytes())
            assert outputs[0] == outputs[1], f"{name} {command} not stable"
    capsys.readouterr()


@pytest.mark.criterion(11, "direct analysis scales and outruns the graph")
def test_c11_performance():
    def h_time(n):
        problem = corpus.load(f"stack_{n}")
        t0 = time.perf_counter()
        agenda = compute_agenda(problem, "h")
        elapsed = time.perf_counter() - t0
        assert len(agenda.entries) == n - 1
        return elapsed

    def e_time(n):
        problem = corpus.load(f"stack_{n}")
        t0 = time.perf_counter()
        compute_agenda(problem, "e")
        return time.perf_counter() - t0

    assert h_time(80) < 60.0
    for n in (20, 24, 28):
        th, te = h_time(n), e_time(n)
        assert th < te, f"stack_{n}: direct {th:.3f}s vs graph {te:.3f}s"
