import dataclasses
import importlib
import json
import pkgutil
import random

import pytest
from hypothesis import given, strategies as st

import goalagenda
import reference as ref
import test_state_digests
from goalagenda import corpus
from goalagenda.agenda import Agenda
from goalagenda.driver import (
    AgendaPlanResult,
    InvalidPlanError,
    PlanEpisode,
    next_initial_state,
)
from goalagenda.model import (
    AdlAction,
    AtomTable,
    ConditionalEffect,
    GoalsUnmet,
    InapplicableAction,
    Plan,
    PlanningProblem,
    ResourceLimit,
    StepConflict,
    StripsAction,
    Unsolvable,
    ValidationReport,
    action_ways,
    atom_args,
    atom_name,
    set_table,
    validate_plan,
)
from goalagenda.oracle import ActionInvertibility, InvertibilityReport
from goalagenda.ordering import FixpointResult, OrderingVerdict
from goalagenda.pddl import (
    DomainFile,
    LiftedOperator,
    Literal,
    ProblemFile,
    WhenClause,
)

from conftest import atoms


def make_problem(action_defs, init, goals, atom_names):
    table = AtomTable(atom_names)
    acts = tuple(
        StripsAction(name, frozenset(map(table.id, pre)),
                     frozenset(map(table.id, add)),
                     frozenset(map(table.id, dele)))
        for name, pre, add, dele in action_defs
    )
    return PlanningProblem(table, acts,
                           frozenset(map(table.id, init)),
                           frozenset(map(table.id, goals)))


def with_init(problem, init):
    return PlanningProblem(problem.atoms, problem.actions, frozenset(init),
                           problem.goals)


def test_intern_round_trip():
    table = AtomTable()
    ids = [table.intern(n) for n in ("p(a)", "q(a,b)", "p(a)", "r()")]
    assert ids == [0, 1, 0, 2]
    assert [table.name(i) for i in (0, 1, 2)] == ["p(a)", "q(a,b)", "r()"]
    assert table.id("q(a,b)") == 1
    assert len(table) == 3


@pytest.mark.parametrize("head, args, name", [
    ("on", ("a", "b"), "on(a,b)"),
    ("arm-empty", (), "arm-empty()"),
    ("not-at", ("r1",), "not-at(r1)"),
])
def test_atom_names_round_trip(head, args, name):
    """The one name format of ground atoms and actions, both ways."""
    assert atom_name(head, args) == name
    assert atom_args(name) == (head, args)


@pytest.mark.parametrize("name", ["A", "p(a", "p(a)b", "p(a(b))", "(a)"])
def test_names_of_another_form_do_not_parse(name):
    assert atom_args(name) is None


def _holding(*actions):
    """A problem over five atoms holding ``actions``."""
    return PlanningProblem(AtomTable("abcde"), actions, frozenset(),
                           frozenset())


def test_strips_action_rejects_add_delete_overlap():
    """An action is a plain record; the problem that holds it checks it,
    where ``action_ways`` splits it."""
    bad = StripsAction("bad", frozenset(), frozenset({1, 2, 3}),
                       frozenset({2, 1, 4}))
    with pytest.raises(ValueError) as err:
        _holding(bad)
    assert str(err.value) == \
        "action 'bad': delete and add lists intersect: [1, 2]"


def test_conditional_effect_rejects_add_delete_overlap():
    bad = ConditionalEffect(frozenset({0}), frozenset({3, 1}),
                            frozenset({1, 3}))
    fine = ConditionalEffect(frozenset({0}), frozenset({1}), frozenset())
    for effects in ((bad,), (fine, bad)):
        with pytest.raises(ValueError) as err:
            _holding(AdlAction("a", effects))
        assert str(err.value) == \
            "conditional effect: adds and deletes intersect: [1, 3]"


def _ground_json(actions):
    return {"init": ["p"], "goals": ["q"], "actions": actions}


@pytest.mark.parametrize("actions, message", [
    ([{"name": "go", "pre": ["p"], "add": ["q", "r"], "del": ["r", "p"]}],
     "action 'go': delete and add lists intersect: [2]"),
    ([{"name": "go", "pre": ["p"], "effects": [
        {"add": ["q"]}, {"when": ["q"], "add": ["p"], "del": ["p"]}]}],
     "conditional effect: adds and deletes intersect: [0]"),
    ([{"name": "first", "pre": ["p"], "add": ["q"], "del": ["q"]},
      {"name": "second", "pre": ["p"], "add": ["p"], "del": ["p"]}],
     "action 'first': delete and add lists intersect: [1]"),
], ids=["strips", "adl effect", "first action first"])
def test_ground_json_rejects_actions_that_add_what_they_delete(actions,
                                                               message):
    """Ground JSON is the one outside input that can hold such an action:
    ``problem_from_dict`` raises the model's ValueError, and
    ``load_ground_json`` turns it into a GroundFileError with the same
    text."""
    data = _ground_json(actions)
    with pytest.raises(ValueError) as err:
        corpus.problem_from_dict(data)
    assert str(err.value) == message
    with pytest.raises(corpus.GroundFileError) as err:
        corpus.load_ground_json(json.dumps(data))
    assert str(err.value) == message


def test_ground_json_form_errors_come_before_action_checks():
    """The form of every action is read before the problem checks any of
    them, so a malformed action is reported even after one that adds
    what it deletes."""
    data = _ground_json([
        {"name": "first", "pre": ["p"], "add": ["q"], "del": ["q"]},
        {"name": "second", "pre": ["p"], "dels": ["p"]}])
    with pytest.raises(corpus.GroundFileError,
                       match=r"^second: unknown keys \['dels'\]$"):
        corpus.problem_from_dict(data)


def test_action_records_check_nothing_until_a_problem_holds_them():
    """Building a bad action raises nothing; the first problem that holds
    it raises, before any id of it is checked against the atom table."""
    empty = AdlAction("a", ())
    with pytest.raises(ValueError, match="'a': needs an effect at index 0"):
        _holding(AdlAction("ok", (ConditionalEffect(
            frozenset({9}), frozenset(), frozenset()),)), empty)
    overlap = StripsAction("s", frozenset({9}), frozenset({7}),
                           frozenset({7}))
    with pytest.raises(ValueError, match="'s': delete and add lists"):
        _holding(overlap)


def _strips(name, pre=(), add=(), delete=()):
    return StripsAction(name, frozenset(pre), frozenset(add),
                        frozenset(delete))


@pytest.mark.parametrize("init, goals, actions, message", [
    ({0, 2}, {1}, (), "atom ids not interned: [2]"),
    ({-1}, {1}, (), "atom ids not interned: [-1]"),
    ({0}, {5}, (), "atom ids not interned: [5]"),
    ({7}, {5}, (), "atom ids not interned: [7]"),
    ({0}, {1}, (_strips("ok", [0], [1]), _strips("far", [0], [1], [9]),
                _strips("farther", [8])),
     "action 'far' references uninterned ids: [9]"),
    ({0}, {4}, (_strips("far", [9]),), "atom ids not interned: [4]"),
    ({0}, {1}, (AdlAction("flip", (
        ConditionalEffect(frozenset({0}), frozenset({1}), frozenset()),
        ConditionalEffect(frozenset({-3}), frozenset(), frozenset({0})))),),
     "action 'flip' references uninterned ids: [-3]"),
    ({0}, {1}, (_strips("s", [9]), AdlAction("t", (
        ConditionalEffect(frozenset({0}), frozenset({1}), frozenset()),))),
     "problem mixes STRIPS and ADL actions"),
])
def test_problem_rejects_ids_outside_its_atom_table(init, goals, actions,
                                                    message):
    """The first bad set is named: init, then goals, then each action's
    sets in order; kinds are checked before ids."""
    with pytest.raises(ValueError) as err:
        PlanningProblem(AtomTable(["p", "q"]), actions, frozenset(init),
                        frozenset(goals))
    assert str(err.value) == message


@pytest.mark.parametrize("make, error, message", [
    (lambda load: _holding(AdlAction("a", ())), ValueError,
     "needs an effect at index 0"),
    (lambda load: load("blocks2").action_named("fly"), KeyError, "fly"),
], ids=["adl action without effects", "unknown action name"])
def test_model_rejects_what_does_not_exist(load, make, error, message):
    """An ADL action needs effect 0, which carries its precondition; a
    problem names only the actions it has."""
    with pytest.raises(error, match=message):
        make(load)


def test_action_ways_condition_each_effect_on_the_precondition():
    """A STRIPS action is one way; an ADL action is one way per effect, in
    effect order, each condition holding the action's precondition.
    Effect 0's condition is the precondition object itself, and a union
    equal to a set already in the table is that set."""
    s = _strips("s", [0], [1], [2])
    assert action_ways(s, set_table()) == ((s.pre, s.add, s.delete),)

    def f(*ids):
        return frozenset(ids)

    adl = AdlAction("a", (ConditionalEffect(f(0), f(1), f(2)),
                          ConditionalEffect(f(3), f(2), f()),
                          ConditionalEffect(f(), f(), f(1))))
    shared = set_table()
    ways = action_ways(adl, shared)
    assert ways == ((f(0), f(1), f(2)), (f(0, 3), f(2), f()),
                    (f(0), f(), f(1)))
    assert ways[0][0] is adl.pre and ways[2][0] is not adl.pre
    assert ways[1][0] is shared(f(3, 0))
    held = f(0)
    shared = set_table()
    assert shared(held) is held
    assert action_ways(adl, shared)[2][0] is held


#: (set fields, set objects) of three grounded corpus instances.
SHARED_SETS = {"stack_8": (384, 128), "tyreworld_3": (324, 211),
               "hanoi_4": (270, 202)}


@pytest.mark.parametrize("name", dict.fromkeys(corpus.ALL_NAMED + tuple(
    SHARED_SETS)))
def test_equal_atom_sets_are_one_object(name):
    """Every distinct atom set among a problem's action fields and ways is
    one frozenset object, for the PDDL members grounded by ``ground`` and
    the micro fixtures read by ``load_ground_json``.
    ``test_ground_reference`` checks the same on its random typed
    domains."""
    fields, objects, values = ref.set_counts(corpus.load(name))
    assert objects == values
    if name in SHARED_SETS:
        assert (fields, objects) == SHARED_SETS[name]


def test_apply_strips_fires_and_identity():
    """A STRIPS action fires in a plan; an inapplicable one is the identity
    and is reported."""
    problem = make_problem([("o", ["C"], ["A"], ["C"])], ["C"], ["A"],
                           ["C", "A"])
    plan = Plan.sequential([0])
    report = validate_plan(problem, plan)
    assert report.valid and report.final_state == atoms(problem, "A")
    report = validate_plan(with_init(problem, ()), plan)
    assert report.final_state == frozenset()
    assert report.issue_kinds() == {"InapplicableAction", "GoalsUnmet"}


def test_apply_strips_pickup(load):
    problem = load("blocks3")
    state = atoms(problem, "on-table(a)", "clear(a)", "arm-empty()")
    pickup = problem.action_named("pickup(a)")
    assert next_initial_state(problem, state, Plan.sequential([pickup])) \
        == atoms(problem, "holding(a)")


def test_fired_delete_never_survives(load):
    problem = load("blocks3")
    for action_id, action in enumerate(problem.actions):
        result = next_initial_state(problem, action.pre,
                                    Plan.sequential([action_id]))
        assert not (result & (action.delete - action.add))


def _adl_example(table):
    U, V, W, X, Y, A = (table.id(n) for n in "UVWXYA")
    return AdlAction("o", (
        ConditionalEffect(frozenset({U}), frozenset({W}), frozenset({X})),
        ConditionalEffect(frozenset({V, W}), frozenset({A}), frozenset({X})),
        ConditionalEffect(frozenset({W}), frozenset({U}), frozenset({Y})),
    ))


def adl_problem(table, action, init=()):
    return PlanningProblem(table, (action,), frozenset(init), frozenset())


def test_apply_adl_conditional_firing():
    """Effect conditions are read in the state before the step: the effect
    on W does not fire although the first effect adds W."""
    table = AtomTable("UVWXYA")
    problem = adl_problem(table, _adl_example(table))
    U, W = table.id("U"), table.id("W")
    plan = Plan.sequential([0])
    assert next_initial_state(problem, {U}, plan) == {U, W}
    assert next_initial_state(problem, {U, W}, plan) == {U, W}
    report = validate_plan(problem, plan)
    assert report.final_state == frozenset()
    assert report.issue_kinds() == {"InapplicableAction"}


def test_apply_adl_conflict_is_an_error():
    """Fired effects that add and delete one atom are a StepConflict in
    validation and an InvalidPlanError when an episode is chained."""
    table = AtomTable("PQ")
    P, Q = table.id("P"), table.id("Q")
    problem = adl_problem(table, AdlAction("clash", (
        ConditionalEffect(frozenset(), frozenset({Q}), frozenset()),
        ConditionalEffect(frozenset({P}), frozenset(), frozenset({Q})),
    )))
    plan = Plan.sequential([0])
    assert next_initial_state(problem, frozenset(), plan) == {Q}
    report = validate_plan(with_init(problem, {P}), plan)
    assert report.issue_kinds() == {"StepConflict"}
    assert report.final_state == {P}
    with pytest.raises(InvalidPlanError):
        next_initial_state(problem, {P}, plan)


def test_result_sequence_trap_prefix(load):
    problem = load("trap")
    report = validate_plan(problem,
                           Plan.sequential([problem.action_named("op1")]))
    assert report.final_state == atoms(problem, "B", "C")
    state = report.final_state
    assert next_initial_state(problem, state, Plan(())) == state


def test_result_sequence_concatenation_is_composition(load):
    problem = load("blocks3")
    acts = [problem.action_named(n)
            for n in ("pickup(b)", "stack(b,c)", "pickup(a)", "stack(a,b)")]
    whole = validate_plan(problem, Plan.sequential(acts)).final_state
    split = next_initial_state(
        problem, next_initial_state(problem, problem.init,
                                    Plan.sequential(acts[:2])),
        Plan.sequential(acts[2:]))
    assert whole == split
    assert problem.goals <= whole


names = st.sampled_from(list("pqrstuv"))
atom_sets = st.frozensets(st.integers(min_value=0, max_value=6), max_size=4)


@st.composite
def strips_actions(draw):
    add = draw(atom_sets)
    dele = draw(atom_sets) - add
    return StripsAction(draw(names), draw(atom_sets), add, dele)


@given(st.lists(strips_actions(), max_size=5), atom_sets, atom_sets,
       st.integers(min_value=0, max_value=4))
def test_result_sequence_split_property(actions, s1, s2, cut):
    """Running a plan's two halves one after the other, each from where
    the last ended, ends where the whole plan ends."""
    problem = PlanningProblem(AtomTable(f"f{i}" for i in range(7)),
                              tuple(actions), frozenset(s1 | s2),
                              frozenset())
    ids = list(range(len(actions)))
    left = validate_plan(problem, Plan.sequential(ids[:cut]))
    right = validate_plan(with_init(problem, left.final_state),
                          Plan.sequential(ids[cut:]))
    whole = validate_plan(problem, Plan.sequential(ids))
    assert whole.final_state == right.final_state
    assert whole.issue_kinds() == left.issue_kinds() | right.issue_kinds()


def test_sequential_plans_match_the_reference_evaluator():
    """On 400 seeded random STRIPS (even seeds) and ADL (odd seeds)
    problems, a random sequential plan ends in the state the frozenset
    reference reaches, with the issue kinds it predicts."""
    for seed in range(400):
        problem = test_state_digests.random_problem(seed)
        rng = random.Random(seed)
        ids = [rng.randrange(len(problem.actions))
               for _ in range(rng.randint(0, 6))]
        actions = [problem.actions[i] for i in ids]
        expected = ref.result_sequence(problem.init, actions)
        kinds = set()
        state = problem.init
        for action in actions:
            if not action.pre <= state:
                kinds.add("InapplicableAction")
            state = ref.apply_action(state, action)
        if not problem.goals <= expected:
            kinds.add("GoalsUnmet")
        report = validate_plan(problem, Plan.sequential(ids))
        assert report.final_state == expected, seed
        assert report.issue_kinds() == kinds, seed


def test_parallel_step_reads_the_state_before_it():
    """a: P -> Q and b: Q -> G in one step from {P}: b's precondition is
    false before the step, so the step does not execute, although running
    a then b would reach G."""
    problem = make_problem([("a", ["P"], ["Q"], []), ("b", ["Q"], ["G"], [])],
                           ["P"], ["G"], ["P", "Q", "G"])
    step_plan = Plan((frozenset({0, 1}),))
    report = validate_plan(problem, step_plan)
    assert not report.valid
    assert report.issue_kinds() == {"InapplicableAction", "GoalsUnmet"}
    assert report.final_state == atoms(problem, "P", "Q")
    with pytest.raises(InvalidPlanError):
        next_initial_state(problem, problem.init, step_plan)
    assert validate_plan(problem, Plan.sequential([0, 1])).valid


@pytest.mark.parametrize("action_id", [1, 999, -1])
def test_action_ids_outside_the_problem_are_inapplicable(action_id):
    """An id that names no action of the problem changes nothing and is
    reported, beside the one real action, as InapplicableAction; -1 does
    not read the last action. Chaining such a plan raises."""
    problem = make_problem([("a", ["P"], ["G"], [])], ["P"], ["G"],
                           ["P", "G"])
    step_plan = Plan((frozenset({action_id}),))
    report = validate_plan(problem, step_plan)
    assert report.issues == (InapplicableAction(0, action_id),
                             GoalsUnmet(problem.goals))
    assert report.final_state == problem.init
    both = validate_plan(problem, Plan((frozenset({0, action_id}),)))
    assert both.issues == (InapplicableAction(0, action_id),)
    assert both.final_state == atoms(problem, "P", "G")
    with pytest.raises(InvalidPlanError, match="does not execute"):
        next_initial_state(problem, problem.init, step_plan)


def test_validate_plan_happy_path(load):
    problem = load("blocks3")
    plan = Plan.sequential(problem.action_named(n) for n in
                           ("pickup(b)", "stack(b,c)", "pickup(a)",
                            "stack(a,b)"))
    report = validate_plan(problem, plan)
    assert report.valid and not report.issues
    assert problem.goals <= report.final_state


def test_validate_plan_empty_plan_when_goals_hold():
    problem = make_problem([("noop", ["P"], ["Q"], [])], ["P", "G"], ["G"],
                           ["P", "Q", "G"])
    assert validate_plan(problem, Plan(())).valid


def test_validate_plan_flags_deleted_precondition(load):
    problem = load("trap")
    plan = Plan.sequential([problem.action_named("op1"),
                            problem.action_named("op2")])
    report = validate_plan(problem, plan)
    assert not report.valid
    assert "InapplicableAction" in report.issue_kinds()
    assert "GoalsUnmet" in report.issue_kinds()


def test_validate_plan_flags_step_conflict():
    problem = make_problem(
        [("a", ["P"], ["X"], ["P"]), ("b", ["P"], ["Y"], [])],
        ["P"], ["X", "Y"], ["P", "X", "Y"])
    plan = Plan((frozenset({0, 1}),))
    report = validate_plan(problem, plan)
    assert "StepConflict" in report.issue_kinds()


def test_inverse_application_restores_state(load, index_of):
    """del within pre, adds false, and a structural inverse: applying the
    pair is the identity. Checked over a real reachable state space."""
    problem = load("gripper2")
    index = index_of("gripper2")
    inverses = {}
    for i, o in enumerate(problem.actions):
        for j, cand in enumerate(problem.actions):
            if (cand.add == o.delete and cand.delete == o.add
                    and cand.pre <= (o.pre | o.add) - o.delete):
                inverses[i] = j
                break
    assert inverses, "gripper should pair every action with an inverse"
    checked = 0
    for state in index.states:
        for i, o in enumerate(problem.actions):
            if o.pre <= state and o.delete <= o.pre and not (state & o.add):
                bar = problem.actions[inverses[i]]
                assert next_initial_state(
                    problem, state, Plan.sequential([i, inverses[i]])) == state
                checked += 1
    assert checked > 0


RECORDS = (
    Agenda((frozenset({1}),), "h"),
    PlanEpisode(1, frozenset(), frozenset({1}), Plan(()), "solved"),
    AgendaPlanResult("solved", Plan(()), ()),
    Plan((frozenset({0}),)),
    Unsolvable("x"),
    ResourceLimit("max_states", 3),
    InapplicableAction(0, 1),
    GoalsUnmet(frozenset({2})),
    StepConflict(0, "0 vs 1"),
    ValidationReport(True, (), frozenset()),
    ActionInvertibility(0, 1, True, True),
    InvertibilityReport(True, ()),
    OrderingVerdict("e", True),
    FixpointResult(frozenset(), None, 1),
    Literal(True, "on", ("a", "b")),
    WhenClause((), ()),
    LiftedOperator("op", (), (), ()),
    DomainFile("d", (), (), (), ()),
    ProblemFile("p", "d", (), (), ()),
    StripsAction("a", frozenset({0}), frozenset({1}), frozenset({0})),
    ConditionalEffect(frozenset({0}), frozenset({1}), frozenset()),
    AdlAction("a", (ConditionalEffect(frozenset(), frozenset({1}),
                                      frozenset()),)),
)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_values(record):
    """A result record is a NamedTuple: its fields cannot be assigned, it
    compares and hashes by its fields, and ``_replace`` makes a new one."""
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, "other")
    twin = type(record)(*record)
    assert twin == record and hash(twin) == hash(record)
    replaced = record._replace(**{field: "other"})
    assert getattr(replaced, field) == "other"
    assert replaced != record and record == twin


@pytest.mark.parametrize("record, text", [
    (Unsolvable("x"), "Unsolvable(reason='x')"),
    (ResourceLimit("max_states", 3),
     "ResourceLimit(limit='max_states', value=3)"),
    (Plan.sequential([0]), "Plan(steps=(frozenset({0}),))"),
    (OrderingVerdict("e", True),
     "OrderingVerdict(relation='e', holds=True, trivial=False, "
     "witness=None)"),
])
def test_record_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


def test_only_validating_or_writable_classes_are_dataclasses():
    """Every other record of the package, the ground actions included, is
    a NamedTuple: creating a frozen dataclass costs about 0.5 ms of import
    (it compiles six generated methods), a NamedTuple about 0.08 ms
    (timeit, Python 3.11 on a 2-vCPU Xeon VM). The actions' checks live in
    ``action_ways``, which every problem runs on each of its actions.
    These three stay dataclasses: ``PlanningProblem`` checks its fields
    and computes its ``ways`` field in ``__post_init__``, which a
    NamedTuple cannot override, and is copied with ``dataclasses.replace``;
    ``agenda.GoalGraph`` checks in ``__post_init__`` that its edges join
    two distinct vertices; ``ReachabilityIndex`` writes its memo after
    construction and has a ``cached_property``."""
    found = set()
    for info in pkgutil.iter_modules(goalagenda.__path__):
        module = importlib.import_module(f"goalagenda.{info.name}")
        found.update(name for name, value in vars(module).items()
                     if dataclasses.is_dataclass(value)
                     and value.__module__ == module.__name__)
    assert found == {"GoalGraph", "PlanningProblem", "ReachabilityIndex"}
