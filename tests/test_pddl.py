import random

import pytest

from goalagenda import corpus
from goalagenda.model import AdlAction
from goalagenda.pddl import (
    ArityMismatch,
    PddlSyntaxError,
    TypeMismatch,
    UnsupportedFeature,
    _read_sexprs,
    ground,
    parse,
    parse_domain,
)

import reference
from conftest import atoms


def test_blocks_domain_parses_to_four_operators_five_predicates():
    domain = parse_domain(corpus.domain_text("blocks"))
    assert len(domain.operators) == 4
    assert len(domain.predicates) == 5
    assert {op.name for op in domain.operators} == \
        {"pickup", "putdown", "stack", "unstack"}


def test_empty_goal_conjunction():
    domain = parse_domain(corpus.domain_text("blocks"))
    _, problem = parse(
        corpus.domain_text("blocks"),
        "(define (problem p) (:domain blocks) (:objects a)"
        " (:init (on-table a)) (:goal (and)))")
    assert problem.goal == ()
    grounded = ground(domain, problem)
    assert grounded.goals == frozenset()


def test_quantifier_is_unsupported():
    text = """(define (domain q) (:requirements :strips)
      (:predicates (p ?x))
      (:action a :parameters (?x)
        :precondition (exists (?y) (p ?y)) :effect (p ?x)))"""
    with pytest.raises(UnsupportedFeature):
        parse_domain(text)


def test_negative_precondition_needs_requirement():
    text = """(define (domain n) (:requirements :strips)
      (:predicates (p ?x) (q ?x))
      (:action a :parameters (?x)
        :precondition (not (p ?x)) :effect (q ?x)))"""
    with pytest.raises(UnsupportedFeature):
        parse_domain(text)


def test_syntax_error_carries_location():
    with pytest.raises(PddlSyntaxError) as err:
        parse_domain("(define (domain x)\n  (:predicates (p ?x)")
    assert err.value.line is not None


@pytest.mark.parametrize("text", [
    "(define (domain x) (:types - t))",
    "(define (domain x) (:types a - t - u))",
    "(define (domain x) (:predicates (p - t)))",
    "(define (domain x) (:predicates (p))"
    " (:action a :parameters (- t) :effect (p)))",
])
def test_type_needs_names_before_it(text):
    with pytest.raises(PddlSyntaxError, match="expected a name before '-'"):
        parse_domain(text)


def test_objects_type_needs_names_before_it():
    with pytest.raises(PddlSyntaxError) as err:
        parse(corpus.domain_text("blocks"),
              "(define (problem p) (:domain blocks)\n  (:objects - t)"
              " (:init) (:goal (and)))")
    assert (err.value.line, err.value.col) == (2, 13)


TYPED_DOMAIN = """(define (domain typed) (:requirements :strips :typing)
  (:types t1 t2) (:predicates (p ?x - t1)))"""


@pytest.mark.parametrize("domain, objects, at", [
    ("blocks", "a b a", (2, 17)),
    ("typed", "a - t1 a - t2", (2, 20)),
    ("typed", "a b - t1 b", (2, 22)),
])
def test_object_declared_twice(domain, objects, at):
    """A repeated name in :objects would ground every operator once per
    declaration, under the same action names."""
    text = TYPED_DOMAIN if domain == "typed" else corpus.domain_text(domain)
    with pytest.raises(PddlSyntaxError, match="declared twice") as err:
        parse(text, f"(define (problem p) (:domain {domain})\n"
                    f"  (:objects {objects}) (:init) (:goal (and)))")
    assert (err.value.line, err.value.col) == at


@pytest.mark.parametrize("parameters, at", [
    ("?x ?x", (2, 30)),
    ("?x - t1 ?y ?x - t2", (2, 38)),
])
def test_parameter_declared_twice(parameters, at):
    """A repeated parameter would ground one action again under another
    name, with only the last binding read by its precondition and
    effects."""
    with pytest.raises(PddlSyntaxError, match="'[?]x' declared twice") as err:
        parse_domain("(define (domain d) (:requirements :strips :typing)"
                     " (:types t1 t2) (:predicates (p ?x))\n"
                     f"  (:action a :parameters ({parameters}) :effect (p ?x)))")
    assert (err.value.line, err.value.col) == at


@pytest.mark.parametrize("section, message, at", [
    ("(:requirements ())", "expected a requirement flag", (2, 18)),
    ("(:predicates ())", "expected a named form", (2, 16)),
])
def test_empty_form_error_carries_location(section, message, at):
    """An error on an empty form points at its open parenthesis."""
    with pytest.raises(PddlSyntaxError, match=message) as err:
        parse_domain(f"(define (domain x)\n  {section})")
    assert (err.value.line, err.value.col) == at


def _read(read, text):
    """The forms ``read`` makes of ``text`` (a token compares equal to its
    ``(text, line, col)`` tuple), or the syntax error it raises."""
    try:
        return read(text)
    except PddlSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.col)


CORPUS_TEXTS = [corpus.domain_text(name) for name in
                ("blocks", "gripper", "hanoi", "stack", "tyreworld")] + [
    corpus.problem_text("blocks", "two"), corpus.problem_text("blocks", "three"),
    corpus.problem_text("gripper", "two"), corpus.stack_problem_text(4),
    corpus.hanoi_problem_text(3), corpus.tyreworld_problem_text(2)]

#: Every character class the scanner treats apart: parentheses, the
#: separators, the comment sign, and token characters including ``\f``,
#: ``\v``, a non-breaking space and a non-ASCII letter.
ALPHABET = "()() \t\r\n\n;-?:ab\f\v\xa0\xe9"


def test_reader_matches_reference_scanner_on_corpus():
    for text in CORPUS_TEXTS:
        assert _read(_read_sexprs, text) == _read(reference.read_sexprs, text)


def test_reader_matches_reference_scanner_on_random_texts():
    rng = random.Random(20)
    for _ in range(3000):
        text = "".join(rng.choice(ALPHABET)
                       for _ in range(rng.randint(0, 40)))
        assert _read(_read_sexprs, text) == \
            _read(reference.read_sexprs, text), repr(text)


def test_reader_matches_reference_scanner_on_mutated_corpus():
    rng = random.Random(21)
    for _ in range(300):
        text = list(rng.choice(CORPUS_TEXTS))
        for _ in range(rng.randint(1, 4)):
            text[rng.randrange(len(text))] = rng.choice(ALPHABET)
        text = "".join(text)
        assert _read(_read_sexprs, text) == \
            _read(reference.read_sexprs, text), repr(text)


def test_arity_and_type_errors():
    domain = parse_domain(corpus.domain_text("gripper"))
    with pytest.raises(ArityMismatch):
        parse(corpus.domain_text("gripper"),
              "(define (problem p) (:domain gripper)"
              " (:objects r1 - room) (:init (at-robby r1 r1)) (:goal (and)))")
    bad_goal = ("(define (problem p) (:domain gripper)"
                " (:objects r1 - room b - ball)"
                " (:init (at-robby r1)) (:goal (and (at-robby b))))")
    with pytest.raises(TypeMismatch):
        ground(domain, parse(corpus.domain_text("gripper"), bad_goal)[1])


def test_three_blocks_ground_to_24_actions(load):
    problem = load("blocks3")
    assert len(problem.actions) == 24
    counts = {}
    for a in problem.actions:
        counts[a.name.split("(")[0]] = counts.get(a.name.split("(")[0], 0) + 1
    assert counts == {"pickup": 3, "putdown": 3, "stack": 9, "unstack": 9}


def test_static_inequality_prunes_self_stacking(load):
    problem = load("stack_4")
    stack_names = [a.name for a in problem.actions
                   if a.name.startswith("stack(")]
    assert len(stack_names) == 12  # 4*3 ordered pairs
    assert "stack(b1,b1)" not in stack_names
    # satisfied statics are dropped from ground preconditions
    stack_action = problem.actions[problem.action_named("stack(b1,b2)")]
    assert stack_action.pre == atoms(problem, "clear(b2)", "holding(b1)")


def test_gripper_move_grounds_both_directions(load):
    problem = load("gripper2")
    names = {a.name for a in problem.actions}
    assert {"move(roomA,roomB)", "move(roomB,roomA)"} <= names
    assert "move(roomA,roomA)" not in names


def test_zero_objects_of_a_type_is_fine():
    dom_text = corpus.domain_text("gripper")
    problem_text = ("(define (problem p) (:domain gripper)"
                    " (:objects roomA roomB - room left - gripper)"
                    " (:init (at-robby roomA) (diff roomA roomB)"
                    " (diff roomB roomA)) (:goal (and (at-robby roomB))))")
    grounded = ground(*parse(dom_text, problem_text))
    assert all(not a.name.startswith(("pick(", "drop("))
               for a in grounded.actions)
    assert len(grounded.actions) == 2


def test_grounding_is_deterministic(load):
    one = corpus.load("hanoi_3")
    two = corpus.load("hanoi_3")
    assert [a.name for a in one.actions] == [a.name for a in two.actions]
    assert list(one.atoms) == list(two.atoms)
    assert one.init == two.init and one.goals == two.goals


ADL_DOMAIN = """(define (domain toggler)
  (:requirements :strips :negative-preconditions :conditional-effects)
  (:predicates (lit ?x) (powered ?x) (broken ?x))
  (:action flip
    :parameters (?x)
    :precondition (and (powered ?x) (not (broken ?x)))
    :effect (and (when (not (lit ?x)) (lit ?x))
                 (when (lit ?x) (not (lit ?x))))))
"""

ADL_PROBLEM = """(define (problem two-switches) (:domain toggler)
  (:objects s1 s2)
  (:init (powered s1) (powered s2) (lit s2) (broken s2))
  (:goal (and (lit s1))))
"""


def test_adl_grounding_compiles_negation_into_complements():
    grounded = ground(*parse(ADL_DOMAIN, ADL_PROBLEM))
    assert grounded.is_adl
    flip1 = grounded.actions[grounded.action_named("flip(s1)")]
    assert isinstance(flip1, AdlAction)
    # negated dynamic precondition becomes a complement atom in conditions
    assert "not-lit(s1)" in grounded.atoms
    not_lit = grounded.atoms.id("not-lit(s1)")
    lit = grounded.atoms.id("lit(s1)")
    conds = [eff.condition for eff in flip1.effects]
    assert frozenset({not_lit}) in conds
    # every effect touching lit maintains the complement
    when_on = next(e for e in flip1.effects if lit in e.adds)
    assert not_lit in when_on.deletes
    when_off = next(e for e in flip1.effects if lit in e.deletes)
    assert not_lit in when_off.adds
    # complement truth in the initial state follows the closed world
    assert not_lit in grounded.init
    assert grounded.atoms.id("not-lit(s2)") not in grounded.init
    # broken is static: flip(s2) is pruned by its negated static precondition
    names = [a.name for a in grounded.actions]
    assert names == ["flip(s1)"]


def test_ground_json_round_trip(load):
    for name in ("trap", "revival", "diamond"):
        problem = load(name)
        rebuilt = corpus.problem_from_dict(corpus.problem_to_dict(problem))
        assert [a.name for a in rebuilt.actions] == \
            [a.name for a in problem.actions]
        assert corpus.problem_to_dict(rebuilt) == \
            corpus.problem_to_dict(problem)


def test_ground_json_round_trip_adl():
    grounded = ground(*parse(ADL_DOMAIN, ADL_PROBLEM))
    rebuilt = corpus.problem_from_dict(corpus.problem_to_dict(grounded))
    assert rebuilt.is_adl
    assert corpus.problem_to_dict(rebuilt) == corpus.problem_to_dict(grounded)
    flip = rebuilt.actions[rebuilt.action_named("flip(s1)")]
    assert len(flip.effects) == 3


def test_ground_json_rejects_malformed():
    import json

    with pytest.raises(corpus.GroundFileError):
        corpus.load_ground_json("{not json")
    with pytest.raises(corpus.GroundFileError):
        corpus.load_ground_json(json.dumps({"init": [], "goals": []}))
    with pytest.raises(corpus.GroundFileError):
        corpus.load_ground_json(json.dumps(
            {"actions": [{"pre": []}], "init": [], "goals": []}))


def test_strips_mode_rejects_when():
    text = """(define (domain w) (:requirements :strips)
      (:predicates (p ?x) (q ?x))
      (:action a :parameters (?x)
        :precondition (p ?x) :effect (when (p ?x) (q ?x))))"""
    with pytest.raises(UnsupportedFeature):
        parse_domain(text)
