import random
import re

import pytest

from goalagenda import corpus
from goalagenda.model import AdlAction, PlanningError
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


@pytest.mark.parametrize("kind, text, message, at", [
    ("domain", "(define (domain x)) (foo)", "single", (1, 22)),
    ("domain", "(foo)", "single", (1, 2)),
    ("domain", "(define (foo x))", r"\(domain NAME\)", (1, 2)),
    ("problem", "(define (problem p) (:domain blocks))\n  (bar)", "single",
     (2, 4)),
    ("problem", "(foo)", "single", (1, 2)),
    ("problem", "(define (domain p))", r"\(problem NAME\)", (1, 2)),
    ("domain", "", "single", (1, 1)),
    ("domain", "; nothing\n", "single", (2, 1)),
])
def test_define_form_error_carries_location(kind, text, message, at):
    """A stray second top-level form is located at its start; a wrong
    single form, or a wrong (domain ...) or (problem ...) head, at the
    form's start; a text with no form at its end."""
    with pytest.raises(PddlSyntaxError, match=message) as err:
        if kind == "domain":
            parse_domain(text)
        else:
            parse(corpus.domain_text("blocks"), text)
    assert (err.value.line, err.value.col) == at


def _domain(sections, requirements=":strips", predicates="(p ?x) (q ?x)"):
    """A domain whose third line starts at ``sections`` (column 3)."""
    return (f"(define (domain d) (:requirements {requirements})\n"
            f"  (:predicates {predicates})\n  {sections})")


def _problem(init="(p o)", goal="(:goal (q o))"):
    """A problem of ``_domain`` whose second line starts at ``(:init``."""
    return (f"(define (problem i) (:domain d) (:objects o)\n"
            f"  (:init {init}) {goal})")


ACTION = "(:action a :parameters (?x) :precondition (p ?x) :effect (q ?x))"
CONDITIONAL = ":strips :conditional-effects"

#: (id, domain, problem, error, message, (line, col)): every
#: rejected form that the other tests here do not reach.
MALFORMED_PDDL = [
    ("action without a name", _domain("(:action)"), _problem(),
     PddlSyntaxError, "expected an action name", (3, 4)),
    ("typed-list item not a name", _domain("(:types (t))"), _problem(),
     PddlSyntaxError, "expected a name in typed list", (3, 12)),
    ("no type after '-'", _domain("(:types t -)"), _problem(),
     PddlSyntaxError, "expected a type after '-'", (3, 13)),
    ("atom not a list", _domain(ACTION), _problem(init="o"),
     PddlSyntaxError, "expected an atom in init", (2, 10)),
    ("'not' with two arguments",
     _domain("(:action a :parameters (?x)"
             " :precondition (not (p ?x) (q ?x)) :effect (q ?x))",
             requirements=":strips :negative-preconditions"), _problem(),
     PddlSyntaxError, "'not' takes one argument", (3, 46)),
    ("negated init atom", _domain(ACTION), _problem(init="(not (p o))"),
     UnsupportedFeature, "unsupported construct 'not'", (2, 11)),
    ("nested argument", _domain(ACTION), _problem(init="(p (o))"),
     PddlSyntaxError, "atom arguments must be names", (2, 14)),
    ("requirement :adl", _domain(ACTION, requirements=":strips :adl"),
     _problem(), UnsupportedFeature, "unsupported construct ':adl'", (1, 43)),
    ("predicate declared twice",
     _domain(ACTION, predicates="(p ?x) (q ?x) (p ?y)"), _problem(),
     PddlSyntaxError, "predicate 'p' declared twice", (2, 31)),
    ("action declared twice", _domain(f"{ACTION} {ACTION}"), _problem(),
     PddlSyntaxError, "action 'a' declared twice", (3, 77)),
    ("constants", _domain("(:constants c)"), _problem(),
     UnsupportedFeature, "unsupported construct ':constants'", (3, 4)),
    ("functions", _domain("(:functions (f))"), _problem(),
     UnsupportedFeature, "unsupported construct ':functions'", (3, 4)),
    ("derived", _domain("(:derived (p ?x) (q ?x))"), _problem(),
     UnsupportedFeature, "unsupported construct ':derived'", (3, 4)),
    ("unknown domain section", _domain("(:foo)"), _problem(),
     PddlSyntaxError, "unknown domain section ':foo'", (3, 4)),
    ("action key not a keyword", _domain("(:action a foo (p ?x))"),
     _problem(), PddlSyntaxError,
     "expected :parameters/:precondition/:effect", (3, 14)),
    ("action key without a value",
     _domain("(:action a :parameters (?x) :effect)"), _problem(),
     PddlSyntaxError, "missing value for :effect", (3, 31)),
    ("parameters not a list",
     _domain("(:action a :parameters ?x :effect (p ?x))"), _problem(),
     PddlSyntaxError, "expected a parameter list", (3, 26)),
    ("duration", _domain("(:action a :duration 5)"), _problem(),
     UnsupportedFeature, "unsupported construct ':duration'", (3, 14)),
    ("'when' without its effect",
     _domain("(:action a :parameters (?x) :effect (when (p ?x)))",
             requirements=CONDITIONAL), _problem(),
     PddlSyntaxError, "'when' takes condition and effect", (3, 40)),
    ("negative when-condition",
     _domain("(:action a :parameters (?x)"
             " :effect (when (not (p ?x)) (q ?x)))",
             requirements=CONDITIONAL), _problem(),
     UnsupportedFeature, "unsupported construct 'negative when-condition in a'",
     (3, 46)),
    ("negated precondition without the requirement",
     _domain("(:action a :parameters (?x)"
             " :precondition (not (p ?x)) :effect (q ?x))"), _problem(),
     UnsupportedFeature, "unsupported construct 'negative precondition in a"
     " (requires :negative-preconditions)'", (3, 46)),
    ("'when' without the requirement",
     _domain("(:action a :parameters (?x) :effect (when (p ?x) (q ?x)))"),
     _problem(), UnsupportedFeature,
     "unsupported construct 'when clause in a"
     " (requires :conditional-effects)'", (3, 40)),
    ("operator atom of an unknown predicate",
     _domain("(:action a :parameters (?x) :effect (r ?x))"), _problem(),
     PddlSyntaxError, "unknown predicate 'r' in operator 'a'", (3, 40)),
    ("operator atom of the wrong arity",
     _domain("(:action a :parameters (?x) :effect (q ?x ?x))"), _problem(),
     ArityMismatch, "q expects 1 args, got 2 in operator 'a'", (3, 40)),
    ("operator variable not a parameter",
     _domain("(:action a :parameters (?x) :effect (q ?y))"), _problem(),
     PddlSyntaxError, "variable ?y of 'a' is not a parameter", (3, 40)),
    ("init atom of an unknown predicate", _domain(ACTION),
     _problem(init="(p o) (r o)"),
     PddlSyntaxError, "unknown predicate 'r'", (2, 17)),
    ("init atom with a variable", _domain(ACTION), _problem(init="(p ?x)"),
     PddlSyntaxError, "variable ?x in a ground atom", (2, 11)),
    ("init atom of the wrong arity", _domain(ACTION), _problem(init="(p o o)"),
     ArityMismatch, "p expects 1 args, got 2", (2, 11)),
    ("goal atom of an unknown predicate", _domain(ACTION),
     _problem(goal="(:goal (and (q o) (r o)))"),
     PddlSyntaxError, "unknown predicate 'r'", (2, 36)),
    ("goal atom with a variable", _domain(ACTION),
     _problem(goal="(:goal (q ?x))"),
     PddlSyntaxError, "variable ?x in a ground atom", (2, 25)),
    ("goal atom of the wrong arity", _domain(ACTION),
     _problem(goal="(:goal (q))"),
     ArityMismatch, "q expects 1 args, got 0", (2, 25)),
    ("goal without a formula", _domain(ACTION), _problem(goal="(:goal)"),
     PddlSyntaxError, "expected (:goal FORMULA)", (2, 18)),
    ("unknown problem section", _domain(ACTION),
     _problem(goal="(:goal (q o)) (:foo)"),
     PddlSyntaxError, "unknown problem section ':foo'", (2, 32)),
    ("domain name mismatch", _domain(ACTION),
     _problem().replace("(:domain d)", "(:domain e)"), PddlSyntaxError,
     "problem 'i' references domain 'e', parsed domain is 'd'", (1, 30)),
    ("precondition given twice",
     _domain("(:action a :parameters (?x) :precondition (p ?x)"
             " :precondition (q ?x) :effect (q ?x))"), _problem(),
     PddlSyntaxError, "key ':precondition' repeated in action 'a'", (3, 52)),
    ("effect given twice",
     _domain("(:action a :parameters (?x) :effect (p ?x) :effect (q ?x))"),
     _problem(), PddlSyntaxError, "key ':effect' repeated in action 'a'",
     (3, 46)),
    ("parameters given twice",
     _domain("(:action a :parameters (?x) :parameters (?y) :effect (q ?x))"),
     _problem(), PddlSyntaxError, "key ':parameters' repeated in action 'a'",
     (3, 31)),
    ("requirements section twice",
     _domain(f"(:requirements :strips) {ACTION}"), _problem(), PddlSyntaxError, "section ':requirements' repeated", (3, 4)),
    ("types section twice", _domain(f"(:types t) {ACTION} (:types u)"),
     _problem(), PddlSyntaxError, "section ':types' repeated", (3, 80)),
    ("predicates section twice", _domain(f"(:predicates (r ?x)) {ACTION}"),
     _problem(), PddlSyntaxError, "section ':predicates' repeated", (3, 4)),
    ("objects section twice", _domain(ACTION),
     _problem(goal="(:goal (q o)) (:objects p)"),
     PddlSyntaxError, "section ':objects' repeated", (2, 32)),
    ("init section twice", _domain(ACTION),
     _problem(goal="(:goal (q o)) (:init (p o))"),
     PddlSyntaxError, "section ':init' repeated", (2, 32)),
    ("goal section twice", _domain(ACTION),
     _problem(goal="(:goal (q o)) (:goal (p o))"),
     PddlSyntaxError, "section ':goal' repeated", (2, 32)),
    ("domain section twice", _domain(ACTION),
     _problem(goal="(:goal (q o)) (:domain d)"),
     PddlSyntaxError, "section ':domain' repeated", (2, 32)),
    ("comma in a name", _domain(ACTION), _problem(init="(p o,o)"),
     PddlSyntaxError, "unexpected ','", (2, 14)),
]


@pytest.mark.parametrize("domain, problem, error, message, at", [
    pytest.param(*case[1:], id=case[0]) for case in MALFORMED_PDDL])
def test_malformed_pddl_is_rejected(domain, problem, error, message, at):
    """Each malformed form raises its error located at the form: an atom
    of an init, a goal or an operator, and a negation or a ``when`` a
    requirement does not allow, at its first token; a domain-name mismatch
    at the name in (:domain NAME)."""
    with pytest.raises(error) as err:
        parse(domain, problem)
    assert type(err.value) is error
    assert str(err.value) == f"{message} (line {at[0]}, col {at[1]})"
    assert (err.value.line, err.value.col) == at


ORDERED_DOMAIN = """(define (domain o)
  (:requirements :strips :typing :negative-preconditions :conditional-effects)
  (:types t) (:predicates (p ?x - t) (q ?x - t))
  (:action a :parameters (?x - t) :precondition (not (p ?x))
    :effect (and (p ?x) (when (q ?x) (not (q ?x))))))"""

REORDERED_DOMAIN = """(define (domain o)
  (:action a :precondition (not (p ?x))
    :effect (and (p ?x) (when (q ?x) (not (q ?x)))) :parameters (?x - t))
  (:predicates (p ?x - t) (q ?x - t)) (:types t)
  (:requirements :strips :typing :negative-preconditions :conditional-effects))"""


def test_sections_and_action_keys_may_come_in_any_order():
    """Actions are read after the other sections, and an action's
    precondition and effect after its parameters, wherever they stand."""
    assert repr(parse_domain(REORDERED_DOMAIN)) == \
        repr(parse_domain(ORDERED_DOMAIN))


#: Domain/problem pairs of five corpus families, the texts the location
#: test mutates.
CORPUS_PAIRS = [(corpus.domain_text(family), problem) for family, problem in (
    ("blocks", corpus.problem_text("blocks", "three")),
    ("gripper", corpus.problem_text("gripper", "two")),
    ("stack", corpus.stack_problem_text(4)),
    ("hanoi", corpus.hanoi_problem_text(3)),
    ("tyreworld", corpus.tyreworld_problem_text(2)),
)]


def _mutate_token(text, rng):
    """``text`` with one token deleted, duplicated or replaced by another
    token of the same text."""
    tokens = list(re.finditer(r"[()]|[^\s();]+", text))
    start, end = rng.choice(tokens).span()
    kind = rng.randrange(3)
    if kind == 0:
        return text[:start] + text[end:]
    if kind == 1:
        return text[:end] + " " + text[start:end] + text[end:]
    return text[:start] + rng.choice(tokens)[0] + text[end:]


def test_every_parse_error_is_located():
    """Every error ``parse`` raises on a token mutation of a corpus pair
    carries the line and column of the form at fault."""
    rng = random.Random(28)
    rejected = 0
    for _ in range(1000):
        texts = list(rng.choice(CORPUS_PAIRS))
        side = rng.randrange(2)
        texts[side] = _mutate_token(texts[side], rng)
        try:
            parse(*texts)
        except PlanningError as exc:
            rejected += 1
            assert getattr(exc, "line", None) is not None, (texts[side], exc)
            assert getattr(exc, "col", None) is not None, (texts[side], exc)
    assert rejected > 500


def test_empty_list_goal_is_the_empty_conjunction():
    _, problem = parse(_domain(ACTION), _problem(goal="(:goal ())"))
    assert problem.goal == ()


COMMA_DOMAIN = """(define (domain d) (:requirements :strips)
  (:predicates (p) (on ?x ?y ?z))
  (:action a :parameters () :precondition (p) :effect (p)))"""

COMMA_PROBLEM = """(define (problem i) (:domain d) (:objects a,b c a b,c x)
  (:init (p) (on a b,c x)) (:goal (on a,b c x)))"""


def test_names_with_a_comma_are_rejected():
    """``(on a b,c x)`` and ``(on a,b c x)`` would both be the atom
    ``on(a,b,c,x)``, so the goal would hold in init; the reader stops at
    the first comma, in the objects. A comma in a comment is fine."""
    with pytest.raises(PddlSyntaxError) as err:
        parse(COMMA_DOMAIN, COMMA_PROBLEM)
    assert str(err.value) == "unexpected ',' (line 1, col 44)"
    parse(_domain(ACTION) + " ; a, b", _problem())


@pytest.mark.parametrize("text", [
    ",", "a,b", "(a ,b)", "(a\n b,)", "; x,y\n(a)", "(,", "(a);,\n,"])
def test_reader_matches_reference_scanner_on_commas(text):
    assert _read(_read_sexprs, text) == _read(reference.read_sexprs, text)


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
        rebuilt = corpus.problem_from_dict(reference.problem_to_dict(problem))
        assert [a.name for a in rebuilt.actions] == \
            [a.name for a in problem.actions]
        assert reference.problem_to_dict(rebuilt) == \
            reference.problem_to_dict(problem)


def test_ground_json_round_trip_adl():
    grounded = ground(*parse(ADL_DOMAIN, ADL_PROBLEM))
    rebuilt = corpus.problem_from_dict(reference.problem_to_dict(grounded))
    assert rebuilt.is_adl
    assert reference.problem_to_dict(rebuilt) == \
        reference.problem_to_dict(grounded)
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
