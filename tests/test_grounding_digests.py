"""Hash-identical gate for the PDDL frontend.

Pins SHA-256 digests of what ``parse`` and ``ground`` return: the lifted
domain and problem (their reprs), the atom table in id order, the initial
state, the goals and every ground action (its name and its
pre/add/del sets, or its conditional effects), all as sorted id tuples, so
the atom ids themselves are pinned, not only the names. Inputs that
``ground`` rejects pin the error class and message instead.

Covers every PDDL corpus family and inline texts that exercise negated
dynamic preconditions, ``when`` clauses, a statically impossible ``when``,
a subtype hierarchy with several parents, an instance whose dynamic
literal is interned before a later static literal prunes it, and an
action whose delete precedes its add. A change to
the frontend must leave all of them as they are. A change that alters them
on purpose re-records the digests with

    PYTHONPATH=src python tests/test_grounding_digests.py --capture

and says in its description which digests changed and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from goalagenda import corpus
from goalagenda.model import PlanningError, StripsAction
from goalagenda.pddl import ground, parse

from test_pddl import ADL_DOMAIN, ADL_PROBLEM

DIGESTS = Path(__file__).with_name("grounding_digests.json")

CORPUS = ("blocks2", "blocks3", "gripper2", "stack_4", "stack_8", "stack_60",
          "hanoi_3", "hanoi_5", "tyreworld_1", "tyreworld_3")

#: A subtype hierarchy in which ``amphibian`` has two parents and ``thing``
#: is declared only as a parent; ``sealed`` is static and negated, ``wet``
#: is dynamic and negated (so it gets complement atoms over its ``thing``
#: argument), and ``docked`` is only ever a parameter-free atom.
FLEET_DOMAIN = """(define (domain fleet)
  (:requirements :strips :typing :negative-preconditions)
  (:types car truck - vehicle amphibian - vehicle amphibian - boat
          vehicle boat - thing dock)
  (:predicates (at ?v - thing ?d - dock) (wet ?t - thing)
               (sealed ?b - boat) (docked))
  (:action drive
    :parameters (?v - vehicle ?from - dock ?to - dock)
    :precondition (and (at ?v ?from) (not (wet ?v)))
    :effect (and (at ?v ?to) (not (at ?v ?from))))
  (:action sail
    :parameters (?b - boat ?d - dock)
    :precondition (and (not (sealed ?b)) (at ?b ?d))
    :effect (and (wet ?b) (docked)))
  (:action dry
    :parameters (?t - thing)
    :precondition (wet ?t)
    :effect (not (wet ?t)))
  (:action moor
    :parameters (?x - object)
    :precondition (docked)
    :effect (not (docked))))
"""

FLEET_PROBLEM = """(define (problem fleet-1) (:domain fleet)
  (:objects c1 - car t1 - truck a1 a2 - amphibian b1 - boat
            d1 d2 - dock crate)
  (:init (at c1 d1) (at a1 d1) (at b1 d2) (wet a2) (sealed a2))
  (:goal (and (at a1 d2) (wet b1))))
"""

#: Conditional effects: a ``when`` whose static condition fails for some
#: instances (and is dropped from those), a negated static ``when``
#: condition, a negated dynamic ``when`` condition, and an effect that both
#: adds and deletes the same atom.
VALVE_DOMAIN = """(define (domain valve)
  (:requirements :strips :negative-preconditions :conditional-effects)
  (:predicates (open ?v) (linked ?v ?w) (primary ?v) (flow ?v) (alarm))
  (:action turn
    :parameters (?v ?w)
    :precondition (linked ?v ?w)
    :effect (and (when (and (primary ?v) (not (open ?v))) (open ?v))
                 (when (not (primary ?w)) (and (flow ?w) (not (flow ?w))))
                 (when (not (open ?w)) (and (alarm) (not (open ?v))))
                 (when (open ?v) (not (open ?v)))))
  (:action reset
    :parameters ()
    :precondition (alarm)
    :effect (not (alarm))))
"""

VALVE_PROBLEM = """(define (problem valve-3) (:domain valve)
  (:objects v1 v2 v3)
  (:init (linked v1 v2) (linked v2 v3) (linked v3 v1) (linked v1 v1)
         (primary v1) (open v3))
  (:goal (and (open v1) (flow v2))))
"""

#: A dynamic literal (``near``) before a static one (``diff``) that prunes
#: the instance: ``near(x,x)`` is still interned, in encounter order.
PRUNE_DOMAIN = """(define (domain prune)
  (:requirements :strips)
  (:predicates (near ?x ?y) (diff ?x ?y) (seen ?x))
  (:action look
    :parameters (?x ?y)
    :precondition (and (near ?x ?y) (diff ?x ?y) (seen ?y))
    :effect (and (seen ?x) (not (near ?x ?y)))))
"""

PRUNE_PROBLEM = """(define (problem prune-3) (:domain prune)
  (:objects p q r)
  (:init (diff p q) (diff q p) (diff q r) (near p q) (seen p))
  (:goal (and (seen q) (seen r))))
"""

#: Effect literals intern in literal order, a delete before a later add:
#: ``p(o1), q(o1), p(o2), q(o2)``. A grounder that interns an action's adds
#: before its deletes gives ``q(o1), p(o1), ...`` instead.
EFFECT_ORDER_DOMAIN = """(define (domain effect-order)
  (:requirements :strips :conditional-effects)
  (:predicates (r ?x) (p ?x) (q ?x) (s))
  (:action a
    :parameters (?x)
    :precondition (r ?x)
    :effect (and (not (p ?x)) (q ?x) (when (s) (s)))))
"""

EFFECT_ORDER_PROBLEM = """(define (problem effect-order-2) (:domain effect-order)
  (:objects o1 o2)
  (:init (r o1) (r o2))
  (:goal (s)))
"""

#: Inputs that ``ground`` rejects, each with the first error it meets.
REJECTED_PROBLEMS = {
    "undeclared-object-type": (
        FLEET_DOMAIN, FLEET_PROBLEM.replace("crate)", "crate - crate)")),
    "goal-of-wrong-type": (
        FLEET_DOMAIN, FLEET_PROBLEM.replace("(wet b1)", "(wet d1)")),
    "undeclared-parameter-type": (
        FLEET_DOMAIN.replace("?x - object", "?x - cargo"), FLEET_PROBLEM),
    "undeclared-predicate-type": (
        FLEET_DOMAIN.replace("(wet ?t - thing)", "(wet ?t - fluid)"),
        FLEET_PROBLEM),
}

INLINE = {
    "adl-toggler": (ADL_DOMAIN, ADL_PROBLEM),
    "fleet": (FLEET_DOMAIN, FLEET_PROBLEM),
    "valve": (VALVE_DOMAIN, VALVE_PROBLEM),
    "prune": (PRUNE_DOMAIN, PRUNE_PROBLEM),
    "effect-order": (EFFECT_ORDER_DOMAIN, EFFECT_ORDER_PROBLEM),
}


def _ids(atoms) -> tuple:
    return tuple(sorted(atoms))


def _action(action) -> tuple:
    if isinstance(action, StripsAction):
        return (action.name, _ids(action.pre), _ids(action.add),
                _ids(action.delete))
    return (action.name, tuple((_ids(e.condition), _ids(e.adds),
                                _ids(e.deletes)) for e in action.effects))


def records(domain_text: str, problem_text: str) -> dict:
    """Everything ``parse`` and ``ground`` say about one input pair, as
    plain values; a rejected input records its error instead of the
    ground problem."""
    domain, problem = parse(domain_text, problem_text)
    out = {"lifted": repr((domain, problem))}
    try:
        grounded = ground(domain, problem)
    except PlanningError as exc:  # the error class and message are pinned
        out["error"] = (type(exc).__name__, str(exc))
        return out
    out.update({
        "atoms": [grounded.atoms.name(i) for i in range(len(grounded.atoms))],
        "init": _ids(grounded.init),
        "goals": _ids(grounded.goals),
        "actions": [_action(a) for a in grounded.actions],
    })
    return out


def _corpus_texts(name: str) -> tuple:
    fixed = {"blocks2": ("blocks", "two"), "blocks3": ("blocks", "three"),
             "gripper2": ("gripper", "two")}
    if name in fixed:
        domain, problem = fixed[name]
        return corpus.domain_text(domain), corpus.problem_text(domain, problem)
    family, n = name.rsplit("_", 1)
    generator = getattr(corpus, f"{family}_problem_text")
    return corpus.domain_text(family), generator(int(n))


def cases() -> dict:
    """Case name -> the (domain text, problem text) pair it grounds."""
    out = {name: _corpus_texts(name) for name in CORPUS}
    out.update(INLINE)
    out.update(REJECTED_PROBLEMS)
    return out


def digests(texts) -> dict:
    return {part: hashlib.sha256(repr(value).encode()).hexdigest()
            for part, value in records(*texts).items()}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_file_covers_every_case(pinned):
    assert sorted(pinned) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_parse_and_ground_match_pinned_digests(pinned, name):
    assert digests(cases()[name]) == pinned[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_grounding_digests.py "
                 "--capture")
    recorded = {name: digests(texts) for name, texts in cases().items()}
    DIGESTS.write_text(json.dumps(recorded, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {DIGESTS}")
