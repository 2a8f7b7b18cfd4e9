"""``pddl.ground`` against ``reference.ground``, the grounder written one
instance at a time: the same atom table in id order, init, goals and
actions, or the same error class and message.

The inputs are every case of the grounding digests and a seeded family of
random typed domains. The family mixes static and dynamic literals in any
order (so static literals follow dynamic ones), negated dynamic and static
preconditions, ``when`` clauses whose conditions are static, negated or
statically false, object names inside operator literals (declared ones and
one that no object declares), subtypes with several parents, init and
goal atoms whose arguments are objects of the declared types, and now and
then a type that nothing declares or an init or goal argument of the
wrong type or of no object, which ``ground`` rejects.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings, strategies as st

import reference
from goalagenda.model import PlanningError
from goalagenda.pddl import ground, parse

from test_grounding_digests import _action, cases


def grounded(grounder, domain, problem) -> dict:
    """What a grounder makes of one parsed input, as plain values."""
    try:
        out = grounder(domain, problem)
    except PlanningError as exc:
        return {"error": (type(exc).__name__, str(exc))}
    return {
        "atoms": [out.atoms.name(i) for i in range(len(out.atoms))],
        "init": sorted(out.init),
        "goals": sorted(out.goals),
        "actions": [_action(a) for a in out.actions],
        "name": out.name,
    }


def assert_same_grounding(domain_text: str, problem_text: str) -> dict:
    domain, problem = parse(domain_text, problem_text)
    expected = grounded(reference.ground, domain, problem)
    assert grounded(ground, domain, problem) == expected
    return expected


@pytest.mark.parametrize("name", sorted(cases()))
def test_ground_matches_reference_on_digest_cases(name):
    assert_same_grounding(*cases()[name])


@st.composite
def typed_inputs(draw):
    """A random typed domain and problem, as PDDL text. One input in ten
    may name the undeclared type ``ghost``. Init and goal atoms take each
    argument from the objects of its type, subtypes included; in one input
    in ten they take any object name or the undeclared ``k``."""
    ghost = draw(st.integers(0, 9)) == 0

    def a_type(declared):
        return st.sampled_from(declared * 4 + ["ghost"] if ghost
                               else declared)

    types = [f"t{i}" for i in range(draw(st.integers(0, 4)))]
    parents = {}  # one or two per type, declared earlier
    for i, ty in enumerate(types):
        parents[ty] = draw(st.lists(st.sampled_from(types[:i] + ["object"]),
                                    min_size=1, max_size=2, unique=True))
    type_decls = [f"{ty} - {parent}"
                  for ty, tys in parents.items() for parent in tys]
    declared = types + ["object"]

    predicates = []  # (name, arg types)
    for i in range(draw(st.integers(1, 5))):
        predicates.append((f"p{i}", draw(st.lists(a_type(declared),
                                                  max_size=2))))
    fluents = [p for p in predicates if draw(st.booleans())]

    objects = [(f"o{i}", draw(a_type(declared)))
               for i in range(draw(st.integers(0, 5)))]
    object_names = [name for name, _ in objects] + ["k"]  # k: no object

    def atom(pool, args):
        name, arg_types = draw(st.sampled_from(pool))
        picked = [draw(st.sampled_from(args)) for _ in arg_types]
        return f"({' '.join([name] + picked)})"

    def literals(pool, args, low, high, negate=True):
        out = []
        for _ in range(draw(st.integers(low, high)) if pool else 0):
            text = atom(pool, args)
            out.append(f"(not {text})" if negate and draw(st.booleans())
                       else text)
        return " ".join(out)

    actions = []
    for i in range(draw(st.integers(1, 3))):
        params = [(f"?v{j}", draw(a_type(declared)))
                  for j in range(draw(st.integers(0, 3)))]
        args = [v for v, _ in params] + object_names
        effect = [literals(fluents, args, 0, 3)]
        for _ in range(draw(st.integers(0, 2)) if fluents else 0):
            effect.append(f"(when (and {literals(predicates, args, 0, 2)}) "
                          f"(and {literals(fluents, args, 1, 2)}))")
        actions.append(
            f"(:action a{i} :parameters "
            f"({' '.join(f'{v} - {ty}' for v, ty in params)})\n"
            f" :precondition (and {literals(predicates, args, 0, 4)})\n"
            f" :effect (and {' '.join(effect)}))")

    domain = "\n".join([
        "(define (domain random-typed)",
        " (:requirements :strips :typing :negative-preconditions"
        " :conditional-effects)",
        f" (:types {' '.join(type_decls)})",
        " (:predicates " + " ".join(
            f"({' '.join([name] + [f'?x{j} - {ty}' for j, ty in enumerate(tys)])})"
            for name, tys in predicates) + ")",
        *actions, ")"])

    def supertypes(ty):
        return {ty, "object"}.union(*map(supertypes, parents.get(ty, ())))

    members = {}  # type -> its objects, subtypes included
    for name, ty in objects:
        for super_ty in sorted(supertypes(ty)):
            members.setdefault(super_ty, []).append(name)

    def facts(low, high, untyped):
        if untyped:
            return literals(predicates, object_names, low, high, negate=False)
        typed = [(name, [members[ty] for ty in tys])
                 for name, tys in predicates
                 if all(ty in members for ty in tys)]
        out = []
        for _ in range(draw(st.integers(low, high)) if typed else 0):
            name, pools = draw(st.sampled_from(typed))
            picked = [draw(st.sampled_from(pool)) for pool in pools]
            out.append(f"({' '.join([name] + picked)})")
        return " ".join(out)

    untyped = draw(st.integers(0, 9)) == 0
    init = facts(0, 8, untyped)
    goal = facts(0, 3, untyped)
    problem = (
        "(define (problem random-typed-1) (:domain random-typed)\n"
        f" (:objects {' '.join(f'{n} - {ty}' for n, ty in objects)})\n"
        f" (:init {init})\n (:goal (and {goal})))")
    return domain, problem


@seed(19)
@settings(max_examples=400, deadline=None)
@given(typed_inputs())
def test_ground_matches_reference_on_random_typed_domains(texts):
    assert_same_grounding(*texts)
