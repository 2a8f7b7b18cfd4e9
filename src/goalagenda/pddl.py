"""PDDL frontend: parse a small typed STRIPS/ADL subset and ground it.

Accepted requirements: :strips, :typing, :negative-preconditions,
:conditional-effects. Preconditions and goals are conjunctions of literals;
effects are conjunctions of literals plus (with :conditional-effects)
``when`` clauses whose antecedent and consequent are again conjunctions of
literals. Anything else (quantifiers, disjunction, equality, numeric
fluents) is rejected with UnsupportedFeature; negated preconditions need
:negative-preconditions. Every malformed text raises PddlSyntaxError,
with a source location where one is known.

The reader is one regular expression: newlines, spaces, tabs, carriage
returns and ``;`` comments separate tokens, parentheses are tokens of their
own, and every other run of characters is a name. Types form a hierarchy in which a
type may have several parents; ``object`` holds every object.

Grounding instantiates each operator over all type-consistent object tuples,
prunes instances whose static preconditions (predicates never occurring in
any effect) are not satisfied by the initial state, drops satisfied static
atoms from the remaining preconditions, and compiles negated dynamic
preconditions into complement ``not-<pred>`` atoms maintained by every
effect that touches the predicate. The result only ever exposes
positive-precondition ground actions.

Each operator is compiled once into literal slots: where each argument
comes from in the instance tuple, whether the literal is static (then the
argument tuples true in init) and, for a dynamic one, the cache from
argument tuple to atom id of its name. Atom ids are handed out in the
order the slots are walked, which fixes every id: per instance, the
dynamic preconditions in literal order, only up to the first false static
literal; then each effect literal's own atom, followed by its complement;
then each ``when`` clause the same way.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    AdlAction,
    AtomTable,
    ConditionalEffect,
    PlanningError,
    PlanningProblem,
    StripsAction,
)

SUPPORTED_REQUIREMENTS = {
    ":strips",
    ":typing",
    ":negative-preconditions",
    ":conditional-effects",
}


class PddlSyntaxError(PlanningError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(f"{message}{where}")


class UnsupportedFeature(PlanningError):
    def __init__(self, construct, line=None, col=None):
        self.construct = construct
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(f"unsupported construct {construct!r}{where}")


class TypeMismatch(PlanningError):
    pass


class ArityMismatch(PlanningError):
    pass


# --- s-expression reader ---------------------------------------------------

class _Tok(NamedTuple):
    text: str
    line: int
    col: int


class _List(list):
    """A parenthesised form; ``line`` and ``col`` locate its ``(``."""

    __slots__ = ("line", "col")


def _read_sexprs(text: str):
    """Parse into nested lists of _Tok; returns the top-level forms. Each
    line is scanned by one regex whose matches are a ``;`` comment, a
    parenthesis or a name; the characters between matches (space, tab and
    ``\\r``) separate tokens. Tokens are made by ``tuple.__new__`` and
    forms get their location as attributes, so no Python-level
    constructor runs per token."""
    scan = re.compile(r";.*|[()]|[^ \t\r();]+")
    token = tuple.__new__
    stack: list = [[]]
    for line, chars in enumerate(text.split("\n"), 1):
        for match in scan.finditer(chars):
            word = match[0]
            if word == "(":
                form = _List()
                form.line = line
                form.col = match.start() + 1
                stack.append(form)
            elif word == ")":
                if len(stack) == 1:
                    raise PddlSyntaxError("unbalanced ')'", line,
                                          match.start() + 1)
                done = stack.pop()
                stack[-1].append(done)
            elif word[0] != ";":
                stack[-1].append(token(_Tok, (word, line, match.start() + 1)))
    if len(stack) != 1:
        raise PddlSyntaxError("unbalanced '('", stack[-1].line, stack[-1].col)
    return stack[0]


def _loc(form):
    """Where a form starts: its first token, or the ``(`` of an empty
    list."""
    while isinstance(form, list) and form:
        form = form[0]
    return (form.line, form.col)


def _is_form(form, keyword: str) -> bool:
    """Whether ``form`` is a list headed by ``keyword``, in any case."""
    return isinstance(form, list) and bool(form) \
        and isinstance(form[0], _Tok) and form[0].text.lower() == keyword


def _head(form):
    """Structural head of a form, lowercased: PDDL keywords are matched
    case-insensitively while names keep their case."""
    if not isinstance(form, list) or not form or not isinstance(form[0], _Tok):
        raise PddlSyntaxError("expected a named form", *_loc(form))
    return form[0].text.lower()


def _name(form, what: str) -> str:
    """The name after a form's head, as in (domain NAME)."""
    if len(form) < 2 or not isinstance(form[1], _Tok):
        raise PddlSyntaxError(f"expected {what}", *_loc(form))
    return form[1].text


# --- lifted structures ------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    positive: bool
    predicate: str
    args: tuple  # variable names (?x) or object names


@dataclass(frozen=True)
class WhenClause:
    conditions: tuple  # tuple[Literal, ...]
    effects: tuple  # tuple[Literal, ...]


@dataclass(frozen=True)
class LiftedOperator:
    name: str
    parameters: tuple  # tuple[(var, type), ...]
    precondition: tuple  # tuple[Literal, ...]
    effect: tuple  # tuple[Literal | WhenClause, ...]


@dataclass(frozen=True)
class DomainFile:
    name: str
    requirements: tuple
    types: tuple  # tuple[(type, parent), ...] in declaration order
    predicates: tuple  # tuple[(name, tuple[param types]), ...]
    operators: tuple  # tuple[LiftedOperator, ...]


@dataclass(frozen=True)
class ProblemFile:
    name: str
    domain_name: str
    objects: tuple  # tuple[(name, type), ...] in declaration order
    init: tuple  # tuple[(pred, args), ...]
    goal: tuple  # tuple[(pred, args), ...] positive ground atoms


def _parse_typed_list(forms, unique: bool = False):
    """Parse ``a b - t c d`` item/type runs; returns [(name, type), ...].
    Names without a type are objects; a type needs names before it. With
    ``unique``, a name listed twice is an error."""
    out = []
    pending = []
    seen = set()
    items = iter(forms)
    for tok in items:
        if not isinstance(tok, _Tok):
            raise PddlSyntaxError("expected a name in typed list", *_loc(tok))
        if tok.text != "-":
            if unique and tok.text in seen:
                raise PddlSyntaxError(f"{tok.text!r} declared twice",
                                      tok.line, tok.col)
            seen.add(tok.text)
            pending.append(tok.text)
            continue
        ty = next(items, None)
        if not isinstance(ty, _Tok):
            raise PddlSyntaxError("expected a type after '-'", tok.line, tok.col)
        if not pending:
            raise PddlSyntaxError("expected a name before '-'", tok.line, tok.col)
        out.extend((name, ty.text) for name in pending)
        pending = []
    out.extend((name, "object") for name in pending)
    return out


def _parse_literal(form, allow_negated, context):
    if not isinstance(form, list) or not form:
        raise PddlSyntaxError(f"expected an atom in {context}", *_loc(form))
    head = _head(form)
    if head == "not":
        if len(form) != 2:
            raise PddlSyntaxError("'not' takes one argument", *_loc(form))
        inner = _parse_literal(form[1], allow_negated=False, context=context)
        if not allow_negated:
            raise UnsupportedFeature("not", *_loc(form))
        return Literal(False, inner.predicate, inner.args)
    if head in ("and", "or", "exists", "forall", "imply", "when", "=", "increase",
                "decrease", "assign"):
        raise UnsupportedFeature(head, *_loc(form))
    args = []
    for part in form[1:]:
        if not isinstance(part, _Tok):
            raise PddlSyntaxError("atom arguments must be names", *_loc(part))
        args.append(part.text)
    return Literal(True, head, tuple(args))


def _flatten_and(form):
    """A conjunction form: either a single item or (and item...)."""
    return form[1:] if _is_form(form, "and") else [form]


def _conjunction(form, context):
    return tuple(_parse_literal(f, allow_negated=True, context=context)
                 for f in _flatten_and(form))


def _define(text: str, kind: str):
    """The name and the sections of the one (define (KIND NAME) ...) form
    of ``text``; a stray second form is located at its start."""
    forms = _read_sexprs(text)
    if len(forms) != 1 or _head(forms[0]) != "define":
        where = _loc(forms[1 if len(forms) > 1 else 0]) if forms else ()
        raise PddlSyntaxError(f"expected a single (define ({kind} ...)) form",
                              *where)
    body = forms[0][1:]
    if not body or _head(body[0]) != kind:
        raise PddlSyntaxError(f"expected ({kind} NAME)", *_loc(forms[0]))
    return _name(body[0], f"({kind} NAME)"), body[1:]


def parse_domain(text: str) -> DomainFile:
    name, sections = _define(text, "domain")
    requirements: list = [":strips"]
    types: list = []
    predicates: list = []
    operators: list = []
    for section in sections:
        head = _head(section)
        if head == ":requirements":
            requirements = []
            for tok in section[1:]:
                if not isinstance(tok, _Tok):
                    raise PddlSyntaxError("expected a requirement flag",
                                          *_loc(tok))
                flag = tok.text.lower()
                if flag not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedFeature(flag, tok.line, tok.col)
                requirements.append(flag)
        elif head == ":types":
            types = _parse_typed_list(section[1:])
        elif head == ":predicates":
            for pform in section[1:]:
                pname = _head(pform)
                if any(pname == known for known, _ in predicates):
                    raise PddlSyntaxError(
                        f"predicate {pname!r} declared twice", *_loc(pform))
                params = _parse_typed_list(pform[1:])
                predicates.append((pname, tuple(ty for _, ty in params)))
        elif head == ":action":
            op = _parse_action(section)
            if any(op.name == known.name for known in operators):
                raise PddlSyntaxError(f"action {op.name!r} declared twice",
                                      *_loc(section[1]))
            operators.append(op)
        elif head in (":constants", ":functions", ":derived"):
            raise UnsupportedFeature(head, *_loc(section))
        else:
            raise PddlSyntaxError(f"unknown domain section {head!r}", *_loc(section))
    domain = DomainFile(name, tuple(requirements), tuple(types),
                        tuple(predicates), tuple(operators))
    _check_domain(domain)
    return domain


def _parse_action(section) -> LiftedOperator:
    name = _name(section, "an action name")
    params: tuple = ()
    precondition: tuple = ()
    effect: tuple = ()
    i = 2
    while i < len(section):
        key = section[i]
        if not isinstance(key, _Tok) or not key.text.startswith(":"):
            raise PddlSyntaxError("expected :parameters/:precondition/:effect",
                                  *_loc(key))
        if i + 1 >= len(section):
            raise PddlSyntaxError(f"missing value for {key.text}", key.line, key.col)
        value = section[i + 1]
        key_kw = key.text.lower()
        if key_kw == ":parameters":
            if not isinstance(value, list):
                raise PddlSyntaxError("expected a parameter list", *_loc(value))
            params = tuple(_parse_typed_list(value, unique=True))
        elif key_kw == ":precondition":
            precondition = _conjunction(value, "precondition")
        elif key_kw == ":effect":
            effect = tuple(_parse_effect_item(f) for f in _flatten_and(value))
        else:
            raise UnsupportedFeature(key_kw, key.line, key.col)
        i += 2
    return LiftedOperator(name, params, precondition, effect)


def _parse_effect_item(form):
    if _is_form(form, "when"):
        if len(form) != 3:
            raise PddlSyntaxError("'when' takes condition and effect", *_loc(form))
        return WhenClause(_conjunction(form[1], "when condition"),
                          _conjunction(form[2], "when effect"))
    return _parse_literal(form, allow_negated=True, context="effect")


def _check_domain(domain: DomainFile) -> None:
    arities = {name: len(tys) for name, tys in domain.predicates}
    neg_ok = ":negative-preconditions" in domain.requirements
    cond_ok = ":conditional-effects" in domain.requirements
    for op in domain.operators:
        params = {v for v, _ in op.parameters}
        for lit in op.precondition:
            _check_literal(lit, arities, op.name, params)
            if not lit.positive and not neg_ok:
                raise UnsupportedFeature(
                    f"negative precondition in {op.name} "
                    "(requires :negative-preconditions)")
        for item in op.effect:
            if isinstance(item, WhenClause):
                if not cond_ok:
                    raise UnsupportedFeature(
                        f"when clause in {op.name} (requires :conditional-effects)")
                for lit in item.conditions:
                    _check_literal(lit, arities, op.name, params)
                    if not lit.positive and not neg_ok:
                        raise UnsupportedFeature(
                            f"negative when-condition in {op.name}")
                for lit in item.effects:
                    _check_literal(lit, arities, op.name, params)
            else:
                _check_literal(item, arities, op.name, params)


def _check_literal(lit: Literal, arities, op_name=None, params=()) -> None:
    """Check a literal of operator ``op_name`` over its ``params``, or,
    without an operator, a ground atom of the problem."""
    where = f" in operator {op_name!r}" if op_name else ""
    if lit.predicate not in arities:
        raise PddlSyntaxError(f"unknown predicate {lit.predicate!r}{where}")
    if len(lit.args) != arities[lit.predicate]:
        raise ArityMismatch(
            f"{lit.predicate} expects {arities[lit.predicate]} args, "
            f"got {len(lit.args)}{where}")
    for arg in lit.args:
        if arg.startswith("?") and arg not in params:
            raise PddlSyntaxError(
                f"variable {arg} of {op_name!r} is not a parameter" if op_name
                else f"variable {arg} in a ground atom")


def parse_problem(text: str, domain: DomainFile) -> ProblemFile:
    name, sections = _define(text, "problem")
    domain_name = ""
    objects: list = []
    init: list = []
    goal: list = []
    arities = {pname: len(tys) for pname, tys in domain.predicates}
    for section in sections:
        head = _head(section)
        if head == ":domain":
            domain_name = _name(section, "(:domain NAME)")
        elif head == ":objects":
            objects = _parse_typed_list(section[1:], unique=True)
        elif head == ":init":
            for form in section[1:]:
                lit = _parse_literal(form, allow_negated=False, context="init")
                _check_literal(lit, arities)
                init.append((lit.predicate, lit.args))
        elif head == ":goal":
            if len(section) != 2:
                raise PddlSyntaxError("expected (:goal FORMULA)",
                                      *_loc(section))
            for form in _flatten_and(section[1]):
                if isinstance(form, list) and not form:
                    continue  # (and) is the empty conjunction
                lit = _parse_literal(form, allow_negated=False, context="goal")
                _check_literal(lit, arities)
                goal.append((lit.predicate, lit.args))
        else:
            raise PddlSyntaxError(f"unknown problem section {head!r}",
                                  *_loc(section))
    if domain_name and domain_name != domain.name:
        raise PddlSyntaxError(
            f"problem {name!r} references domain {domain_name!r}, "
            f"parsed domain is {domain.name!r}")
    return ProblemFile(name, domain_name or domain.name, tuple(objects),
                       tuple(init), tuple(goal))


def parse(domain_text: str, problem_text: str):
    """Parse a domain/problem pair. Returns (DomainFile, ProblemFile)."""
    domain = parse_domain(domain_text)
    problem = parse_problem(problem_text, domain)
    return domain, problem


# --- grounding ---------------------------------------------------------------

def _type_table(types, objects) -> dict:
    """Every declared type (parents and ``object`` included) -> its objects,
    subtypes included, in declaration order. ``object`` holds them all."""
    parents: dict = {"object": []}
    for ty, parent in types:
        parents.setdefault(parent, [])
        parents.setdefault(ty, []).append(parent)

    def supertypes(ty):
        seen = {ty}
        frontier = [ty]
        while frontier:
            for parent in parents[frontier.pop()]:
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen | {"object"}

    table: dict = {ty: [] for ty in parents}
    for obj, ty in objects:
        if ty not in table:
            raise TypeMismatch(f"object {obj!r} has undeclared type {ty!r}")
        for sup in supertypes(ty):
            table[sup].append(obj)
    return table


def ground(domain: DomainFile, problem: ProblemFile) -> PlanningProblem:
    """Instantiate operators over type-consistent object tuples.

    Deterministic: objects in declaration order, operators in declaration
    order, atom ids in first-encounter order: init, complements, goal, then
    per instance its preconditions in literal order, the dynamic ones up to
    the first static literal false in init (so an instance a later static
    literal prunes still interns the ones before it); then each effect
    literal's own atom followed by its complement; then each ``when``
    clause the same way, its effects only when its condition is not
    statically false. Each operator is compiled once into slots, and an
    atom's name is formatted and interned only the first time its slot
    cache meets its argument tuple. An init or goal atom whose argument is
    not a declared object of its predicate's type raises TypeMismatch.
    """
    table = _type_table(domain.types, problem.objects)
    pred_types = dict(domain.predicates)

    def objects_of(ty: str) -> list:
        if ty not in table:
            raise TypeMismatch(f"parameter type {ty!r} is not declared")
        return table[ty]

    # Static predicates occur in no effect. Negated dynamic ones get
    # complement atoms, in the order of their first negated condition.
    # Problems ground to AdlActions only when a when-clause is present;
    # negative preconditions alone compile away into plain STRIPS.
    conditions, effect_preds, as_adl = [], set(), False
    for op in domain.operators:
        conditions.extend(op.precondition)
        for item in op.effect:
            if isinstance(item, WhenClause):
                as_adl = True
                conditions.extend(item.conditions)
                effect_preds.update(lit.predicate for lit in item.effects)
            else:
                effect_preds.add(item.predicate)
    static_preds = {name for name, _ in domain.predicates} - effect_preds
    negated = list(dict.fromkeys(lit.predicate for lit in conditions
                                 if not lit.positive
                                 and lit.predicate not in static_preds))

    atoms = AtomTable()
    caches: dict = {}  # name prefix -> {argument tuple: atom id}

    def intern(prefix: str, args: tuple) -> int:
        ids = caches.setdefault(prefix, {})
        atom = ids.get(args)
        if atom is None:
            atom = ids[args] = atoms.intern(f"{prefix}({','.join(args)})")
        return atom

    in_init: dict = {}  # predicate -> its argument tuples in init
    for pred, args in problem.init:
        in_init.setdefault(pred, set()).add(args)
    init_ids = {intern(pred, args) for pred, args in problem.init}

    # Complement atoms for every type-consistent grounding absent from init.
    for pred in negated:
        true = in_init.get(pred, ())
        for combo in itertools.product(*map(objects_of, pred_types[pred])):
            comp = intern("not-" + pred, combo)
            if combo not in true:
                init_ids.add(comp)

    members = {ty: set(objs) for ty, objs in table.items()}
    for kind, atoms_of_kind in (("init", problem.init), ("goal", problem.goal)):
        for pred, args in atoms_of_kind:
            for arg, ty in zip(args, pred_types[pred]):
                if arg not in members.get(ty, ()):
                    raise TypeMismatch(
                        f"{kind} atom {pred}{args}: {arg!r} is not a {ty}")
    goal_ids = {intern(pred, args) for pred, args in problem.goal}

    def compile_part(condition, effect, position: dict) -> tuple:
        """Compile one condition and its effect literals, as ``_instance``
        reads them, over an instance tuple whose entries ``position``
        locates; an object name not yet there is given the next entry."""
        def getter(lit):
            return _getter([position.setdefault(arg, len(position))
                            for arg in lit.args])

        static, slots = [], []
        for lit in condition:
            get = getter(lit)
            if lit.predicate in static_preds:
                static.append((get, in_init.get(lit.predicate, ()),
                               lit.positive, len(slots)))
            else:
                prefix = lit.predicate if lit.positive \
                    else "not-" + lit.predicate
                slots.append((get, caches.setdefault(prefix, {}), prefix, 0))
        for lit in effect:
            get = getter(lit)
            signs = [(lit.predicate, lit.positive)]
            if lit.predicate in negated:
                signs.append(("not-" + lit.predicate, not lit.positive))
            for prefix, adds in signs:
                slots.append((get, caches.setdefault(prefix, {}), prefix,
                              1 if adds else 2))
        return tuple(static), tuple(slots)

    actions = []
    for op in domain.operators:
        n = len(op.parameters)
        position = {var: i for i, (var, _) in enumerate(op.parameters)}
        first = compile_part(
            op.precondition, [i for i in op.effect if isinstance(i, Literal)],
            position)
        whens = [compile_part(c.conditions, c.effects, position)
                 for c in op.effect if isinstance(c, WhenClause)]
        for combo in itertools.product(
                *(objects_of(ty) for _, ty in op.parameters),
                *([name] for name in list(position)[n:])):
            effect = _instance(first, combo, atoms)
            if effect is None:
                continue
            name = f"{op.name}({','.join(combo[:n])})"
            if not as_adl:
                actions.append(StripsAction(name, *effect))
                continue
            effects = [ConditionalEffect(*effect)]
            for when in whens:
                effect = _instance(when, combo, atoms)
                if effect is not None:  # else statically impossible
                    effects.append(ConditionalEffect(*effect))
            actions.append(AdlAction(name, tuple(effects)))

    return PlanningProblem(
        atoms=atoms,
        actions=tuple(actions),
        init=frozenset(init_ids),
        goals=frozenset(goal_ids),
        name=problem.name,
    )


def _getter(index: list):
    """The argument tuple at positions ``index`` of an instance tuple: a
    slice when they run consecutively (always, for arity 0 and 1)."""
    start = index[0] if index else 0
    if index == list(range(start, start + len(index))):
        return operator.itemgetter(slice(start, start + len(index)))
    return operator.itemgetter(*index)


def _instance(part: tuple, combo: tuple, atoms: AtomTable):
    """A compiled part's (condition, adds, deletes) for the instance tuple
    ``combo`` (the parameter values, then the operator's object names).

    A part is one condition with its effect. A static slot ``(get, true,
    positive, k)`` tests the argument tuple ``get(combo)`` against
    ``true``, its predicate's argument tuples in init, and sits after the
    part's first ``k`` dynamic slots; when the literal is false the part
    is None, and only those ``k`` are interned. A true one is dropped. A
    dynamic slot ``(get, ids, prefix, to)`` names its atom by ``prefix``,
    the predicate or its ``not-`` complement, caches argument tuple -> atom
    id in ``ids``, which every slot of that prefix shares, and puts the id
    in the condition (``to`` 0), the adds (1) or the deletes (2). The
    dynamic slots are the condition's literals, then each effect literal's
    own atom followed by its complement. An add wins over a delete of the
    same atom."""
    static, slots = part
    for get, true, positive, k in static:
        if (get(combo) in true) is not positive:
            _ids(slots[:k], combo, atoms)
            return None
    condition, adds, deletes = _ids(slots, combo, atoms)
    adds = frozenset(adds)
    return frozenset(condition), adds, frozenset(deletes) - adds


def _ids(slots: tuple, combo: tuple, atoms: AtomTable) -> tuple:
    """The atom ids of dynamic slots for the instance ``combo``, as the
    lists (condition, adds, deletes); a name first seen is formatted and
    interned, in slot order."""
    out = ([], [], [])
    for get, ids, prefix, to in slots:
        key = get(combo)
        atom = ids.get(key)
        if atom is None:
            atom = ids[key] = atoms.intern(f"{prefix}({','.join(key)})")
        out[to].append(atom)
    return out
