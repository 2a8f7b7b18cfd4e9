"""PDDL frontend: parse a small typed STRIPS/ADL subset and ground it.

Accepted requirements: :strips, :typing, :negative-preconditions,
:conditional-effects. Preconditions and goals are conjunctions of literals;
effects are conjunctions of literals plus (with :conditional-effects)
``when`` clauses whose antecedent and consequent are again conjunctions of
literals. Anything else (quantifiers, disjunction, equality, numeric
fluents) is rejected with UnsupportedFeature, as is a negated precondition
or when-condition without :negative-preconditions and a ``when`` without
:conditional-effects. Every other malformed text raises PddlSyntaxError,
or its subclass ArityMismatch for an atom with the wrong number of
arguments.

Each literal is checked once, where it is read: its predicate is
declared, with as many arguments, and each variable is a parameter of its
operator (an init or goal atom has none). A domain's actions are read
after its other sections, and an action's precondition and effect after
its keys, so neither needs a fixed order; every section but ``:action``,
and every action key, may appear once. Every error ``parse`` raises
carries the ``line`` and ``col`` of the form at fault, or of the end of a
text that holds no form.

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
from typing import NamedTuple

from .model import (
    AdlAction,
    AtomTable,
    ConditionalEffect,
    PlanningError,
    PlanningProblem,
    StripsAction,
    atom_name,
    set_table,
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
        self.line = line
        self.col = col
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(f"unsupported construct {construct!r}{where}")


class TypeMismatch(PlanningError):
    pass


class ArityMismatch(PddlSyntaxError):
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
    parenthesis, a comma or a name; the characters between matches (space,
    tab and ``\\r``) separate tokens. A comma outside a comment is an
    error: PDDL names have none, and ``model.atom_name`` joins arguments
    with it, so ``(on a b,c)`` and ``(on a,b c)`` would name one atom.
    Tokens are made by ``tuple.__new__`` and forms get their location as
    attributes, so no Python-level constructor runs per token."""
    scan = re.compile(r";.*|[(),]|[^ \t\r(),;]+")
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
            elif word[0] not in ";,":
                stack[-1].append(token(_Tok, (word, line, match.start() + 1)))
            elif word == ",":
                raise PddlSyntaxError("unexpected ','", line,
                                      match.start() + 1)
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

class Literal(NamedTuple):
    positive: bool
    predicate: str
    args: tuple  # variable names (?x) or object names


class WhenClause(NamedTuple):
    conditions: tuple  # tuple[Literal, ...]
    effects: tuple  # tuple[Literal, ...]


class LiftedOperator(NamedTuple):
    name: str
    parameters: tuple  # tuple[(var, type), ...]
    precondition: tuple  # tuple[Literal, ...]
    effect: tuple  # tuple[Literal | WhenClause, ...]


class DomainFile(NamedTuple):
    name: str
    requirements: tuple
    types: tuple  # tuple[(type, parent), ...] in declaration order
    predicates: tuple  # tuple[(name, tuple[param types]), ...]
    operators: tuple  # tuple[LiftedOperator, ...]


class ProblemFile(NamedTuple):
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


def _parse_literal(form, scope, context, negation="not"):
    """A literal, checked where it is read against ``scope``, the triple
    (predicate arities, operator name, operator parameters); an init or
    goal atom's scope has no operator and no parameters. Its predicate
    must be declared, with as many arguments, and each variable must be a
    parameter. A negated literal is read only where ``negation`` is None;
    elsewhere ``negation`` names the construct UnsupportedFeature reports.
    Every error is located at the form."""
    if not isinstance(form, list) or not form:
        raise PddlSyntaxError(f"expected an atom in {context}", *_loc(form))
    head = _head(form)
    if head == "not":
        if len(form) != 2:
            raise PddlSyntaxError("'not' takes one argument", *_loc(form))
        if negation is not None:
            raise UnsupportedFeature(negation, *_loc(form))
        inner = _parse_literal(form[1], scope, context)
        return Literal(False, inner.predicate, inner.args)
    if head in ("and", "or", "exists", "forall", "imply", "when", "=", "increase",
                "decrease", "assign"):
        raise UnsupportedFeature(head, *_loc(form))
    args = []
    for part in form[1:]:
        if not isinstance(part, _Tok):
            raise PddlSyntaxError("atom arguments must be names", *_loc(part))
        args.append(part.text)
    arities, op_name, params = scope
    if arities.get(head) != len(args):
        where = f" in operator {op_name!r}" if op_name else ""
        if head not in arities:
            raise PddlSyntaxError(f"unknown predicate {head!r}{where}",
                                  *_loc(form))
        raise ArityMismatch(f"{head} expects {arities[head]} args, got "
                            f"{len(args)}{where}", *_loc(form))
    for arg in args:
        if arg[0] == "?" and arg not in params:
            raise PddlSyntaxError(
                f"variable {arg} of {op_name!r} is not a parameter" if op_name
                else f"variable {arg} in a ground atom", *_loc(form))
    return Literal(True, head, tuple(args))


def _flatten_and(form):
    """A conjunction form: either a single item or (and item...)."""
    return form[1:] if _is_form(form, "and") else [form]


def _conjunction(form, scope, context, negation=None):
    return tuple(_parse_literal(f, scope, context, negation)
                 for f in _flatten_and(form))


def _define(text: str, kind: str):
    """The name and the sections of the one (define (KIND NAME) ...) form
    of ``text``; a stray second form is located at its start, and a
    missing one at the end of the text."""
    forms = _read_sexprs(text)
    if len(forms) != 1 or _head(forms[0]) != "define":
        where = _loc(forms[1 if len(forms) > 1 else 0]) if forms else \
            (text.count("\n") + 1, len(text) - text.rfind("\n"))
        raise PddlSyntaxError(f"expected a single (define ({kind} ...)) form",
                              *where)
    body = forms[0][1:]
    if not body or _head(body[0]) != kind:
        raise PddlSyntaxError(f"expected ({kind} NAME)", *_loc(forms[0]))
    return _name(body[0], f"({kind} NAME)"), body[1:]


def _section_head(section, seen: set) -> str:
    """A section's head, lowercased. A section other than ``:action``
    met a second time, whose head is in ``seen``, is an error there."""
    head = _head(section)
    if head in seen:
        raise PddlSyntaxError(f"section {head!r} repeated", *_loc(section))
    if head != ":action":
        seen.add(head)
    return head


def parse_domain(text: str) -> DomainFile:
    """The sections may come in any order, and each but ``:action`` once;
    the actions are read after the others, so each literal is checked
    against the declared predicates and requirements as it is read."""
    name, sections = _define(text, "domain")
    requirements: list = [":strips"]
    types: list = []
    predicates: list = []
    actions: list = []
    seen: set = set()
    for section in sections:
        head = _section_head(section, seen)
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
            actions.append(section)
        elif head in (":constants", ":functions", ":derived"):
            raise UnsupportedFeature(head, *_loc(section))
        else:
            raise PddlSyntaxError(f"unknown domain section {head!r}", *_loc(section))
    arities = {pname: len(tys) for pname, tys in predicates}
    operators: list = []
    for section in actions:
        op_name = _name(section, "an action name")
        if any(op_name == known.name for known in operators):
            raise PddlSyntaxError(f"action {op_name!r} declared twice",
                                  *_loc(section[1]))
        operators.append(
            _parse_action(section, op_name, arities, requirements))
    return DomainFile(name, tuple(requirements), tuple(types),
                      tuple(predicates), tuple(operators))


def _parse_action(section, name, arities, requirements) -> LiftedOperator:
    """The keys may come in any order, each once; the precondition and the
    effect are read after the key loop, once the parameters are known."""
    params: tuple = ()
    body = []
    seen = set()
    for i in range(2, len(section), 2):
        key = section[i]
        if not isinstance(key, _Tok) or not key.text.startswith(":"):
            raise PddlSyntaxError("expected :parameters/:precondition/:effect",
                                  *_loc(key))
        if i + 1 >= len(section):
            raise PddlSyntaxError(f"missing value for {key.text}", key.line, key.col)
        value = section[i + 1]
        key_kw = key.text.lower()
        if key_kw in seen:
            raise PddlSyntaxError(
                f"key {key_kw!r} repeated in action {name!r}", key.line,
                key.col)
        seen.add(key_kw)
        if key_kw == ":parameters":
            if not isinstance(value, list):
                raise PddlSyntaxError("expected a parameter list", *_loc(value))
            params = tuple(_parse_typed_list(value, unique=True))
        elif key_kw in (":precondition", ":effect"):
            body.append((key_kw, value))
        else:
            raise UnsupportedFeature(key_kw, key.line, key.col)
    scope = (arities, name, {var for var, _ in params})
    negation = None if ":negative-preconditions" in requirements else \
        f"negative precondition in {name} (requires :negative-preconditions)"
    precondition: tuple = ()
    effect: tuple = ()
    for key_kw, value in body:
        if key_kw == ":precondition":
            precondition = _conjunction(value, scope, "precondition", negation)
        else:
            effect = tuple(_parse_effect_item(f, scope, requirements)
                           for f in _flatten_and(value))
    return LiftedOperator(name, params, precondition, effect)


def _parse_effect_item(form, scope, requirements):
    if not _is_form(form, "when"):
        return _parse_literal(form, scope, "effect", None)
    if len(form) != 3:
        raise PddlSyntaxError("'when' takes condition and effect", *_loc(form))
    if ":conditional-effects" not in requirements:
        raise UnsupportedFeature(
            f"when clause in {scope[1]} (requires :conditional-effects)",
            *_loc(form))
    negation = None if ":negative-preconditions" in requirements else \
        f"negative when-condition in {scope[1]}"
    return WhenClause(_conjunction(form[1], scope, "when condition", negation),
                      _conjunction(form[2], scope, "when effect"))


def parse_problem(text: str, domain: DomainFile) -> ProblemFile:
    name, sections = _define(text, "problem")
    domain_tok = None
    objects: list = []
    init: list = []
    goal: list = []
    scope = ({pname: len(tys) for pname, tys in domain.predicates}, None, ())
    seen: set = set()
    for section in sections:
        head = _section_head(section, seen)
        if head == ":domain":
            _name(section, "(:domain NAME)")
            domain_tok = section[1]
        elif head == ":objects":
            objects = _parse_typed_list(section[1:], unique=True)
        elif head == ":init":
            for form in section[1:]:
                lit = _parse_literal(form, scope, "init")
                init.append((lit.predicate, lit.args))
        elif head == ":goal":
            if len(section) != 2:
                raise PddlSyntaxError("expected (:goal FORMULA)",
                                      *_loc(section))
            for form in _flatten_and(section[1]):
                if isinstance(form, list) and not form:
                    continue  # () is an empty conjunction, as (and) is
                lit = _parse_literal(form, scope, "goal")
                goal.append((lit.predicate, lit.args))
        else:
            raise PddlSyntaxError(f"unknown problem section {head!r}",
                                  *_loc(section))
    if domain_tok is not None and domain_tok.text != domain.name:
        raise PddlSyntaxError(
            f"problem {name!r} references domain {domain_tok.text!r}, "
            f"parsed domain is {domain.name!r}", domain_tok.line, domain_tok.col)
    return ProblemFile(name, domain.name, tuple(objects), tuple(init),
                       tuple(goal))


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
    cache meets its argument tuple. Every set of a part goes through one
    ``model.set_table``, so equal sets are one frozenset. An init or goal
    atom whose argument is not a declared object of its predicate's type
    raises TypeMismatch.
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
    shared = set_table()
    caches: dict = {}  # name prefix -> {argument tuple: atom id}

    def intern(prefix: str, args: tuple) -> int:
        ids = caches.setdefault(prefix, {})
        atom = ids.get(args)
        if atom is None:
            atom = ids[args] = atoms.intern(atom_name(prefix, args))
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
            effect = _instance(first, combo, atoms, shared)
            if effect is None:
                continue
            name = atom_name(op.name, combo[:n])
            if not as_adl:
                actions.append(StripsAction(name, *effect))
                continue
            effects = [ConditionalEffect(*effect)]
            for when in whens:
                effect = _instance(when, combo, atoms, shared)
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


def _instance(part: tuple, combo: tuple, atoms: AtomTable, shared):
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
    same atom. The three sets are those ``shared`` (``model.set_table``)
    returns."""
    static, slots = part
    for get, true, positive, k in static:
        if (get(combo) in true) is not positive:
            _ids(slots[:k], combo, atoms)
            return None
    condition, adds, deletes = _ids(slots, combo, atoms)
    adds = shared(adds)
    return shared(condition), adds, shared(frozenset(deletes) - adds)


def _ids(slots: tuple, combo: tuple, atoms: AtomTable) -> tuple:
    """The atom ids of dynamic slots for the instance ``combo``, as the
    lists (condition, adds, deletes); a name first seen is formatted and
    interned, in slot order."""
    out = ([], [], [])
    name = atom_name
    for get, ids, prefix, to in slots:
        key = get(combo)
        atom = ids.get(key)
        if atom is None:
            atom = ids[key] = atoms.intern(name(prefix, key))
        out[to].append(atom)
    return out
