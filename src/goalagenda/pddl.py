"""PDDL frontend: parse a small typed STRIPS/ADL subset and ground it.

Accepted requirements: :strips, :typing, :negative-preconditions,
:conditional-effects. Preconditions and goals are conjunctions of literals;
effects are conjunctions of literals plus (ADL mode) ``when`` clauses whose
antecedent and consequent are again conjunctions of literals. Anything else
(quantifiers, disjunction, equality, numeric fluents) is rejected with
UnsupportedFeature. STRIPS mode (neither :negative-preconditions nor
:conditional-effects declared) additionally rejects negated preconditions
and ``when``.

Grounding instantiates each operator over all type-consistent object tuples,
prunes instances whose static preconditions (predicates never occurring in
any effect) are not satisfied by the initial state, drops satisfied static
atoms from the remaining preconditions, and compiles negated dynamic
preconditions into complement ``not-<pred>`` atoms maintained by every
effect that touches the predicate. The result only ever exposes
positive-precondition ground actions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in "()":
            yield _Tok(ch, line, col)
            col += 1
            i += 1
            continue
        start = i
        start_col = col
        while i < n and text[i] not in " \t\r\n();":
            i += 1
            col += 1
        yield _Tok(text[start:i], line, start_col)


def _read_sexprs(text: str):
    """Parse into nested lists of _Tok; returns the top-level forms."""
    stack: list = [[]]
    opens: list = []
    for tok in _tokenize(text):
        if tok.text == "(":
            stack.append([])
            opens.append(tok)
        elif tok.text == ")":
            if len(stack) == 1:
                raise PddlSyntaxError("unbalanced ')'", tok.line, tok.col)
            done = stack.pop()
            opens.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        tok = opens[-1]
        raise PddlSyntaxError("unbalanced '('", tok.line, tok.col)
    return stack[0]


def _loc(form):
    while isinstance(form, list):
        if not form:
            return (None, None)
        form = form[0]
    return (form.line, form.col)


def _head(form):
    """Structural head of a form, lowercased: PDDL keywords are matched
    case-insensitively while names keep their case."""
    if not isinstance(form, list) or not form or not isinstance(form[0], _Tok):
        line, col = _loc(form)
        raise PddlSyntaxError("expected a named form", line, col)
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

    @property
    def adl_mode(self) -> bool:
        return bool(
            {":negative-preconditions", ":conditional-effects"}
            & set(self.requirements)
        )


@dataclass(frozen=True)
class ProblemFile:
    name: str
    domain_name: str
    objects: tuple  # tuple[(name, type), ...] in declaration order
    init: tuple  # tuple[(pred, args), ...]
    goal: tuple  # tuple[(pred, args), ...] positive ground atoms


def _parse_typed_list(forms, default_type="object"):
    """Parse ``a b - t c d`` item/type runs; returns [(name, type), ...]."""
    out = []
    pending = []
    i = 0
    while i < len(forms):
        tok = forms[i]
        if not isinstance(tok, _Tok):
            line, col = _loc(tok)
            raise PddlSyntaxError("expected a name in typed list", line, col)
        if tok.text == "-":
            if i + 1 >= len(forms) or not isinstance(forms[i + 1], _Tok):
                raise PddlSyntaxError("expected a type after '-'", tok.line, tok.col)
            ty = forms[i + 1].text
            out.extend((name, ty) for name in pending)
            pending = []
            i += 2
            continue
        pending.append(tok.text)
        i += 1
    out.extend((name, default_type) for name in pending)
    return out


def _parse_literal(form, allow_negated, context):
    if not isinstance(form, list) or not form:
        line, col = _loc(form)
        raise PddlSyntaxError(f"expected an atom in {context}", line, col)
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


def _flatten_and(form, context):
    """A conjunction form: either a single item or (and item...)."""
    if isinstance(form, list) and form and isinstance(form[0], _Tok) \
            and form[0].text.lower() == "and":
        return form[1:]
    return [form]


def parse_domain(text: str) -> DomainFile:
    forms = _read_sexprs(text)
    if len(forms) != 1 or _head(forms[0]) != "define":
        raise PddlSyntaxError("expected a single (define (domain ...)) form")
    body = forms[0][1:]
    if not body or _head(body[0]) != "domain":
        raise PddlSyntaxError("expected (domain NAME)", *_loc(forms[0]))
    name = _name(body[0], "(domain NAME)")
    requirements: list = [":strips"]
    types: list = []
    predicates: list = []
    operators: list = []
    for section in body[1:]:
        head = _head(section)
        if head == ":requirements":
            requirements = []
            for tok in section[1:]:
                flag = tok.text.lower()
                if flag not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedFeature(flag, tok.line, tok.col)
                requirements.append(flag)
        elif head == ":types":
            types = _parse_typed_list(section[1:])
        elif head == ":predicates":
            for pform in section[1:]:
                pname = _head(pform)
                params = _parse_typed_list(pform[1:])
                predicates.append((pname, tuple(ty for _, ty in params)))
        elif head == ":action":
            operators.append(_parse_action(section))
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
            params = tuple(_parse_typed_list(value))
        elif key_kw == ":precondition":
            precondition = tuple(
                _parse_literal(f, allow_negated=True, context="precondition")
                for f in _flatten_and(value, "precondition")
            )
        elif key_kw == ":effect":
            effect = tuple(_parse_effect_item(f) for f in _flatten_and(value, "effect"))
        else:
            raise UnsupportedFeature(key_kw, key.line, key.col)
        i += 2
    return LiftedOperator(name, params, precondition, effect)


def _parse_effect_item(form):
    if isinstance(form, list) and form and isinstance(form[0], _Tok) \
            and form[0].text.lower() == "when":
        if len(form) != 3:
            raise PddlSyntaxError("'when' takes condition and effect", *_loc(form))
        conditions = tuple(
            _parse_literal(f, allow_negated=True, context="when condition")
            for f in _flatten_and(form[1], "when condition")
        )
        effects = tuple(
            _parse_literal(f, allow_negated=True, context="when effect")
            for f in _flatten_and(form[2], "when effect")
        )
        return WhenClause(conditions, effects)
    return _parse_literal(form, allow_negated=True, context="effect")


def _check_domain(domain: DomainFile) -> None:
    arities = {name: len(tys) for name, tys in domain.predicates}
    adl = domain.adl_mode
    neg_ok = ":negative-preconditions" in domain.requirements
    cond_ok = ":conditional-effects" in domain.requirements
    for op in domain.operators:
        params = {v for v, _ in op.parameters}
        for lit in op.precondition:
            _check_literal(lit, arities, params, op)
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
                    _check_literal(lit, arities, params, op)
                    if not lit.positive and not neg_ok:
                        raise UnsupportedFeature(
                            f"negative when-condition in {op.name}")
                for lit in item.effects:
                    _check_literal(lit, arities, params, op)
            else:
                _check_literal(item, arities, params, op)


def _check_literal(lit: Literal, arities, params, op) -> None:
    if lit.predicate not in arities:
        raise PddlSyntaxError(
            f"unknown predicate {lit.predicate!r} in operator {op.name!r}")
    if len(lit.args) != arities[lit.predicate]:
        raise ArityMismatch(
            f"{lit.predicate} expects {arities[lit.predicate]} args, "
            f"got {len(lit.args)} in operator {op.name!r}")
    for arg in lit.args:
        if arg.startswith("?") and arg not in params:
            raise PddlSyntaxError(
                f"variable {arg} of {op.name!r} is not a parameter")


def parse_problem(text: str, domain: DomainFile) -> ProblemFile:
    forms = _read_sexprs(text)
    if len(forms) != 1 or _head(forms[0]) != "define":
        raise PddlSyntaxError("expected a single (define (problem ...)) form")
    body = forms[0][1:]
    if not body or _head(body[0]) != "problem":
        raise PddlSyntaxError("expected (problem NAME)")
    name = _name(body[0], "(problem NAME)")
    domain_name = ""
    objects: list = []
    init: list = []
    goal: list = []
    arities = {pname: len(tys) for pname, tys in domain.predicates}
    for section in body[1:]:
        head = _head(section)
        if head == ":domain":
            domain_name = _name(section, "(:domain NAME)")
        elif head == ":objects":
            objects = _parse_typed_list(section[1:])
        elif head == ":init":
            for form in section[1:]:
                lit = _parse_literal(form, allow_negated=False, context="init")
                _check_ground_atom(lit, arities)
                init.append((lit.predicate, lit.args))
        elif head == ":goal":
            if len(section) != 2:
                raise PddlSyntaxError("expected (:goal FORMULA)",
                                      *_loc(section))
            for form in _flatten_and(section[1], "goal"):
                if isinstance(form, list) and not form:
                    continue  # (and) is the empty conjunction
                lit = _parse_literal(form, allow_negated=False, context="goal")
                _check_ground_atom(lit, arities)
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


def _check_ground_atom(lit: Literal, arities) -> None:
    if lit.predicate not in arities:
        raise PddlSyntaxError(f"unknown predicate {lit.predicate!r}")
    if len(lit.args) != arities[lit.predicate]:
        raise ArityMismatch(
            f"{lit.predicate} expects {arities[lit.predicate]} args, "
            f"got {len(lit.args)}")
    for arg in lit.args:
        if arg.startswith("?"):
            raise PddlSyntaxError(f"variable {arg} in a ground atom")


def parse(domain_text: str, problem_text: str):
    """Parse a domain/problem pair. Returns (DomainFile, ProblemFile)."""
    domain = parse_domain(domain_text)
    problem = parse_problem(problem_text, domain)
    return domain, problem


# --- pretty printing (round-trip support) -----------------------------------

def _fmt_typed(items) -> str:
    parts = []
    for name, ty in items:
        parts.append(f"{name} - {ty}")
    return " ".join(parts)


def _fmt_literal(lit: Literal) -> str:
    atom = f"({lit.predicate}{''.join(' ' + a for a in lit.args)})"
    return atom if lit.positive else f"(not {atom})"


def domain_to_pddl(domain: DomainFile) -> str:
    lines = [f"(define (domain {domain.name})"]
    lines.append(f"  (:requirements {' '.join(domain.requirements)})")
    if domain.types:
        lines.append(f"  (:types {_fmt_typed(domain.types)})")
    preds = []
    for pname, tys in domain.predicates:
        args = "".join(f" ?x{i} - {ty}" for i, ty in enumerate(tys))
        preds.append(f"({pname}{args})")
    lines.append(f"  (:predicates {' '.join(preds)})")
    for op in domain.operators:
        lines.append(f"  (:action {op.name}")
        lines.append(f"    :parameters ({_fmt_typed(op.parameters)})")
        pre = " ".join(_fmt_literal(l) for l in op.precondition)
        lines.append(f"    :precondition (and {pre})")
        effs = []
        for item in op.effect:
            if isinstance(item, WhenClause):
                cond = " ".join(_fmt_literal(l) for l in item.conditions)
                eff = " ".join(_fmt_literal(l) for l in item.effects)
                effs.append(f"(when (and {cond}) (and {eff}))")
            else:
                effs.append(_fmt_literal(item))
        lines.append(f"    :effect (and {' '.join(effs)}))")
    lines.append(")")
    return "\n".join(lines)


def problem_to_pddl(problem: ProblemFile) -> str:
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain_name})")
    if problem.objects:
        lines.append(f"  (:objects {_fmt_typed(problem.objects)})")
    init = " ".join(f"({p}{''.join(' ' + a for a in args)})"
                    for p, args in problem.init)
    lines.append(f"  (:init {init})")
    goal = " ".join(f"({p}{''.join(' ' + a for a in args)})"
                    for p, args in problem.goal)
    lines.append(f"  (:goal (and {goal}))")
    lines.append(")")
    return "\n".join(lines)


# --- grounding ---------------------------------------------------------------

def _type_closure(types) -> dict:
    """type -> set of types it subsumes (itself plus descendants)."""
    children: dict = {}
    known = {"object"}
    for ty, parent in types:
        known.add(ty)
        known.add(parent)
        children.setdefault(parent, set()).add(ty)
    closure = {}

    def descend(ty):
        seen = {ty}
        frontier = [ty]
        while frontier:
            t = frontier.pop()
            for child in children.get(t, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    for ty in known:
        closure[ty] = descend(ty)
    return closure


def _atom_name(pred: str, args) -> str:
    return f"{pred}({','.join(args)})" if args else f"{pred}()"


def ground(domain: DomainFile, problem: ProblemFile) -> PlanningProblem:
    """Instantiate operators over type-consistent object tuples.

    Deterministic: objects in declaration order, operators in declaration
    order, atom ids in first-encounter order (init, complements, goal, then
    per-action literals).
    """
    closure = _type_closure(domain.types)
    closure.setdefault("object", {"object"})
    pred_types = dict(domain.predicates)

    objects_by_type: dict = {}
    for obj, ty in problem.objects:
        if ty != "object" and ty not in closure:
            raise TypeMismatch(f"object {obj!r} has undeclared type {ty!r}")
        objects_by_type.setdefault(ty, []).append(obj)

    def candidates(ty: str) -> list:
        subs = closure.get(ty)
        if subs is None:
            raise TypeMismatch(f"parameter type {ty!r} is not declared")
        out = []
        for obj, oty in problem.objects:  # declaration order
            if oty in subs or ty == "object":
                out.append(obj)
        return out

    # Static predicates: never occur in any effect.
    effect_preds: set = set()
    for op in domain.operators:
        for item in op.effect:
            lits = item.effects if isinstance(item, WhenClause) else (item,)
            for lit in lits:
                effect_preds.add(lit.predicate)
    static_preds = {name for name, _ in domain.predicates} - effect_preds

    # Predicates needing complement atoms: negated dynamic occurrences.
    negated_dynamic: list = []
    for op in domain.operators:
        lits = list(op.precondition)
        for item in op.effect:
            if isinstance(item, WhenClause):
                lits.extend(item.conditions)
        for lit in lits:
            if not lit.positive and lit.predicate not in static_preds:
                if lit.predicate not in negated_dynamic:
                    negated_dynamic.append(lit.predicate)

    atoms = AtomTable()
    init_ids = set()
    init_atoms = {(p, args) for p, args in problem.init}
    for pred, args in problem.init:
        init_ids.add(atoms.intern(_atom_name(pred, args)))

    # Complement atoms for every type-consistent grounding absent from init.
    for pred in negated_dynamic:
        tys = pred_types[pred]
        for combo in itertools.product(*(candidates(t) for t in tys)):
            comp = atoms.intern(_atom_name("not-" + pred, combo))
            if (pred, combo) not in init_atoms:
                init_ids.add(comp)

    goal_ids = set()
    for pred, args in problem.goal:
        for i, arg in enumerate(args):
            if not _object_has_type(arg, pred_types[pred][i], problem, closure):
                raise TypeMismatch(
                    f"goal atom {pred}{args}: {arg!r} is not a {pred_types[pred][i]}")
        goal_ids.add(atoms.intern(_atom_name(pred, args)))

    # Problems ground to AdlActions only when a when-clause is actually
    # present; negative preconditions alone compile away into plain STRIPS.
    use_adl_actions = any(
        isinstance(item, WhenClause) for op in domain.operators for item in op.effect
    )

    actions = []
    for op in domain.operators:
        domains = [candidates(ty) for _, ty in op.parameters]
        for combo in itertools.product(*domains):
            binding = {var: obj for (var, _), obj in zip(op.parameters, combo)}
            ground_action = _ground_instance(
                op, binding, atoms, init_atoms, static_preds, negated_dynamic,
                use_adl_actions)
            if ground_action is not None:
                actions.append(ground_action)

    return PlanningProblem(
        atoms=atoms,
        actions=tuple(actions),
        init=frozenset(init_ids),
        goals=frozenset(goal_ids),
        name=problem.name,
    )


def _object_has_type(obj, ty, problem: ProblemFile, closure) -> bool:
    if ty == "object":
        return any(name == obj for name, _ in problem.objects)
    subs = closure.get(ty, {ty})
    return any(name == obj and oty in subs for name, oty in problem.objects)


def _ground_instance(op, binding, atoms: AtomTable, init_atoms, static_preds,
                     negated_dynamic, as_adl):
    """One ground instance, or None when a static precondition fails."""

    def inst(lit: Literal):
        return lit.predicate, tuple(binding.get(a, a) for a in lit.args)

    arg_str = ",".join(binding[v] for v, _ in op.parameters)
    name = f"{op.name}({arg_str})" if op.parameters else f"{op.name}()"

    def resolve_conditions(literals):
        """Positive condition ids after static evaluation, or None if a
        static literal is false (instance pruned / effect dropped)."""
        ids = []
        for lit in literals:
            pred, args = inst(lit)
            if pred in static_preds:
                holds = (pred, args) in init_atoms
                if lit.positive != holds:
                    return None
                continue  # satisfied static: dropped
            if lit.positive:
                ids.append(atoms.intern(_atom_name(pred, args)))
            else:
                ids.append(atoms.intern(_atom_name("not-" + pred, args)))
        return ids

    def resolve_effects(literals):
        adds, dels = [], []
        for lit in literals:
            pred, args = inst(lit)
            target = atoms.intern(_atom_name(pred, args))
            comp = None
            if pred in negated_dynamic:
                comp = atoms.intern(_atom_name("not-" + pred, args))
            if lit.positive:
                adds.append(target)
                if comp is not None:
                    dels.append(comp)
            else:
                dels.append(target)
                if comp is not None:
                    adds.append(comp)
        return adds, dels

    pre_ids = resolve_conditions(op.precondition)
    if pre_ids is None:
        return None

    plain = [item for item in op.effect if isinstance(item, Literal)]
    whens = [item for item in op.effect if isinstance(item, WhenClause)]

    adds0, dels0 = resolve_effects(plain)

    if not as_adl:
        add = frozenset(adds0)
        delete = frozenset(dels0) - add  # add wins within one action
        return StripsAction(name, frozenset(pre_ids), add, delete)

    effects = [ConditionalEffect(frozenset(pre_ids), frozenset(adds0),
                                 frozenset(dels0) - frozenset(adds0))]
    for clause in whens:
        cond_ids = resolve_conditions(clause.conditions)
        if cond_ids is None:
            continue  # statically impossible effect
        adds, dels = resolve_effects(clause.effects)
        effects.append(ConditionalEffect(
            frozenset(cond_ids), frozenset(adds),
            frozenset(dels) - frozenset(adds)))
    return AdlAction(name, tuple(effects))
