"""Ground planning model: interned atoms, states, actions, plans, execution.

States are plain frozensets of dense atom ids. Every type is an immutable
value after construction, so problems, graphs and plans can be shared freely
between threads. All operations here are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union


class PlanningError(Exception):
    """Base class for errors raised by this package."""


class ConflictingEffects(PlanningError):
    """A single action application fired effects that both add and delete
    the same atom. The model refuses to pick a winner: this always indicates
    a modeling bug, so it is surfaced instead of silently resolved."""


State = frozenset  # frozenset[int]; complete under the closed-world reading


class AtomTable:
    """Bijective interning of ground atom names to dense ids 0..n-1.

    Ids are handed out in first-encounter order. Identical construction
    order therefore yields identical ids, which is what makes every
    downstream computation in this package deterministic.
    """

    __slots__ = ("_ids", "_names")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        """Return the id for ``name``, assigning the next dense id if new."""
        atom_id = self._ids.get(name)
        if atom_id is None:
            atom_id = len(self._names)
            self._ids[name] = atom_id
            self._names.append(name)
        return atom_id

    def id(self, name: str) -> int:
        return self._ids[name]

    def name(self, atom_id: int) -> str:
        return self._names[atom_id]

    def names(self, atom_ids: Iterable[int]) -> list[str]:
        """Names for a set of ids, in ascending id order."""
        return [self._names[i] for i in sorted(atom_ids)]

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self):
        return iter(self._names)


@dataclass(frozen=True)
class StripsAction:
    """``pre -> ADD add DEL delete`` over atom ids, with add and delete
    disjoint (enforced here; grounding simplifies overlaps away first)."""

    name: str
    pre: frozenset
    add: frozenset
    delete: frozenset

    def __post_init__(self):
        if self.delete & self.add:
            raise ValueError(
                f"action {self.name!r}: delete and add lists intersect: "
                f"{sorted(self.delete & self.add)}"
            )


@dataclass(frozen=True)
class ConditionalEffect:
    """One effect of an ADL action: fires when ``condition`` holds."""

    condition: frozenset
    adds: frozenset
    deletes: frozenset

    def __post_init__(self):
        if self.adds & self.deletes:
            raise ValueError(
                f"conditional effect: adds and deletes intersect: "
                f"{sorted(self.adds & self.deletes)}"
            )


@dataclass(frozen=True)
class AdlAction:
    """Action with conditional effects. ``effects[0]`` always exists and
    carries the unconditional part: its condition is the action precondition
    and its adds/deletes are the unconditional effects."""

    name: str
    effects: tuple  # tuple[ConditionalEffect, ...]

    def __post_init__(self):
        if not self.effects:
            raise ValueError(f"action {self.name!r}: needs an effect at index 0")

    @property
    def pre(self) -> frozenset:
        return self.effects[0].condition


Action = Union[StripsAction, AdlAction]


@dataclass(frozen=True)
class PlanningProblem:
    """(actions, init, goals) over an interning table.

    ``actions[i]`` has action id ``i``. Problems are homogeneous: either all
    STRIPS or all ADL actions.
    """

    atoms: AtomTable
    actions: tuple  # tuple[Action, ...]
    init: State
    goals: frozenset
    name: str = "problem"

    def __post_init__(self):
        n = len(self.atoms)
        kinds = {type(a) for a in self.actions}
        if len(kinds) > 1:
            raise ValueError("problem mixes STRIPS and ADL actions")
        for ids in (self.init, self.goals):
            bad = [i for i in ids if not (0 <= i < n)]
            if bad:
                raise ValueError(f"atom ids not interned: {bad}")
        for action in self.actions:
            for ids in _atom_id_sets(action):
                bad = [i for i in ids if not (0 <= i < n)]
                if bad:
                    raise ValueError(
                        f"action {action.name!r} references uninterned ids: {bad}"
                    )

    @property
    def is_adl(self) -> bool:
        return bool(self.actions) and isinstance(self.actions[0], AdlAction)

    def atom(self, name: str) -> int:
        return self.atoms.id(name)

    def action_named(self, name: str) -> int:
        for i, a in enumerate(self.actions):
            if a.name == name:
                return i
        raise KeyError(name)


def _atom_id_sets(action: Action):
    if isinstance(action, StripsAction):
        yield action.pre
        yield action.add
        yield action.delete
    else:
        for eff in action.effects:
            yield eff.condition
            yield eff.adds
            yield eff.deletes


@dataclass(frozen=True)
class Plan:
    """Sequence of steps; each step is a set of action ids.

    Parallel steps come from the layered planner and must be pairwise
    non-conflicting (no action deletes a precondition or add of another in
    the same step); validate_plan checks this, the constructor cannot.
    """

    steps: tuple  # tuple[frozenset[int], ...]

    @staticmethod
    def sequential(action_ids: Iterable[int]) -> "Plan":
        return Plan(tuple(frozenset([i]) for i in action_ids))

    def action_count(self) -> int:
        return sum(len(s) for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def apply_strips(state: State, action: StripsAction) -> State:
    """Result of one STRIPS action: (s | add) - delete when the precondition
    holds, s unchanged otherwise (inapplicable actions are the identity)."""
    if action.pre <= state:
        return (state | action.add) - action.delete
    return state


def _fire(state: State, action: AdlAction):
    """Adds and deletes of an applicable ADL action's effects that fire in
    ``state``. Raises ConflictingEffects when the fired adds intersect the
    fired deletes (the model never resolves add-wins silently)."""
    adds: set = set()
    deletes: set = set()
    for eff in action.effects:
        if eff.condition <= state:
            adds |= eff.adds
            deletes |= eff.deletes
    clash = adds & deletes
    if clash:
        raise ConflictingEffects(
            f"action {action.name!r}: atoms both added and deleted: {sorted(clash)}"
        )
    return frozenset(adds), frozenset(deletes)


def apply_adl(state: State, action: AdlAction) -> State:
    """Simultaneously apply every fired effect; identity when the
    unconditional precondition fails. Raises ConflictingEffects on a clash."""
    if not action.pre <= state:
        return state
    adds, deletes = _fire(state, action)
    return (state - deletes) | adds


def transitions(problem: PlanningProblem, state: State):
    """Every transition out of ``state``: ``(action_id, successor, adds)``
    for each action applicable in it, in action-id order, where ``adds``
    are the atoms the action's fired effects add. Raises ConflictingEffects
    when an applicable ADL action's fired effects clash."""
    if problem.is_adl:
        for action_id, action in enumerate(problem.actions):
            if action.pre <= state:
                adds, deletes = _fire(state, action)
                yield action_id, (state - deletes) | adds, adds
    else:
        for action_id, action in enumerate(problem.actions):
            if action.pre <= state:
                yield (action_id, (state | action.add) - action.delete,
                       action.add)


def apply_action(state: State, action: Action) -> State:
    if isinstance(action, StripsAction):
        return apply_strips(state, action)
    return apply_adl(state, action)


def result_sequence(state: State, actions: Sequence[Action]) -> State:
    """Left fold of apply_action; the empty sequence returns ``state``."""
    for action in actions:
        state = apply_action(state, action)
    return state


# --- search outcomes --------------------------------------------------------

@dataclass(frozen=True)
class Unsolvable:
    """Definitive non-answer: exhaustion proved there is no plan."""

    reason: str = ""


@dataclass(frozen=True)
class ResourceLimit:
    """Non-answer: a resource budget was hit before an answer was proved."""

    limit: str
    value: int = 0


# --- plan validation -------------------------------------------------------

@dataclass(frozen=True)
class InapplicableAction:
    step: int
    action_id: int


@dataclass(frozen=True)
class GoalsUnmet:
    missing: frozenset


@dataclass(frozen=True)
class StepConflict:
    step: int
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    issues: tuple
    final_state: State

    def issue_kinds(self):
        return {type(i).__name__ for i in self.issues}


def _step_conflicts(problem: PlanningProblem, step_ids) -> list:
    """Pairs in a parallel step where one action's delete list intersects
    another's precondition or add list (order dependence)."""
    conflicts = []
    ids = sorted(step_ids)
    for i, a_id in enumerate(ids):
        a = problem.actions[a_id]
        if not isinstance(a, StripsAction):
            continue
        for b_id in ids[i + 1:]:
            b = problem.actions[b_id]
            if a.delete & (b.pre | b.add) or b.delete & (a.pre | a.add):
                conflicts.append((a_id, b_id))
    return conflicts


def validate_plan(problem: PlanningProblem, plan: Plan) -> ValidationReport:
    """Execute ``plan`` from the problem's initial state and report.

    Parallel steps are linearized in ascending action-id order; the step
    non-conflict invariant makes this order-free for well-formed plans, and
    violations are reported as StepConflict. Never raises: inapplicable
    actions keep identity semantics and are reported.
    """
    issues: list = []
    state = problem.init
    for step_index, step in enumerate(plan.steps):
        for a_id, b_id in _step_conflicts(problem, step):
            issues.append(StepConflict(step_index, f"{a_id} vs {b_id}"))
        for action_id in sorted(step):
            action = problem.actions[action_id]
            if not action.pre <= state:
                issues.append(InapplicableAction(step_index, action_id))
                continue
            try:
                state = apply_action(state, action)
            except ConflictingEffects as exc:
                issues.append(StepConflict(step_index, str(exc)))
    missing = problem.goals - state
    if missing:
        issues.append(GoalsUnmet(frozenset(missing)))
    return ValidationReport(valid=not issues, issues=tuple(issues), final_state=state)
