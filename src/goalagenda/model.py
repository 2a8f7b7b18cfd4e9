"""Ground planning model: interned atoms, states, actions, plans, execution.

Frozensets at the API, masks inside: a state is a frozenset of dense atom
ids wherever it enters or leaves the package, and an int bitmask (bit i for
atom i) wherever it is searched or executed. The state-space searches (the
oracle's enumeration and the forward planner) step through ``transitions``;
plans run through ``validate_plan``, whose executor the agenda driver
shares. An action is split into its ways (one per effect, each conditioned
on the precondition plus the effect's own condition, as IPP splits an ADL
action) by ``action_ways``, once per problem, which also checks it: a
``PlanningProblem`` holds the split of all its actions as ``ways``, and the
executor here, the planning graph's nodes, the ordering index's ways and the
oracle's deletes record all read it from there. The atom sets of a problem
are hash-consed: every distinct set among its actions' fields and its ways
is one frozenset object. The builders (``pddl.ground``,
``corpus.problem_from_dict`` and the way split of ``PlanningProblem``) make
them through ``set_table``, whose table lives only while one problem is
built; no table is kept at module level. Every type but ``AtomTable``, which
the builders extend through ``intern`` while a problem is built, is an
immutable value after construction, so problems and plans can be shared
freely between threads. All operations here are pure functions. A budget
that runs out raises ``LimitExceeded``, the one exception for every budget
of the package; the base planners report their own budgets as a
``ResourceLimit`` result instead. A planning graph
(``graphplan.PlanningGraph``) is not such a value: it is written while it
grows, and never again once it has leveled off, so a leveled graph can be
shared too.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Union


class PlanningError(Exception):
    """Base class for errors raised by this package."""


class LimitExceeded(PlanningError):
    """A budget ran out: planning-graph layers, backward-search nodes or
    reachable states. The one exception every exhausted budget raises."""


class ConflictingEffects(PlanningError):
    """A single action application fired effects that both add and delete
    the same atom. The model refuses to pick a winner: this always indicates
    a modeling bug, so it is surfaced instead of silently resolved."""


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


_ATOM_NAME = re.compile(r"([^()]+)\(([^()]*)\)")


def atom_name(head: str, args) -> str:
    """The name ``pddl.ground`` gives an atom or an action:
    ``head(a1,...,ak)``."""
    return f"{head}({','.join(args)})"


def atom_args(name: str):
    """``(head, args)`` of a name as ``atom_name`` formats it, ``args`` a
    tuple of strings; None for a name that does not parse so."""
    match = _ATOM_NAME.fullmatch(name)
    if match is None:
        return None
    return match[1], tuple(match[2].split(",")) if match[2] else ()


class StripsAction(NamedTuple):
    """``pre -> ADD add DEL delete`` over atom ids. No problem holds one
    whose add and delete meet (``action_ways`` checks; grounding
    simplifies overlaps away first)."""

    name: str
    pre: frozenset
    add: frozenset
    delete: frozenset


class ConditionalEffect(NamedTuple):
    """One effect of an ADL action: fires when ``condition`` holds. No
    problem holds one whose adds and deletes meet (``action_ways``
    checks)."""

    condition: frozenset
    adds: frozenset
    deletes: frozenset


class AdlAction(NamedTuple):
    """Action with conditional effects. ``effects[0]`` carries the
    unconditional part: its condition is the action precondition and its
    adds/deletes are the unconditional effects. No problem holds one
    without it (``action_ways`` checks)."""

    name: str
    effects: tuple  # tuple[ConditionalEffect, ...]

    @property
    def pre(self) -> frozenset:
        return self.effects[0].condition


Action = Union[StripsAction, AdlAction]


@dataclass(frozen=True)
class PlanningProblem:
    """(actions, init, goals) over an interning table.

    ``actions[i]`` has action id ``i``. Problems are homogeneous: either all
    STRIPS or all ADL actions. ``ways[i]`` holds the ways of ``actions[i]``
    (``action_ways``): the one split of the problem's actions, made once
    here, which the planning graph, the ordering index, the oracle and the
    executor all read, and which raises ValueError for an action no
    problem may hold. It takes no part in ``==`` or ``repr``, and
    ``dataclasses.replace`` makes it anew.

    Invariant: equal atom sets among the actions' fields and ``ways`` are
    one frozenset object, when the actions come from ``pddl.ground`` or
    ``corpus.problem_from_dict``. Each builds its sets through its own
    ``set_table``, and this constructor shares each new way condition
    with an equal set of the actions; the tables live only while the
    problem is built.
    """

    atoms: AtomTable
    actions: tuple  # tuple[Action, ...]
    init: frozenset
    goals: frozenset
    name: str = "problem"
    ways: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(map(type, self.actions))) > 1:
            raise ValueError("problem mixes STRIPS and ADL actions")
        shared = set_table()
        if self.is_adl:  # the table first holds the actions' own sets
            for action in self.actions:
                for effect in action.effects:
                    for ids in effect:  # condition, adds, deletes
                        shared(ids)
        ways = tuple([action_ways(action, shared) for action in self.actions])
        object.__setattr__(self, "ways", ways)
        used = frozenset().union(self.init, self.goals, *(
            ids for split in ways for way in split for ids in way))
        if used and (min(used) < 0 or max(used) >= len(self.atoms)):
            raise ValueError(self._uninterned())

    def _uninterned(self) -> str:
        """The message naming the first id set that holds an id outside
        the atom table: init, goals, then each action's sets in order."""
        n = len(self.atoms)
        for ids in (self.init, self.goals):
            bad = [i for i in ids if not (0 <= i < n)]
            if bad:
                return f"atom ids not interned: {bad}"
        for action, ways in zip(self.actions, self.ways):
            for ids in itertools.chain.from_iterable(ways):
                bad = [i for i in ids if not (0 <= i < n)]
                if bad:
                    return f"action {action.name!r} references uninterned ids: {bad}"

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


def action_ways(action: Action, shared) -> tuple:
    """The ways of an action: per effect, in effect order, ``(condition,
    adds, deletes)`` as frozensets, where every condition holds the
    action's precondition. A STRIPS action has one way. This is the one
    place an action is split into the nodes of a planning graph, the ways
    of an ordering index and the effects an executor fires;
    ``PlanningProblem.ways`` holds it per action. A way holds the
    action's own sets, except the condition of an ADL effect after the
    first, which is the union ``shared`` (from ``set_table``) returns.
    It is also the one place an action is checked, since every problem
    splits each of its actions here: ValueError when a STRIPS action's
    add and delete meet, when an effect's adds and deletes meet, or when
    an ADL action has no effect 0."""
    if isinstance(action, StripsAction):
        name, pre, add, delete = action
        if not delete.isdisjoint(add):
            raise ValueError(f"action {name!r}: delete and add lists "
                             f"intersect: {sorted(delete & add)}")
        return ((pre, add, delete),)
    if not action.effects:
        raise ValueError(f"action {action.name!r}: needs an effect at index 0")
    for eff in action.effects:
        if not eff.adds.isdisjoint(eff.deletes):
            raise ValueError(f"conditional effect: adds and deletes "
                             f"intersect: {sorted(eff.adds & eff.deletes)}")
    pre = action.pre
    return tuple((shared(pre | eff.condition) if i else pre, eff.adds,
                  eff.deletes) for i, eff in enumerate(action.effects))


def set_table():
    """A hash-consing table for the atom sets of one problem under
    construction (Filliatre & Conchon 2006, "Type-safe modular
    hash-consing"): the function returned takes an iterable of ids and
    returns the first frozenset equal to it that went through the table,
    so equal sets are one object. A builder makes one table per problem
    and drops it when the problem is built; no table outlives the problem
    it built."""
    table: dict = {}

    def shared(ids) -> frozenset:
        ids = frozenset(ids)
        return table.setdefault(ids, ids)

    return shared


def check_atom_ids(problem: PlanningProblem, *ids) -> None:
    """ValueError naming the first id that is not an atom id of the
    problem, that is, not in ``range(len(problem.atoms))``."""
    n = len(problem.atoms)
    for p in ids:
        if not 0 <= p < n:
            raise ValueError(f"atom id {p!r} out of range: the problem has "
                             f"{n} atoms")


class Plan(NamedTuple):
    """Sequence of steps; each step is a set of action ids.

    Parallel steps come from the layered planner: every action of a step
    must be applicable before the step, and no action may delete a
    precondition or add of another in the same step. validate_plan checks
    this, the constructor cannot.
    """

    steps: tuple  # tuple[frozenset[int], ...]

    @staticmethod
    def sequential(action_ids: Iterable[int]) -> "Plan":
        return Plan(tuple(frozenset([i]) for i in action_ids))

    def action_count(self) -> int:
        return sum(len(s) for s in self.steps)


def mask_of(ids: Iterable[int]) -> int:
    """The bitmask of a set of ids (atoms, or graph nodes): bit i is set
    when i is in the set."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def mask_ids(mask: int) -> list:
    """The ids whose bits are set in ``mask``, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _effect_masks(ways: tuple) -> tuple:
    """One action's ways (``PlanningProblem.ways``) as masks."""
    return tuple(tuple(map(mask_of, way)) for way in ways)


def _fire(name: str, effects: tuple, state: int):
    """Adds and deletes, as masks, of the effects of an applicable action
    (``effects`` as from ``_effect_masks``) whose conditions hold in the
    state mask. Raises ConflictingEffects when the fired adds intersect the
    fired deletes (the model never resolves add-wins silently)."""
    adds = deletes = 0
    for condition, add, delete in effects:
        if state & condition == condition:
            adds |= add
            deletes |= delete
    clash = adds & deletes
    if clash:
        raise ConflictingEffects(
            f"action {name!r}: atoms both added and deleted: {mask_ids(clash)}")
    return adds, deletes


class SuccessorTable:
    """Every action of one problem as masks, for ``transitions``: a STRIPS
    action as ``(action_id, pre, add, keep)`` with ``keep`` the complement
    of its delete mask, an ADL action as ``(action_id, pre, name,
    effects)``. Actions are bucketed by their highest precondition atom, so
    a state tests only the actions whose highest precondition holds in it
    (a flat form of Fast Downward's successor generator, Helmert 2006):
    ``buckets`` maps that atom's bit to its actions, ``keys`` is the mask
    of those atoms, and actions with no precondition are in ``free``."""

    __slots__ = ("is_adl", "free", "keys", "buckets")

    def __init__(self, problem: PlanningProblem):
        self.is_adl = problem.is_adl
        self.free = []
        self.buckets = {}
        for action_id, action in enumerate(problem.actions):
            pre = mask_of(action.pre)
            if self.is_adl:
                entry = (action_id, pre, action.name,
                         _effect_masks(problem.ways[action_id]))
            else:
                entry = (action_id, pre, mask_of(action.add),
                         ~mask_of(action.delete))
            if pre:
                top = 1 << (pre.bit_length() - 1)
                self.buckets.setdefault(top, []).append(entry)
            else:
                self.free.append(entry)
        self.keys = sum(self.buckets)  # distinct bits: the sum is their OR


def transitions(table: SuccessorTable, state: int):
    """Every transition out of the state mask ``state``: ``(action_id,
    successor, adds)`` for each action applicable in it, in action-id
    order, where ``successor`` is a state mask and ``adds`` is the mask of
    the atoms the action's fired effects add. Only the buckets whose key
    atom holds are tested. Raises ConflictingEffects when an applicable ADL
    action's fired effects clash."""
    candidates = list(table.free)
    buckets = table.buckets
    keys = state & table.keys
    while keys:
        low = keys & -keys
        candidates += buckets[low]
        keys ^= low
    candidates.sort()
    if table.is_adl:
        for action_id, pre, name, effects in candidates:
            if state & pre == pre:
                adds, deletes = _fire(name, effects, state)
                yield action_id, (state & ~deletes) | adds, adds
    else:
        for action_id, pre, add, keep in candidates:
            if state & pre == pre:
                yield action_id, (state & keep) | add, add


def _unwind(parents: dict, state) -> Plan:
    """The sequential plan a breadth-first search's ``parents`` map (node
    -> ``(parent, action_id)``, ``None`` at a start) records for reaching
    ``state``."""
    actions = []
    while parents[state] is not None:
        state, action_id = parents[state]
        actions.append(action_id)
    actions.reverse()
    return Plan.sequential(actions)


# --- search outcomes --------------------------------------------------------

# default budgets: planning-graph layers grown, backward-search nodes per
# episode, and states held by a forward search or the oracle's enumeration
MAX_LAYERS = 128
MAX_NODES = 10 ** 7
MAX_STATES = 200_000


class Unsolvable(NamedTuple):
    """Definitive non-answer: exhaustion proved there is no plan."""

    reason: str = ""


class ResourceLimit(NamedTuple):
    """Non-answer: a resource budget was hit before an answer was proved."""

    limit: str
    value: int = 0


# --- plan validation -------------------------------------------------------

class InapplicableAction(NamedTuple):
    step: int
    action_id: int


class GoalsUnmet(NamedTuple):
    missing: frozenset


class StepConflict(NamedTuple):
    step: int
    detail: str = ""


class ValidationReport(NamedTuple):
    valid: bool
    issues: tuple
    final_state: frozenset

    def issue_kinds(self):
        return {type(i).__name__ for i in self.issues}


def _execute(problem: PlanningProblem, state: int, plan: Plan):
    """Run ``plan`` from the state mask ``state``; returns the final state
    mask and the issues met, in step order.

    The parallel-step rule: every action of a step reads the state before
    the step. Its id must be one of the problem's actions and its
    precondition must hold there, else it is reported (InapplicableAction)
    and changes nothing; an ADL action fires the effects whose conditions
    hold there, and a fired add meeting a fired delete is reported
    (StepConflict) and changes nothing. Each pair of actions in the step
    where one's fired deletes meet the other's precondition or fired adds
    is reported (StepConflict). Then the fired effects of the whole step
    apply together, deletes before adds.
    """
    issues: list = []
    action_ids = range(len(problem.actions))
    for step_index, step in enumerate(plan.steps):
        fired = []  # (action_id, pre, adds, deletes)
        for action_id in sorted(step):
            if action_id not in action_ids:
                issues.append(InapplicableAction(step_index, action_id))
                continue
            action = problem.actions[action_id]
            effects = _effect_masks(problem.ways[action_id])
            pre = effects[0][0]
            if state & pre != pre:
                issues.append(InapplicableAction(step_index, action_id))
                continue
            try:
                adds, deletes = _fire(action.name, effects, state)
            except ConflictingEffects as exc:
                issues.append(StepConflict(step_index, str(exc)))
                continue
            fired.append((action_id, pre, adds, deletes))
        step_adds = step_deletes = 0
        for i, (a_id, a_pre, a_add, a_del) in enumerate(fired):
            for b_id, b_pre, b_add, b_del in fired[i + 1:]:
                if a_del & (b_pre | b_add) or b_del & (a_pre | a_add):
                    issues.append(
                        StepConflict(step_index, f"{a_id} vs {b_id}"))
            step_adds |= a_add
            step_deletes |= a_del
        state = (state & ~step_deletes) | step_adds
    return state, issues


def validate_plan(problem: PlanningProblem, plan: Plan) -> ValidationReport:
    """Execute ``plan`` from the problem's initial state and report.

    Steps run under the parallel-step rule: every action's precondition
    (and, for an ADL action, every effect condition) is read in the state
    before the step, no action may delete a precondition or fired add of
    another in the same step, and the step's fired effects apply together.
    Never raises: an inapplicable action, or an id outside
    ``range(len(problem.actions))``, changes nothing and is reported as
    InapplicableAction, interference and clashing effects as StepConflict,
    and goals false at the end as GoalsUnmet.
    """
    state, issues = _execute(problem, mask_of(problem.init), plan)
    final_state = frozenset(mask_ids(state))
    missing = problem.goals - final_state
    if missing:
        issues.append(GoalsUnmet(frozenset(missing)))
    return ValidationReport(valid=not issues, issues=tuple(issues),
                            final_state=final_state)
