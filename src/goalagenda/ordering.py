"""Polynomial goal-ordering approximations.

Both routes to "B should be achieved before A" are one rule over a false
set and one action view: keep the anchor true, make the false set false,
and order B first when no usable action can (re)achieve B.

* graph route (``order_e``): the false set is the atoms mutually exclusive
  with the anchor once the planning graph has leveled off, and B is
  ordered first when no usable way adds it;
* direct-analysis route (``order_h``): the false set is the atoms every
  anchor achiever deletes, shrunk by a one-step achievability fixpoint,
  and B is ordered first when it is not even one-step achievable with the
  surviving ways.

The direct route is deliberately shallow: achievability regresses exactly
one level and assumes tested atoms are absent from the state, which is what
makes it fast and occasionally wrong in both directions; the oracle module
measures that. The same tests lifted to goal sets, for placing the
unordered goals, live in ``agenda._before_anchor``.

Every ordering test answers with one ``OrderingVerdict``: these two
approximations with relation "e" and "h", the oracle's exact reasonable
and forced tests with "r" and "f" and a witness when they fail.

Both routes read one ``ProblemIndex``: every way of every action, as the
problem holds them (``PlanningProblem.ways``, the one split, which the
planning graph reads too), with its condition and implied deletes, and
per atom the ways that add it, the ways whose implied deletes hold it and
the ways whose condition needs it. An action view is the set of ways
blocked by the anchor and the false set, so every test walks only the
achievers of the atom it asks about. Top-level calls (``order_e``,
``order_h`` and the agenda and oracle entry points) build the index once
and pass it down; the lower-level functions take ``index=None`` and build
one on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .graphplan import AnchorUnreachable, PlanningGraph, false_set
from .model import AdlAction, PlanningProblem


@dataclass(frozen=True)
class OrderingVerdict:
    """Outcome of one test of "b is ordered before a". ``relation`` names
    the test: "e" or "h" here, "r" or "f" in the oracle, as in the
    ``verify_matrix`` columns. ``trivial`` marks an ordering that holds
    because no state achieves a; ``witness`` is the (state, Plan) that
    refutes an exact ordering."""

    relation: str
    holds: bool
    trivial: bool = False
    witness: tuple = None


class ProblemIndex:
    """Per-problem lookup tables for the ordering layer.

    A *way* is one of the ways the problem holds for an action
    (``PlanningProblem.ways``); way ids ascend in (action, effect) order,
    and a STRIPS action is its one effect-0 way. ``graphplan.GraphContext``
    numbers its nodes from the same tuple in the same order, so way ids
    equal graph node ids by construction. Per way:
    ``condition`` (action precondition plus effect condition),
    ``implied_deletes`` and ``adds``. Per atom, as ascending lists keyed
    only by atoms that occur: ``adders`` (ways adding it),
    ``implied_deleters`` (ways whose implied deletes hold it) and
    ``condition_users`` (ways whose condition holds it).

    Built once per top-level call and passed down; nothing keeps it after
    the call returns.
    """

    def __init__(self, problem: PlanningProblem):
        ways = chain.from_iterable(problem.ways)
        self.condition, self.adds, self.implied_deletes = \
            tuple(zip(*ways)) or ((), (), ())
        if problem.is_adl:  # effects i >= 1 imply more than their deletes
            self.implied_deletes = tuple(
                implied_deletes(action, i) for action in problem.actions
                for i in range(len(action.effects)))
        n = len(problem.atoms)
        self.adders = _postings(self.adds, n)
        self.implied_deleters = _postings(self.implied_deletes, n)
        self.condition_users = _postings(self.condition, n)
        self.addable = frozenset(self.adders)

    def view(self, anchor, false_atoms=()) -> "UsableActions":
        """The ways usable while the anchor must stay true and the false
        atoms stay false: block the implied deleters of the anchor and the
        condition users of the false atoms. A way dies with its action's
        effect-0 way without a rule of its own: its condition holds the
        action's precondition and its implied deletes hold the
        unconditional deletes, so whatever blocks effect 0 blocks it too."""
        blocked: set = set()
        for p in anchor:
            blocked.update(self.implied_deleters.get(p, ()))
        for p in false_atoms:
            blocked.update(self.condition_users.get(p, ()))
        return UsableActions(self, blocked)


def _postings(sets, n: int) -> dict:
    """Atom -> the ascending indices of the sets holding it, for each of
    the ``n`` atoms that some set holds."""
    lists = [[] for _ in range(n)]
    for w, atoms in enumerate(sets):
        for p in atoms:
            lists[p].append(w)
    return {p: ways for p, ways in enumerate(lists) if ways}


class UsableActions:
    """Action view used by the achievability tests: a set of blocked ways
    of a ProblemIndex; every other way survives. Caches the union of add
    effects."""

    def __init__(self, index: ProblemIndex, blocked):
        self.index = index
        self.blocked = frozenset(blocked)
        self._addable = None

    def adds(self, p: int) -> bool:
        """Whether some surviving way adds p."""
        return any(w not in self.blocked for w in self.index.adders.get(p, ()))

    def addable_atoms(self) -> frozenset:
        """Every addable atom, minus those whose adders are all blocked: only
        the atoms added by blocked ways are rechecked."""
        if self._addable is None:
            recheck = set().union(*(self.index.adds[w] for w in self.blocked))
            self._addable = self.index.addable - {
                p for p in recheck if not self.adds(p)}
        return self._addable

    def achieving_conditions(self, p: int):
        """For each surviving way to add p, in ascending (action, effect)
        order: the full condition set that the one-step test must find
        achievers for."""
        index = self.index
        for w in index.adders.get(p, ()):
            if w not in self.blocked:
                yield index.condition[w]


def implied_deletes(action: AdlAction, i: int) -> frozenset:
    """Negative effects implied by firing effect i: the unconditional
    deletes plus, for i != 0, the deletes of every effect whose condition is
    entailed by effect i's condition."""
    eff0 = action.effects[0]
    if i == 0:
        return eff0.deletes
    pre_i = action.effects[i].condition
    out = set(eff0.deletes)
    for j, eff in enumerate(action.effects):
        if j != 0 and eff.condition <= pre_i:
            out |= eff.deletes
    return frozenset(out)


def compute_f_da(problem: PlanningProblem, anchor,
                 index: ProblemIndex = None) -> frozenset:
    """Atoms that are false whenever an anchor atom has just been achieved:
    per anchor atom, the intersection of the implied deletes of the ways
    that add it; unioned over the anchor. An atom with no achiever
    contributes nothing (an unachievable anchor carries no delete
    information)."""
    if index is None:
        index = ProblemIndex(problem)
    out: set = set()
    for atom in anchor:
        ways = index.adders.get(atom)
        if ways:
            out |= index.implied_deletes[ways[0]].intersection(
                *(index.implied_deletes[w] for w in ways[1:]))
    return frozenset(out)


@dataclass(frozen=True)
class FixpointResult:
    f_star: frozenset
    o_star: UsableActions
    iterations: int


def possibly_achievable(p: int, view: UsableActions) -> bool:
    """One-step achievability: some surviving way of adding p whose every
    condition atom is an add effect of some surviving action. No state test
    is performed (atoms are assumed absent) and no deeper regression is
    attempted."""
    addable = view.addable_atoms()
    for conditions in view.achieving_conditions(p):
        if conditions <= addable:
            return True
    return False


def fixpoint_reduce(problem: PlanningProblem, anchor,
                    index: ProblemIndex = None) -> FixpointResult:
    """Shrink the always-deleted set by removing atoms the surviving actions
    could re-achieve, rebuilding the view from the index after every
    removal.

    Sweeps over a snapshot of the current set in ascending atom order;
    terminates within |F_DA| + 1 sweeps since every continuing sweep removed
    at least one atom.
    """
    if index is None:
        index = ProblemIndex(problem)
    anchor = frozenset(anchor)
    f_star = set(compute_f_da(problem, anchor, index))
    view = index.view(anchor, f_star)
    sweeps = 0
    fixpoint_reached = False
    while not fixpoint_reached:
        sweeps += 1
        fixpoint_reached = True
        for f in sorted(f_star):
            if f not in f_star:
                continue
            if possibly_achievable(f, view):
                f_star.discard(f)
                view = index.view(anchor, f_star)
                fixpoint_reached = False
    return FixpointResult(frozenset(f_star), view, sweeps)


# --- atomic orderings --------------------------------------------------------

def order_e(problem: PlanningProblem, graph: PlanningGraph, b: int,
            a: int, index: ProblemIndex = None) -> OrderingVerdict:
    """Graph-based test: b ordered before a iff no way usable while a stays
    true and a's false set stays false adds b (vacuously true with no
    achievers). When the anchor never enters the graph the ordering holds
    trivially (no state achieves a)."""
    if a == b:
        raise ValueError("ordering needs two distinct goals")
    try:
        f_atoms = false_set(graph, {a})
    except AnchorUnreachable:
        return OrderingVerdict("e", True, trivial=True)
    if index is None:
        index = ProblemIndex(problem)
    return OrderingVerdict("e", not index.view({a}, f_atoms).adds(b))


def order_h(problem: PlanningProblem, b: int, a: int,
            index: ProblemIndex = None) -> OrderingVerdict:
    """Direct-analysis test: b ordered before a iff b is not one-step
    achievable with the fixpoint's surviving actions. Cannot detect trivial
    orderings (it has no reachability information)."""
    if a == b:
        raise ValueError("ordering needs two distinct goals")
    fx = fixpoint_reduce(problem, {a}, index)
    return OrderingVerdict("h", not possibly_achievable(b, fx.o_star))
