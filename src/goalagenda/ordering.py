"""Polynomial goal-ordering approximations.

Two routes to "B should be achieved before A":

* graph route: every potential achiever of B that survives removing the
  anchor's deleters needs a precondition that is mutually exclusive with the
  anchor once the planning graph has leveled off;
* direct-analysis route: start from the atoms every anchor achiever deletes,
  shrink that set by a one-step achievability fixpoint, and order B first
  when B is not even one-step achievable with the surviving actions.

Both lift to sets of goals (the union/False-set forms) for placing the
unordered goals. The direct route is deliberately shallow: achievability
regresses exactly one level and assumes tested atoms are absent from the
state, which is what makes it fast and occasionally wrong in both
directions; the oracle module measures that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphplan import AnchorUnreachable, PlanningGraph, false_set
from .model import AdlAction, PlanningProblem, StripsAction


@dataclass(frozen=True)
class OrderingDecision:
    """Outcome of one ordering test; truthiness is `holds`."""

    holds: bool
    trivial: bool = False

    def __bool__(self) -> bool:
        return self.holds


class UsableActions:
    """Action view used by the achievability tests: a set of surviving
    action ids plus, for ADL problems, the surviving effect indices per
    action. Caches the union of add effects."""

    def __init__(self, problem: PlanningProblem, action_ids,
                 surviving_effects=None):
        self.problem = problem
        self.action_ids = frozenset(action_ids)
        self.surviving_effects = surviving_effects  # dict id -> tuple[int]
        self._addable = None

    def addable_atoms(self) -> frozenset:
        if self._addable is None:
            atoms: set = set()
            for action_id in self.action_ids:
                action = self.problem.actions[action_id]
                if isinstance(action, StripsAction):
                    atoms |= action.add
                else:
                    for i in self.surviving_effects[action_id]:
                        atoms |= action.effects[i].adds
            self._addable = frozenset(atoms)
        return self._addable

    def achieving_conditions(self, p: int):
        """For each surviving way to add p: the full condition set that the
        one-step test must find achievers for."""
        for action_id in sorted(self.action_ids):
            action = self.problem.actions[action_id]
            if isinstance(action, StripsAction):
                if p in action.add:
                    yield action.pre
            else:
                pre0 = action.effects[0].condition
                for i in self.surviving_effects[action_id]:
                    eff = action.effects[i]
                    if p in eff.adds:
                        yield eff.condition | pre0


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


def _always_deleted_for(action: AdlAction, atom: int):
    """D(o) wrt one target atom: intersection of implied-delete sets over
    the effects that add the atom; None when no effect adds it."""
    d = None
    for i, eff in enumerate(action.effects):
        if atom in eff.adds:
            di = implied_deletes(action, i)
            d = di if d is None else d & di
    return d


def reduced_actions(problem: PlanningProblem, anchor) -> UsableActions:
    """Actions that cannot delete any anchor atom.

    STRIPS: drop actions whose delete list meets the anchor. ADL: drop
    actions unconditionally deleting an anchor atom and, per action, the
    effects whose implied deletes meet the anchor.
    """
    return _usable_given(problem, anchor, frozenset())


def compute_f_da(problem: PlanningProblem, anchor) -> frozenset:
    """Atoms that are false whenever an anchor atom has just been achieved:
    per anchor atom, the intersection of what its achievers always delete;
    unioned over the anchor. An atom with no achiever contributes nothing
    (an unachievable anchor carries no delete information)."""
    out: set = set()
    for atom in sorted(anchor):
        intersection = None
        for action in problem.actions:
            if isinstance(action, StripsAction):
                if atom in action.add:
                    d = action.delete
                else:
                    continue
            else:
                d = _always_deleted_for(action, atom)
                if d is None:
                    continue
            intersection = d if intersection is None else intersection & d
        if intersection:
            out |= intersection
    return frozenset(out)


@dataclass(frozen=True)
class FixpointResult:
    f_star: frozenset
    o_star: UsableActions
    iterations: int


def _usable_given(problem: PlanningProblem, anchor, f_set) -> UsableActions:
    """The usable-action view for a given false-set value: anchor deleters
    out, then everything whose (unconditional) precondition meets the set;
    ADL also drops effects with an impossible condition."""
    anchor = frozenset(anchor)
    if not problem.is_adl:
        ids = [i for i, a in enumerate(problem.actions)
               if not (a.delete & anchor) and not (a.pre & f_set)]
        return UsableActions(problem, ids)
    ids = []
    surviving: dict = {}
    for i, action in enumerate(problem.actions):
        eff0 = action.effects[0]
        if eff0.deletes & anchor or eff0.condition & f_set:
            continue
        keep = tuple(
            k for k in range(len(action.effects))
            if not (implied_deletes(action, k) & anchor)
            and not (action.effects[k].condition & f_set)
        )
        if 0 in keep:
            ids.append(i)
            surviving[i] = keep
    return UsableActions(problem, ids, surviving)


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


def fixpoint_reduce(problem: PlanningProblem, anchor) -> FixpointResult:
    """Shrink the always-deleted set by removing atoms the surviving actions
    could re-achieve, recomputing the action view after every removal.

    Sweeps over a snapshot of the current set in ascending atom order;
    terminates within |F_DA| + 1 sweeps since every continuing sweep removed
    at least one atom.
    """
    anchor = frozenset(anchor)
    f_star = set(compute_f_da(problem, anchor))
    view = _usable_given(problem, anchor, f_star)
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
                view = _usable_given(problem, anchor, f_star)
                fixpoint_reached = False
    return FixpointResult(frozenset(f_star), view, sweeps)


# --- atomic orderings --------------------------------------------------------

def _graph_test(problem: PlanningProblem, f_atoms, anchor, b: int) -> bool:
    """True when every surviving achiever of b needs a condition from the
    false set (vacuously true with no achievers)."""
    anchor = frozenset(anchor)
    for action in problem.actions:
        if isinstance(action, StripsAction):
            if b in action.add and not (action.delete & anchor):
                if not (action.pre & f_atoms):
                    return False
        else:
            pre0 = action.effects[0].condition
            for i, eff in enumerate(action.effects):
                if b in eff.adds and not (implied_deletes(action, i) & anchor):
                    if not ((eff.condition | pre0) & f_atoms):
                        return False
    return True


def order_e(problem: PlanningProblem, graph: PlanningGraph, b: int,
            a: int) -> OrderingDecision:
    """Graph-based test for ordering b before a. When the anchor never
    enters the graph the ordering holds trivially (no state achieves a)."""
    if a == b:
        raise ValueError("ordering needs two distinct goals")
    try:
        fs = false_set(graph, {a})
    except AnchorUnreachable:
        return OrderingDecision(True, trivial=True)
    return OrderingDecision(_graph_test(problem, fs.atoms, {a}, b))


def order_h(problem: PlanningProblem, b: int, a: int) -> OrderingDecision:
    """Direct-analysis test: b ordered before a iff b is not one-step
    achievable with the fixpoint's surviving actions. Cannot detect trivial
    orderings (it has no reachability information)."""
    if a == b:
        raise ValueError("ordering needs two distinct goals")
    fx = fixpoint_reduce(problem, {a})
    return OrderingDecision(not possibly_achievable(b, fx.o_star))


# --- set-level orderings -----------------------------------------------------

def order_E(problem: PlanningProblem, graph: PlanningGraph, bs, as_) -> bool:
    """Set form of the graph test: some member of bs passes the atomic test
    against the combined false set and reduced action set of as_.

    Propagates AnchorUnreachable like false_set does.
    """
    bs, as_ = frozenset(bs), frozenset(as_)
    if not bs or not as_:
        raise ValueError("goal sets must be nonempty")
    if bs & as_:
        raise ValueError("goal sets must be disjoint")
    fs = false_set(graph, as_)
    return any(_graph_test(problem, fs.atoms, as_, b) for b in sorted(bs))


def order_H(problem: PlanningProblem, bs, as_) -> bool:
    """Set form of the direct test: union the per-atom always-deleted sets,
    run the same fixpoint, and require some member of bs to be not possibly
    achievable."""
    bs, as_ = frozenset(bs), frozenset(as_)
    if not bs or not as_:
        raise ValueError("goal sets must be nonempty")
    if bs & as_:
        raise ValueError("goal sets must be disjoint")
    fx = fixpoint_reduce(problem, as_)
    return any(not possibly_achievable(b, fx.o_star) for b in sorted(bs))
