"""Polynomial goal-ordering approximations.

Both routes to "B should be achieved before A" are one rule over a false
set and one action view: keep the anchor true, make the false set false,
and order B first when no usable action can (re)achieve B.

* graph route (``e``): the false set is the atoms mutually exclusive
  with the anchor once the planning graph has leveled off, and B is
  ordered first when no usable way adds it;
* direct-analysis route (``h``): the false set is the atoms every
  anchor achiever deletes, shrunk by a one-step achievability fixpoint,
  and B is ordered first when it is not even one-step achievable with the
  surviving ways.

The direct route is deliberately shallow: achievability regresses exactly
one level and assumes tested atoms are absent from the state, which is what
makes it fast and occasionally wrong in both directions; the oracle module
measures that. ``ordered_before`` is the one implementation of both: it
takes an anchor goal set and candidate goals, so the agenda's goal graph
and separate-set placement call it per anchor, and ``order_e`` and
``order_h`` are the same call for one pair.

Every ordering test answers with one ``OrderingVerdict``: these two
approximations with relation "e" and "h", the oracle's exact reasonable
and forced tests with "r" and "f" and a witness when they fail.

Both routes read one ``ProblemIndex``: every way of every action, as the
problem holds them (``PlanningProblem.ways``, the one split, which the
planning graph reads too), with its condition and implied deletes, and
per atom the ways that add it, the ways whose implied deletes hold it and
the ways whose condition needs it. An action view is the set of ways
blocked by the anchor and the false set plus the atoms that only blocked
ways add, so every test is one set test over the achievers of the atom
it asks about. The index keeps its problem, so everything below the
top-level calls (``order_e``, ``order_h`` and the agenda and oracle entry
points, which build it once and pass it down) takes the index alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

from .graphplan import AnchorUnreachable, PlanningGraph, false_set
from .model import AdlAction, PlanningProblem, check_atom_ids


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
    ``implied_deletes`` and ``adds``. Per atom id, as ascending lists
    (empty for an atom no way holds): ``adders`` (ways adding it),
    ``implied_deleters`` (ways whose implied deletes hold it) and
    ``condition_users`` (ways whose condition holds it); the length of
    ``adders[p]`` is the adder count a view's lost-atom test compares
    against. ``addable`` is the set of atoms some way adds, and
    ``achievers`` keeps of each atom's adders those whose condition lies
    inside ``addable``: the part of the one-step test that no view
    changes, checked once per way.

    Built once per top-level call and passed down, with the ``problem``
    it indexes; nothing keeps it after the call returns.
    """

    def __init__(self, problem: PlanningProblem):
        self.problem = problem
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
        self.addable = frozenset(compress(range(n), self.adders))
        # the ways whose condition needs an atom that no way adds
        dead = set().union(*map(self.condition_users.__getitem__,
                                set(range(n)) - self.addable))
        self.achievers = [[w for w in ws if w not in dead]
                          for ws in self.adders] if dead else self.adders

    def view(self, anchor, false_atoms=()) -> "UsableActions":
        """The ways usable while the anchor must stay true and the false
        atoms stay false: block the implied deleters of the anchor and the
        condition users of the false atoms. A way dies with its action's
        effect-0 way without a rule of its own: its condition holds the
        action's precondition and its implied deletes hold the
        unconditional deletes, so whatever blocks effect 0 blocks it too."""
        blocked: set = set()
        for p in anchor:
            blocked.update(self.implied_deleters[p])
        for p in false_atoms:
            blocked.update(self.condition_users[p])
        return UsableActions(self, blocked)


def _postings(sets, n: int) -> list:
    """Atom id -> the ascending indices of the sets holding it, for each
    of the ``n`` atoms."""
    lists = [[] for _ in range(n)]
    for w, atoms in enumerate(sets):
        for p in atoms:
            lists[p].append(w)
    return lists


class UsableActions:
    """Action view used by the achievability tests: a set of blocked ways
    of a ProblemIndex; every other way survives. ``lost`` holds the
    addable atoms whose every adder is blocked, found by counting the
    blocked ways' adds per atom against the index's adder counts, with no
    rescan of any atom's adders; ``unusable`` adds to the blocked ways
    those whose condition needs a lost atom. Both are computed on first
    use, so the graph route, which only asks ``adds``, never counts.
    Every question is then one set test over an atom's posting list."""

    def __init__(self, index: ProblemIndex, blocked):
        self.index = index
        self.blocked = frozenset(blocked)

    def adds(self, p: int) -> bool:
        """Whether some surviving way adds p."""
        return not self.blocked.issuperset(self.index.adders[p])

    @cached_property
    def lost(self) -> frozenset:
        """The addable atoms that no surviving way adds."""
        adders = self.index.adders
        counts = Counter(chain.from_iterable(
            map(self.index.adds.__getitem__, self.blocked)))
        return frozenset(p for p, c in counts.items() if c == len(adders[p]))

    @cached_property
    def unusable(self) -> frozenset:
        """The blocked ways plus the ways whose condition holds a lost
        atom: no way here passes the one-step test."""
        users = self.index.condition_users
        return self.blocked.union(*(users[p] for p in self.lost))


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


def compute_f_da(index: ProblemIndex, anchor) -> frozenset:
    """Atoms that are false whenever an anchor atom has just been achieved:
    per anchor atom, the intersection of the implied deletes of the ways
    that add it; unioned over the anchor. An atom with no achiever
    contributes nothing (an unachievable anchor carries no delete
    information). ValueError names an anchor id that is not an atom."""
    check_atom_ids(index.problem, *anchor)
    out: set = set()
    for atom in anchor:
        ways = index.adders[atom]
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
    condition atom is an add effect of some surviving way, that is, whose
    condition lies inside the index's addable atoms and misses the view's
    lost ones. No state test is performed (atoms are assumed absent) and
    no deeper regression is attempted."""
    return not view.unusable.issuperset(view.index.achievers[p])


def fixpoint_reduce(index: ProblemIndex, anchor) -> FixpointResult:
    """Shrink the always-deleted set by removing atoms the surviving actions
    could re-achieve, rebuilding the view from the index after every
    removal.

    Sweeps over a snapshot of the current set in ascending atom order;
    terminates within |F_DA| + 1 sweeps since every continuing sweep removed
    at least one atom. The anchor ids are checked once, by compute_f_da.
    """
    anchor = frozenset(anchor)
    f_star = set(compute_f_da(index, anchor))
    view = index.view(anchor, f_star)
    sweeps = 0
    fixpoint_reached = False
    while not fixpoint_reached:
        sweeps += 1
        fixpoint_reached = True
        for f in sorted(f_star):
            if possibly_achievable(f, view):
                f_star.discard(f)
                view = index.view(anchor, f_star)
                fixpoint_reached = False
    return FixpointResult(frozenset(f_star), view, sweeps)


# --- orderings --------------------------------------------------------------

def check_method(method: str) -> str:
    """The ordering method lowercased; ValueError unless it is e or h."""
    method = method.lower()
    if method not in ("e", "h"):
        raise ValueError(f"unknown ordering method {method!r}")
    return method


def ordered_before(index: ProblemIndex, method: str, graph: PlanningGraph,
                   anchor, candidates):
    """The candidates ordered before the anchor: those that no way usable
    under the anchor's one false set adds (``e``, which reads the leveled
    planning graph), or that are not one-step achievable under its one
    fixpoint (``h``, which reads no graph). Anchor and candidates are
    collections of atom ids, each read more than once. None when the
    anchor never enters the graph (``e`` only), where every ordering
    before it holds trivially. ValueError names an id that is not an atom,
    or a method other than e and h (in either case)."""
    check_atom_ids(index.problem, *anchor, *candidates)
    if check_method(method) == "e":
        try:
            f_atoms = false_set(graph, anchor)
        except AnchorUnreachable:
            return None
        view = index.view(anchor, f_atoms)
        return frozenset(b for b in candidates if not view.adds(b))
    view = fixpoint_reduce(index, anchor).o_star
    return frozenset(b for b in candidates
                     if not possibly_achievable(b, view))


def _order_pair(problem: PlanningProblem, method: str, graph: PlanningGraph,
                b: int, a: int) -> OrderingVerdict:
    """``ordered_before`` for the one pair b, a over a new index."""
    if a == b:
        raise ValueError("ordering needs two distinct goals")
    before = ordered_before(ProblemIndex(problem), method, graph, {a}, {b})
    return OrderingVerdict(method, before is None or b in before,
                           trivial=before is None)


def order_e(problem: PlanningProblem, graph: PlanningGraph, b: int,
            a: int) -> OrderingVerdict:
    """Graph-based test: b ordered before a iff no way usable while a stays
    true and a's false set stays false adds b (vacuously true with no
    achievers). When the anchor never enters the graph the ordering holds
    trivially (no state achieves a)."""
    return _order_pair(problem, "e", graph, b, a)


def order_h(problem: PlanningProblem, b: int, a: int) -> OrderingVerdict:
    """Direct-analysis test: b ordered before a iff b is not one-step
    achievable with the fixpoint's surviving actions. Cannot detect trivial
    orderings (it has no reachability information)."""
    return _order_pair(problem, "h", None, b, a)
