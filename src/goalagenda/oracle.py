"""Exhaustive ground truth on small instances.

Enumerates the reachable state space once per problem as int bitmasks (bit
i for atom i), expanding each state with ``model.transitions`` over one
``SuccessorTable`` (the forward planner's successor function too), and
records per state the adds of the transitions that entered it; the states
some transition entered while adding an atom are read off that record for
the atoms asked about.
Deciding the exact orderings is as hard as planning, so this enumeration
is the one costly object: the caller builds it once, and every exact test
(``decide_reasonable``, ``decide_forced``, ``find_deadlocks``,
``check_invertibility``) takes it as its only input and reads the problem
off it. The ordering tests answer with ``ordering.OrderingVerdict``, the
type the approximations answer with too. The exact ordering questions are
answered against the enumeration: take the recorded states of the anchor
atom in which the other goal is false, then ask whether the other goal is
reachable from each of those states under the (possibly reduced) action
set. One breadth-first search per ordering answers that: it starts from
each of those states in discovery order and shares its visited states
across them, since a state visited by an earlier start whose search never
found the goal cannot reach it either, and is skipped; the first search
that finds the goal refutes the ordering, and later anchor states are never
read. The reasonable ordering bans the actions that delete the anchor atom
in some effect, read off one deletes record that the enumeration builds in
one pass over the actions; the forced ordering bans none. The verification
matrix decides every pair through the same two entry points, the forced
one only where the reasonable one holds: both start from the same anchor
states, and the forced search may take every transition the reasonable one
takes, so a pair reasonable refutes is refuted by forced too.
Also detects deadlocks, and certifies invertibility against the
transitions: an action that labels no edge never runs and is exempt.
Everything here is exponential by design; the default state budget keeps it
at desk scale, and verdicts past the budget are "unknown", never false.
An enumeration past its budget raises ``model.LimitExceeded``, the one
exception every exhausted budget raises.
Every search reads the masks; states become frozensets only where they leave
the module: witness states, deadlocks and ``ReachabilityIndex.states``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from .agenda import build_goal_graph
from .model import (
    MAX_STATES,
    LimitExceeded,
    PlanningProblem,
    SuccessorTable,
    _unwind,
    check_atom_ids,
    mask_ids,
    mask_of,
    transitions,
)
from .ordering import OrderingVerdict, ProblemIndex


@dataclass
class ReachabilityIndex:
    """The problem enumerated, its reachable states in discovery order as
    int bitmasks (bit i for atom i), per state the OR of the adds of the
    transitions that entered it, per state its ``(action_id, successor
    index)`` edges in action-id order, and per atom the ids of the actions
    that delete it in some effect. ``states`` is the same states as
    frozensets of atom ids, and ``entered(atom)`` the ascending indices of
    the states some transition entered while adding the atom; both are
    built on first read and kept. The exact tests take this record alone
    and read ``problem`` from it; ``verify_matrix`` asks ``decide_forced``
    only about the pairs ``decide_reasonable`` holds, since forced implies
    reasonable."""

    problem: PlanningProblem
    masks: tuple  # tuple[int, ...]
    entering: tuple  # per state: the OR of the adds that entered it
    edges: tuple  # per state: tuple[(action_id, successor index), ...]
    deleters: dict  # atom -> frozenset of action ids
    _entered: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @cached_property
    def states(self) -> tuple:
        return tuple(frozenset(mask_ids(m)) for m in self.masks)

    def entered(self, atom: int) -> tuple:
        states = self._entered.get(atom)
        if states is None:
            entering = self.entering
            states = self._entered[atom] = tuple(compress(
                range(len(entering)), map((1 << atom).__and__, entering)))
        return states


def enumerate_reachable(problem: PlanningProblem,
                        limit: int = MAX_STATES) -> ReachabilityIndex:
    """BFS closure of the initial state under all applicable transitions.

    Self-loops are kept: an applicable action that changes nothing still
    enters its state with its adds, which matters for the anchor states of
    the exact orderings below. LimitExceeded when the states would pass
    limit.
    """
    table = SuccessorTable(problem)
    start = mask_of(problem.init)
    masks = [start]
    index_of = {start: 0}
    entering = [0]
    edges = []
    for state in masks:  # grows while it is read: breadth-first order
        out = []
        for action_id, succ, adds in transitions(table, state):
            j = index_of.get(succ)
            if j is None:
                j = len(masks)
                if j >= limit:
                    raise LimitExceeded(
                        f"reachable-state budget of {limit} exceeded")
                index_of[succ] = j
                masks.append(succ)
                entering.append(0)
            out.append((action_id, j))
            entering[j] |= adds
        edges.append(tuple(out))
    return ReachabilityIndex(
        problem=problem,
        masks=tuple(masks),
        entering=tuple(entering),
        edges=tuple(edges),
        deleters=_deleters(problem),
    )


def _deleters(problem: PlanningProblem) -> dict:
    """Per atom, the ids of the actions that delete it in some effect, by
    one pass over the actions; atoms no action deletes are absent."""
    deleters: dict = {}
    for action_id, ways in enumerate(problem.ways):
        for _, _, deletes in ways:
            for atom in deletes:
                deleters.setdefault(atom, []).append(action_id)
    return {atom: frozenset(ids) for atom, ids in deleters.items()}


def _decide(index: ReachabilityIndex, relation: str, b: int, a: int,
            banned: frozenset) -> OrderingVerdict:
    """Breadth-first search over the transitions of the actions not in
    ``banned``, from each anchor state (a state just entered by a
    transition that added a, with b still false) in discovery order, with
    one ``parents`` map shared by all the searches. A search that ends
    without finding b has visited everything its states reach, so a state
    it visited cannot reach b and a later search skips it. The first
    dequeued state holding b refutes the ordering, and the anchor states
    after it are never read; the witness is that search's anchor state and
    the shortest plan read back through ``parents``, the same one a fresh
    search from that anchor state would find. With no anchor state the
    ordering holds trivially. ValueError unless b and a are atom ids of the
    problem."""
    check_atom_ids(index.problem, b, a)
    masks = index.masks
    bit = 1 << b
    parents: dict = {}
    for start in index.entered(a):
        if masks[start] & bit or start in parents:
            continue
        parents[start] = None
        queue = deque([start])
        while queue:
            i = queue.popleft()
            if masks[i] & bit:
                witness = (frozenset(mask_ids(masks[start])),
                           _unwind(parents, i))
                return OrderingVerdict(relation, holds=False, trivial=False,
                                       witness=witness)
            for action_id, j in index.edges[i]:
                if action_id not in banned and j not in parents:
                    parents[j] = (i, action_id)
                    queue.append(j)
    return OrderingVerdict(relation, holds=True, trivial=not parents)


def decide_reasonable(index: ReachabilityIndex, b: int,
                      a: int) -> OrderingVerdict:
    """Exact test: from every reachable state where a was just achieved with
    b false, is b unreachable using only the actions that never delete a?"""
    return _decide(index, "r", b, a, index.deleters.get(a, frozenset()))


def decide_forced(index: ReachabilityIndex, b: int,
                  a: int) -> OrderingVerdict:
    """Exact test with the full action set: achieving a with b false is a
    dead end for b."""
    return _decide(index, "f", b, a, frozenset())


def find_deadlocks(index: ReachabilityIndex):
    """Reachable states from which no goal state is reachable, in discovery
    order. An unsolvable problem lists every reachable state."""
    masks = index.masks
    n = len(masks)
    reverse = [[] for _ in range(n)]
    for i, out in enumerate(index.edges):
        for _, j in out:
            reverse[j].append(i)
    can_reach = [False] * n
    queue = deque()
    goals = mask_of(index.problem.goals)
    for i, state in enumerate(masks):
        if state & goals == goals:
            can_reach[i] = True
            queue.append(i)
    while queue:
        j = queue.popleft()
        for i in reverse[j]:
            if not can_reach[i]:
                can_reach[i] = True
                queue.append(i)
    return [frozenset(mask_ids(masks[i])) for i in range(n)
            if not can_reach[i]]


# --- invertibility -----------------------------------------------------------

class ActionInvertibility(NamedTuple):
    action_id: int
    inverse_id: int  # -1 when none found
    delete_within_pre: bool
    adds_false_when_applicable: bool


class InvertibilityReport(NamedTuple):
    certified: bool
    entries: tuple  # tuple[ActionInvertibility, ...]
    notes: tuple = ()


def _inverse_ids(problem: PlanningProblem) -> list:
    """Per action o, the lowest id of an action that adds exactly o's
    deletes, deletes exactly o's adds and needs nothing outside o's
    result; -1 when there is none. Candidates are looked up by their
    (add, delete) pair, so the search is linear in the number of actions."""
    by_effects: dict = {}
    for cand_id, cand in enumerate(problem.actions):
        by_effects.setdefault((cand.add, cand.delete), []).append(cand_id)
    out = []
    for o in problem.actions:
        after = (o.pre | o.add) - o.delete
        out.append(next((cand_id for cand_id
                         in by_effects.get((o.delete, o.add), ())
                         if problem.actions[cand_id].pre <= after), -1))
    return out


def check_invertibility(index: ReachabilityIndex) -> InvertibilityReport:
    """Per action of ``index.problem``: syntactic inverse search,
    delete-within-precondition check, and the exhaustive check that its
    adds are all false in every reachable state it applies in, read off the
    index's edges. Certifies only when all three hold for every action that
    labels some edge: an action applicable in no reachable state never runs
    and needs no inverse."""
    problem = index.problem
    if problem.is_adl:
        raise ValueError("invertibility checking is defined for STRIPS only")
    actions = problem.actions
    semantic = [True] * len(actions)
    ran = set()
    adds = [mask_of(action.add) for action in actions]
    for state, out in zip(index.masks, index.edges):
        for action_id, _ in out:
            ran.add(action_id)
            if adds[action_id] & state:
                semantic[action_id] = False
    entries = []
    notes = []
    all_ok = True
    inverse_ids = _inverse_ids(problem)
    for action_id, action in enumerate(actions):
        inverse_id = inverse_ids[action_id]
        del_ok = action.delete <= action.pre
        entries.append(ActionInvertibility(action_id, inverse_id, del_ok,
                                           semantic[action_id]))
        if inverse_id < 0:
            if del_ok:
                notes.append(f"{action.name}: no inverse action "
                             "(deletes only its own preconditions)")
            else:
                notes.append(f"{action.name}: no inverse action "
                             "(deletes atoms outside its precondition)")
        if not del_ok:
            notes.append(f"{action.name}: delete list not within precondition")
        if action_id in ran:
            all_ok = all_ok and inverse_id >= 0 and del_ok \
                and semantic[action_id]
    return InvertibilityReport(
        certified=all_ok,
        entries=tuple(entries),
        notes=tuple(notes),
    )


# --- verification matrix -----------------------------------------------------

def verify_matrix(problem: PlanningProblem, graph=None,
                  limit: int = MAX_STATES) -> dict:
    """Approximations vs exact orderings over every ordered goal pair.

    The e and h columns are read off the goal graphs, which compute one
    false set or one fixpoint per anchor goal; both share one ProblemIndex.
    The r and f columns are decide_reasonable's and decide_forced's
    verdicts over one enumeration. decide_forced runs only where r holds:
    a forced ordering is reasonable too, since its search starts from the
    same anchor states and may take every transition the reasonable
    search takes, so a refuted r row has f false and f_trivial equal to
    r_trivial (false).

    Oracle columns are null when the state budget is exceeded (unknown,
    never asserted either way).
    """
    goals = sorted(problem.goals)
    if len(goals) >= 2:
        problem_index = ProblemIndex(problem)
        e_graph = build_goal_graph(problem_index, "e", graph)
        h_graph = build_goal_graph(problem_index, "h")
    try:
        index = enumerate_reachable(problem, limit)
    except LimitExceeded:
        index = None

    pairs = []
    names = problem.atoms.name
    for a in goals:
        for b in goals:
            if a == b:
                continue
            row = {
                "before": names(b),
                "after": names(a),
                "e": (b, a) in e_graph.edges,
                "e_trivial": (b, a) in e_graph.trivial_edges,
                "h": (b, a) in h_graph.edges,
                "r": None,
                "r_trivial": None,
                "f": None,
                "f_trivial": None,
            }
            if index is not None:
                r = decide_reasonable(index, b, a)
                f = decide_forced(index, b, a) if r.holds else r
                row.update(r=r.holds, r_trivial=r.trivial,
                           f=f.holds, f_trivial=f.trivial)
            pairs.append(row)
    return {
        "problem": problem.name,
        "limit": limit,
        "limit_exceeded": index is None,
        "states": None if index is None else len(index.masks),
        "pairs": pairs,
    }
