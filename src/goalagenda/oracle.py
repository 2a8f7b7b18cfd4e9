"""Exhaustive ground truth on small instances.

Enumerates the reachable state space once per problem and answers the exact
ordering questions against it: collect every reachable state that some
applicable transition just entered while adding the anchor atom, then ask
whether the other goal is reachable from each of those states under the
(possibly reduced) action set. Also detects deadlocks and certifies
invertibility. Everything here is exponential by design; the default state
budget keeps it at desk scale, and verdicts past the budget are "unknown",
never false.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .agenda import build_goal_graph
from .model import (
    Plan,
    PlanningError,
    PlanningProblem,
    State,
    StripsAction,
    apply_action,
    fired_effects,
)


class LimitExceeded(PlanningError):
    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"reachable-state budget of {limit} exceeded")


DEFAULT_STATE_LIMIT = 200_000


@dataclass
class ReachabilityIndex:
    problem: PlanningProblem
    states: tuple  # tuple[frozenset, ...] in discovery order
    index_of: dict  # canonical tuple -> index
    producers: tuple  # per state: frozenset of entering action ids
    entry_adds: tuple  # per state: atoms added by some entering transition
    edges: tuple  # per state: tuple[(action_id, successor index), ...]

    def find(self, state) -> int:
        return self.index_of[tuple(sorted(state))]

    def __post_init__(self):
        self._atomset_cache: dict = {}


def _effective_adds(state: State, action) -> frozenset:
    if isinstance(action, StripsAction):
        return action.add
    adds: set = set()
    for eff in fired_effects(state, action):
        adds |= eff.adds
    return frozenset(adds)


def enumerate_reachable(problem: PlanningProblem,
                        limit: int = DEFAULT_STATE_LIMIT) -> ReachabilityIndex:
    """BFS closure of the initial state under all applicable transitions.

    Self-loops are kept: an applicable action that changes nothing still
    enters its state with its add set, which matters for the generic-state
    collection below.
    """
    start = frozenset(problem.init)
    states = [start]
    index_of = {tuple(sorted(start)): 0}
    producers = [set()]
    entry_adds = [set()]
    edges = []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        state = states[i]
        out = []
        for action_id, action in enumerate(problem.actions):
            if not action.pre <= state:
                continue
            succ = apply_action(state, action)
            key = tuple(sorted(succ))
            j = index_of.get(key)
            if j is None:
                j = len(states)
                if j >= limit:
                    raise LimitExceeded(limit)
                index_of[key] = j
                states.append(succ)
                producers.append(set())
                entry_adds.append(set())
                queue.append(j)
            out.append((action_id, j))
            producers[j].add(action_id)
            entry_adds[j] |= _effective_adds(state, action)
        edges.append(tuple(out))
    return ReachabilityIndex(
        problem=problem,
        states=tuple(states),
        index_of=index_of,
        producers=tuple(frozenset(p) for p in producers),
        entry_adds=tuple(frozenset(e) for e in entry_adds),
        edges=tuple(edges),
    )


@dataclass(frozen=True)
class OrderingVerdict:
    relation: str  # "r" or "f"
    holds: bool
    trivial: bool
    witness: tuple = None  # (state, Plan) refuting the ordering


def _deleters_of(problem: PlanningProblem, atom: int) -> frozenset:
    """Actions that can delete the atom (any effect, for ADL)."""
    out = set()
    for i, action in enumerate(problem.actions):
        if isinstance(action, StripsAction):
            if atom in action.delete:
                out.add(i)
        else:
            if any(atom in eff.deletes for eff in action.effects):
                out.add(i)
    return frozenset(out)


def _strongly_connected(n: int, successors) -> tuple:
    """Iterative Tarjan. Returns (component id per node, components), with
    components numbered so that every cross-component edge points to a
    lower-numbered (already finished) component."""
    visit = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    tarjan_stack: list = []
    comp_of = [-1] * n
    comps: list = []
    counter = 0
    for root in range(n):
        if visit[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, edge_pos = work.pop()
            if edge_pos == 0:
                visit[v] = low[v] = counter
                counter += 1
                tarjan_stack.append(v)
                on_stack[v] = True
            descend = False
            edges = successors[v]
            for k in range(edge_pos, len(edges)):
                w = edges[k]
                if visit[w] == -1:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    descend = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], visit[w])
            if descend:
                continue
            if low[v] == visit[v]:
                comp = []
                while True:
                    w = tarjan_stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp_of, comps


def _reachable_atomsets(index: ReachabilityIndex, allowed: frozenset):
    """Per state: the union of atoms over all states reachable from it using
    only allowed actions. Computed once per allowed-set by collapsing the
    restricted graph to its strongly connected components and folding atom
    unions along the component order; cached on the index."""
    cached = index._atomset_cache.get(allowed)
    if cached is not None:
        return cached
    n = len(index.states)
    successors = [
        sorted({j for action_id, j in out if action_id in allowed and j != i})
        for i, out in enumerate(index.edges)
    ]
    comp_of, comps = _strongly_connected(n, successors)
    comp_atoms: list = []
    for comp_id, members in enumerate(comps):
        atoms: set = set()
        for i in members:
            atoms |= index.states[i]
            for j in successors[i]:
                if comp_of[j] != comp_id:
                    atoms |= comp_atoms[comp_of[j]]
        comp_atoms.append(frozenset(atoms))
    atomsets = tuple(comp_atoms[comp_of[i]] for i in range(n))
    index._atomset_cache[allowed] = atomsets
    return atomsets


def _anchor_states(index: ReachabilityIndex, a: int, b: int):
    """Indices of reachable states just entered by an action whose effective
    adds contain a, with b still false."""
    return [i for i, state in enumerate(index.states)
            if a in index.entry_adds[i] and b not in state]


def _witness_plan(index: ReachabilityIndex, start: int, target_atom: int,
                  allowed: frozenset):
    """BFS over the restricted index from start to a state containing the
    atom; returns (state, Plan)."""
    parents = {start: None}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        if target_atom in index.states[i]:
            actions = []
            while parents[i] is not None:
                i, action_id = parents[i]
                actions.append(action_id)
            actions.reverse()
            return (index.states[start], Plan.sequential(actions))
        for action_id, j in index.edges[i]:
            if action_id in allowed and j not in parents:
                parents[j] = (i, action_id)
                queue.append(j)
    raise AssertionError("witness search expected the atom to be reachable")


def _decide(index: ReachabilityIndex, relation: str, b: int, a: int,
            allowed: frozenset) -> OrderingVerdict:
    anchor_states = _anchor_states(index, a, b)
    if not anchor_states:
        return OrderingVerdict(relation, holds=True, trivial=True)
    atomsets = _reachable_atomsets(index, allowed)
    for i in anchor_states:
        if b in atomsets[i]:
            witness = _witness_plan(index, i, b, allowed)
            return OrderingVerdict(relation, holds=False, trivial=False,
                                   witness=witness)
    return OrderingVerdict(relation, holds=True, trivial=False)


def decide_reasonable(problem: PlanningProblem, b: int, a: int,
                      index: ReachabilityIndex = None,
                      limit: int = DEFAULT_STATE_LIMIT) -> OrderingVerdict:
    """Exact test: from every reachable state where a was just achieved with
    b false, is b unreachable using only the actions that never delete a?"""
    if index is None:
        index = enumerate_reachable(problem, limit)
    allowed = frozenset(range(len(problem.actions))) - _deleters_of(problem, a)
    return _decide(index, "r", b, a, allowed)


def decide_forced(problem: PlanningProblem, b: int, a: int,
                  index: ReachabilityIndex = None,
                  limit: int = DEFAULT_STATE_LIMIT) -> OrderingVerdict:
    """Exact test with the full action set: achieving a with b false is a
    dead end for b."""
    if index is None:
        index = enumerate_reachable(problem, limit)
    allowed = frozenset(range(len(problem.actions)))
    return _decide(index, "f", b, a, allowed)


def find_deadlocks(problem: PlanningProblem,
                   index: ReachabilityIndex = None,
                   limit: int = DEFAULT_STATE_LIMIT):
    """Reachable states from which no goal state is reachable, in discovery
    order. An unsolvable problem lists every reachable state."""
    if index is None:
        index = enumerate_reachable(problem, limit)
    n = len(index.states)
    reverse = [[] for _ in range(n)]
    for i, out in enumerate(index.edges):
        for _, j in out:
            reverse[j].append(i)
    can_reach = [False] * n
    queue = deque()
    for i, state in enumerate(index.states):
        if problem.goals <= state:
            can_reach[i] = True
            queue.append(i)
    while queue:
        j = queue.popleft()
        for i in reverse[j]:
            if not can_reach[i]:
                can_reach[i] = True
                queue.append(i)
    return [index.states[i] for i in range(n) if not can_reach[i]]


# --- invertibility -----------------------------------------------------------

@dataclass(frozen=True)
class ActionInvertibility:
    action_id: int
    inverse_id: int  # -1 when none found
    delete_within_pre: bool
    adds_false_when_applicable: bool = None  # None: not exhaustively checked

    @property
    def has_inverse(self) -> bool:
        return self.inverse_id >= 0


@dataclass(frozen=True)
class InvertibilityReport:
    certified: bool
    semantic_checked: bool
    entries: tuple  # tuple[ActionInvertibility, ...]
    notes: tuple = ()


def _is_inverse(o: StripsAction, cand: StripsAction) -> bool:
    return (cand.add == o.delete
            and cand.delete == o.add
            and cand.pre <= (o.pre | o.add) - o.delete)


def check_invertibility(problem: PlanningProblem,
                        index: ReachabilityIndex = None) -> InvertibilityReport:
    """Per action: syntactic inverse search, delete-within-precondition
    check, and (when an index is available) the exhaustive check that an
    applicable action's adds are all false. Certifies only when all three
    hold for every action; without an index the semantic side stays
    unverified and nothing is certified."""
    if problem.is_adl:
        raise ValueError("invertibility checking is defined for STRIPS only")
    entries = []
    notes = []
    all_ok = True
    for action_id, action in enumerate(problem.actions):
        inverse_id = -1
        for cand_id, cand in enumerate(problem.actions):
            if _is_inverse(action, cand):
                inverse_id = cand_id
                break
        del_ok = action.delete <= action.pre
        semantic = None
        if index is not None:
            semantic = all(
                not (action.add & state)
                for state in index.states if action.pre <= state
            )
        entry = ActionInvertibility(action_id, inverse_id, del_ok, semantic)
        entries.append(entry)
        if inverse_id < 0:
            if action.delete <= action.pre:
                notes.append(f"{action.name}: no inverse action "
                             "(deletes only its own preconditions)")
            else:
                notes.append(f"{action.name}: no inverse action "
                             "(deletes atoms outside its precondition)")
        if not del_ok:
            notes.append(f"{action.name}: delete list not within precondition")
        all_ok = all_ok and inverse_id >= 0 and del_ok and bool(semantic)
    return InvertibilityReport(
        certified=bool(all_ok) and index is not None,
        semantic_checked=index is not None,
        entries=tuple(entries),
        notes=tuple(notes),
    )


# --- relaxed achievability ---------------------------------------------------

def relaxed_achievable(state: State, p: int, actions) -> bool:
    """Least fixpoint of the achievability recursion: p is achievable from
    the state when it already holds or some action adds it with every
    condition achievable. Equivalent to delete-free reachability."""
    achievable = set(state)
    changed = True
    while changed:
        changed = False
        for action in actions:
            if isinstance(action, StripsAction):
                if action.pre <= achievable and not (action.add <= achievable):
                    achievable |= action.add
                    changed = True
            else:
                pre0 = action.effects[0].condition
                for eff in action.effects:
                    cond = pre0 | eff.condition
                    if cond <= achievable and not (eff.adds <= achievable):
                        achievable |= eff.adds
                        changed = True
    return p in achievable


# --- verification matrix -----------------------------------------------------

def verify_matrix(problem: PlanningProblem, graph=None,
                  limit: int = DEFAULT_STATE_LIMIT) -> dict:
    """Approximations vs exact orderings over every ordered goal pair.

    The e and h columns are read off the goal graphs, which compute one
    false set or one fixpoint per anchor goal.

    Oracle columns are null when the state budget is exceeded (unknown,
    never asserted either way).
    """
    goals = sorted(problem.goals)
    if len(goals) >= 2:
        e_graph = build_goal_graph(problem, "e", graph)
        h_graph = build_goal_graph(problem, "h")
    index = None
    limit_hit = False
    try:
        index = enumerate_reachable(problem, limit)
    except LimitExceeded:
        limit_hit = True

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
                r = decide_reasonable(problem, b, a, index=index)
                f = decide_forced(problem, b, a, index=index)
                row.update(r=r.holds, r_trivial=r.trivial,
                           f=f.holds, f_trivial=f.trivial)
            pairs.append(row)
    return {
        "problem": problem.name,
        "limit": limit,
        "limit_exceeded": limit_hit,
        "states": None if limit_hit else len(index.states),
        "pairs": pairs,
    }
