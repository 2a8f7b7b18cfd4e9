"""Layered planning graph with binary mutex propagation, and the backward
search that uses it as the STRIPS base planner.

The graph is grown until it levels off: the first layer t whose fact set and
mutex relation equal layer t+1's. Mutex rules are the standard ones: two
actions are mutex when one deletes a precondition or add effect of the other
or their preconditions contain a mutually exclusive fact pair; two facts are
mutex when every pair of achievers (no-ops included) is mutex. Each layer is
stepped by the one kernel in ``kernel``, over int bitmasks: q is mutex with
p when every achiever of q lies in R(p), the AND of the action-mutex rows of
p's achievers.

ADL actions enter the graph split into one node per conditional effect,
carrying the action precondition plus the effect condition; no cross-effect
mutex inference is attempted, which is why the graph-based ordering can be
weaker than direct analysis on conditional-effect domains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import GraphKernel, _mask, backend as kernel_backend
from .model import (
    Plan,
    PlanningError,
    PlanningProblem,
    ResourceLimit,
    StripsAction,
    Unsolvable,
)


class AnchorUnreachable(PlanningError):
    """An anchor atom never enters the planning graph: the ordering against
    it holds trivially (there is no state achieving it at all)."""

    def __init__(self, atom: int):
        self.atom = atom
        super().__init__(f"anchor atom {atom} never appears in the graph")


@dataclass(frozen=True)
class GraphNode:
    """An action-layer node: a ground action, or one conditional effect of
    one (effect_index >= 1), or implicitly a no-op (not materialized)."""

    action_id: int
    effect_index: int  # 0 for STRIPS actions and unconditional ADL parts
    name: str
    pre: frozenset
    add: frozenset
    delete: frozenset


def graph_nodes(problem: PlanningProblem) -> tuple:
    nodes = []
    for action_id, action in enumerate(problem.actions):
        if isinstance(action, StripsAction):
            nodes.append(GraphNode(action_id, 0, action.name, action.pre,
                                   action.add, action.delete))
        else:
            pre0 = action.effects[0].condition
            for i, eff in enumerate(action.effects):
                nodes.append(GraphNode(
                    action_id, i,
                    action.name if i == 0 else f"{action.name}#{i}",
                    pre0 | eff.condition, eff.adds, eff.deletes))
    return tuple(nodes)


@dataclass(frozen=True)
class PlanningGraph:
    problem: PlanningProblem
    nodes: tuple  # tuple[GraphNode, ...]; no-op for fact f has id len(nodes)+f
    fact_layers: tuple  # tuple[frozenset[int], ...], layers 0..leveled_at+1
    action_layers: tuple  # tuple[tuple[int, ...], ...] node ids incl. no-ops
    fact_mutex: tuple  # per fact layer: tuple[int, ...] row bitmasks or None
    action_mutex: tuple  # per action layer: tuple[int, ...] or None
    mutex_counts: tuple  # fact-mutex pair count per fact layer
    leveled_at: int
    backend: str

    @property
    def n_real_nodes(self) -> int:
        return len(self.nodes)

    def noop_id(self, fact: int) -> int:
        return len(self.nodes) + fact

    def leveled_rows(self):
        return self.fact_mutex[self.leveled_at]

    def is_fact_mutex(self, layer: int, p: int, q: int) -> bool:
        rows = self.fact_mutex[layer]
        if rows is None:
            raise ValueError(f"mutex rows for layer {layer} were not retained")
        return bool(rows[p] >> q & 1)

    def fact_mutex_pairs(self, layer: int):
        rows = self.fact_mutex[layer]
        pairs = set()
        for p, row in enumerate(rows):
            q = 0
            while row:
                if row & 1 and p < q:
                    pairs.add((p, q))
                row >>= 1
                q += 1
        return pairs


def _mask_to_ids(mask: int):
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _pair_count(rows) -> int:
    return sum(bin(r).count("1") for r in rows) // 2


def build_graph(problem: PlanningProblem, max_layers: int = 128,
                retain_layers: bool = True) -> PlanningGraph:
    """Grow the graph until level-off (through leveled_at + 1 layers).

    With retain_layers=False only the leveled layer's mutex rows are kept,
    which is all the false-set computation needs; backward search builds
    with retention.
    """
    nodes = graph_nodes(problem)
    n_facts = len(problem.atoms)
    kern = GraphKernel(n_facts, [(sorted(n.pre), sorted(n.add), sorted(n.delete))
                                 for n in nodes])
    fact_mask = _mask(problem.init)
    rows = [0] * n_facts

    fact_layers = [frozenset(problem.init)]
    action_layers = []
    fact_mutex = [tuple(rows) if retain_layers else None]
    action_mutex = []
    mutex_counts = [0]
    leveled_at = None

    for t in range(max_layers):
        applicable, next_mask, next_rows, act_rows = kern.step(fact_mask, rows)
        action_layers.append(tuple(applicable))
        action_mutex.append(tuple(act_rows) if retain_layers else None)
        fact_layers.append(frozenset(_mask_to_ids(next_mask)))
        mutex_counts.append(_pair_count(next_rows))
        leveled = next_mask == fact_mask and next_rows == rows
        if retain_layers or leveled:
            fact_mutex.append(tuple(next_rows))
        else:
            fact_mutex.append(None)
        fact_mask, rows = next_mask, next_rows
        if leveled:
            leveled_at = t
            break
    if leveled_at is None:
        raise ResourceLimitError(
            f"planning graph did not level off within {max_layers} layers")
    if not retain_layers:
        # keep rows only at the leveled layer (== its successor)
        fact_mutex[leveled_at] = fact_mutex[leveled_at + 1]
        for i in range(leveled_at):
            fact_mutex[i] = None
    return PlanningGraph(
        problem=problem,
        nodes=nodes,
        fact_layers=tuple(fact_layers),
        action_layers=tuple(action_layers),
        fact_mutex=tuple(fact_mutex),
        action_mutex=tuple(action_mutex),
        mutex_counts=tuple(mutex_counts),
        leveled_at=leveled_at,
        backend=kernel_backend(),
    )


class ResourceLimitError(PlanningError):
    pass


@dataclass(frozen=True)
class FalseSet:
    """Atoms that can never hold together with the anchor, per the leveled
    graph's mutex relation."""

    anchor: frozenset
    atoms: frozenset
    anchor_internal_mutex: bool = False


def false_set(graph: PlanningGraph, anchor) -> FalseSet:
    """Atoms mutex with at least one anchor member at level-off.

    Raises AnchorUnreachable when an anchor atom never enters the graph;
    callers treat that as a trivial ordering. Anchor members mutex with each
    other are excluded from the result and flagged (degenerate anchor).
    """
    anchor = frozenset(anchor)
    leveled_facts = graph.fact_layers[graph.leveled_at]
    rows = graph.leveled_rows()
    combined = 0
    for atom in sorted(anchor):
        if atom not in leveled_facts:
            raise AnchorUnreachable(atom)
        combined |= rows[atom]
    atoms = frozenset(_mask_to_ids(combined))
    internal = bool(atoms & anchor)
    return FalseSet(anchor=anchor, atoms=atoms - anchor,
                    anchor_internal_mutex=internal)


# --- backward search ---------------------------------------------------------

def graphplan_search(problem: PlanningProblem, max_layers: int = 128,
                     max_nodes: int = 10 ** 7):
    """GraphPlan backward search: step-optimal parallel plan, Unsolvable with
    a level-off + memoization exhaustion proof, or ResourceLimit.

    No-ops are preferred achievers (goals already true stay true when
    possible); remaining ties break by ascending node id, so plans are
    deterministic across runs.
    """
    if problem.is_adl:
        raise ValueError("graphplan_search requires a STRIPS problem")
    if problem.goals <= problem.init:
        return Plan(())

    graph = build_graph(problem, max_layers=max_layers, retain_layers=True)
    searcher = _BackwardSearch(graph, max_nodes)
    leveled = graph.leveled_at
    goals = frozenset(problem.goals)
    goal_mask = _mask(goals)

    prev_nogood_count = None
    horizon = 0
    while True:
        horizon += 1
        if horizon > max_layers:
            return ResourceLimit("max_layers", max_layers)
        present = graph.fact_layers[min(horizon, leveled)]
        if goals <= present and not searcher.goals_mutex(min(horizon, leveled),
                                                         goal_mask):
            try:
                steps = searcher.search(goal_mask, horizon)
            except _NodeBudgetExceeded:
                return ResourceLimit("max_nodes", max_nodes)
            if steps is not None:
                return _extract_plan(graph, steps)
        elif horizon > leveled:
            return Unsolvable("goals absent or mutex at level-off")
        if horizon >= leveled:
            count = len(searcher.memo.get(leveled, ()))
            if prev_nogood_count is not None and count == prev_nogood_count:
                return Unsolvable("memoized goal sets prove exhaustion")
            prev_nogood_count = count


class _NodeBudgetExceeded(Exception):
    pass


class _BackwardSearch:
    """Depth-first backward search over one retained graph, kept across
    horizons so its nogood memo and achiever tables are reused.

    A goal set at fact layer t is solved by giving each goal, in ascending
    fact order, an achiever at action layer t-1 that is not mutex with the
    achievers already chosen, then solving the union of their preconditions
    at layer t-1. A goal that a chosen node already adds needs no achiever
    of its own. Achievers are tried no-op first, then in ascending node id.

    Fact and node sets are int bitmasks. A partial assignment carries the
    facts its nodes add, the OR of their action-mutex rows and the OR of
    their preconditions, so the covered test, the mutex test and the subgoal
    union are one operation each. The search runs on an explicit stack: one
    entry per open goal set (one per layer below the horizon), each holding
    one choice point per goal that got an achiever, so the horizon is not
    bounded by the interpreter's recursion limit. A goal set whose search
    fails is a nogood, memoized by its mask per fact layer. Each visited
    assignment position (each goal, and the step into the next layer) counts
    one node against max_nodes.
    """

    def __init__(self, graph: PlanningGraph, max_nodes: int):
        self.graph = graph
        self.leveled = graph.leveled_at
        self.max_nodes = max_nodes
        self.nodes_used = 0
        self.memo: dict = {}  # fact layer t -> nogood goal masks
        self.init_mask = _mask(graph.fact_layers[0])
        noops = [1 << f for f in range(len(graph.problem.atoms))]
        self.add_masks = [_mask(n.add) for n in graph.nodes] + noops
        self.pre_masks = [_mask(n.pre) for n in graph.nodes] + noops
        self._achievers = [None] * (self.leveled + 1)

    def goals_mutex(self, layer: int, goals: int) -> bool:
        rows = self.graph.fact_mutex[layer]
        return any(rows[p] & goals for p in _mask_to_ids(goals))

    def achievers(self, layer: int):
        """Per fact, its achiever node ids at the action layer: the no-op
        first, then ascending."""
        table = self._achievers[layer]
        if table is None:
            graph = self.graph
            n_real = graph.n_real_nodes
            table = [[] for _ in range(len(self.add_masks) - n_real)]
            for node_id in graph.action_layers[layer]:
                if node_id >= n_real:
                    table[node_id - n_real].insert(0, node_id)
                else:
                    for f in graph.nodes[node_id].add:
                        table[f].append(node_id)
            self._achievers[layer] = table
        return table

    def _open(self, goals: int, t: int):
        """Stack entry for the goal set at fact layer t >= 1, or None when it
        is a known nogood."""
        if goals in self.memo.setdefault(t, set()):
            return None
        layer = min(t - 1, self.leveled)
        return (t, goals, _mask_to_ids(goals), self.achievers(layer),
                self.graph.action_mutex[layer], [])

    def search(self, goals: int, t: int):
        """Steps (node-id sets for action layers 0..t-1) achieving the goal
        mask at fact layer t, or None."""
        if t == 0:
            return None if goals & ~self.init_mask else []
        level = self._open(goals, t)
        if level is None:
            return None
        add_masks, pre_masks = self.add_masks, self.pre_masks
        levels = [level]
        t, _, goal_ids, achievers, rows, choices = level
        n_goals = len(goal_ids)
        index = added = mutex = pre = 0
        k = None  # next achiever to try at goal `index`; None on arrival
        while True:
            if k is None:
                self.nodes_used += 1
                if self.nodes_used > self.max_nodes:
                    raise _NodeBudgetExceeded
                if index < n_goals:
                    if added >> goal_ids[index] & 1:
                        index += 1
                        continue
                    k = 0
                elif t == 1:
                    if not pre & ~self.init_mask:
                        return [{achievers[goal_ids[i]][k - 1]
                                 for i, k, *_ in choices}
                                for _, _, goal_ids, achievers, _, choices
                                in reversed(levels)]
                else:
                    level = self._open(pre, t - 1)
                    if level is not None:
                        levels.append(level)
                        t, _, goal_ids, achievers, rows, choices = level
                        n_goals = len(goal_ids)
                        index = added = mutex = pre = 0
                        continue
            if k is not None:
                cands = achievers[goal_ids[index]]
                for j in range(k, len(cands)):
                    c = cands[j]
                    if not mutex >> c & 1:
                        choices.append((index, j + 1, added, mutex, pre))
                        added |= add_masks[c]
                        mutex |= rows[c]
                        pre |= pre_masks[c]
                        index += 1
                        k = None
                        break
                if k is None:
                    continue
            # backtrack to the newest choice point; exhausted goal sets
            # popped on the way are nogoods
            while not choices:
                t, goals = levels.pop()[:2]
                self.memo[t].add(goals)
                if not levels:
                    return None
                t, _, goal_ids, achievers, rows, choices = levels[-1]
                n_goals = len(goal_ids)
            index, k, added, mutex, pre = choices.pop()


def _extract_plan(graph: PlanningGraph, steps) -> Plan:
    out = []
    for step in steps:
        real = frozenset(graph.nodes[n].action_id for n in step
                         if n < graph.n_real_nodes)
        if real:
            out.append(real)
    return Plan(tuple(out))


def graph_dump(graph: PlanningGraph) -> dict:
    """Counts per layer, for the CLI's JSON dump."""
    return {
        "backend": graph.backend,
        "leveled_at": graph.leveled_at,
        "layers": [
            {
                "facts": len(graph.fact_layers[t]),
                "fact_mutex_pairs": graph.mutex_counts[t],
                "actions": len(graph.action_layers[t])
                if t < len(graph.action_layers) else None,
            }
            for t in range(len(graph.fact_layers))
        ],
    }
