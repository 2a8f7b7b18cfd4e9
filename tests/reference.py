"""Reference implementations the optimized code is checked against.

``RecursiveSearch`` is GraphPlan's backward search written as a recursion
over frozensets, with a per-candidate pairwise mutex scan; it has the same
interface as ``graphplan._BackwardSearch`` (goal sets passed as int
bitmasks), so a test can swap it in with monkeypatch and compare results.

``full_step`` is one planning-graph layer transition recomputed from the
node triples: action-mutex rows by ``pairwise_action_rows``, which tests
every pair of applicable nodes, and fact mutexes by testing every pair of
present facts over every pair of achievers.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from goalagenda.graphplan import _NodeBudgetExceeded, _mask_to_ids


@contextmanager
def recursion_limit(limit: int):
    """Raise the interpreter's recursion limit to at least ``limit`` for the
    duration of the block; the recursion descends one frame per goal per
    layer."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class RecursiveSearch:
    def __init__(self, graph, max_nodes: int):
        self.graph = graph
        self.leveled = graph.leveled_at
        self.max_nodes = max_nodes
        self.nodes_used = 0
        self.memo: dict = {}
        self._achievers_cache: dict = {}

    def _layer(self, t: int) -> int:
        return min(t, self.leveled)

    def goals_mutex(self, layer: int, goals: int) -> bool:
        rows = self.graph.fact_mutex[layer]
        gs = _mask_to_ids(goals)
        for i, p in enumerate(gs):
            for q in gs[i + 1:]:
                if rows[p] >> q & 1:
                    return True
        return False

    def achievers(self, action_layer: int, fact: int):
        """Achiever node ids at the layer, no-op first, then ascending."""
        key = (self._layer(action_layer), fact)
        cached = self._achievers_cache.get(key)
        if cached is not None:
            return cached
        layer = self._layer(action_layer)
        noop = self.graph.noop_id(fact)
        out = []
        for node_id in self.graph.action_layers[layer]:
            if node_id == noop:
                out.insert(0, node_id)
            elif node_id < self.graph.n_real_nodes \
                    and fact in self.graph.nodes[node_id].add:
                out.append(node_id)
        self._achievers_cache[key] = out
        return out

    def _node_pre(self, node_id: int):
        if node_id >= self.graph.n_real_nodes:
            return frozenset((node_id - self.graph.n_real_nodes,))
        return self.graph.nodes[node_id].pre

    def search(self, goals: int, t: int):
        with recursion_limit(10_000):
            return self._search(frozenset(_mask_to_ids(goals)), t)

    def _search(self, goals, t: int):
        if t == 0:
            return [] if goals <= self.graph.fact_layers[0] else None
        layer_memo = self.memo.setdefault(t, set())
        if goals in layer_memo:
            return None
        result = self._assign(sorted(goals), 0, [], t)
        if result is None:
            layer_memo.add(frozenset(goals))
        return result

    def _assign(self, goals, index, chosen, t):
        self.nodes_used += 1
        if self.nodes_used > self.max_nodes:
            raise _NodeBudgetExceeded
        if index == len(goals):
            subgoals = frozenset().union(*(self._node_pre(n) for n in chosen)) \
                if chosen else frozenset()
            rest = self._search(subgoals, t - 1)
            if rest is None:
                return None
            return rest + [set(chosen)]
        goal = goals[index]
        for node_id in chosen:
            if node_id < self.graph.n_real_nodes \
                    and goal in self.graph.nodes[node_id].add:
                return self._assign(goals, index + 1, chosen, t)
        act_rows = self.graph.action_mutex[self._layer(t - 1)]
        for cand in self.achievers(t - 1, goal):
            row = act_rows[cand]
            if any(row >> other & 1 for other in chosen):
                continue
            result = self._assign(goals, index + 1, chosen + [cand], t)
            if result is not None:
                return result
        return None


def _with_noops(n_facts, nodes):
    """(pre, add, delete) fact sets per node, the no-op for fact f appended
    as node len(nodes)+f."""
    return ([(frozenset(pre), frozenset(add), frozenset(dele))
             for pre, add, dele in nodes]
            + [(frozenset((f,)), frozenset((f,)), frozenset())
               for f in range(n_facts)])


def pairwise_action_rows(n_facts, nodes, applicable, mutex_rows):
    """Action-mutex rows of one layer step, one pair at a time: two
    applicable nodes are mutex when one deletes a precondition or add effect
    of the other, or some precondition pair of theirs is fact-mutex."""
    triples = _with_noops(n_facts, nodes)

    def mutex(a: int, b: int) -> bool:
        pre_a, add_a, del_a = triples[a]
        pre_b, add_b, del_b = triples[b]
        if del_a & (pre_b | add_b) or del_b & (pre_a | add_a):
            return True
        return any(mutex_rows[p] >> q & 1 for p in pre_a for q in pre_b)

    rows = [0] * len(triples)
    for i, a in enumerate(applicable):
        for b in applicable[i + 1:]:
            if mutex(a, b):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


def full_step(n_facts, nodes, fact_mask, mutex_rows):
    """One layer transition recomputed from the node triples, with the same
    result shape as ``kernel.GraphKernel.step``: a node is applicable when
    its preconditions are present and pairwise non-mutex, and every pair of
    present facts is tested over every pair of achievers, with no
    incremental rule."""
    triples = _with_noops(n_facts, nodes)
    facts = {f for f in range(n_facts) if fact_mask >> f & 1}
    applicable = [a for a, (pre, _, _) in enumerate(triples)
                  if pre <= facts
                  and not any(mutex_rows[p] >> q & 1 for p in pre for q in pre)]
    action_rows = pairwise_action_rows(n_facts, nodes, applicable, mutex_rows)
    next_facts = facts.union(*(triples[a][1] for a in applicable))
    achievers = {f: [a for a in applicable if f in triples[a][1]]
                 for f in next_facts}
    next_rows = [0] * n_facts
    for p in next_facts:
        for q in next_facts:
            if p < q and all(action_rows[a] >> b & 1
                             for a in achievers[p] for b in achievers[q]):
                next_rows[p] |= 1 << q
                next_rows[q] |= 1 << p
    return applicable, sum(1 << f for f in next_facts), next_rows, action_rows
