"""Reference implementations the optimized code is checked against.

``RecursiveSearch`` is GraphPlan's backward search written as a recursion
over frozensets, with a per-candidate pairwise mutex scan; it has the same
interface as ``graphplan._BackwardSearch`` (goal sets passed as int
bitmasks), so a test can swap it in with monkeypatch and compare results.

``pairwise_action_rows`` is the pure kernel's action-mutex rows computed by
testing every pair of applicable nodes.
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


def pairwise_action_rows(kern, applicable, mutex_rows):
    """Action-mutex rows of one pure-kernel step, one pair at a time: two
    applicable nodes are mutex when one deletes a precondition or add effect
    of the other, or some precondition pair of theirs is fact-mutex."""

    def interferes(a: int, b: int) -> bool:
        return bool(
            kern.del_masks[a] & (kern.pre_masks[b] | kern.add_masks[b])
            or kern.del_masks[b] & (kern.pre_masks[a] | kern.add_masks[a]))

    need_u = {}
    for a in applicable:
        u = 0
        for p in kern.pre_lists[a]:
            u |= mutex_rows[p]
        need_u[a] = u

    def am(a: int, b: int) -> bool:
        if a == b:
            return False
        if interferes(a, b):
            return True
        return bool(need_u[a] & kern.pre_masks[b])

    rows = [0] * kern.n_nodes
    for i, a in enumerate(applicable):
        for b in applicable[i + 1:]:
            if am(a, b):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows
