"""Pure-Python planning-graph layer kernel.

Reference implementation of the layer transition used by the graph builder.
The compiled twin in ``_speedups`` computes the same transition with C
bitsets; this one uses Python int bitmasks and an incremental rule for fact
mutexes (a pair present and non-mutex at one layer can never become mutex
later, so only previously-mutex pairs and pairs involving a new fact are
re-examined); the fact-mutex pairs are still tested achiever pair by
achiever pair, which is the gap benchmarks/bench_backends.py measures.

The retained action-mutex rows are built without pairwise tests. At
construction each fact gets three node masks, no-ops included: the nodes
that need it, add it and delete it. A node's interference mask is the OR of
the users and adders of its deletes and the deleters of its preconditions
and adds. At each layer, each fact p gets the OR of the users of the facts
mutex with p, so a node's row is its interference mask ORed with that mask
for each of its preconditions, restricted to the applicable nodes, minus
the node itself.
"""

from __future__ import annotations

BACKEND = "python"


def _mask(ids) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class GraphKernel:
    """Layer stepper over graph nodes.

    Nodes 0..n_actions-1 are the problem's ground actions (or ADL effect
    splits); node n_actions+f is the no-op for fact f.
    """

    def __init__(self, n_facts: int, nodes):
        self.n_facts = n_facts
        self.n_actions = len(nodes)
        self.n_nodes = len(nodes) + n_facts
        self.pre_lists = []
        self.add_lists = []
        self.pre_masks = []
        self.add_masks = []
        self.del_masks = []
        for pre, add, delete in nodes:
            self.pre_lists.append(tuple(pre))
            self.add_lists.append(tuple(add))
            self.pre_masks.append(_mask(pre))
            self.add_masks.append(_mask(add))
            self.del_masks.append(_mask(delete))
        for f in range(n_facts):  # no-ops
            self.pre_lists.append((f,))
            self.add_lists.append((f,))
            self.pre_masks.append(1 << f)
            self.add_masks.append(1 << f)
            self.del_masks.append(0)
        # per fact: the nodes that need, add and delete it
        self.users = [0] * n_facts
        adders = [0] * n_facts
        deleters = [0] * n_facts
        del_lists = [tuple(delete) for _, _, delete in nodes] + [()] * n_facts
        for a in range(self.n_nodes):
            for f in self.pre_lists[a]:
                self.users[f] |= 1 << a
            for f in self.add_lists[a]:
                adders[f] |= 1 << a
            for f in del_lists[a]:
                deleters[f] |= 1 << a
        # per node: the nodes it interferes with (one deletes a precondition
        # or add effect of the other), itself included
        self.interference = []
        for a in range(self.n_nodes):
            m = 0
            for f in del_lists[a]:
                m |= self.users[f] | adders[f]
            for f in self.pre_lists[a] + self.add_lists[a]:
                m |= deleters[f]
            self.interference.append(m)

    def _interferes(self, a: int, b: int) -> bool:
        return bool(
            self.del_masks[a] & (self.pre_masks[b] | self.add_masks[b])
            or self.del_masks[b] & (self.pre_masks[a] | self.add_masks[a])
        )

    def step(self, fact_mask: int, mutex_rows, want_actions: bool = False):
        """One transition: facts/mutexes at layer t -> layer t+1.

        Returns (applicable node ids, next fact mask, next mutex rows,
        action mutex rows or None).
        """
        applicable = []
        need_u = {}
        for a in range(self.n_actions):
            pm = self.pre_masks[a]
            if pm & ~fact_mask:
                continue
            u = 0
            for p in self.pre_lists[a]:
                u |= mutex_rows[p]
            if u & pm:
                continue  # preconditions mutually exclusive at this layer
            applicable.append(a)
            need_u[a] = u
        for f in range(self.n_facts):
            if fact_mask >> f & 1:
                noop = self.n_actions + f
                applicable.append(noop)
                need_u[noop] = mutex_rows[f]

        next_fact_mask = fact_mask
        achievers = [[] for _ in range(self.n_facts)]
        for a in applicable:
            next_fact_mask |= self.add_masks[a]
            for f in self.add_lists[a]:
                achievers[f].append(a)

        def am(a: int, b: int) -> bool:
            if a == b:
                return False
            if self._interferes(a, b):
                return True
            return bool(need_u[a] & self.pre_masks[b])

        next_rows = [0] * self.n_facts
        present = [f for f in range(self.n_facts) if next_fact_mask >> f & 1]
        for i, p in enumerate(present):
            p_old = fact_mask >> p & 1
            row_p = mutex_rows[p]
            for q in present[i + 1:]:
                if p_old and fact_mask >> q & 1 and not (row_p >> q & 1):
                    continue  # was present and non-mutex: stays non-mutex
                if self._pair_mutex(achievers[p], achievers[q], am):
                    next_rows[p] |= 1 << q
                    next_rows[q] |= 1 << p

        action_rows = None
        if want_actions:
            # per fact p: the nodes with a precondition mutex with p
            competing = [0] * self.n_facts
            for p in range(self.n_facts):
                row = mutex_rows[p]
                while row:
                    low = row & -row
                    competing[p] |= self.users[low.bit_length() - 1]
                    row ^= low
            applicable_mask = _mask(applicable)
            action_rows = [0] * self.n_nodes
            for a in applicable:
                m = self.interference[a]
                for p in self.pre_lists[a]:
                    m |= competing[p]
                action_rows[a] = m & applicable_mask & ~(1 << a)
        return applicable, next_fact_mask, next_rows, action_rows

    @staticmethod
    def _pair_mutex(ach_p, ach_q, am) -> bool:
        for a in ach_p:
            for b in ach_q:
                if not am(a, b):
                    return False
        return True
