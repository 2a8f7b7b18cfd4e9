"""Planning-graph layer kernel.

One layer transition of the graph builder over Python int bitmasks, after
the bit-vector planning graph of STAN (Long & Fox 1999).

Action-mutex rows are built without pairwise tests. At construction each
fact gets three node masks, no-ops included: the nodes that need it, add it
and delete it. A node's interference mask is the OR of the users and adders
of its deletes and the deleters of its preconditions and adds. At each
layer, each fact p gets the OR of the users of the facts mutex with p, so a
node's row is its interference mask ORed with that mask for each of its
preconditions, restricted to the applicable nodes, minus the node itself.

Two facts are mutex when every pair of their achievers (no-ops included) is
mutex. For a fact p, R(p) is the AND of the rows of p's achievers: the nodes
mutex with every achiever of p. So q is mutex with p exactly when all of
q's achievers lie in R(p). Only pairs that can change are tested: a pair
present and non-mutex at one layer stays non-mutex at every later layer, so
only previously mutex pairs and pairs involving a new fact are examined.

The achiever lists and masks that this test builds are also returned, in the
order the backward search tries them, so the kernel is the one place that
produces achievers.
"""

from __future__ import annotations

from .model import mask_of


def backend() -> str:
    """Name of the layer kernel, as recorded in graph dumps and benchmark
    results."""
    return "python"


class GraphKernel:
    """Layer stepper over graph nodes.

    Nodes 0..n_actions-1 are the problem's ground actions (or ADL effect
    splits), given as (pre, add, delete) fact-id triples; node n_actions+f
    is the no-op for fact f.
    """

    def __init__(self, n_facts: int, nodes):
        self.n_facts = n_facts
        self.n_actions = len(nodes)
        self.n_nodes = len(nodes) + n_facts
        noops = [(f,) for f in range(n_facts)]
        self.pre_lists = [tuple(pre) for pre, _, _ in nodes] + noops
        self.add_lists = [tuple(add) for _, add, _ in nodes] + noops
        del_lists = [tuple(delete) for _, _, delete in nodes] + [()] * n_facts
        self.pre_masks = [mask_of(pre) for pre in self.pre_lists]
        self.add_masks = [mask_of(add) for add in self.add_lists]
        # per fact: the nodes that need, add and delete it
        self.users = [0] * n_facts
        adders = [0] * n_facts
        deleters = [0] * n_facts
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

    def step(self, fact_mask: int, mutex_rows):
        """One transition: facts/mutexes at layer t -> layer t+1.

        Returns (applicable node ids, next fact mask, next mutex rows,
        action mutex rows indexed by node id, 0 for inapplicable nodes,
        per fact its achievers among the applicable nodes, and per fact the
        bitmask of those achievers). A fact's achievers are its no-op first,
        when the fact is present at layer t, then ascending node id; a fact
        absent from layer t+1 has none.
        """
        n_facts, pre_lists = self.n_facts, self.pre_lists
        applicable = []
        for a in range(self.n_actions):
            pm = self.pre_masks[a]
            if pm & ~fact_mask:
                continue
            u = 0
            for p in pre_lists[a]:
                u |= mutex_rows[p]
            if not u & pm:  # preconditions not mutually exclusive
                applicable.append(a)
        applicable.extend(self.n_actions + f for f in range(n_facts)
                          if fact_mask >> f & 1)

        # per fact p: the nodes with a precondition mutex with p
        competing = [0] * n_facts
        for p in range(n_facts):
            row = mutex_rows[p]
            while row:
                low = row & -row
                competing[p] |= self.users[low.bit_length() - 1]
                row ^= low
        applicable_mask = mask_of(applicable)
        action_rows = [0] * self.n_nodes
        next_fact_mask = fact_mask
        noop = self.n_actions
        achievers = [[noop + f] if fact_mask >> f & 1 else []
                     for f in range(n_facts)]
        ach_masks = [1 << (noop + f) if fact_mask >> f & 1 else 0
                     for f in range(n_facts)]
        for a in applicable:
            m = self.interference[a]
            for p in pre_lists[a]:
                m |= competing[p]
            action_rows[a] = m & applicable_mask & ~(1 << a)
            if a < noop:
                next_fact_mask |= self.add_masks[a]
                for f in self.add_lists[a]:
                    achievers[f].append(a)
                    ach_masks[f] |= 1 << a

        next_rows = [0] * n_facts
        for p in range(n_facts):
            if not next_fact_mask >> p & 1:
                continue
            # partners q > p whose pair can be mutex: all present facts for
            # a new p, else the new facts and p's previous mutex partners
            cand = next_fact_mask
            if fact_mask >> p & 1:
                cand &= ~fact_mask | mutex_rows[p]
            cand &= -2 << p
            if not cand:
                continue
            r = -1
            for a in achievers[p]:
                r &= action_rows[a]
            while cand:
                low = cand & -cand
                q = low.bit_length() - 1
                cand ^= low
                if not ach_masks[q] & ~r:
                    next_rows[p] |= low
                    next_rows[q] |= 1 << p
        return (applicable, next_fact_mask, next_rows, action_rows,
                achievers, ach_masks)
