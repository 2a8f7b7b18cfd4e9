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
mutex with every achiever of p. So q is not mutex with p exactly when some
applicable node outside R(p) adds q, and p's row is the next layer's facts
minus reach(p), the facts those nodes add. The no-ops' share of reach(p) is
one shift of the outside nodes' mask. Rows are computed only for the facts
that are new or had a mutex partner at layer t. A pair present and
non-mutex at one layer stays non-mutex at every later layer, so each other
fact (old, with no partner) can be mutex only with new facts; it gets its
bits by write-back from the computed rows, into the skipped facts only.

Both ORs over sets of ids use "four Russians" tables (Arlazarov et al.
1970), built once per kernel over the real nodes: per 4-bit chunk of ids,
the OR of the chunk's masks for each of its 16 subsets. One table over the
facts' user masks gives the users of a mutex row, whose no-op users are
one shift of the row; one over the nodes' add masks gives reach(p). A
lookup reads the id mask's bytes and ORs two table entries per non-zero
byte. The tables are built once per GraphContext: once per build_graph,
and once per plan_with_agenda call with the graphplan base, shared by
every episode. Chunks of 4 bits rather than 8 keep them 8 times smaller
and cheaper to build, at two lookups per byte instead of one. Measured by
timeit on a 2-vCPU Xeon VM, Python 3.11.7: GraphContext(problem) takes
0.55 ms on stack_8, 0.41 ms on tyreworld_3 and 9.3 ms on stack_30, of
which the two tables take 0.12, 0.16 and 1.9 ms at 4 bits and 0.41, 0.45
and 13.6 ms at 8. With 8-bit chunks build_graph runs 3% to 22% faster on
those three, as a step does half the lookups, but stack_30's add table
holds 11 MB at 8 bits against 1.3 MB at 4, and stack_60's takes 17.7 MB
at 4 bits already.

The achiever lists and masks that the step builds are also returned, in the
order the backward search tries them, so the kernel is the one place that
produces achievers.
"""

from __future__ import annotations

from itertools import compress

from .model import mask_ids, mask_of


def backend() -> str:
    """Name of the layer kernel, as recorded in graph dumps and benchmark
    results."""
    return "python"


def _or_table(masks) -> tuple:
    """OR table over ``masks``: per 4-bit chunk of ids, the OR of the chunk's
    masks for each of its 16 subsets. Returned as the rows for the low and
    for the high nibble of each byte of an id mask."""
    rows = []
    for base in range(0, len(masks), 4):
        row = [0]
        for m in masks[base:base + 4]:
            row += [x | m for x in row]
        rows.append(row)
    if len(rows) % 2:
        rows.append([0])
    return rows[0::2], rows[1::2]


def _or_lookup(table, mask: int) -> int:
    """The OR of the masks of ``table`` whose ids are set in ``mask``, one
    lookup per nibble of the non-zero bytes."""
    low, high = table
    n_bytes = (mask.bit_length() + 7) // 8
    data = mask.to_bytes(n_bytes, "little")
    out = 0
    for i in compress(range(n_bytes), data):
        b = data[i]
        out |= low[i][b & 15] | high[i][b >> 4]
    return out


class GraphKernel:
    """Layer stepper over graph nodes.

    Nodes 0..n_actions-1 are the problem's ground actions (or ADL effect
    splits), given as (pre, add, delete) triples of fact-id collections,
    whose element order does not matter; node n_actions+f is the no-op
    for fact f.
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
        users = [0] * n_facts
        adders = [0] * n_facts
        deleters = [0] * n_facts
        for a in range(self.n_nodes):
            for f in self.pre_lists[a]:
                users[f] |= 1 << a
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
                m |= users[f] | adders[f]
            for f in self.pre_lists[a] + self.add_lists[a]:
                m |= deleters[f]
            self.interference.append(m)
        # OR tables over the real nodes: their users per fact chunk, their
        # add masks per node chunk
        real = (1 << self.n_actions) - 1
        self.user_table = _or_table([u & real for u in users])
        self.add_table = _or_table(self.add_masks[:self.n_actions])

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
        noop = self.n_actions
        applicable = []
        for a in range(noop):
            pm = self.pre_masks[a]
            if pm & ~fact_mask:
                continue
            u = 0
            for p in pre_lists[a]:
                u |= mutex_rows[p]
            if not u & pm:  # preconditions not mutually exclusive
                applicable.append(a)
        applicable.extend(noop + f for f in range(n_facts)
                          if fact_mask >> f & 1)

        # per fact p: the nodes with a precondition mutex with p, the no-op
        # users being one shift of p's row
        competing = [_or_lookup(self.user_table, row) | row << noop
                     if row else 0 for row in mutex_rows]
        applicable_mask = mask_of(applicable)
        action_rows = [0] * self.n_nodes
        next_fact_mask = fact_mask
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

        # q is not mutex with p exactly when an applicable node outside R(p)
        # adds q. Rows are computed for the facts that are new or had a
        # partner at layer t; the others are old and had none, so they stay
        # non-mutex with each other and get their bits by write-back.
        skipped = fact_mask & ~mask_of(
            p for p, row in enumerate(mutex_rows) if row)
        real = (1 << noop) - 1
        next_rows = [0] * n_facts
        for p in mask_ids(next_fact_mask & ~skipped):
            r = -1
            for a in achievers[p]:
                r &= action_rows[a]
            outside = applicable_mask & ~r
            reach = outside >> noop | _or_lookup(self.add_table,
                                                 outside & real)
            next_rows[p] = row = next_fact_mask & ~reach
            for q in mask_ids(row & skipped):
                next_rows[q] |= 1 << p
        return (applicable, next_fact_mask, next_rows, action_rows,
                achievers, ach_masks)
