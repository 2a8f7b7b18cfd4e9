"""Layered planning graph with binary mutex propagation, and the backward
search that uses it as the STRIPS base planner.

What is per problem, the layer kernel over the graph nodes, is built once
in a GraphContext. What is per episode is built over it: a PlanningGraph
grows from the episode's initial state one layer at a time, keeping each
fact layer as the kernel's bitmask and the achiever lists that the kernel
returns per action layer, and the backward search keeps its nogood memo.
No search writes to a context, so one serves every episode of an agenda,
in any order. The graph levels off at the first layer t whose fact set and
mutex relation equal layer t+1's; every layer from t on equals layer t.
build_graph grows to level-off, for the orderings and the dumps; a leveled
graph is never written again. The backward search, as in GraphPlan and
IPP, grows only the layers its horizons read: layer H+1 once the search at
horizon H has failed.

Mutex rules are the standard ones: two actions are mutex when one deletes
a precondition or add effect of the other or their preconditions contain a
mutually exclusive fact pair; two facts are mutex when every pair of
achievers (no-ops included) is mutex. Each layer is stepped by the one
kernel in ``kernel``, over int bitmasks, a fact row at a time: p's row is
the next layer's facts minus those added by an applicable node outside
R(p), the AND of the action-mutex rows of p's achievers. Rows are computed
for the facts that are new or had a partner; the old facts with none get
their bits by write-back. The kernel's OR tables, built once per context,
turn a set of facts into its users and a set of nodes into its adds.

ADL actions enter the graph split into one node per conditional effect,
as the problem holds them (``PlanningProblem.ways``), carrying the action
precondition plus the effect condition; no cross-effect mutex inference
is attempted, which is why the graph-based ordering can be weaker than
direct analysis on conditional-effect domains.
"""

from __future__ import annotations

from itertools import chain

from .kernel import GraphKernel, backend as kernel_backend
from .model import (
    MAX_LAYERS,
    MAX_NODES,
    Plan,
    PlanningError,
    PlanningProblem,
    ResourceLimit,
    Unsolvable,
    check_atom_ids,
    mask_ids,
    mask_of,
)


class AnchorUnreachable(PlanningError):
    """An anchor atom never enters the planning graph: the ordering against
    it holds trivially (there is no state achieving it at all)."""

    def __init__(self, atom: int):
        self.atom = atom
        super().__init__(f"anchor atom {atom} never appears in the graph")


class GraphContext:
    """The layer kernel over the graph nodes of one problem: one node per
    way of each action (``problem.ways``), in (action, effect) order, so
    ids below n_real_nodes are real nodes and way ids; n_real_nodes + f is
    fact f's no-op, which is not materialized."""

    def __init__(self, problem: PlanningProblem):
        self.problem = problem
        nodes = [(sorted(pre), sorted(add), sorted(delete))
                 for pre, add, delete in chain.from_iterable(problem.ways)]
        self.n_real_nodes = len(nodes)
        self.kernel = GraphKernel(len(problem.atoms), nodes)


class ResourceLimitError(PlanningError):
    pass


class PlanningGraph:
    """A planning graph over a context, grown from ``init`` one layer per
    call to ``grow``. Per fact layer: ``fact_layers`` holds the fact
    bitmask, ``fact_mutex`` the per-fact mutex rows and ``mutex_counts``
    the mutex pair count; per action layer: ``action_layers`` holds the
    applicable node ids (no-ops included), ``action_mutex`` the per-node
    mutex rows and ``achievers`` the kernel's per-fact achiever lists and
    masks. leveled_at stays None until a layer equal to its predecessor
    shows level-off.

    With retain_layers=False the action-layer tables are not kept and the
    fact-mutex rows are kept only at the leveled layer, which is all the
    false-set computation needs; the backward search grows with retention.
    The layers, node ids and pair counts are kept either way.
    """

    def __init__(self, context: GraphContext, init, max_layers: int,
                 retain_layers: bool = True):
        self.context = context
        self.max_layers = max_layers
        self.retain_layers = retain_layers
        self._rows = [0] * len(context.problem.atoms)
        self.fact_layers = [mask_of(init)]
        self.action_layers = []
        self.fact_mutex = [tuple(self._rows) if retain_layers else None]
        self.action_mutex = []
        self.achievers = []
        self.mutex_counts = [0]
        self.leveled_at = None

    def grow(self) -> None:
        """Add action layer t and fact layer t + 1, t being the number of
        action layers so far; ResourceLimitError when that would pass
        max_layers layers without level-off."""
        t = len(self.action_layers)
        if t >= self.max_layers:
            raise ResourceLimitError(
                f"planning graph did not level off within "
                f"{self.max_layers} layers")
        facts = self.fact_layers[-1]
        applicable, mask, rows, act_rows, achievers, ach_masks = \
            self.context.kernel.step(facts, self._rows)
        leveled = mask == facts and rows == self._rows
        self.action_layers.append(tuple(applicable))
        retain = self.retain_layers
        self.action_mutex.append(tuple(act_rows) if retain else None)
        self.achievers.append((achievers, ach_masks) if retain else None)
        self.fact_layers.append(mask)
        self.mutex_counts.append(sum(r.bit_count() for r in rows) // 2)
        keep = retain or leveled
        self.fact_mutex.append(tuple(rows) if keep else None)
        if leveled:
            self.leveled_at = t
            # the leveled layer's rows equal its successor's
            self.fact_mutex[t] = self.fact_mutex[t + 1]
        self._rows = rows

    def grow_to(self, t: int) -> None:
        """Grow until fact layer t exists or level-off is seen."""
        while self.leveled_at is None and len(self.fact_layers) <= t:
            self.grow()

    def layer(self, t: int) -> int:
        """The index of the stored layer equal to layer t: t itself while
        level-off is unknown (so t <= leveled_at), else at most leveled_at."""
        return t if self.leveled_at is None else min(t, self.leveled_at)


def build_graph(problem: PlanningProblem, max_layers: int = MAX_LAYERS,
                retain_layers: bool = True) -> PlanningGraph:
    """Grow the graph until level-off (through leveled_at + 1 layers), or
    raise ResourceLimitError past max_layers layers; see PlanningGraph for
    retain_layers."""
    graph = PlanningGraph(GraphContext(problem), problem.init, max_layers,
                          retain_layers)
    while graph.leveled_at is None:
        graph.grow()
    return graph


def false_set(graph: PlanningGraph, anchor) -> frozenset:
    """Atoms outside the anchor that are mutex with at least one anchor
    member at level-off: they never hold together with the anchor.

    Raises AnchorUnreachable when an anchor atom never enters the graph;
    callers treat that as a trivial ordering. ValueError names an anchor
    id that is not an atom.
    """
    check_atom_ids(graph.context.problem, *anchor)
    facts = graph.fact_layers[graph.leveled_at]
    rows = graph.fact_mutex[graph.leveled_at]
    combined = 0
    for atom in sorted(anchor):
        if not facts >> atom & 1:
            raise AnchorUnreachable(atom)
        combined |= rows[atom]
    return frozenset(mask_ids(combined & ~mask_of(anchor)))


# --- backward search ---------------------------------------------------------

def graphplan_search(context: GraphContext, init, goals,
                     max_layers: int = MAX_LAYERS, max_nodes: int = MAX_NODES):
    """GraphPlan backward search from the state init to the goals:
    step-optimal parallel plan, Unsolvable with a level-off + memoization
    exhaustion proof, or ResourceLimit.

    No-ops are preferred achievers (goals already true stay true when
    possible); remaining ties break by ascending node id, so plans are
    deterministic across runs. max_nodes bounds the nodes visited over all
    horizons; _BackwardSearch says what counts as one. max_layers bounds
    the layers grown, not the horizon: ResourceLimitError when a horizon
    needs a layer past it before level-off, so a plan found within it is
    returned even where the graph would level off later. Horizons past
    level-off read no new layer and run until a plan, the exhaustion proof
    or max_nodes ends the search.

    The graph grows lazily. Horizon H reads fact layers 0..H and action
    layers 0..H-1, each at its own index while level-off is unknown and at
    the leveled layer n past n; the search grows layer H+1 only after
    horizon H failed, since horizon H+1 reads it. The search therefore
    reads the same layers as over a graph built to level-off first. The
    exhaustion check below runs after that growth, and layer H+1 is what
    shows level-off at n = H, so it knows n exactly when H >= n: it starts
    counting at the same horizon, and every count, memo and verdict are
    those of the graph built first.

    The exhaustion proof (Blum & Furst 1997, AIJ 90): from the leveled fact
    layer n on, the goals are Unsolvable once a horizon ends with as many
    nogoods memoized at layer n as the horizon before. Every fact layer
    above n takes its achievers from the same action layer, so horizon H
    follows paths of H - n full assignments from the goals down to a set at
    layer n. Call a set covered when it contains a set memoized at layer n.
    Three facts carry the proof:

    1. A memoized set has no plan from its layer, and neither has a covered
       set at layer n: a plan for a set solves each of its subsets.
    2. After horizon H, every path of H - n full assignments from the goals
       ends in a covered set. Either the horizon opened the path's last set
       at layer n, which memoizes it, or it cut the path at a set above n
       that contains a nogood N of that layer. By induction on when N was
       memoized, every path from N down to layer n ends in a covered set,
       and the cut path continues through supersets of the sets of one of
       them (see below).
    3. A set is memoized at layer n only when a horizon opens it there, at
       the end of such a path.

    Monotonicity links them: the achievers that a full assignment of a
    superset of M picks include a full assignment of M, so each child set
    of the superset contains a child set of M. Now let horizon H + 1
    memoize nothing new at layer n. A set memoized there ends a path of
    k <= H - n assignments (by 3), so its child sets end paths of
    k + 1 <= H + 1 - n and are covered (by 2); by monotonicity every child
    set of a covered set is covered. By induction on the path length, every
    path from the goals ends in a covered set, so no horizon has a plan
    (by 1).

    The cuts in _BackwardSearch keep the three facts. Forward checking
    removes only partial assignments that no achiever completes, so the
    full assignments, and with them the paths and the sets opened, are
    those of the search without it. A set that contains a nogood of its
    layer fails at once and is memoized as an opened set, so an unchanged
    count still means that every set opened at layer n was already there.
    The test for such a nogood reads an index of the sets the search
    failed, each under its highest fact, not the whole memo, and finds the
    same sets. A nogood inside a set has its highest fact in the set, so
    the buckets of the set's facts hold every indexed nogood it contains.
    A set memoized by the test itself stays out of the index, but it
    contains an indexed nogood, and so does every set containing it. The
    cuts, the memo at layer n and its count are therefore those of a scan
    of the whole memo.

    Backjumping and explanation nogoods keep the three facts too; they work
    only at the layers below both n and the horizon:

    - Explanations are sound nogoods. Each conflict source names nodes no
      plan can hold together with the goals named: a rejected candidate
      and the chosen node it is mutex with; for a later goal, one node
      mutex with each of its achievers, so no node can add it; a set of
      chosen nodes whose preconditions contain a failed set N, and a plan
      for their preconditions would solve N. When a goal runs out of
      candidates, each of its achievers is so ruled out given the nodes
      its conflict names below it, so the conflict holds without the
      goal's own choice; a choice point it does not name cannot change it,
      which is why skipping that choice point loses no plan. With no
      choice point left to name, the explanation holds for every
      assignment: no plan reaches it at layer t, nor any set containing it.
    - Cuts below layer n never touch the paths that facts 1-3 reason about.
      Those paths run through sets at layer n and above, which the search
      opens, fails and memoizes as it did chronologically. Below n, a set
      fails exactly when it has no plan, with or without backjumps, since
      both skip only subtrees without one, and the first plan found is the
      same. So the sets opened at layers n and up, their memo, its count
      and the verdicts are those of the chronological search.
    - An explanation at layer t holds at every horizon. Layers are indexed
      from the initial state, so fact layer t is the same layer at every
      horizon, and a set with no plan of t steps has none later either.
      While level-off is unknown only the layers below the horizon are
      explained, and those are below n: growth has not yet shown level-off
      at any layer up to the horizon.
    """
    if context.problem.is_adl:
        raise ValueError("graphplan_search requires a STRIPS problem")
    goals = frozenset(goals)
    if goals <= init:
        return Plan(())

    graph = PlanningGraph(context, init, max_layers)
    searcher = _BackwardSearch(graph, max_nodes)
    goal_mask = mask_of(goals)

    prev_nogood_count = None
    horizon = 0
    while True:
        horizon += 1
        graph.grow_to(horizon)
        layer = graph.layer(horizon)
        if not goal_mask & ~graph.fact_layers[layer] and \
                not searcher.goals_mutex(layer, goal_mask):
            try:
                steps = searcher.search(goal_mask, horizon)
            except _NodeBudgetExceeded:
                return ResourceLimit("max_nodes", max_nodes)
            if steps is not None:
                return _extract_plan(context, steps)
        elif layer < horizon:  # past level-off, so at every later horizon
            return Unsolvable("goals absent or mutex at level-off")
        graph.grow_to(horizon + 1)
        leveled = graph.leveled_at
        if leveled is not None and horizon >= leveled:
            count = len(searcher.memo.get(leveled, ()))
            if prev_nogood_count is not None and count == prev_nogood_count:
                return Unsolvable("memoized goal sets prove exhaustion")
            prev_nogood_count = count


class _NodeBudgetExceeded(Exception):
    pass


class _BackwardSearch:
    """Depth-first backward search over one graph in growth, kept across
    horizons so its nogood memo is reused. The graph grows between horizons;
    the search reads action layer t-1 at graph.layer(t - 1), with the
    achiever lists and masks the growth kept for that layer.

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
    bounded by the interpreter's recursion limit. A goal set that fails is
    a nogood. The memo maps it, per fact layer and in the order found, to
    its explanation: a nogood inside it, or the set itself.

    Two cuts remove only subtrees that hold no plan, so the search returns
    the first plan of the search without them:

    - Forward checking. A candidate achiever that passes the mutex test is
      rejected when some later goal of the set is neither added by the
      assignment with it nor has an achiever outside the OR of their
      action-mutex rows: one AND per goal against its achiever mask. That
      goal could get no achiever, and a node chosen later that added it
      would be one.
    - Subset nogoods. A goal set that contains a nogood memoized at its
      fact layer has no plan there either: it fails at once, explained by
      that nogood, and is memoized too. The explanations of the sets the
      search failed are also indexed per layer by their highest fact, and
      the test looks only in the buckets of the set's own facts: a nogood
      inside the set has its highest fact there. It returns the first it
      finds, by highest fact and then in the order indexed. A set memoized
      by this test stays out of the index; it contains an indexed nogood,
      so any set containing it is still found.

    Below level-off, at fact layers t < leveled_at other than the horizon's
    top layer (every layer below the top while level-off is unknown), the
    search also explains its failures and backjumps on the explanations:
    conflict-directed backjumping with explanation-based nogoods
    (Kambhampati 2000, "Planning Graph as a (Dynamic) CSP", JAIR 12). A
    conflict names goals of the set: no assignment that keeps the current
    achievers of its goals that have one and covers its other goals leads
    to a plan. Conflicts come from three sources:

    - A candidate the mutex test rejects: its goal, and the goal of the
      earliest chosen node whose action-mutex row holds the candidate.
    - A candidate the forward check rejects: its goal, the later goal left
      without an achiever, and for each achiever of that goal not mutex
      with the candidate, the goal of the earliest chosen node whose row
      holds it.
    - A full assignment whose subgoal set fails with explanation N at layer
      t-1 (at t = 1, one missing initial fact): for each fact of N, the
      goal of the earliest chosen node that needs it.

    A goal that runs out of candidates has the union of its candidates'
    conflicts, itself included. The search jumps back to the newest choice
    point that conflict names and adds the conflict to it, skipping the
    choice points between, which it does not name. With no choice point
    left to name, the set fails, and the conflict, a subset of its goals
    with no plan at layer t, is its explanation: memoized and indexed in
    place of the set, which the memo maps to it.

    Culprits are found lazily. Each choice point keeps the ORs of the
    action-mutex rows and of the preconditions of the nodes chosen below
    it, so the earliest chosen node that holds a node (or needs a fact) is
    the one above whose choice point the OR first has it. A failure names
    the goals at and above its position at once, and keeps the nodes and
    facts still to blame below it in two masks, held and needed. Stepping
    back, the search stops at the first choice point that brings one of
    them in; the rest stay with that choice point until its goal runs out
    of candidates. The candidates the mutex test rejected are found again
    then, as the goal's achievers inside the assignment's mutex OR; a
    forward-check rejection adds its goal and the achievers to blame as it
    happens. A plain accept and the success path compute nothing extra, and
    a backjump costs one step per choice point it skips.

    At the horizon's top layer and at every layer from level-off up, the
    search is chronological: a failure resumes the newest choice point and
    a failed set is its own explanation, so the memo at the leveled layer
    grows exactly when a set opened there was not in it (see
    graphplan_search).

    Each visited assignment position (each goal, and the step into the next
    layer) counts one node against max_nodes. A candidate cut by the forward
    check is never visited and counts no node; a goal set that fails by a
    memo hit, exact or subset, counts none of its own, and neither does a
    subtree skipped by a backjump. ``backjumps`` counts the choice points
    skipped.
    """

    def __init__(self, graph: PlanningGraph, max_nodes: int):
        self.graph = graph
        self.max_nodes = max_nodes
        self.nodes_used = 0
        self.backjumps = 0
        # fact layer t -> nogood goal mask -> its explanation, in the order
        # memoized
        self.memo: dict = {}
        # fact layer t -> highest fact -> the explanations of the sets the
        # search failed, with that top
        self.by_top: dict = {}
        self.init_mask = graph.fact_layers[0]

    def goals_mutex(self, layer: int, goals: int) -> bool:
        rows = self.graph.fact_mutex[layer]
        return any(rows[p] & goals for p in mask_ids(goals))

    def _open(self, goals: int, t: int):
        """Stack entry for the goal set at fact layer t >= 1, or, when it
        contains a known nogood of layer t, that nogood's explanation as an
        int; a set that fails only by containing one is memoized too, with
        that nogood as its explanation."""
        nogoods = self.memo.setdefault(t, {})
        nogood = nogoods.get(goals)
        if nogood is None:
            goal_ids = mask_ids(goals)
            nogood = self._contains_nogood(goals, goal_ids, t)
            if not nogood:
                layer = self.graph.layer(t - 1)
                return (t, goals, goal_ids, *self.graph.achievers[layer],
                        self.graph.action_mutex[layer], [])
            nogoods[goals] = nogood
        return nogood

    def _contains_nogood(self, goals: int, goal_ids, t: int) -> int:
        """A nogood the search failed at fact layer t inside the goal set,
        or 0: such a nogood's highest fact is one of the set's."""
        by_top = self.by_top.get(t, {})
        for f in goal_ids:
            bucket = by_top.get(f, ())
            if goals in map(goals.__or__, bucket):
                return next(n for n in bucket if goals | n == goals)
        return 0

    def search(self, goals: int, t: int):
        """Steps (node-id sets for action layers 0..t-1) achieving the goal
        mask at fact layer t, or None."""
        if t == 0:
            return None if goals & ~self.init_mask else []
        # fact layers below cut explain their failures
        leveled = self.graph.leveled_at
        cut = t if leveled is None else min(leveled, t)
        level = self._open(goals, t)
        if level.__class__ is int:
            return None
        kernel = self.graph.context.kernel
        add_masks, pre_masks = kernel.add_masks, kernel.pre_masks
        init_mask = self.init_mask
        levels = [level]
        t, _, goal_ids, achievers, amasks, rows, choices = level
        explain = False  # t is the top layer
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
                    k = conflict = held = needed = 0
                else:
                    if t == 1:
                        needed = pre & ~init_mask
                        if not needed:
                            return [{achievers[goal_ids[i]][k - 1]
                                     for i, k, *_ in choices}
                                    for _, _, goal_ids, achievers, _, _,
                                    choices in reversed(levels)]
                        needed &= -needed  # one missing initial fact
                    else:
                        level = self._open(pre, t - 1)
                        if level.__class__ is not int:
                            levels.append(level)
                            t, _, goal_ids, achievers, amasks, rows, \
                                choices = level
                            explain = t < cut
                            n_goals = len(goal_ids)
                            index = added = mutex = pre = 0
                            continue
                        needed = level
                    blame = held = 0
            if k is not None:
                cands = achievers[goal_ids[index]]
                later = goal_ids[index + 1:]
                for j in range(k, len(cands)):
                    c = cands[j]
                    if mutex >> c & 1:
                        continue
                    c_added = added | add_masks[c]
                    free = ~(mutex | rows[c])
                    for g in later:
                        # forward check: a later goal left uncovered, with
                        # every achiever mutex with the assignment
                        if not (c_added >> g & 1 or amasks[g] & free):
                            break
                    else:
                        choices.append((index, j + 1, added, mutex, pre,
                                        conflict, held, needed))
                        added = c_added
                        mutex = ~free
                        pre |= pre_masks[c]
                        index += 1
                        k = None
                        break
                    if explain:
                        # g conflicts, and so do the culprits of those of
                        # its achievers that c is not mutex with
                        conflict |= 1 << g
                        held |= amasks[g] & ~rows[c]
                if k is None:
                    continue
                if explain:
                    g = goal_ids[index]
                    blame = conflict | 1 << g
                    held |= amasks[g] & mutex  # the mutex test's rejects
            # back to the newest choice point; below level-off, back to the
            # newest culprit: the newest choice point whose node brings a
            # held node into the mutex rows, or a needed fact into the
            # preconditions, of the assignment. Exhausted goal sets popped
            # on the way leave nogoods.
            while True:
                if not explain:
                    if choices:
                        index, k, added, mutex, pre, conflict, held, \
                            needed = choices.pop()
                        break
                else:
                    while choices and not (held & ~choices[-1][3]
                                           or needed & ~choices[-1][4]):
                        choices.pop()
                        self.backjumps += 1
                    if choices:
                        index, k, added, mutex, pre, conflict, h, n = \
                            choices.pop()
                        # the culprits below it stay held and needed
                        conflict |= blame
                        held = h | held & mutex
                        needed = n | needed & pre
                        break
                t, goals = levels.pop()[:2]
                nogood = blame if explain else goals
                self.memo[t][nogood] = self.memo[t][goals] = nogood
                self.by_top.setdefault(t, {}).setdefault(
                    nogood.bit_length() - 1, []).append(nogood)
                if not levels:
                    return None
                t, _, goal_ids, achievers, amasks, rows, choices = levels[-1]
                explain = t < cut
                n_goals = len(goal_ids)
                blame = held = 0
                needed = nogood


def _extract_plan(context: GraphContext, steps) -> Plan:
    out = []  # the search is STRIPS-only, so node i is action i
    for step in steps:
        real = frozenset(n for n in step if n < context.n_real_nodes)
        if real:
            out.append(real)
    return Plan(tuple(out))


def graph_dump(graph: PlanningGraph) -> dict:
    """Counts per layer, for the CLI's JSON dump."""
    return {
        "backend": kernel_backend(),
        "leveled_at": graph.leveled_at,
        "layers": [
            {
                "facts": graph.fact_layers[t].bit_count(),
                "fact_mutex_pairs": graph.mutex_counts[t],
                "actions": len(graph.action_layers[t])
                if t < len(graph.action_layers) else None,
            }
            for t in range(len(graph.fact_layers))
        ],
    }
