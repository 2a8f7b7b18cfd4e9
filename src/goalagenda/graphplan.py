"""Layered planning graph with binary mutex propagation, and the backward
search that uses it as the STRIPS base planner.

What is per problem, the layer kernel over the graph nodes, is built once
in a GraphContext. What is per episode is built over it: a PlanningGraph
grows from the episode's initial state one layer at a time, keeping each
fact layer as the kernel's bitmask and the achiever lists that the kernel
returns per action layer, and the backward search keeps its nogood memo.
A search writes to a context only the first time it reads its
``symmetries``, which are computed from the problem alone, so a race
between two first reads computes equal values, and one context serves
every episode of an agenda, in any order. The graph levels off at the
first layer t whose fact set and mutex relation equal layer t+1's; every
layer from t on equals layer t.
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

from functools import cached_property
from itertools import chain, combinations

from .kernel import GraphKernel, backend as kernel_backend
from .model import (
    MAX_LAYERS,
    MAX_NODES,
    LimitExceeded,
    Plan,
    PlanningProblem,
    ResourceLimit,
    Unsolvable,
    atom_args,
    check_atom_ids,
    mask_ids,
    mask_of,
)


class GraphContext:
    """The layer kernel over the graph nodes of one problem: one node per
    way of each action (``problem.ways``), in (action, effect) order, so
    ids below ``kernel.n_actions`` are real nodes and way ids;
    ``kernel.n_actions + f`` is fact f's no-op, which is not materialized.

    ``symmetries`` is found on first use, from the problem alone, so the
    searches that read it may run in any order."""

    def __init__(self, problem: PlanningProblem):
        self.problem = problem
        self.kernel = GraphKernel(len(problem.atoms),
                                  list(chain.from_iterable(problem.ways)))

    @cached_property
    def symmetries(self) -> tuple:
        """Generators of a group of atom permutations, each mapping the
        problem's init, its goals and its set of (pre, add, delete) node
        triples onto themselves, as (moved atoms mask, atom -> image list)
        pairs; see _object_symmetries."""
        return _object_symmetries(self.problem)


# --- object symmetry ---------------------------------------------------------

def _object_symmetries(problem: PlanningProblem) -> tuple:
    """Symmetry generators from object swaps (after Fox & Long 1999, "The
    Detection and Exploitation of Symmetry in Planning Problems", IJCAI).

    Objects are read off the atom names the grounder formats,
    ``pred(a1,...,ak)`` (``model.atom_args``); when a name does not parse
    there are none, which is the case for most ground-JSON problems. Two
    objects can be swapped only when they occur equally often at each
    (init or goal, predicate, argument position). For each such pair not
    yet in one orbit, the swap is extended along the init and goal facts
    (_extend_swap), and the atom permutation it induces is kept only when
    it maps every atom name to an atom, init and goals onto themselves and
    the node triples onto themselves."""
    atoms = list(map(atom_args, problem.atoms))
    if None in atoms:
        return ()
    facts: dict = {}  # (init 0 or goal 1, predicate) -> argument tuples
    holding: dict = {}  # object -> the (kind, predicate, args) holding it
    for kind, ids in enumerate((problem.init, problem.goals)):
        for pred, args in map(atoms.__getitem__, sorted(ids)):
            facts.setdefault((kind, pred), set()).add(args)
            for obj in args:
                holding.setdefault(obj, []).append((kind, pred, args))
    groups: dict = {}
    for obj in holding:
        signature = sorted((kind, pred, args.index(obj))
                           for kind, pred, args in holding[obj])
        groups.setdefault(tuple(signature), []).append(obj)
    if all(len(group) < 2 for group in groups.values()):
        return ()

    ids = {atom: i for i, atom in enumerate(atoms)}
    init, goals = mask_of(problem.init), mask_of(problem.goals)
    triples = {tuple(map(mask_of, way))
               for way in chain.from_iterable(problem.ways)}
    orbit = {obj: {obj} for obj in holding}  # object -> its orbit so far
    generators = []
    for group in groups.values():
        for a, b in combinations(group, 2):
            if b in orbit[a]:
                continue
            swap = _extend_swap(a, b, holding, facts)
            if swap is None:
                continue
            perm = [ids.get((pred, tuple(swap.get(obj, obj) for obj in args)),
                            -1) for pred, args in atoms]
            moved = mask_of(i for i, j in enumerate(perm) if i != j)
            generator = (moved, perm)
            # a bijection that maps each triple it moves to a triple maps
            # the triples onto themselves
            if -1 in perm or _image(generator, init) != init or \
                    _image(generator, goals) != goals or not all(
                        (_image(generator, pre), _image(generator, add),
                         _image(generator, delete)) in triples
                        for pre, add, delete in triples
                        if (pre | add | delete) & moved):
                continue
            generators.append(generator)
            for x, y in swap.items():
                merged = orbit[x] | orbit[y]
                for obj in merged:
                    orbit[obj] = merged
    return tuple(generators)


def _extend_swap(a, b, holding, facts):
    """The object involution that swaps a and b and maps each init and
    goal fact holding a moved object onto a fact of its kind, or None.
    A fact whose image is not one is mapped onto the one fact of its kind
    and predicate that agrees with the swap so far and holds unmoved
    objects elsewhere, swapping those objects in turn; with none, or more
    than one, the extension gives up."""
    swap = {a: b, b: a}
    queue = [a, b]
    while queue:
        for kind, pred, args in holding[queue.pop()]:
            same = facts[kind, pred]
            if tuple(swap.get(obj, obj) for obj in args) in same:
                continue
            fits = [other for other in same if all(
                image == swap[obj] if obj in swap else image not in swap
                for obj, image in zip(args, other))]
            if len(fits) != 1:
                return None
            for obj, image in zip(args, fits[0]):
                if swap.get(obj, obj) == image:
                    continue
                if obj in swap or image in swap:
                    return None
                swap[obj], swap[image] = image, obj
                queue += (obj, image)
    return swap


def _image(generator, mask: int) -> int:
    """The image of an atom mask under a generator."""
    moved, perm = generator
    image = mask & ~moved
    for i in mask_ids(mask & moved):
        image |= 1 << perm[i]
    return image


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
    The layers, node ids and pair counts are kept either way. Every table
    holds the lists the kernel returned, which nothing writes afterwards.
    """

    def __init__(self, context: GraphContext, init, max_layers: int,
                 retain_layers: bool = True):
        self.context = context
        self.max_layers = max_layers
        self.retain_layers = retain_layers
        self._rows = [0] * len(context.problem.atoms)
        self.fact_layers = [mask_of(init)]
        self.action_layers = []
        self.fact_mutex = [self._rows if retain_layers else None]
        self.action_mutex = []
        self.achievers = []
        self.mutex_counts = [0]
        self.leveled_at = None

    def grow(self) -> None:
        """Add action layer t and fact layer t + 1, t being the number of
        action layers so far; LimitExceeded when that would pass
        max_layers layers without level-off."""
        t = len(self.action_layers)
        if t >= self.max_layers:
            raise LimitExceeded(
                f"planning graph did not level off within "
                f"{self.max_layers} layers")
        facts = self.fact_layers[-1]
        applicable, mask, rows, act_rows, achievers, ach_masks = \
            self.context.kernel.step(facts, self._rows)
        leveled = mask == facts and rows == self._rows
        self.action_layers.append(applicable)
        retain = self.retain_layers
        self.action_mutex.append(act_rows if retain else None)
        self.achievers.append((achievers, ach_masks) if retain else None)
        self.fact_layers.append(mask)
        self.mutex_counts.append(sum(r.bit_count() for r in rows) // 2)
        self.fact_mutex.append(rows if retain or leveled else None)
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
                retain_layers: bool = False) -> PlanningGraph:
    """Grow the graph until level-off (through leveled_at + 1 layers), or
    raise LimitExceeded past max_layers layers. By default only what the
    false sets and the dumps read is kept; see PlanningGraph for
    retain_layers."""
    graph = PlanningGraph(GraphContext(problem), problem.init, max_layers,
                          retain_layers)
    while graph.leveled_at is None:
        graph.grow()
    return graph


def false_set(graph: PlanningGraph, anchor) -> frozenset | None:
    """Atoms outside the anchor that are mutex with at least one anchor
    member at level-off: they never hold together with the anchor.

    None when an anchor atom never enters the graph, where every ordering
    into the anchor holds trivially. ValueError names an anchor id that is
    not an atom.
    """
    check_atom_ids(graph.context.problem, *anchor)
    facts = graph.fact_layers[graph.leveled_at]
    rows = graph.fact_mutex[graph.leveled_at]
    combined = 0
    for atom in anchor:
        if not facts >> atom & 1:
            return None
        combined |= rows[atom]
    return frozenset(mask_ids(combined & ~mask_of(anchor)))


# --- backward search ---------------------------------------------------------

def graphplan_search(context: GraphContext, init, goals,
                     max_layers: int = MAX_LAYERS, max_nodes: int = MAX_NODES):
    """GraphPlan backward search from the state init to the goals:
    step-optimal parallel plan, Unsolvable with a level-off + memoization
    exhaustion proof, or ResourceLimit. ValueError names an init or goal
    id that is not an atom id of the problem.

    No-ops are preferred achievers (goals already true stay true when
    possible); remaining ties break by ascending node id, so plans are
    deterministic across runs. max_nodes bounds the nodes visited over all
    horizons; _BackwardSearch says what counts as one. max_layers bounds
    the layers grown, not the horizon: LimitExceeded propagates when a
    horizon needs a layer past it before level-off, so a plan found within
    it is returned even where the graph would level off later. Horizons
    past level-off read no new layer and run until a plan, the exhaustion
    proof or max_nodes ends the search; the search's LimitExceeded becomes
    ResourceLimit("max_nodes").

    Horizons start at 1 and the first one with a plan returns it. Its plan
    has no step made only of no-ops: dropping that step would give a plan
    of one step fewer, which the previous horizon would have returned, as
    the search at each horizon is complete (every cut removes only subtrees
    without a plan, and a horizon that runs out of nodes ends the search).

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
    layer n. The search's symmetries are the atom permutations that its
    generators compose to, the identity included (see _BackwardSearch).
    Each fixes the initial state and the goals and maps the node triples
    onto themselves, so it maps every layer of the graph with its mutexes,
    every full assignment and every path from the goals onto themselves,
    and a plan for a set onto a plan for the set's image. Call a set
    covered up to symmetry, or covered, when it contains the image under a
    symmetry of a set memoized at layer n. Three facts carry the proof:

    1. A memoized set has no plan from its layer, and neither has a covered
       set at layer n: a plan for a set solves each of its subsets, and the
       inverse symmetry maps a plan for an image onto one for the memoized
       set.
    2. After horizon H, every path of H - n full assignments from the goals
       ends in a covered set. Either the horizon opened the path's last set
       at layer n, which memoizes it, or it cut the path at a set above n
       that contains a nogood N of that layer. By induction on when N was
       memoized, every path from N down to layer n ends in a covered set,
       and the cut path continues through supersets of the sets of one of
       them (see below). When N is the image of a failed set F under a
       generator, the paths from N are the images of the paths from F, and
       the image of a covered set is covered.
    3. A set memoized at layer n is the image, under a symmetry, of a set
       that some horizon opened there at the end of such a path. The
       symmetry maps that path onto a path of the same length from the
       goals to the image.

    Monotonicity links them: the achievers that a full assignment of a
    superset of M picks include a full assignment of M, so each child set
    of the superset contains a child set of M; and the child sets of an
    image are the images of the child sets. Now let horizon H + 1 memoize
    nothing new at layer n. A set memoized there ends a path of
    k <= H - n assignments (by 3), so its child sets end paths of
    k + 1 <= H + 1 - n and are covered (by 2); by monotonicity every child
    set of a covered set is covered. By induction on the path length, every
    path from the goals ends in a covered set, so no horizon has a plan
    (by 1).

    The cuts in _BackwardSearch keep the three facts. Forward checking
    removes only partial assignments that no achiever completes, so the
    full assignments, and with them the paths and the sets opened, are
    those of the search without it. A set that contains a nogood of its
    layer fails at once and is memoized as an opened set, and the memo
    gains images only when a set opened there fails, so an unchanged count
    still means that every set opened at layer n was already there. The
    test for such a nogood reads an index of the nogoods of the sets the
    search failed and of their images, each under its highest fact, not
    the whole memo, and finds the same sets. A nogood inside a set has its
    highest fact in the set, so the buckets of the set's facts hold every
    indexed nogood it contains. A set memoized by the test itself stays out
    of the index, but it contains an indexed nogood, and so does every set
    containing it. The cuts, the memo at layer n and its count are
    therefore those of a scan of the whole memo.

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
      assignment: no plan reaches it at layer t, nor any set containing it,
      nor any image of it under a symmetry.
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
    check_atom_ids(context.problem, *init, *goals)
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
            except LimitExceeded:
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
      search failed, and their images, are also indexed per layer by their
      highest fact, and the test looks only in the buckets of the set's own
      facts: a nogood inside the set has its highest fact there. It returns
      the first it finds, by highest fact and then in the order indexed. A
      set memoized by this test stays out of the index; it contains an
      indexed nogood, so any set containing it is still found.

    Symmetric nogoods (after Fox & Long 1999). At its first failure the
    search keeps, as ``generators``, the context's symmetries
    (GraphContext.symmetries) that fix its initial state and its goals.
    Such a generator maps the graph it grows onto itself, so the image of
    a nogood is a nogood of the same layer. Each nogood memoized and
    indexed on a failure, the set itself or its explanation, is memoized
    and indexed together with its image under each generator, unless the
    memo already maps the image to itself: a set is indexed exactly when
    the memo maps it to itself. Images of images are left to the failures
    that find them, so the memo grows with the number of generators, not
    with the order of the group. ``images`` counts the images memoized.

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
      t-1: for each fact of N, the goal of the earliest chosen node that
      needs it.

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
    subtree skipped by a backjump, and an image costs none. ``backjumps``
    counts the choice points skipped.
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
        self.generators = None  # set at the first failure (_memoize)
        self.images = 0  # images memoized and indexed

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

    def _memoize(self, t: int, goals: int, nogood: int, root: int) -> None:
        """Memoize a goal set that failed at fact layer t with its nogood,
        and memoize and index the nogood and its images under the
        generators. The generators are the context's symmetries that fix
        the initial state and the root goals, kept at the first failure."""
        if self.generators is None:
            init = self.graph.fact_layers[0]
            self.generators = [
                g for g in self.graph.context.symmetries
                if _image(g, init) == init and _image(g, root) == root]
        memo = self.memo[t]
        by_top = self.by_top.setdefault(t, {})
        memo[nogood] = memo[goals] = nogood
        by_top.setdefault(nogood.bit_length() - 1, []).append(nogood)
        for generator in self.generators:
            image = _image(generator, nogood)
            # a set is indexed exactly when the memo maps it to itself
            if memo.get(image) != image:
                memo[image] = image
                by_top.setdefault(image.bit_length() - 1, []).append(image)
                self.images += 1

    def search(self, goals: int, t: int):
        """Steps (node-id sets for action layers 0..t-1) achieving the goal
        mask at fact layer t, or None; LimitExceeded past max_nodes.

        t is a horizon, so t >= 1, and the search at horizon t is the first
        to open a set at fact layer t: earlier horizons open sets only at
        layers up to their own. So the memo and the nogood index at layer t
        are still empty, and the goal set opens as a stack entry. At t = 1
        every full assignment is a plan: each achiever at action layer 0,
        no-ops included, is applicable in fact layer 0, the initial state.
        """
        # fact layers below cut explain their failures
        leveled = self.graph.leveled_at
        cut = t if leveled is None else min(leveled, t)
        root = goals
        level = self._open(goals, t)
        kernel = self.graph.context.kernel
        add_masks, pre_masks = kernel.add_masks, kernel.pre_masks
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
                    raise LimitExceeded(
                        f"search node budget of {self.max_nodes} exceeded")
                if index < n_goals:
                    if added >> goal_ids[index] & 1:
                        index += 1
                        continue
                    k = conflict = held = needed = 0
                elif t == 1:
                    return [{achievers[goal_ids[i]][k - 1]
                             for i, k, *_ in choices}
                            for _, _, goal_ids, achievers, _, _, choices
                            in reversed(levels)]
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
                self._memoize(t, goals, nogood, root)
                if not levels:
                    return None
                t, _, goal_ids, achievers, amasks, rows, choices = levels[-1]
                explain = t < cut
                n_goals = len(goal_ids)
                blame = held = 0
                needed = nogood


def _extract_plan(context: GraphContext, steps) -> Plan:
    # node i is action i (STRIPS); no step is all no-ops (graphplan_search)
    n_actions = context.kernel.n_actions
    return Plan(tuple(frozenset(n for n in step if n < n_actions)
                      for step in steps))


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
