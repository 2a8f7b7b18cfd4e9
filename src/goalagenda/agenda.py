"""Goal graph, degree partition, and goal-agenda assembly.

Pairwise orderings become a directed graph over the atomic goals; its
transitive closure is degree-partitioned (degree = in minus out, ascending)
into ordered disjoint goal sets. Goals that participate in no relation form
the separate set, which is then placed by re-running the analysis at the
set level; anything the set level leaves disconnected defaults into the
final entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .graphplan import AnchorUnreachable, PlanningGraph, build_graph, false_set
from .model import PlanningProblem
from .ordering import ProblemIndex, fixpoint_reduce, possibly_achievable


@dataclass(frozen=True)
class GoalGraph:
    vertices: frozenset
    edges: frozenset  # frozenset[(before, after)]
    trivial_edges: frozenset = frozenset()

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError("goal graph forbids self-loops")
            if a not in self.vertices or b not in self.vertices:
                raise ValueError("edge endpoints must be vertices")


@dataclass(frozen=True)
class Agenda:
    entries: tuple  # tuple[frozenset, ...]
    method: str
    edges: frozenset = frozenset()
    trivial_edges: frozenset = frozenset()
    gsep: frozenset = frozenset()
    gsep_placement: str = "empty"  # empty | ordered | defaulted_last

    def goal_union(self) -> frozenset:
        out: frozenset = frozenset()
        for entry in self.entries:
            out |= entry
        return out


def _before_anchor(problem: PlanningProblem, method: str,
                  graph: PlanningGraph, index: ProblemIndex, anchor,
                  candidates):
    """The candidate goals ordered before the anchor goal set: those that
    no way usable under the anchor's one false set adds (``e``), or that
    are not one-step achievable under its one fixpoint (``h``). None when
    the anchor never enters the graph, where every ordering before it
    holds trivially."""
    if method == "e":
        try:
            f_atoms = false_set(graph, anchor).atoms
        except AnchorUnreachable:
            return None
        view = index.view(anchor, f_atoms)
        return frozenset(b for b in candidates if not view.adds(b))
    view = fixpoint_reduce(problem, anchor, index).o_star
    return frozenset(b for b in candidates
                     if not possibly_achievable(b, view))


def build_goal_graph(problem: PlanningProblem, method: str,
                     graph: PlanningGraph = None,
                     index: ProblemIndex = None) -> GoalGraph:
    """Test every ordered pair of distinct atomic goals with the chosen
    method. The per-anchor artifacts (false set or fixpoint) are computed
    once and shared across all candidate predecessors."""
    if method not in ("e", "h"):
        raise ValueError(f"unknown ordering method {method!r}")
    goals = sorted(problem.goals)
    if not goals:
        raise ValueError("problem has no goals")
    if method == "e" and graph is None:
        graph = build_graph(problem, retain_layers=False)
    if index is None:
        index = ProblemIndex(problem)
    edges = set()
    trivial = set()
    for a in goals:  # a is the anchor: tests of "<goal> before a"
        others = [b for b in goals if b != a]
        before = _before_anchor(problem, method, graph, index, {a}, others)
        if before is None:
            before = others
            trivial.update((b, a) for b in others)
        edges.update((b, a) for b in before)
    return GoalGraph(frozenset(goals), frozenset(edges), frozenset(trivial))


def transitive_closure(g: GoalGraph) -> GoalGraph:
    """Warshall closure (cubic in |vertices|); self-loops discovered on
    cycles are dropped, matching the no-self-loop invariant. Idempotent."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    reach = [[False] * n for _ in range(n)]
    for a, b in g.edges:
        reach[index[a]][index[b]] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    edges = frozenset(
        (verts[i], verts[j])
        for i in range(n) for j in range(n)
        if i != j and reach[i][j]
    )
    return GoalGraph(g.vertices, edges, g.trivial_edges)


def degree_partition(closure: GoalGraph):
    """Group nodes of the closed graph by degree (in minus out), ascending;
    nodes with no edges at all go to the separate set.

    Returns (entries, gsep)."""
    in_deg = {v: 0 for v in closure.vertices}
    out_deg = {v: 0 for v in closure.vertices}
    for a, b in closure.edges:
        out_deg[a] += 1
        in_deg[b] += 1
    gsep = frozenset(v for v in closure.vertices
                     if in_deg[v] == 0 and out_deg[v] == 0)
    by_degree: dict = {}
    for v in sorted(closure.vertices - gsep):
        by_degree.setdefault(in_deg[v] - out_deg[v], set()).add(v)
    entries = [frozenset(by_degree[d]) for d in sorted(by_degree)]
    return entries, gsep


def place_gsep(problem: PlanningProblem, entries, gsep, method: str,
               graph: PlanningGraph = None,
               index: ProblemIndex = None) -> Agenda:
    """Order the separate set against the derived entries with the
    set-level relations; disconnected nodes merge into the final entry."""
    method = method.lower()
    if method not in ("e", "h"):
        raise ValueError(f"unknown ordering method {method!r}")
    entries = [frozenset(e) for e in entries]
    gsep = frozenset(gsep)
    if not gsep:
        return Agenda(tuple(entries), method, gsep=gsep,
                      gsep_placement="empty")
    if method == "e" and graph is None:
        graph = build_graph(problem, retain_layers=False)

    nodes = entries + [gsep]
    if len(nodes) == 1:
        return Agenda((gsep,), method, gsep=gsep,
                      gsep_placement="defaulted_last")
    if index is None:
        index = ProblemIndex(problem)

    # set-level goal analysis over the derived entries plus the separate
    # set: node i is before node j when some goal of i is before j
    node_edges = set()
    for j, anchor in enumerate(nodes):
        before = _before_anchor(problem, method, graph, index, anchor,
                                frozenset().union(*nodes) - anchor)
        node_edges.update((i, j) for i, node in enumerate(nodes)
                          if i != j and (before is None or node & before))

    index_graph = GoalGraph(frozenset(range(len(nodes))),
                            frozenset(node_edges))
    closed = transitive_closure(index_graph)
    ordered, disconnected = degree_partition(closed)

    final_entries = [
        frozenset().union(*(nodes[i] for i in sorted(group)))
        for group in ordered
    ]
    placement = "ordered"
    if disconnected:
        placement = "defaulted_last"
        merged = frozenset().union(*(nodes[i] for i in sorted(disconnected)))
        if final_entries:
            final_entries[-1] = final_entries[-1] | merged
        else:
            final_entries = [merged]
    return Agenda(tuple(final_entries), method, gsep=gsep,
                  gsep_placement=placement)


def compute_agenda(problem: PlanningProblem, method: str = "h",
                   graph: PlanningGraph = None) -> Agenda:
    """Full pipeline: pairwise orderings, closure, degree partition,
    separate-set placement. Single-goal problems yield one entry; empty goal
    sets yield an empty agenda. One ProblemIndex serves the whole call."""
    method = method.lower()
    if not problem.goals:
        return Agenda((), method)
    if method == "e" and graph is None:
        graph = build_graph(problem, retain_layers=False)
    index = ProblemIndex(problem)
    gg = build_goal_graph(problem, method, graph, index=index)
    closure = transitive_closure(gg)
    entries, gsep = degree_partition(closure)
    agenda = place_gsep(problem, entries, gsep, method, graph, index=index)
    return replace(agenda, edges=gg.edges, trivial_edges=gg.trivial_edges)


def agenda_to_dict(problem: PlanningProblem, agenda: Agenda) -> dict:
    """JSON-ready form; atom names, ascending-id order inside entries."""
    names = problem.atoms.names
    return {
        "entries": [names(entry) for entry in agenda.entries],
        "method": agenda.method,
        "edges": sorted(
            [problem.atoms.name(a), problem.atoms.name(b)]
            for a, b in agenda.edges
        ),
        "gsep": names(agenda.gsep),
        "trivial_edges": sorted(
            [problem.atoms.name(a), problem.atoms.name(b)]
            for a, b in agenda.trivial_edges
        ),
        "gsep_placement": agenda.gsep_placement,
    }
