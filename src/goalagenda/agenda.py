"""Goal graph, degree partition, and goal-agenda assembly.

Pairwise orderings become a directed graph over the atomic goals; its
transitive closure is degree-partitioned (degree = in minus out, ascending)
into ordered disjoint goal sets. Goals that participate in no relation form
the separate set, which is then placed by re-running the analysis at the
set level; anything the set level leaves disconnected defaults into the
final entry.

Both levels run one loop (``_node_edges``) over a list of goal sets: the
atomic goals as singletons, then the entries plus the separate set. Each
anchor set gets one ``ordering.ordered_before`` call, which computes its
one false set (``e``) or one fixpoint (``h``) and tests every goal of the
other sets against it. The entry points accept the method in either case;
below ``compute_agenda`` they take the ProblemIndex their caller built,
and a planning graph the caller does not pass is built in one place,
``_graph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphplan import PlanningGraph, build_graph
from .model import PlanningProblem
from .ordering import ProblemIndex, check_method, ordered_before
# no longer called here; kept because perfbench/spans.py patches them here
from .ordering import fixpoint_reduce, possibly_achievable  # noqa: F401


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


class Agenda(NamedTuple):
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


def _graph(index: ProblemIndex, method: str, graph: PlanningGraph):
    """The planning graph the ``e`` method reads: the caller's, else one
    built here. ``h`` reads none and gets the caller's as it is."""
    if method == "e" and graph is None:
        graph = build_graph(index.problem)
    return graph


def _node_edges(index: ProblemIndex, method: str, graph: PlanningGraph,
                nodes):
    """One ``ordered_before`` call per anchor node over the goals of the
    other nodes: (i, j) is an edge when some goal of node i is ordered
    before node j. Returns (edges, trivial) as sets of index pairs; the
    trivial edges are those into an anchor that never enters the graph."""
    owners: dict = {}  # goal -> indices of the nodes holding it
    for i, node in enumerate(nodes):
        for g in node:
            owners.setdefault(g, []).append(i)
    goals = frozenset(owners)
    edges = set()
    trivial = set()
    for j, anchor in enumerate(nodes):
        before = ordered_before(index, method, graph, anchor, goals - anchor)
        if before is None:
            trivial.update((i, j) for i in range(len(nodes)) if i != j)
        else:
            edges.update((i, j) for b in before for i in owners[b])
    return edges | trivial, trivial


def build_goal_graph(index: ProblemIndex, method: str,
                     graph: PlanningGraph = None) -> GoalGraph:
    """Test every ordered pair of distinct atomic goals of
    ``index.problem`` with the chosen method. The per-anchor artifacts
    (false set or fixpoint) are computed once and shared across all
    candidate predecessors."""
    method = check_method(method)
    goals = sorted(index.problem.goals)
    if not goals:
        raise ValueError("problem has no goals")
    edges, trivial = _node_edges(index, method, _graph(index, method, graph),
                                 [frozenset({g}) for g in goals])
    return GoalGraph(frozenset(goals),
                     frozenset((goals[i], goals[j]) for i, j in edges),
                     frozenset((goals[i], goals[j]) for i, j in trivial))


def transitive_closure(g: GoalGraph) -> GoalGraph:
    """Warshall closure over one bitmask row per vertex (cubic in
    |vertices| bit operations); self-loops discovered on cycles are
    dropped, matching the no-self-loop invariant. Idempotent."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    reach = [0] * len(verts)
    for a, b in g.edges:
        reach[index[a]] |= 1 << index[b]
    for k, row in enumerate(reach):
        bit = 1 << k
        for i, ri in enumerate(reach):
            if ri & bit:
                reach[i] = ri | row
    columns = range(len(verts))
    edges = frozenset((verts[i], verts[j]) for i, row in enumerate(reach)
                      for j in columns if row >> j & 1 and i != j)
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


def place_gsep(index: ProblemIndex, entries, gsep, method: str,
               graph: PlanningGraph = None) -> Agenda:
    """Order the separate set against the derived entries with the
    set-level relations; disconnected nodes merge into the final entry."""
    method = check_method(method)
    entries = [frozenset(e) for e in entries]
    gsep = frozenset(gsep)
    if not gsep:
        return Agenda(tuple(entries), method, gsep=gsep,
                      gsep_placement="empty")
    if not entries:
        return Agenda((gsep,), method, gsep=gsep,
                      gsep_placement="defaulted_last")

    # set-level goal analysis over the derived entries plus the separate set
    nodes = entries + [gsep]
    node_edges, _ = _node_edges(index, method, _graph(index, method, graph),
                                nodes)
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
    method = check_method(method)
    if not problem.goals:
        return Agenda((), method)
    index = ProblemIndex(problem)
    graph = _graph(index, method, graph)
    gg = build_goal_graph(index, method, graph)
    closure = transitive_closure(gg)
    entries, gsep = degree_partition(closure)
    agenda = place_gsep(index, entries, gsep, method, graph)
    return agenda._replace(edges=gg.edges, trivial_edges=gg.trivial_edges)


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
