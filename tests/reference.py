"""Reference implementations the optimized code is checked against.

``RecursiveSearch`` is GraphPlan's backward search written as a recursion
over frozensets, with a per-candidate pairwise mutex scan; it has the same
interface as ``graphplan._BackwardSearch`` (goal sets passed as int
bitmasks), so a test can swap it in with monkeypatch and compare results.

``LinearScanSearch`` is ``graphplan._BackwardSearch`` with its subset-nogood
test written as a scan over every nogood memoized at the layer, the
exact-lookup and subset-hit sets included. It returns the nogood it finds
with the lowest highest fact, the first memoized among those; the nogood is
the explanation of the set's failure, so the indexed test must return
exactly that one, and both visit the same nodes, skip the same choice
points and memoize the same sets.

``full_step`` is one planning-graph layer transition recomputed from the
node triples: action-mutex rows by ``pairwise_action_rows``, which tests
every pair of applicable nodes, fact mutexes by testing every pair of
present facts over every pair of achievers, and the achiever lists and
masks by a scan of the applicable nodes' add sets.

``ScanView``, ``usable_given``, ``compute_f_da``, ``fixpoint_reduce``,
``possibly_achievable`` and ``graph_test`` are the direct-analysis
ordering layer written as scans over every action, with the STRIPS/ADL
split made per action; the index-based versions in ``goalagenda.ordering``
must agree with them. ``quadratic_inverse_ids`` is the invertibility
check's inverse search tried against every action pair.

``apply_strips``, ``apply_adl``, ``apply_action`` and ``result_sequence``
execute actions on frozenset states, with their own effect evaluation:
an inapplicable action is the identity, and an ADL action whose fired
adds meet its fired deletes raises ``ConflictingEffects``. The library
executes over int masks and shares none of this.

``naive_enumerate`` is the oracle's state space built by a plain
breadth-first search over ``apply_action``, with each transition's adds
taken from its own evaluation of the fired effects. ``naive_decide`` is
the exact ordering test as the paper states it: anchor states read off
the edges by that same evaluation, then a fresh breadth-first search from
each anchor state in turn, with its own scan for the actions that keep the
anchor atom.

``naive_forward_search`` is the forward planner as a breadth-first search
over ``apply_action`` on frozenset states, testing every action's
precondition in every state, with the same goal test and state budget.

``tokenize`` is the PDDL reader's scanner written as a loop over the
characters, and ``read_sexprs`` nests its tokens as ``pddl._read_sexprs``
does, with ``(text, line, col)`` tuples for the tokens; the regex scanner
must yield the same tokens, positions and errors.

``ground`` is the PDDL grounder written per instance: it binds each
instance's parameters in a dict, maps every literal's arguments through
it and formats and interns a name for each literal, in the order the
library's compiled slots must follow (preconditions up to the first false
static literal, then each effect literal's own atom and its complement,
then each ``when`` clause the same way).
"""

from __future__ import annotations

import itertools
import sys
from collections import deque
from contextlib import contextmanager

from goalagenda.graphplan import _BackwardSearch, _NodeBudgetExceeded
from goalagenda.model import (
    AdlAction,
    AtomTable,
    ConditionalEffect,
    ConflictingEffects,
    Plan,
    PlanningProblem,
    ResourceLimit,
    StripsAction,
    Unsolvable,
    mask_ids,
)
from goalagenda.ordering import (FixpointResult, OrderingVerdict,
                                 implied_deletes)
from goalagenda.pddl import (
    Literal,
    PddlSyntaxError,
    TypeMismatch,
    WhenClause,
    _type_table,
)


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
        self.context = graph.context
        # node id -> (condition, adds, deletes), one per way
        self.nodes = tuple(
            itertools.chain.from_iterable(graph.context.problem.ways))
        self.max_nodes = max_nodes
        self.nodes_used = 0
        self.memo: dict = {}
        self._achievers_cache: dict = {}

    def _layer(self, t: int) -> int:
        return self.graph.layer(t)

    def goals_mutex(self, layer: int, goals: int) -> bool:
        rows = self.graph.fact_mutex[layer]
        gs = mask_ids(goals)
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
        noop = self.context.n_real_nodes + fact
        out = []
        for node_id in self.graph.action_layers[layer]:
            if node_id == noop:
                out.insert(0, node_id)
            elif node_id < self.context.n_real_nodes \
                    and fact in self.nodes[node_id][1]:
                out.append(node_id)
        self._achievers_cache[key] = out
        return out

    def _node_pre(self, node_id: int):
        if node_id >= self.context.n_real_nodes:
            return frozenset((node_id - self.context.n_real_nodes,))
        return self.nodes[node_id][0]

    def search(self, goals: int, t: int):
        with recursion_limit(10_000):
            return self._search(frozenset(mask_ids(goals)), t)

    def _search(self, goals, t: int):
        if t == 0:
            init = self.graph.fact_layers[0]
            return [] if all(init >> g & 1 for g in goals) else None
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
            if node_id < self.context.n_real_nodes \
                    and goal in self.nodes[node_id][1]:
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


class LinearScanSearch(_BackwardSearch):
    def _contains_nogood(self, goals: int, goal_ids, t: int) -> int:
        inside = [n for n in self.memo[t] if goals | n == goals]
        return min(inside, key=int.bit_length) if inside else 0


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
    its preconditions are present and pairwise non-mutex, every pair of
    present facts is tested over every pair of achievers, with no
    incremental rule, and each fact's achievers are sorted no-op first,
    then by node id."""
    triples = _with_noops(n_facts, nodes)
    facts = {f for f in range(n_facts) if fact_mask >> f & 1}
    applicable = [a for a, (pre, _, _) in enumerate(triples)
                  if pre <= facts
                  and not any(mutex_rows[p] >> q & 1 for p in pre for q in pre)]
    action_rows = pairwise_action_rows(n_facts, nodes, applicable, mutex_rows)
    next_facts = facts.union(*(triples[a][1] for a in applicable))
    achievers = [sorted((a for a in applicable if f in triples[a][1]),
                        key=lambda a: (a < len(nodes), a))
                 for f in range(n_facts)]
    next_rows = [0] * n_facts
    for p in next_facts:
        for q in next_facts:
            if p < q and all(action_rows[a] >> b & 1
                             for a in achievers[p] for b in achievers[q]):
                next_rows[p] |= 1 << q
                next_rows[q] |= 1 << p
    return (applicable, sum(1 << f for f in next_facts), next_rows,
            action_rows, achievers,
            [sum(1 << a for a in achs) for achs in achievers])


# --- direct-analysis ordering layer, by scans over every action --------------

class ScanView:
    """Surviving action ids plus, for ADL, the surviving effect indices per
    action; addable atoms and achieving conditions by scanning them all."""

    def __init__(self, problem, action_ids, surviving_effects=None):
        self.problem = problem
        self.action_ids = frozenset(action_ids)
        self.surviving_effects = surviving_effects

    def addable_atoms(self) -> frozenset:
        atoms: set = set()
        for action_id in self.action_ids:
            action = self.problem.actions[action_id]
            if isinstance(action, StripsAction):
                atoms |= action.add
            else:
                for i in self.surviving_effects[action_id]:
                    atoms |= action.effects[i].adds
        return frozenset(atoms)

    def achieving_conditions(self, p: int):
        for action_id in sorted(self.action_ids):
            action = self.problem.actions[action_id]
            if isinstance(action, StripsAction):
                if p in action.add:
                    yield action.pre
            else:
                pre0 = action.effects[0].condition
                for i in self.surviving_effects[action_id]:
                    eff = action.effects[i]
                    if p in eff.adds:
                        yield eff.condition | pre0


def usable_given(problem, anchor, f_set) -> ScanView:
    """Anchor deleters out, then everything whose own condition meets the
    false set; an ADL action survives only with its effect 0."""
    anchor = frozenset(anchor)
    if not problem.is_adl:
        ids = [i for i, a in enumerate(problem.actions)
               if not (a.delete & anchor) and not (a.pre & f_set)]
        return ScanView(problem, ids)
    ids = []
    surviving: dict = {}
    for i, action in enumerate(problem.actions):
        eff0 = action.effects[0]
        if eff0.deletes & anchor or eff0.condition & f_set:
            continue
        keep = tuple(
            k for k in range(len(action.effects))
            if not (implied_deletes(action, k) & anchor)
            and not (action.effects[k].condition & f_set)
        )
        if 0 in keep:
            ids.append(i)
            surviving[i] = keep
    return ScanView(problem, ids, surviving)


def _always_deleted_for(action, atom: int):
    d = None
    for i, eff in enumerate(action.effects):
        if atom in eff.adds:
            di = implied_deletes(action, i)
            d = di if d is None else d & di
    return d


def compute_f_da(problem, anchor) -> frozenset:
    out: set = set()
    for atom in sorted(anchor):
        intersection = None
        for action in problem.actions:
            if isinstance(action, StripsAction):
                if atom in action.add:
                    d = action.delete
                else:
                    continue
            else:
                d = _always_deleted_for(action, atom)
                if d is None:
                    continue
            intersection = d if intersection is None else intersection & d
        if intersection:
            out |= intersection
    return frozenset(out)


def possibly_achievable(p: int, view) -> bool:
    addable = view.addable_atoms()
    return any(conditions <= addable
               for conditions in view.achieving_conditions(p))


def fixpoint_reduce(problem, anchor) -> FixpointResult:
    anchor = frozenset(anchor)
    f_star = set(compute_f_da(problem, anchor))
    view = usable_given(problem, anchor, f_star)
    sweeps = 0
    fixpoint_reached = False
    while not fixpoint_reached:
        sweeps += 1
        fixpoint_reached = True
        for f in sorted(f_star):
            if f not in f_star:
                continue
            if possibly_achievable(f, view):
                f_star.discard(f)
                view = usable_given(problem, anchor, f_star)
                fixpoint_reached = False
    return FixpointResult(frozenset(f_star), view, sweeps)


def graph_test(problem, f_atoms, anchor, b: int) -> bool:
    anchor = frozenset(anchor)
    for action in problem.actions:
        if isinstance(action, StripsAction):
            if b in action.add and not (action.delete & anchor):
                if not (action.pre & f_atoms):
                    return False
        else:
            pre0 = action.effects[0].condition
            for i, eff in enumerate(action.effects):
                if b in eff.adds and not (implied_deletes(action, i) & anchor):
                    if not ((eff.condition | pre0) & f_atoms):
                        return False
    return True


def quadratic_inverse_ids(problem) -> list:
    def is_inverse(o, cand):
        return (cand.add == o.delete
                and cand.delete == o.add
                and cand.pre <= (o.pre | o.add) - o.delete)

    return [next((cand_id for cand_id, cand in enumerate(problem.actions)
                  if is_inverse(o, cand)), -1)
            for o in problem.actions]


def allowed_actions(problem, relation: str, a: int) -> frozenset:
    """Every action for the forced ordering; for the reasonable one, the
    actions none of whose effects deletes a."""
    def deletes(action):
        if isinstance(action, StripsAction):
            return action.delete
        return frozenset().union(*(eff.deletes for eff in action.effects))

    return frozenset(i for i, action in enumerate(problem.actions)
                     if relation == "f" or a not in deletes(action))


def apply_strips(state: frozenset, action) -> frozenset:
    """(s | add) - delete when the precondition holds, s otherwise."""
    if action.pre <= state:
        return (state | action.add) - action.delete
    return state


def apply_adl(state: frozenset, action) -> frozenset:
    """Every effect whose condition holds in ``state`` applied together;
    the identity when the precondition fails."""
    if not action.pre <= state:
        return state
    fired = [eff for eff in action.effects if eff.condition <= state]
    adds = frozenset().union(*(eff.adds for eff in fired))
    deletes = frozenset().union(*(eff.deletes for eff in fired))
    if adds & deletes:
        raise ConflictingEffects(
            f"action {action.name!r}: atoms both added and deleted: "
            f"{sorted(adds & deletes)}")
    return (state - deletes) | adds


def apply_action(state: frozenset, action) -> frozenset:
    if isinstance(action, StripsAction):
        return apply_strips(state, action)
    return apply_adl(state, action)


def result_sequence(state: frozenset, actions) -> frozenset:
    """Left fold of apply_action; the empty sequence returns ``state``."""
    for action in actions:
        state = apply_action(state, action)
    return state


def entering_adds(action, state) -> frozenset:
    """What an action applicable in ``state`` adds: a STRIPS action's add
    list, or the adds of every ADL effect whose condition holds."""
    if isinstance(action, StripsAction):
        return action.add
    return frozenset().union(*(eff.adds for eff in action.effects
                               if eff.condition <= state))


def naive_enumerate(problem):
    """States in discovery order, per state its ``(action_id, successor
    index)`` edges, and per atom the ascending indices of the states some
    transition entered while adding it."""
    states = [frozenset(problem.init)]
    index_of = {states[0]: 0}
    edges = []
    entered: dict = {}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        out = []
        for action_id, action in enumerate(problem.actions):
            if not action.pre <= states[i]:
                continue
            succ = apply_action(states[i], action)
            if succ not in index_of:
                index_of[succ] = len(states)
                states.append(succ)
                queue.append(index_of[succ])
            j = index_of[succ]
            out.append((action_id, j))
            for atom in entering_adds(action, states[i]):
                entered.setdefault(atom, set()).add(j)
        edges.append(tuple(out))
    return (states, edges,
            {atom: sorted(js) for atom, js in entered.items()})


def naive_decide(index, relation: str, b: int, a: int,
                 allowed: frozenset) -> OrderingVerdict:
    """For each state just entered while adding a with b false, in discovery
    order, a fresh breadth-first search over the allowed transitions; the
    first that reaches b refutes the ordering, with its shortest plan."""
    problem_actions = index.problem.actions
    anchors = sorted({j for i, out in enumerate(index.edges)
                      for action_id, j in out
                      if a in entering_adds(problem_actions[action_id],
                                            index.states[i])
                      and b not in index.states[j]})
    if not anchors:
        return OrderingVerdict(relation, holds=True, trivial=True)
    for start in anchors:
        parents = {start: None}
        queue = deque([start])
        while queue:
            i = queue.popleft()
            if b in index.states[i]:
                actions = []
                while parents[i] is not None:
                    i, action_id = parents[i]
                    actions.append(action_id)
                plan = Plan.sequential(reversed(actions))
                return OrderingVerdict(relation, holds=False, trivial=False,
                                       witness=(index.states[start], plan))
            for action_id, j in index.edges[i]:
                if action_id in allowed and j not in parents:
                    parents[j] = (i, action_id)
                    queue.append(j)
    return OrderingVerdict(relation, holds=True, trivial=False)


def naive_forward_search(problem, max_states: int = 200_000):
    """Shortest sequential plan by breadth-first search over frozensets:
    successors in action-id order, the goal tested when a state is first
    generated, and ``ResourceLimit`` once more than ``max_states`` states
    are known."""
    if problem.goals <= problem.init:
        return Plan(())
    start = frozenset(problem.init)
    parents = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for action_id, action in enumerate(problem.actions):
            if not action.pre <= state:
                continue
            succ = apply_action(state, action)
            if succ in parents:
                continue
            parents[succ] = (state, action_id)
            if problem.goals <= succ:
                actions = []
                while parents[succ] is not None:
                    succ, action_id = parents[succ]
                    actions.append(action_id)
                return Plan.sequential(reversed(actions))
            if len(parents) > max_states:
                return ResourceLimit("max_states", max_states)
            queue.append(succ)
    return Unsolvable("state space exhausted")


def tokenize(text: str):
    """``(text, line, col)`` for every token: a parenthesis or a run of
    characters other than parentheses, ``;``, space, tab, ``\\r`` and
    ``\\n``. A ``;`` starts a comment that runs to the end of the line."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in "()":
            yield (ch, line, col)
            col += 1
            i += 1
            continue
        start = i
        start_col = col
        while i < n and text[i] not in " \t\r\n();":
            i += 1
            col += 1
        yield (text[start:i], line, start_col)


def read_sexprs(text: str) -> list:
    """The top-level forms of ``text`` as nested lists of ``tokenize``'s
    tuples."""
    stack: list = [[]]
    opens: list = []
    for tok in tokenize(text):
        if tok[0] == "(":
            stack.append([])
            opens.append(tok)
        elif tok[0] == ")":
            if len(stack) == 1:
                raise PddlSyntaxError("unbalanced ')'", tok[1], tok[2])
            done = stack.pop()
            opens.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise PddlSyntaxError("unbalanced '('", opens[-1][1], opens[-1][2])
    return stack[0]


def ground(domain, problem) -> PlanningProblem:
    """``pddl.ground`` one instance at a time: the same atom ids, init,
    goals, actions and errors."""
    table = _type_table(domain.types, problem.objects)
    pred_types = dict(domain.predicates)

    def objects_of(ty: str) -> list:
        if ty not in table:
            raise TypeMismatch(f"parameter type {ty!r} is not declared")
        return table[ty]

    conditions, effect_preds, as_adl = [], set(), False
    for op in domain.operators:
        conditions.extend(op.precondition)
        for item in op.effect:
            if isinstance(item, WhenClause):
                as_adl = True
                conditions.extend(item.conditions)
                effect_preds.update(lit.predicate for lit in item.effects)
            else:
                effect_preds.add(item.predicate)
    static = {name for name, _ in domain.predicates} - effect_preds
    negated = list(dict.fromkeys(lit.predicate for lit in conditions
                                 if not lit.positive
                                 and lit.predicate not in static))

    atoms = AtomTable()

    def intern(pred: str, args) -> int:
        return atoms.intern(f"{pred}({','.join(args)})")

    init_atoms = set(problem.init)
    init_ids = {intern(pred, args) for pred, args in problem.init}
    for pred in negated:
        for combo in itertools.product(*map(objects_of, pred_types[pred])):
            comp = intern("not-" + pred, combo)
            if (pred, combo) not in init_atoms:
                init_ids.add(comp)

    for pred, args in problem.init:
        for arg, ty in zip(args, pred_types[pred]):
            if arg not in table.get(ty, ()):
                raise TypeMismatch(f"init atom {pred}{args}: {arg!r} is not a {ty}")
    goal_ids = set()
    for pred, args in problem.goal:
        for arg, ty in zip(args, pred_types[pred]):
            if arg not in table.get(ty, ()):
                raise TypeMismatch(f"goal atom {pred}{args}: {arg!r} is not a {ty}")
        goal_ids.add(intern(pred, args))

    actions = []
    for op in domain.operators:
        variables = [var for var, _ in op.parameters]
        for combo in itertools.product(*(objects_of(ty)
                                         for _, ty in op.parameters)):
            action = _ground_instance(op, variables, combo, intern,
                                      init_atoms, static, negated, as_adl)
            if action is not None:
                actions.append(action)
    return PlanningProblem(atoms=atoms, actions=tuple(actions),
                           init=frozenset(init_ids), goals=frozenset(goal_ids),
                           name=problem.name)


def _ground_instance(op, variables, combo, intern, init_atoms, static,
                     negated, as_adl):
    """One ground instance, or None when a static precondition fails."""
    binding = dict(zip(variables, combo))

    def evaluate(literals, effect):
        """An effect's (adds, deletes), or a condition's ids as the first of
        the pair: None when a static literal is false in init, while a true
        one is dropped. A negated literal stands for its complement atom."""
        adds, dels = [], []
        for lit in literals:
            pred = lit.predicate
            args = tuple(map(binding.get, lit.args, lit.args))  # objects stay
            if effect:
                (adds if lit.positive else dels).append(intern(pred, args))
                if pred in negated:
                    (dels if lit.positive else adds).append(
                        intern("not-" + pred, args))
            elif pred in static:
                if ((pred, args) in init_atoms) != lit.positive:
                    return None
            else:
                adds.append(intern(pred if lit.positive else "not-" + pred,
                                   args))
        adds = frozenset(adds)
        return adds, frozenset(dels) - adds  # add wins within one effect

    pre = evaluate(op.precondition, effect=False)
    if pre is None:
        return None
    name = f"{op.name}({','.join(combo)})"
    adds, dels = evaluate([i for i in op.effect if isinstance(i, Literal)],
                          effect=True)
    if not as_adl:
        return StripsAction(name, pre[0], adds, dels)
    effects = [ConditionalEffect(pre[0], adds, dels)]
    for clause in op.effect:
        if isinstance(clause, WhenClause):
            condition = evaluate(clause.conditions, effect=False)
            if condition is not None:  # else statically impossible
                effects.append(ConditionalEffect(
                    condition[0], *evaluate(clause.effects, effect=True)))
    return AdlAction(name, tuple(effects))
