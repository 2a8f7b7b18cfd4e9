"""Tracing from outside the program.

The traced run replaces public boundary functions of the package with
wrappers that record a span (name, start, end, parent, job id) per call, in
this process only. ``from x import f`` binds its own copy of ``f``, so each
name is patched in the namespace of every module that calls it. A name that
no longer exists (after a refactor) is skipped and the metrics it feeds are
reported as absent.

Self time is a span's duration minus the time its child spans cover; every
``_s`` layer metric is a sum of self times, so layers never double count.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute, span name); a span name may be patched in several
# modules that each bind the function
PATCHES = (
    ("pddl", "parse", "pddl.parse"),
    ("pddl", "ground", "pddl.ground"),
    ("graphplan", "build_graph", "graph.build"),
    ("agenda", "build_graph", "graph.build"),
    ("driver", "graphplan_search", "search"),
    ("driver", "forward_search", "forward"),
    ("driver", "next_initial_state", "driver.next_state"),
    ("driver", "validate_plan", "driver.validate"),
    ("ordering", "fixpoint_reduce", "ordering.fixpoint"),
    ("agenda", "fixpoint_reduce", "ordering.fixpoint"),
    ("ordering", "possibly_achievable", "ordering.achievable"),
    ("agenda", "possibly_achievable", "ordering.achievable"),
    ("ordering", "order_e", "ordering.order_e"),
    ("ordering", "order_h", "ordering.order_h"),
    ("agenda", "build_goal_graph", "agenda.goal_graph"),
    ("agenda", "transitive_closure", "agenda.closure"),
    ("agenda", "place_gsep", "agenda.place_gsep"),
    ("oracle", "enumerate_reachable", "oracle.enumerate"),
    ("oracle", "decide_reasonable", "oracle.decide"),
    ("oracle", "decide_forced", "oracle.decide"),
)


def _graph_counts(graph):
    """Layers, action-layer nodes (no-ops included) summed over the layers,
    and fact-mutex pairs summed over the layers."""
    return {"graph.layers": len(graph.fact_layers),
            "graph.nodes": sum(len(layer) for layer in graph.action_layers),
            "graph.mutex_pairs": sum(graph.mutex_counts)}


def _fixpoint_counts(result):
    return {"ordering.fixpoint_sweeps": result.iterations,
            "ordering.f_star_atoms": len(result.f_star)}


def _problem_counts(problem):
    return {"pddl.actions": len(problem.actions),
            "pddl.atoms": len(problem.atoms)}


# span name -> function of the returned value giving counts to add
COUNTERS = {
    "pddl.ground": _problem_counts,
    "graph.build": _graph_counts,
    "ordering.fixpoint": _fixpoint_counts,
    "oracle.enumerate": lambda index: {"oracle.states": len(index.states)},
}

# layer metric -> (span name, how): "self" sums self time, "calls" counts
# spans, "max_self" takes the largest self time of one span
SPAN_METRICS = {
    "pddl.parse_s": ("pddl.parse", "self"),
    "pddl.ground_s": ("pddl.ground", "self"),
    "graph.build_s": ("graph.build", "self"),
    "graph.builds": ("graph.build", "calls"),
    "search.self_s": ("search", "self"),
    "search.episodes": ("search", "calls"),
    "search.episode_max_s": ("search", "max_self"),
    "ordering.fixpoint_s": ("ordering.fixpoint", "self"),
    "ordering.fixpoint_calls": ("ordering.fixpoint", "calls"),
    "ordering.achievable_s": ("ordering.achievable", "self"),
    "ordering.achievable_calls": ("ordering.achievable", "calls"),
    "ordering.order_e_s": ("ordering.order_e", "self"),
    "ordering.order_h_s": ("ordering.order_h", "self"),
    "agenda.goal_graph_self_s": ("agenda.goal_graph", "self"),
    "agenda.closure_s": ("agenda.closure", "self"),
    "agenda.place_gsep_s": ("agenda.place_gsep", "self"),
    "forward.s": ("forward", "self"),
    "forward.calls": ("forward", "calls"),
    "driver.next_state_s": ("driver.next_state", "self"),
    "driver.validate_s": ("driver.validate", "self"),
    "oracle.enumerate_s": ("oracle.enumerate", "self"),
    "oracle.decide_s": ("oracle.decide", "self"),
    "oracle.decide_calls": ("oracle.decide", "calls"),
    "oracle.limit_hits": ("oracle.enumerate", "limit_hits"),
}

# count metrics fed by COUNTERS, with the span name they depend on
COUNT_METRICS = {
    "pddl.actions": "pddl.ground", "pddl.atoms": "pddl.ground",
    "graph.layers": "graph.build", "graph.nodes": "graph.build",
    "graph.mutex_pairs": "graph.build",
    "ordering.fixpoint_sweeps": "ordering.fixpoint",
    "ordering.f_star_atoms": "ordering.fixpoint",
    "oracle.states": "oracle.enumerate",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "children_s",
                 "counts", "error")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.children_s = 0.0
        self.counts = None
        self.error = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


class Tracer:
    """Records spans while installed; ``install`` returns the span names
    whose every patch target is missing, ``uninstall`` restores the
    originals."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list = []
        self.job = None
        self._stack: list = []
        self._saved: list = []

    def install(self) -> set:
        found, wanted = set(), set()
        for module_name, attr, span_name in PATCHES:
            wanted.add(span_name)
            try:
                module = importlib.import_module(
                    f"{self.package}.{module_name}")
            except ModuleNotFoundError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
            found.add(span_name)
        return wanted - found

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span_name):
        counter = COUNTERS.get(span_name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(span_name, time.perf_counter(), parent, self.job)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.children_s += span.end - span.start
                self.spans.append(span)
            if counter is not None:
                try:
                    span.counts = counter(result)
                except AttributeError:
                    span.counts = None  # the result's shape changed
            return result

        traced.__wrapped__ = fn
        return traced

    def open_root(self, name: str, job: str) -> Span:
        """A span the benchmark itself opens around one job."""
        self.job = job
        span = Span(name, time.perf_counter(), None, job)
        self._stack.append(span)
        return span

    def close_root(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)
        self.job = None

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def unit(metric: str) -> str:
    how = SPAN_METRICS.get(metric, (None, None))[1]
    return "s" if how in ("self", "max_self") or metric == "trace.overhead_s" \
        else "count"


def layer_metrics(spans, missing: set, slowdowns: dict) -> dict:
    """Per-layer metrics of one traced pass; metrics that depend on a
    missing span name are left out (reported as absent). Self times are
    divided by ``slowdowns[span.job]``, the host's slowdown during the job
    (key None: outside any job)."""
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    out = {}
    for metric, (span_name, how) in SPAN_METRICS.items():
        if span_name in missing:
            continue
        group = by_name.get(span_name, [])
        if how == "self":
            out[metric] = sum((s.self_s / slowdowns[s.job] for s in group),
                              0.0)
        elif how == "calls":
            out[metric] = len(group)
        elif how == "max_self":
            out[metric] = max((s.self_s / slowdowns[s.job] for s in group),
                              default=0.0)
        else:
            out[metric] = sum(1 for s in group if s.error == "LimitExceeded")
    for metric, span_name in COUNT_METRICS.items():
        group = by_name.get(span_name, [])
        if span_name in missing or any(s.counts is None and s.error is None
                                       for s in group):
            continue
        out[metric] = sum(s.counts[metric] for s in group if s.counts)
    return out


def dump(path, spans) -> None:
    """Write spans as JSON lines: name, start, end, parent index, job."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            parent = index.get(id(span.parent)) if span.parent else None
            fh.write(json.dumps([span.name, span.start, span.end, parent,
                                 span.job]) + "\n")
