"""The benchmark's traced run (``perfbench/spans.py``) patches library
functions from outside and skips a name it cannot find, reporting its
metrics as absent. These tests fail instead when a refactor renames a
patched function or changes the shape of a result a counter reads."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from goalagenda import corpus
from goalagenda.pddl import parse

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans",
    Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def target(module_name, attr):
    module = importlib.import_module(f"goalagenda.{module_name}")
    return getattr(module, attr, None)


@pytest.mark.parametrize("module_name, attr, span_name", spans.PATCHES)
def test_patch_target_is_a_callable_of_the_package(module_name, attr,
                                                   span_name):
    assert callable(target(module_name, attr)), f"{module_name}.{attr}"


# span name -> a call of the wrapped function on blocks2
CALLS = {
    "pddl.ground": lambda f, _: f(*parse(corpus.domain_text("blocks"),
                                         corpus.problem_text("blocks",
                                                             "two"))),
    "graph.build": lambda f, problem: f(problem, retain_layers=False),
    "ordering.fixpoint": lambda f, problem: f(problem,
                                              {min(problem.goals)}),
    "oracle.enumerate": lambda f, problem: f(problem),
}


def test_every_counter_has_a_call():
    assert sorted(CALLS) == sorted(spans.COUNTERS)


@pytest.mark.parametrize(
    "module_name, attr, span_name",
    [patch for patch in spans.PATCHES if patch[2] in spans.COUNTERS])
def test_counter_reads_the_result_of_its_function(load, module_name, attr,
                                                  span_name):
    result = CALLS[span_name](target(module_name, attr), load("blocks2"))
    counts = spans.COUNTERS[span_name](result)
    assert sorted(counts) == sorted(
        metric for metric, name in spans.COUNT_METRICS.items()
        if name == span_name)
    assert all(isinstance(v, int) and v >= 0 for v in counts.values())
