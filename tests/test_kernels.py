"""The layer kernel against references recomputed from the node triples:
every output of every step against a full recomputation with no incremental
mutex rule, and the bitset action-mutex rows against a pairwise test."""

import pytest
from hypothesis import given, settings, strategies as st

from goalagenda import corpus, kernel_backend
from goalagenda.graphplan import graph_nodes
from goalagenda.kernel import GraphKernel
from reference import full_step, pairwise_action_rows


def walk(n_facts, nodes, init, check, max_layers=60):
    """Step the kernel from init until the graph levels off, calling
    check(layer, fact mask, mutex rows, step result) at every layer."""
    kern = GraphKernel(n_facts, nodes)
    fm = sum(1 << f for f in set(init))
    rows = [0] * n_facts
    for layer in range(max_layers):
        result = kern.step(fm, rows)
        check(layer, fm, rows, result)
        next_fm, next_rows = result[1], result[2]
        if next_fm == fm and next_rows == rows:
            return
        fm, rows = next_fm, next_rows
    raise AssertionError("graph did not level off")


def check_full_step(n_facts, nodes, init):
    def check(layer, fm, rows, result):
        want = full_step(n_facts, nodes, fm, rows)
        for what, got, expected in zip(
                ("applicable", "fact layers", "fact mutex", "action mutex"),
                result, want):
            assert got == expected, f"{what} differ at layer {layer}"

    walk(n_facts, nodes, init, check)


def check_action_rows(n_facts, nodes, init):
    def check(layer, fm, rows, result):
        applicable, act_rows = result[0], result[3]
        assert act_rows == pairwise_action_rows(n_facts, nodes, applicable,
                                                rows), \
            f"action mutex differs at layer {layer}"

    walk(n_facts, nodes, init, check)


def corpus_graph(name):
    problem = corpus.load(name)
    nodes = [(sorted(n.pre), sorted(n.add), sorted(n.delete))
             for n in graph_nodes(problem)]
    return len(problem.atoms), nodes, problem.init


@pytest.mark.parametrize("name", ["blocks2", "blocks3", "trap", "revival",
                                  "diamond", "gripper2", "hanoi_3",
                                  "stack_4", "tyreworld_1", "latch"])
def test_backend_parity_on_corpus(name):
    check_full_step(*corpus_graph(name))


@st.composite
def random_problem(draw, max_facts=7, max_actions=6):
    n_facts = draw(st.integers(min_value=1, max_value=max_facts))
    facts = st.integers(min_value=0, max_value=n_facts - 1)
    fact_sets = st.lists(facts, max_size=3, unique=True)
    n_actions = draw(st.integers(min_value=0, max_value=max_actions))
    nodes = []
    for _ in range(n_actions):
        pre = sorted(draw(fact_sets))
        add = sorted(draw(fact_sets))
        dele = sorted(set(draw(fact_sets)) - set(add))
        nodes.append((pre, add, dele))
    init = sorted(draw(fact_sets))
    return n_facts, nodes, init


@settings(max_examples=150, deadline=None)
@given(random_problem())
def test_backend_parity_on_random_problems(problem):
    check_full_step(*problem)


@pytest.mark.parametrize("name", ["blocks3", "trap", "revival", "diamond",
                                  "gripper2", "hanoi_3", "stack_4",
                                  "tyreworld_1", "latch"])
def test_action_rows_match_pairwise_on_corpus(name):
    check_action_rows(*corpus_graph(name))


@settings(max_examples=150, deadline=None)
@given(random_problem())
def test_action_rows_match_pairwise_on_random_problems(problem):
    check_action_rows(*problem)


def test_active_backend_is_named():
    assert kernel_backend() == "python"
