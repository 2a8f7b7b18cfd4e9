"""The layer kernel against references recomputed from the node triples:
every output of every step (the achiever lists and masks included) against
a full recomputation with no incremental mutex rule, and the bitset
action-mutex rows against a pairwise test."""

import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from goalagenda import corpus, kernel_backend
from goalagenda.kernel import GraphKernel
from reference import full_step, pairwise_action_rows


def walk(n_facts, nodes, init, check, max_layers=60):
    """Step the kernel from init until the graph levels off, calling
    check(layer, fact mask, mutex rows, step result) at every layer; returns
    the number of steps taken."""
    kern = GraphKernel(n_facts, nodes)
    fm = sum(1 << f for f in set(init))
    rows = [0] * n_facts
    for layer in range(max_layers):
        result = kern.step(fm, rows)
        check(layer, fm, rows, result)
        next_fm, next_rows = result[1], result[2]
        if next_fm == fm and next_rows == rows:
            return layer + 1
        fm, rows = next_fm, next_rows
    raise AssertionError("graph did not level off")


def check_full_step(n_facts, nodes, init):
    def check(layer, fm, rows, result):
        want = full_step(n_facts, nodes, fm, rows)
        for what, got, expected in zip(
                ("applicable", "fact layers", "fact mutex", "action mutex",
                 "achievers", "achiever masks"),
                result, want, strict=True):
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
    nodes = [(sorted(pre), sorted(add), sorted(delete))
             for pre, add, delete in chain.from_iterable(problem.ways)]
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


# Counts that are not multiples of 4 or 8, so the last nibble and byte of
# the kernel's OR tables are partial and the masks span several bytes.
CHUNKY_SIZES = [n for n in range(9, 41) if n % 4]


def chunky_problem(seed: int):
    """A seeded random problem with 9-40 facts and 9-40 actions, counts in
    CHUNKY_SIZES, a non-empty initial state, and a graph that takes at
    least three steps to level off."""
    rng = random.Random(seed)
    while True:
        n_facts = rng.choice(CHUNKY_SIZES)
        nodes = []
        for _ in range(rng.choice(CHUNKY_SIZES)):
            pre = sorted(rng.sample(range(n_facts), rng.randint(1, 3)))
            add = sorted(rng.sample(range(n_facts), rng.randint(1, 3)))
            dele = sorted(set(rng.sample(range(n_facts), rng.randint(0, 3)))
                          - set(add))
            nodes.append((pre, add, dele))
        init = sorted(rng.sample(range(n_facts),
                                 rng.randint(1, max(1, n_facts // 4))))
        if walk(n_facts, nodes, init, lambda *_: None) >= 3:
            return n_facts, nodes, init


def check_element_order_ignored(n_facts, nodes, init):
    """A kernel built from the nodes with each set's elements in reverse
    order steps to equal outputs: the kernel only ORs or masks over a set's
    elements, so GraphContext passes the problem's sets unsorted."""
    reverse = GraphKernel(n_facts, [tuple(ids[::-1] for ids in node)
                                    for node in nodes])

    def check(layer, fm, rows, result):
        assert reverse.step(fm, rows) == result, \
            f"reversed sets step differently at layer {layer}"

    walk(n_facts, nodes, init, check)


@pytest.mark.parametrize("seed", range(40))
def test_backend_parity_across_table_chunks(seed):
    problem = chunky_problem(seed)
    check_full_step(*problem)
    check_element_order_ignored(*problem)


@pytest.mark.parametrize("seed", range(40))
def test_action_rows_match_pairwise_across_table_chunks(seed):
    check_action_rows(*chunky_problem(seed))


def test_active_backend_is_named():
    assert kernel_backend() == "python"
