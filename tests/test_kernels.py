"""The two layer kernels must be observationally identical; the pure twin's
incremental mutex rule is validated against the compiled twin's full
recomputation here. The pure twin's bitset action-mutex rows are also
checked against a pairwise reference, which needs no compiled kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from goalagenda import corpus
from goalagenda.graphplan import graph_nodes
from goalagenda.kernel import PyGraphKernel, backend
from reference import pairwise_action_rows

try:
    from goalagenda._speedups import GraphKernel as CGraphKernel
    HAVE_C = True
except ImportError:
    HAVE_C = False

needs_c = pytest.mark.skipif(not HAVE_C, reason="compiled kernel not built")


def run_both(n_facts, nodes, init, max_layers=40):
    kc = CGraphKernel(n_facts, nodes)
    kp = PyGraphKernel(n_facts, nodes)
    fm = 0
    for i in init:
        fm |= 1 << i
    rows = [0] * n_facts
    for layer in range(max_layers):
        rc = kc.step(fm, rows, True)
        rp = kp.step(fm, rows, True)
        assert rc[0] == rp[0], f"applicable differ at layer {layer}"
        assert rc[1] == rp[1], f"fact layers differ at layer {layer}"
        assert rc[2] == rp[2], f"fact mutex differ at layer {layer}"
        assert rc[3] == rp[3], f"action mutex differ at layer {layer}"
        leveled = rc[1] == fm and rc[2] == rows
        fm, rows = rc[1], rc[2]
        if leveled:
            return layer
    raise AssertionError("graph did not level off")


@needs_c
@pytest.mark.parametrize("name", ["blocks2", "blocks3", "trap", "revival",
                                  "diamond", "gripper2", "hanoi_3",
                                  "stack_4", "tyreworld_1", "latch"])
def test_backend_parity_on_corpus(name):
    problem = corpus.load(name)
    nodes = [(sorted(n.pre), sorted(n.add), sorted(n.delete))
             for n in graph_nodes(problem)]
    run_both(len(problem.atoms), nodes, problem.init, max_layers=60)


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


@needs_c
@settings(max_examples=150, deadline=None)
@given(random_problem())
def test_backend_parity_on_random_problems(problem):
    n_facts, nodes, init = problem
    run_both(n_facts, nodes, init)


def check_action_rows(n_facts, nodes, init, max_layers=60):
    """Every layer's action rows from the pure kernel equal the pairwise
    reference, up to level-off."""
    kern = PyGraphKernel(n_facts, nodes)
    fm = 0
    for i in init:
        fm |= 1 << i
    rows = [0] * n_facts
    for layer in range(max_layers):
        applicable, next_fm, next_rows, act_rows = kern.step(fm, rows, True)
        assert act_rows == pairwise_action_rows(kern, applicable, rows), \
            f"action mutex differs at layer {layer}"
        if next_fm == fm and next_rows == rows:
            return
        fm, rows = next_fm, next_rows
    raise AssertionError("graph did not level off")


@pytest.mark.parametrize("name", ["blocks3", "trap", "revival", "diamond",
                                  "gripper2", "hanoi_3", "stack_4",
                                  "tyreworld_1", "latch"])
def test_action_rows_match_pairwise_on_corpus(name):
    problem = corpus.load(name)
    nodes = [(sorted(n.pre), sorted(n.add), sorted(n.delete))
             for n in graph_nodes(problem)]
    check_action_rows(len(problem.atoms), nodes, problem.init)


@settings(max_examples=150, deadline=None)
@given(random_problem())
def test_action_rows_match_pairwise_on_random_problems(problem):
    check_action_rows(*problem)


def test_active_backend_is_named():
    assert backend() in ("c", "python")
