"""The paper's completeness claim against the oracle: agenda-driven
planning is complete on problems without deadlocks.

Every seeded ``test_state_digests.random_problem`` with goals (STRIPS on
even seeds, ADL on odd ones) is planned over its ``h`` and ``e`` agendas,
with the forward base and, for STRIPS, with GraphPlan too, and each run is
compared with ``find_deadlocks`` over the problem's enumeration. A wrong
``Unsolvable`` from a base planner would show up as a failed episode that
does not start in a deadlock.
"""

from goalagenda.agenda import compute_agenda
from goalagenda.driver import plan_with_agenda
from goalagenda.graphplan import build_graph
from goalagenda.oracle import enumerate_reachable, find_deadlocks

from test_state_digests import random_problem


def test_agenda_planning_is_complete_without_deadlocks():
    """Over seeds 0-5999: every unsolved run fails an episode that starts
    in a deadlock, every deadlock-free problem is solved by every run, and
    one solvable problem is left unsolved. Seed 4891 (ADL) has the ``h``
    agenda [[5], [0, 2, 3]]: its first episode ends, under the forward
    base, in one of the problem's deadlocks. The counts are pinned."""
    problems = runs = unsolved = deadlock_free = 0
    solvable_unsolved = []
    for seed in range(6000):
        problem = random_problem(seed)
        if not problem.goals:
            continue
        problems += 1
        deadlocks = set(find_deadlocks(enumerate_reachable(problem)))
        deadlock_free += not deadlocks
        for method in "he":
            graph = build_graph(problem, retain_layers=False) \
                if method == "e" else None
            agenda = compute_agenda(problem, method, graph)
            bases = ("forward",) if problem.is_adl \
                else ("forward", "graphplan")
            for base in bases:
                result = plan_with_agenda(problem, agenda, base=base)
                runs += 1
                if result.status == "solved":
                    continue
                # so a deadlock-free problem is solved by every run
                assert result.status == "episode_unsolvable" and \
                    result.episodes[-1].initial in deadlocks, \
                    (seed, method, base)
                unsolved += 1
                if problem.init not in deadlocks:
                    solvable_unsolved.append((seed, method, base))
    assert (problems, runs, unsolved, deadlock_free) == \
        (4408, 13246, 3723, 2713)
    assert solvable_unsolved == [(4891, "h", "forward")]
