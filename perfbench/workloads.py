"""The benchmark's workloads and the jobs they run.

A job is one instance run through one command, through the library's public
API, under the library's own budgets (the CLI defaults). Each workload is
built so that one layer does most of its work and another workload bypasses
that layer. Shares are from the traced run (pure-Python kernel, 2 vCPUs;
absolute times drift by up to 2x with the load on the host).

plan-search
    ``plan -m h`` with GraphPlan on tyreworld_3 (largest), tyreworld_2,
    hanoi_4, blocks3 and gripper2. The backward search does most of the
    work (seed 0, traced: search.self_s 2.24 s and graph.build_s 1.15 s of
    a 3.4 s pass), nearly all of it on tyreworld_3; the smaller tyreworld
    and hanoi instances are graph bound, so none can stand in for it. A
    faster backward search should move this workload.
plan-graph
    ``plan -m e`` with GraphPlan on stack_8 (largest), stack_7 and hanoi_3.
    Building the planning graphs is about 99% of the time (graph.build_s
    1.88 s of a 1.9 s pass) and search about 0.3%; the ``e`` agenda also
    drives the kernel's other mode, without retained layers. A faster layer
    kernel should move it, a faster search should not.
analyze-direct
    ``analyze -m h`` on stack_60 (largest), stack_40 and tyreworld_3. The
    direct-analysis ordering layer is about 98% of the pass
    (ordering.achievable_s 1.92 s and ordering.fixpoint_s 0.29 s of
    2.25 s); these jobs build no graph and run no search. One small
    ``plan -m h`` job on stack_4 (under 1% of the pass) gives the
    plan-quality metrics a value here too. A per-problem action index
    should move it; search and kernel changes should not.
verify-oracle
    ``verify`` plus ``plan --base forward`` on stack_6 (largest, 7,057
    states), stack_4 (125 states), tyreworld_1, hanoi_4, diamond, latch
    (ADL) and trap (expected: episode_unsolvable). The oracle's enumeration
    and exact decisions are about 90% of the pass (oracle.enumerate_s
    0.23 s and oracle.decide_s 0.51 s of 0.8 s); it is the only workload
    with forward search and ADL, and the one a cheaper ``verify`` should
    move.

The largest instances are smaller than the biggest ones the library
handles (stack_80 analysis, stack_7 verification, stack_9 graphs): a pass
has to stay near a few seconds so that every run takes enough samples for a
steady median within the benchmark's time budget.
"""

from __future__ import annotations

LIMITS = {"max_layers": 128, "max_nodes": 10 ** 7, "max_states": 200_000}

VERIFY_SET = ("stack_6", "stack_4", "tyreworld_1", "hanoi_4", "diamond",
              "latch", "trap")

# workload -> (jobs as (command, instance), the largest job)
WORKLOADS = {
    "plan-search": (
        [("plan-h", n) for n in ("tyreworld_3", "tyreworld_2", "hanoi_4",
                                 "blocks3", "gripper2")],
        ("plan-h", "tyreworld_3")),
    "plan-graph": (
        [("plan-e", n) for n in ("stack_8", "stack_7", "hanoi_3")],
        ("plan-e", "stack_8")),
    "analyze-direct": (
        [("analyze-h", n) for n in ("stack_60", "stack_40", "tyreworld_3")]
        + [("plan-h", "stack_4")],
        ("analyze-h", "stack_60")),
    "verify-oracle": (
        [("verify", n) for n in VERIFY_SET]
        + [("plan-forward", n) for n in VERIFY_SET],
        ("verify", "stack_6")),
}

# plan outcomes other than "solved" that are the right answer
EXPECTED_STATUS = {"trap": "episode_unsolvable"}


def run_job(ga, command: str, problem):
    """Run one job; returns the library's result object. ``ga`` is the
    imported package; module attributes are looked up at call time so the
    traced run sees its wrappers."""
    if command == "analyze-h":
        return ga.agenda.compute_agenda(problem, "h")
    if command == "verify":
        return ga.oracle.verify_matrix(problem, limit=LIMITS["max_states"])
    if command == "plan-e":
        graph = ga.graphplan.build_graph(problem,
                                         max_layers=LIMITS["max_layers"],
                                         retain_layers=False)
        agenda = ga.agenda.compute_agenda(problem, "e", graph)
        base = "graphplan"
    else:
        agenda = ga.agenda.compute_agenda(problem, "h")
        base = "forward" if command == "plan-forward" else "graphplan"
    result = ga.driver.plan_with_agenda(problem, agenda, base=base,
                                        limits=dict(LIMITS))
    return agenda, result


def plan_json(problem, result) -> dict:
    """The CLI's ``plan`` JSON, built from the public result object."""
    names = problem.atoms.names

    def steps(plan):
        return [[problem.actions[a].name for a in sorted(step)]
                for step in plan.steps]

    return {
        "status": result.status,
        "failed_episode": result.failed_episode,
        "invertibility_certified": result.invertibility_certified,
        "plan": {"steps": steps(result.plan),
                 "actions": result.plan.action_count()},
        "valid": bool(result.validation and result.validation.valid),
        "episodes": [
            {"index": ep.index, "initial": names(ep.initial),
             "goals": names(ep.goals),
             "plan_steps": steps(ep.plan), "outcome": ep.outcome}
            for ep in result.episodes
        ],
    }
