"""Command-line entry point.

Subcommands: analyze (goal agenda JSON), plan (agenda-driven planning with a
trace), verify (approximations vs the exhaustive oracle), graph-dump
(planning-graph layer statistics). Two input routes: a PDDL domain/problem
pair, or a ground-problem JSON file; --corpus NAME loads a shipped instance.

Exit codes: 0 success, 1 unsolvable, 2 resource limit, 3 input error
(a usage error, or output that cannot be written, too).
JSON always goes to stdout (or --out) and is byte-deterministic for fixed
inputs; timings are informational and go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import corpus
from .agenda import agenda_to_dict, compute_agenda
from .driver import plan_with_agenda
from .graphplan import build_graph, graph_dump
from .model import (MAX_LAYERS, MAX_NODES, MAX_STATES, LimitExceeded,
                    PlanningError, PlanningProblem)
from .oracle import verify_matrix
from .pddl import ground, parse

EXIT_OK = 0
EXIT_UNSOLVABLE = 1
EXIT_RESOURCE = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 3, not argparse's 2, which
    stands for a resource limit here. Subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    """A resource budget: a non-negative integer, 0 included. Anything else
    is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", help="PDDL domain file")
    p.add_argument("--problem", help="PDDL problem file")
    p.add_argument("--ground", help="ground-problem JSON file")
    p.add_argument("--corpus", help="shipped corpus instance name")
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--max-layers", type=_budget, default=MAX_LAYERS, help=(
        "planning-graph layers grown by the e ordering, verify, graph-dump "
        "and each episode of the graphplan base planner"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="goalagenda",
        description="goal-ordering analysis and agenda-driven planning")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="compute the goal agenda")
    _add_common(analyze)
    analyze.add_argument("--method", choices=("e", "h"), default="h")

    plan = sub.add_parser("plan", help="plan over the goal agenda")
    _add_common(plan)
    plan.add_argument("--method", choices=("e", "h"), default="h")
    plan.add_argument("--base", choices=("graphplan", "forward"))
    plan.add_argument("--linearize-entries", action="store_true")
    plan.add_argument("--max-nodes", type=_budget, default=MAX_NODES, help=(
        "backward-search nodes per episode of the graphplan base planner"))
    plan.add_argument("--max-states", type=_budget, default=MAX_STATES, help=(
        "states held by one episode of the forward base planner, and by the "
        "enumeration certifying invertibility after an unsolvable episode"))
    plan.add_argument("--format", dest="fmt", choices=("json", "text"),
                      default="json")

    verify = sub.add_parser(
        "verify", help="compare approximations against the exhaustive oracle")
    _add_common(verify)
    verify.add_argument("--max-states", type=_budget, default=MAX_STATES,
                        help="reachable states the oracle enumerates")

    _add_common(sub.add_parser("graph-dump",
                               help="planning-graph layer counts"))
    return parser


def _load_problem(config: argparse.Namespace) -> PlanningProblem:
    routes = [r for r in (config.domain or config.problem, config.ground,
                          config.corpus) if r]
    if len(routes) != 1:
        raise PlanningError(
            "exactly one input route: --domain+--problem, --ground, "
            "or --corpus")
    if config.corpus:
        try:
            return corpus.load(config.corpus)
        except KeyError as exc:
            raise PlanningError(str(exc)) from exc
    if config.ground:
        with open(config.ground, encoding="utf-8") as fh:
            return corpus.load_ground_json(fh.read())
    if not (config.domain and config.problem):
        raise PlanningError("PDDL route needs both --domain and --problem")
    with open(config.domain, encoding="utf-8") as fh:
        domain_text = fh.read()
    with open(config.problem, encoding="utf-8") as fh:
        problem_text = fh.read()
    dom, prob = parse(domain_text, problem_text)
    return ground(dom, prob)


def _emit(config: argparse.Namespace, payload: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _plan_json(problem: PlanningProblem, result) -> dict:
    names = problem.atoms.names

    def plan_steps(plan):
        return [[problem.actions[a].name for a in sorted(step)]
                for step in plan.steps]

    return {
        "status": result.status,
        "failed_episode": result.failed_episode,
        "invertibility_certified": result.invertibility_certified,
        "plan": {"steps": plan_steps(result.plan),
                 "actions": result.plan.action_count()},
        "valid": bool(result.validation and result.validation.valid),
        "episodes": [
            {
                "index": ep.index,
                "initial": names(ep.initial),
                "goals": names(ep.goals),
                "plan_steps": plan_steps(ep.plan),
                "outcome": ep.outcome,
            }
            for ep in result.episodes
        ],
    }


def _plan_text(problem: PlanningProblem, result) -> str:
    lines = []
    for step_index, step in enumerate(result.plan.steps):
        for action_id in sorted(step):
            lines.append(f"{step_index}: {problem.actions[action_id].name}")
    lines.append(f"; status: {result.status}")
    return "\n".join(lines) + "\n"


def run(config: argparse.Namespace) -> int:
    try:
        problem = _load_problem(config)
    except (OSError, PlanningError) as exc:
        print(f"goalagenda: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    def graph_for(method):
        if method != "e":
            return None
        return build_graph(problem, max_layers=config.max_layers)

    t0 = time.perf_counter()
    if config.command == "analyze":
        agenda = compute_agenda(problem, config.method,
                                graph_for(config.method))
        _emit(config, _json(agenda_to_dict(problem, agenda)))
        print(f"goalagenda: analysis {time.perf_counter() - t0:.3f}s "
              f"({config.method})", file=sys.stderr)
        return EXIT_OK

    if config.command == "plan":
        base = config.base or ("forward" if problem.is_adl else "graphplan")
        if base == "graphplan" and problem.is_adl:
            print("goalagenda: input error: the layered base planner needs "
                  "a STRIPS problem (use --base forward)", file=sys.stderr)
            return EXIT_INPUT
        t_analyze = time.perf_counter()
        agenda = compute_agenda(problem, config.method,
                                graph_for(config.method))
        if config.linearize_entries:
            agenda = agenda.linearized()
        t_search = time.perf_counter()
        result = plan_with_agenda(
            problem, agenda, base=base,
            limits={"max_layers": config.max_layers,
                    "max_nodes": config.max_nodes,
                    "max_states": config.max_states})
        done = time.perf_counter()
        if config.fmt == "text":
            _emit(config, _plan_text(problem, result))
        else:
            _emit(config, _json(_plan_json(problem, result)))
        print(f"goalagenda: analysis {t_search - t_analyze:.3f}s, "
              f"search {done - t_search:.3f}s, total {done - t0:.3f}s",
              file=sys.stderr)
        if result.status == "solved":
            return EXIT_OK
        if result.status == "episode_unsolvable":
            note = ("deadlock-freeness uncertified: the episode verdict may "
                    "be an artifact of the goal agenda"
                    if not result.invertibility_certified else
                    "problem certified invertible: verdict is definitive")
            print(f"goalagenda: episode {result.failed_episode} unsolvable "
                  f"({note})", file=sys.stderr)
            return EXIT_UNSOLVABLE
        return EXIT_RESOURCE

    if config.command == "verify":
        matrix = verify_matrix(problem, graph_for("e"),
                               limit=config.max_states)
        _emit(config, _json(matrix))
        print(f"goalagenda: verify {time.perf_counter() - t0:.3f}s",
              file=sys.stderr)
        if matrix["limit_exceeded"]:
            print("goalagenda: state budget exceeded; exact columns are "
                  "unknown", file=sys.stderr)
            return EXIT_RESOURCE
        return EXIT_OK

    if config.command == "graph-dump":
        _emit(config, _json(graph_dump(graph_for("e"))))
        print(f"goalagenda: graph {time.perf_counter() - t0:.3f}s",
              file=sys.stderr)
        return EXIT_OK

    raise AssertionError(config.command)


def main(argv=None) -> int:
    config = build_parser().parse_args(argv)
    try:
        return run(config)
    except LimitExceeded as exc:
        print(f"goalagenda: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PlanningError as exc:
        print(f"goalagenda: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # run catches the input's own; this is the output's
        print(f"goalagenda: output error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
