import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from goalagenda import corpus
from goalagenda.cli import main

from conftest import TWO_ROOMS


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_corpus_route(capsys):
    code, out, err = run_cli(["analyze", "--corpus", "hanoi_3",
                              "--method", "h"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [["on(d3,peg3)"], ["on(d2,d3)"],
                                  ["on(d1,d2)"]]
    assert "analysis" in err


def test_analyze_single_goal(capsys):
    code, out, _ = run_cli(["analyze", "--corpus", "blocks2"], capsys)
    assert code == 0
    assert json.loads(out)["entries"] == [["on(a,b)"]]


def test_analyze_pddl_route(tmp_path, capsys):
    dom = tmp_path / "d.pddl"
    prob = tmp_path / "p.pddl"
    dom.write_text(corpus.domain_text("blocks"))
    prob.write_text(corpus.problem_text("blocks", "three"))
    code, out, _ = run_cli(["analyze", "--domain", str(dom),
                            "--problem", str(prob), "--method", "e"], capsys)
    assert code == 0
    assert json.loads(out)["entries"] == [["on(b,c)"], ["on(a,b)"]]


def test_ground_route_and_unsolvable_exit(tmp_path, capsys):
    ground = tmp_path / "trap.json"
    ground.write_text(corpus.micro_text("trap"))
    code, out, err = run_cli(["plan", "--ground", str(ground),
                              "--method", "h", "--base", "forward"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "episode_unsolvable"
    assert payload["failed_episode"] == 2
    assert payload["invertibility_certified"] is False
    assert "uncertified" in err


def test_certified_unsolvable_verdict_is_definitive(tmp_path, capsys):
    ground = tmp_path / "two_rooms.json"
    ground.write_text(json.dumps(TWO_ROOMS))
    code, out, err = run_cli(["plan", "--ground", str(ground)], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "episode_unsolvable"
    assert payload["invertibility_certified"] is True
    assert "definitive" in err


def test_plan_solved_validates(capsys):
    code, out, _ = run_cli(["plan", "--corpus", "hanoi_3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "solved"
    assert payload["valid"] is True
    assert payload["plan"]["actions"] == 7
    assert [len(ep["plan_steps"]) for ep in payload["episodes"]] == [4, 2, 1]


def test_plan_text_format(capsys):
    code, out, _ = run_cli(["plan", "--corpus", "blocks3",
                            "--format", "text"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith(";")]
    assert lines == ["0: pickup(b)", "1: stack(b,c)", "2: pickup(a)",
                     "3: stack(a,b)"]


def test_plan_resource_limit_exit(capsys):
    code, out, _ = run_cli(["plan", "--corpus", "gripper2",
                            "--base", "forward", "--max-states", "2"], capsys)
    assert code == 2
    assert json.loads(out)["status"] == "resource_limit"


def test_graphplan_rejects_adl_input(tmp_path, capsys):
    from test_pddl import ADL_DOMAIN, ADL_PROBLEM

    dom = tmp_path / "d.pddl"
    prob = tmp_path / "p.pddl"
    dom.write_text(ADL_DOMAIN)
    prob.write_text(ADL_PROBLEM)
    code, _, err = run_cli(["plan", "--domain", str(dom), "--problem",
                            str(prob), "--base", "graphplan"], capsys)
    assert code == 3
    assert "STRIPS" in err
    # default base for conditional-effect input is forward search
    code, out, _ = run_cli(["plan", "--domain", str(dom),
                            "--problem", str(prob)], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "solved"


def test_verify_matrix(capsys):
    code, out, _ = run_cli(["verify", "--corpus", "trap"], capsys)
    assert code == 0
    payload = json.loads(out)
    rows = {(r["before"], r["after"]): r for r in payload["pairs"]}
    assert rows[("B", "A")]["h"] is True
    assert rows[("B", "A")]["r"] is False  # the approximation's false positive
    assert rows[("A", "B")]["h"] is False
    assert rows[("A", "B")]["f"] is False
    assert payload["limit_exceeded"] is False


def test_verify_limit_exit(capsys):
    code, out, err = run_cli(["verify", "--corpus", "gripper2",
                              "--max-states", "3"], capsys)
    assert code == 2
    assert "budget" in err
    payload = json.loads(out)
    assert payload["limit_exceeded"] is True
    assert all(r["r"] is None and r["f"] is None for r in payload["pairs"])


def test_graph_dump(capsys):
    code, out, _ = run_cli(["graph-dump", "--corpus", "blocks3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["leveled_at"] == 4
    assert payload["layers"][0]["facts"] == 7


@pytest.mark.parametrize("args", [
    ["graph-dump", "--corpus", "hanoi_5", "--max-layers", "2"],
    ["analyze", "--corpus", "blocks3", "--method", "e", "--max-layers", "2"],
    ["verify", "--corpus", "blocks3", "--max-layers", "2"],
    # plan grows each episode's graph only as far as its search needs, and
    # blocks3's first episode needs two layers
    ["plan", "--corpus", "blocks3", "--max-layers", "1"],
])
def test_graph_layer_budget_exit(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert f"did not level off within {args[-1]} layers" in err


def test_plan_within_layer_budget_needs_no_level_off(capsys):
    """blocks3's episodes plan within two layers, though its graph levels
    off at layer 4: the budget bounds the layers grown, not level-off."""
    _, expected, _ = run_cli(["plan", "--corpus", "blocks3"], capsys)
    code, out, _ = run_cli(["plan", "--corpus", "blocks3",
                            "--max-layers", "2"], capsys)
    assert code == 0
    assert out == expected


def test_input_errors(tmp_path, capsys):
    code, _, err = run_cli(["analyze", "--corpus", "nonexistent"], capsys)
    assert code == 3
    code, _, _ = run_cli(["analyze"], capsys)
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(["analyze", "--ground", str(bad)], capsys)
    assert code == 3
    code, _, _ = run_cli(["analyze", "--corpus", "trap",
                          "--ground", str(bad)], capsys)
    assert code == 3


def _ground(**changes):
    """TWO_ROOMS's ground JSON with its first action or top-level keys
    changed."""
    data = json.loads(json.dumps(TWO_ROOMS))
    data["actions"][0].update(changes.pop("action", {}))
    data.update(changes)
    return ["--ground", json.dumps(data)]


def _adl_ground(effects, **keys):
    """TWO_ROOMS's ground JSON with one ADL action, carrying ``effects``
    and any other ``keys``."""
    return _ground(actions=[{"name": "go(A,B)", "pre": ["atA"],
                             "effects": effects, **keys}])


BLOCKS_DOMAIN = corpus.domain_text("blocks")
BLOCKS_TWO = corpus.problem_text("blocks", "two")
GRIPPER_DOMAIN = corpus.domain_text("gripper")
GRIPPER_TWO = corpus.problem_text("gripper", "two")


MALFORMED = [
    ("strips add meets del",
     ["analyze", *_ground(action={"del": ["atA", "atB"]})]),
    ("actions not a list", ["analyze", *_ground(actions=5)]),
    ("no effects", ["analyze", *_adl_ground([])]),
    ("effect not an object",
     ["analyze", *_adl_ground([{"add": ["atB"]}, 5])]),
    ("domain without name",
     ["analyze", "--domain", "(define (domain))", "--problem", BLOCKS_TWO]),
    ("problem without name",
     ["analyze", "--domain", BLOCKS_DOMAIN, "--problem",
      "(define (problem))"]),
    ("empty goal",
     ["analyze", "--domain", BLOCKS_DOMAIN, "--problem",
      "(define (problem p) (:domain blocks) (:goal))"]),
    ("requirement not a flag",
     ["analyze", "--domain",
      BLOCKS_DOMAIN.replace("(:requirements :strips)",
                            "(:requirements (:strips))"),
      "--problem", BLOCKS_TWO]),
    ("parameters not a list",
     ["analyze", "--domain",
      BLOCKS_DOMAIN.replace(":parameters (?ob)", ":parameters ?ob", 1),
      "--problem", BLOCKS_TWO]),
    ("parameter declared twice",
     ["analyze", "--domain",
      BLOCKS_DOMAIN.replace(":parameters (?ob)", ":parameters (?ob ?ob)", 1),
      "--problem", BLOCKS_TWO]),
    ("domain reference without name",
     ["analyze", "--domain", BLOCKS_DOMAIN, "--problem",
      "(define (problem p) (:domain))"]),
    ("object declared twice",
     ["analyze", "--domain", BLOCKS_DOMAIN, "--problem",
      BLOCKS_TWO.replace("(:objects a b)", "(:objects a b a)")]),
    ("init object undeclared",
     ["analyze", "--domain", BLOCKS_DOMAIN, "--problem",
      BLOCKS_TWO.replace("(arm-empty))", "(arm-empty) (clear zzz))")]),
    ("init object of the wrong type",
     ["analyze", "--domain", GRIPPER_DOMAIN, "--problem",
      GRIPPER_TWO.replace("(free left)", "(free ball1)")]),
    ("corpus size not a number", ["analyze", "--corpus", "stack_x"]),
    ("corpus stack too small", ["analyze", "--corpus", "stack_1"]),
    ("corpus hanoi too small", ["analyze", "--corpus", "hanoi_0"]),
    ("non-integer budget", ["plan", "--corpus", "trap", "--max-nodes", "abc"]),
    ("predicate declared twice",
     ["analyze", "--domain",
      BLOCKS_DOMAIN.replace("(arm-empty))", "(arm-empty) (clear ?x))", 1),
      "--problem", BLOCKS_TWO]),
    ("action declared twice",
     ["analyze", "--domain",
      BLOCKS_DOMAIN.replace("(:action putdown", "(:action pickup", 1),
      "--problem", BLOCKS_TWO]),
    ("ground action name not a string",
     ["analyze", *_ground(action={"name": 5})]),
    ("ground action name repeated",
     ["analyze", *_ground(action={"name": "go(B,A)"})]),
    ("unknown strips action key",
     ["analyze", *_ground(action={"dels": ["atA"]})]),
    ("strips key on an adl action",
     ["analyze", *_adl_ground([{"add": ["atB"]}], add=["atB"])]),
    ("unknown effect key",
     ["analyze", *_adl_ground([{"add": ["atB"], "dels": ["atA"]}])]),
    ("no subcommand", []),
]


@pytest.mark.parametrize("args", [pytest.param(args, id=case)
                                  for case, args in MALFORMED])
def test_malformed_input_exits_3(tmp_path, args):
    """Each malformed input is an input error: exit 3 with a message and no
    traceback. File arguments are written to files first."""
    argv = []
    for i, arg in enumerate(args):
        if i and args[i - 1] in ("--ground", "--domain", "--problem"):
            path = tmp_path / f"{args[i - 1][2:]}.txt"
            path.write_text(arg)
            arg = str(path)
        argv.append(arg)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "goalagenda.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr


@pytest.mark.parametrize("args", [
    ["verify", "--corpus", "blocks2", "--max-states", "-1"],
    ["verify", "--corpus", "blocks2", "--max-layers", "-1"],
    ["plan", "--corpus", "blocks2", "--max-nodes", "-1"],
    ["plan", "--corpus", "blocks2", "--max-states", "-1"],
    ["plan", "--corpus", "blocks2", "--max-layers", "-1"],
    ["analyze", "--corpus", "blocks2", "--method", "e", "--max-layers", "-1"],
    ["graph-dump", "--corpus", "blocks2", "--max-layers", "-1"],
], ids=" ".join)
def test_negative_budget_is_a_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert "expected a non-negative integer, got '-1'" in captured.err


def test_zero_budget_is_valid(capsys):
    code, _, err = run_cli(["plan", "--corpus", "blocks2",
                            "--max-nodes", "0"], capsys)
    assert code == 2, err


@pytest.mark.parametrize("command", ["analyze", "plan"])
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_exits_3(tmp_path, capsys, command, target):
    """An --out path that cannot be written (its directory does not exist,
    or it is a directory) is an output error: exit 3 with one line on
    stderr and no traceback."""
    path = tmp_path / "nonexistent" / "x.json" if target == "missing_dir" \
        else tmp_path
    code, out, err = run_cli([command, "--corpus", "blocks3", "--out",
                              str(path)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("goalagenda: output error: ")
    assert err.count("\n") == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "agenda.json"
    code, out, _ = run_cli(["analyze", "--corpus", "trap", "--out",
                            str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["entries"] == [["B"], ["A"]]
