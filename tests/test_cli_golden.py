"""Golden CLI output: SHA-256 digests of stdout, with exit codes.

Covers ``analyze`` and ``plan`` under both methods and ``graph-dump`` on
every named corpus instance, ``verify`` on the exhaustible ones, and
``plan --method h --base forward`` on the exhaustible STRIPS ones (latch,
the ADL fixture, always plans forward), and ``plan`` under both methods on
tyreworld_3 and hanoi_5, the searches that the backward search's cuts
shorten most, and on stack_12, whose episodes plan at horizons far below
their graphs' level-off layers. stack_20 adds ``plan`` under both methods,
``analyze`` under both methods and ``graph-dump``: 821 facts and 800 nodes,
about 2.7 times stack_12's, so the layer steps cross many bytes of the
kernel's OR tables. ``analyze --method h`` on stack_20 and tyreworld_3
pins the direct analysis's agendas on instances of the benchmark's size
(tyreworld_3 is one of its ``analyze`` instances). A change that alters
CLI output on purpose re-records the digests with

    PYTHONPATH=src python tests/test_cli_golden.py --capture

and says in its description which runs changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from goalagenda import corpus
from goalagenda.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def golden_runs() -> list:
    """Every recorded CLI run, as an argv list."""
    runs = []
    for name in corpus.ALL_NAMED:
        for method in ("h", "e"):
            runs.append(["analyze", "--corpus", name, "--method", method])
            base = ["--base", "forward"] if name == "latch" else []
            runs.append(["plan", "--corpus", name, "--method", method]
                        + base)
        runs.append(["graph-dump", "--corpus", name])
    for name in corpus.EXHAUSTIBLE:
        runs.append(["verify", "--corpus", name])
        if name != "latch":
            runs.append(["plan", "--corpus", name, "--method", "h",
                         "--base", "forward"])
    for name in ("tyreworld_3", "hanoi_5", "stack_12", "stack_20"):
        for method in ("h", "e"):
            runs.append(["plan", "--corpus", name, "--method", method])
    for name in ("stack_20", "tyreworld_3"):
        runs.append(["analyze", "--corpus", name, "--method", "h"])
    runs.append(["analyze", "--corpus", "stack_20", "--method", "e"])
    runs.append(["graph-dump", "--corpus", "stack_20"])
    return runs


def run_digest(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_run(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in golden_runs())


@pytest.mark.parametrize("argv", golden_runs(), ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert run_digest(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py "
                 "--capture")
    digests = {" ".join(argv): run_digest(argv) for argv in golden_runs()}
    GOLDEN.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(digests)} runs in {GOLDEN}")
