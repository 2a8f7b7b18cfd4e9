"""Hash-identical gate for the exhaustive oracle and the forward planner.

Pins SHA-256 digests of everything the oracle and ``forward_search``
return: the enumerated states (as sorted id tuples), edges and entering
adds; every ``verify_matrix`` row; every reasonable and forced verdict with
its witness; the deadlocks; the invertibility report; and the forward plan.
Covers every exhaustible corpus instance, stack_6, and a seeded family of
random STRIPS and ADL problems on which every atom pair is decided. A
change to how states are stored or searched must leave all of them as they
are. A change that alters them on purpose re-records the digests with

    PYTHONPATH=src python tests/test_state_digests.py --capture

and says in its description which digests changed and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from goalagenda import corpus
from goalagenda.model import (
    AdlAction,
    AtomTable,
    ConditionalEffect,
    Plan,
    PlanningProblem,
    StripsAction,
)
from goalagenda.oracle import (
    check_invertibility,
    decide_forced,
    decide_reasonable,
    enumerate_reachable,
    find_deadlocks,
    verify_matrix,
)

from conftest import forward_on

DIGESTS = Path(__file__).with_name("state_digests.json")

CORPUS = corpus.EXHAUSTIBLE + ("stack_6",)
RANDOM_SEEDS = range(60)


def _ids(atoms) -> tuple:
    return tuple(sorted(atoms))


def _outcome(result):
    if isinstance(result, Plan):
        return ("plan", tuple(_ids(step) for step in result.steps))
    return (type(result).__name__, vars(result))


def _verdict(verdict):
    witness = verdict.witness
    if witness is not None:
        witness = (_ids(witness[0]), _outcome(witness[1]))
    return (verdict.relation, verdict.holds, verdict.trivial, witness)


def _decisions(index, pairs):
    return [(b, a, _verdict(decide_reasonable(index, b, a)),
             _verdict(decide_forced(index, b, a)))
            for b, a in pairs]


def records(problem, all_pairs: bool) -> dict:
    """Everything the oracle and the forward planner say about ``problem``,
    as plain values; the decisions cover every ordered atom pair when
    ``all_pairs`` is set, every ordered goal pair otherwise."""
    index = enumerate_reachable(problem)
    atoms = range(len(problem.atoms)) if all_pairs else sorted(problem.goals)
    out = {
        "states": [_ids(s) for s in index.states],
        "edges": index.edges,
        "entered": sorted(index.entered.items()),
        "decisions": _decisions(index, [(b, a) for a in atoms
                                        for b in atoms if a != b]),
        "deadlocks": [_ids(s) for s in find_deadlocks(index)],
        "forward": _outcome(forward_on(problem)),
        "verify_matrix": json.dumps(verify_matrix(problem), sort_keys=True),
    }
    if not problem.is_adl:
        report = check_invertibility(index)
        # the literal True stands where a semantic-checked flag was
        # recorded; it was True in every record, since each one passes an
        # enumeration, so the pinned digests stay as they are
        out["invertibility"] = (report.certified, True,
                                [tuple(vars(e).values())
                                 for e in report.entries],
                                report.notes)
    return out


def _subset(rng, n: int, p: float = 0.3) -> frozenset:
    return frozenset(i for i in range(n) if rng.random() < p)


def random_problem(seed: int) -> PlanningProblem:
    """A small STRIPS problem on even seeds and a clash-free ADL problem on
    odd ones, with a drawn initial state and goal set."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    actions = []
    for k in range(rng.randint(1, 8)):
        if seed % 2 == 0:
            add = _subset(rng, n)
            actions.append(StripsAction(f"a{k}", _subset(rng, n, 0.2), add,
                                        _subset(rng, n) - add))
            continue
        effects = [(_subset(rng, n, 0.2), _subset(rng, n))
                   for _ in range(rng.randint(1, 3))]
        added = frozenset().union(*(adds for _, adds in effects))
        actions.append(AdlAction(f"a{k}", tuple(
            ConditionalEffect(condition, adds, _subset(rng, n) - added)
            for condition, adds in effects)))
    return PlanningProblem(AtomTable(f"f{i}" for i in range(n)),
                           tuple(actions), _subset(rng, n, 0.5),
                           _subset(rng, n),
                           name=f"random-{seed}")


def cases() -> dict:
    """Case name -> a function building its records."""
    out = {name: (lambda name=name: records(
        corpus.load(name), all_pairs=name in corpus.EXHAUSTIBLE))
        for name in CORPUS}
    for seed in RANDOM_SEEDS:
        out[f"random-{seed}"] = (lambda seed=seed: records(
            random_problem(seed), all_pairs=True))
    return out


def digests(case) -> dict:
    return {part: hashlib.sha256(repr(value).encode()).hexdigest()
            for part, value in case().items()}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_file_covers_every_case(pinned):
    assert sorted(pinned) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_oracle_and_forward_search_match_pinned_digests(pinned, name):
    assert digests(cases()[name]) == pinned[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_state_digests.py "
                 "--capture")
    recorded = {name: digests(case) for name, case in cases().items()}
    DIGESTS.write_text(json.dumps(recorded, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {DIGESTS}")
