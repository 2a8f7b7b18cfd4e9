"""Print the backward search's counts per agenda episode.

    python tests/search_nodes.py [NAME ...]

For ``plan -m h`` with GraphPlan on each named corpus instance (default
tyreworld_2, tyreworld_3, tyreworld_4, hanoi_4, hanoi_5 and stack_16;
tyreworld_4's episode 2 is the largest search of them) it prints, per
agenda episode, the episode's outcome, the nodes the search visited, the
choice points it skipped by backjumping, the symmetric images it memoized
and the size of its nogood memo per fact layer, and below it the symmetry
generators the search kept, each as the objects it swaps (none are listed
for a search that failed no goal set, as it looks for none). The counts
are deterministic, so two trees can be compared by their output. The
script only prints; it checks nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from goalagenda import corpus, graphplan  # noqa: E402
from goalagenda.agenda import compute_agenda  # noqa: E402
from goalagenda.driver import plan_with_agenda  # noqa: E402
from goalagenda.model import atom_args, mask_ids  # noqa: E402

INSTANCES = ("tyreworld_2", "tyreworld_3", "tyreworld_4", "hanoi_4",
             "hanoi_5", "stack_16")


def episode_searches(problem):
    """The agenda run of ``plan -m h`` and its searches, one per episode."""
    searches = []

    class Recorded(graphplan._BackwardSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    agenda = compute_agenda(problem, "h", None)
    with mock.patch.object(graphplan, "_BackwardSearch", Recorded):
        result = plan_with_agenda(problem, agenda)
    return result, searches


def swaps(problem, generator) -> str:
    """The objects a generator swaps, read off the atoms it moves."""
    def args(atom):
        return atom_args(problem.atoms.name(atom))[1]

    moved, perm = generator
    pairs = {tuple(sorted(pair)) for i in mask_ids(moved)
             for pair in zip(args(i), args(perm[i])) if pair[0] != pair[1]}
    return " ".join(f"{a}<->{b}" for a, b in sorted(pairs))


def main(argv=None) -> None:
    names = (argv if argv is not None else sys.argv[1:]) or INSTANCES
    print(f"{'instance':<14}{'episode':>8}{'outcome':>16}{'nodes':>10}"
          f"{'backjumps':>11}{'images':>8}  memo per layer")
    for name in names:
        problem = corpus.load(name)
        result, searches = episode_searches(problem)
        for episode, search in zip(result.episodes, searches):
            memo = {t: len(m) for t, m in sorted(search.memo.items()) if m}
            print(f"{name:<14}{episode.index:>8}{episode.outcome:>16}"
                  f"{search.nodes_used:>10}{search.backjumps:>11}"
                  f"{search.images:>8}  {memo}")
            for generator in search.generators or ():
                print(f"{'':<22}kept: {swaps(problem, generator)}")


if __name__ == "__main__":
    main()
