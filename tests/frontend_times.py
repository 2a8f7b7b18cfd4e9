"""Print the median parse, ground and direct-analysis times per instance,
and the size of each grounded problem.

    python tests/frontend_times.py [--repeats N]

For stack_40, stack_60, stack_80 and tyreworld_3 (the shipped corpus
texts) it times ``pddl.parse``, ``pddl.ground`` and
``agenda.compute_agenda(problem, "h")`` ``N`` times each (default 7) and
prints each stage's median. After the timed repeats, so that no median is
traced, one more ``ground`` call runs under ``tracemalloc``: ``ground_mb``
is the memory its problem holds, and ``set fields/objects`` counts the
problem's atom set fields against the frozenset objects behind them
(``reference.set_counts``). stack_80 is larger than any instance the
benchmark's ``analyze-direct`` workload runs. ``import_s`` is the median
time of a fresh import of ``goalagenda`` and its submodules, made by the
benchmark's own set-up code (``perfbench/run.py`` ``import_package``,
which drops every ``goalagenda`` module from ``sys.modules`` and imports
them again): the import share of the benchmark's ``setup_s``, apart from
parse and ground. It is printed with ``sys.dont_write_bytecode``, since
compiling the sources is most of it when no bytecode is cached. Every
time is taken between two chunks of the benchmark's reference work
(``perfbench/hostspeed.py``; it and ``run.py`` are imported and left as
they are) and divided by the slowdown they show, so the
medians read at the reference host speed, as the benchmark's end-to-end
times do. The script only prints; it checks nothing.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostspeed  # noqa: E402
import run  # noqa: E402
from goalagenda import corpus  # noqa: E402
from goalagenda.agenda import compute_agenda  # noqa: E402
from goalagenda.pddl import ground, parse  # noqa: E402
from reference import set_counts  # noqa: E402

INSTANCES = (("stack", 40), ("stack", 60), ("stack", 80), ("tyreworld", 3))


def texts(family: str, n: int) -> tuple:
    generator = getattr(corpus, f"{family}_problem_text")
    return corpus.domain_text(family), generator(n)


def stage_medians(family: str, n: int, repeats: int,
                  speed: hostspeed.HostSpeed) -> tuple:
    """The median parse, ground and ``h`` agenda times of one instance, in
    seconds at the reference host speed."""
    parse_s, ground_s, agenda_s = [], [], []
    after = speed.sample()

    def timed(stage, args, times):
        nonlocal after
        before = after
        t0 = time.perf_counter()
        out = stage(*args)
        elapsed = time.perf_counter() - t0
        after = speed.sample()
        times.append(elapsed / hostspeed.slowdown(before, after))
        return out

    for _ in range(repeats):
        lifted = timed(parse, texts(family, n), parse_s)
        problem = timed(ground, lifted, ground_s)
        timed(compute_agenda, (problem, "h"), agenda_s)
    return tuple(map(statistics.median, (parse_s, ground_s, agenda_s)))


def import_median(repeats: int, speed: hostspeed.HostSpeed) -> float:
    """The median time of the benchmark set-up's fresh import of the
    package (``run.import_package``), in seconds at the reference host
    speed."""
    times = []
    after = speed.sample()
    for _ in range(repeats):
        before = after
        t0 = time.perf_counter()
        run.import_package()
        elapsed = time.perf_counter() - t0
        after = speed.sample()
        times.append(elapsed / hostspeed.slowdown(before, after))
    return statistics.median(times)


def grounded_size(family: str, n: int) -> tuple:
    """The MB one ``ground`` call's problem holds (tracemalloc), and its
    set fields and set objects."""
    lifted = parse(*texts(family, n))
    tracemalloc.start()
    try:
        problem = ground(*lifted)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    fields, objects, _ = set_counts(problem)
    return held / 2 ** 20, fields, objects


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    speed = hostspeed.HostSpeed()
    print(f"{'instance':<14}{'parse_s':>10}{'ground_s':>10}{'agenda_h_s':>12}"
          f"{'ground_mb':>11}{'set fields/objects':>20}")
    for family, n in INSTANCES:
        parse_s, ground_s, agenda_s = stage_medians(family, n, args.repeats,
                                                    speed)
        held_mb, fields, objects = grounded_size(family, n)
        print(f"{family}_{n:<{13 - len(family)}}{parse_s:>10.4f}"
              f"{ground_s:>10.4f}{agenda_s:>12.4f}{held_mb:>11.2f}"
              f"{f'{fields}/{objects}':>20}")
    # last: the modules imported above stay as they are for the stages
    print(f"import_s {import_median(args.repeats, speed):.4f} "
          f"(sys.dont_write_bytecode={sys.dont_write_bytecode})")
    print(f"reference chunk median {statistics.median(speed.samples):.4f} s "
          f"(nominal {hostspeed.NOMINAL_S} s)")


if __name__ == "__main__":
    main()
