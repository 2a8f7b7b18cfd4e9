"""The host's current speed, measured with a fixed reference workload.

The benchmark runs on a few cores of a shared host whose speed changes with
the load of its neighbours. On a 2-vCPU host its speed switched every few
seconds: tyreworld_3's ``plan -m h`` took 2.3 s in one and 3.5 to
4.3 s in the other, and the raw median pass time of one workload spread by
20-30% of its median over five runs. CPU time moves with it (no steal is
accounted), so it cannot tell the two apart. What can is a fixed piece of
work that does not depend on the code under test: ``reference_work``
below, a pure-Python loop over ints, frozensets, a dict and a sort, the
same kind of interpreter work the planners do. A chunk of it (about 20 ms)
is timed before a pass, after it, and between jobs whenever
``INTERVAL_S`` of job time has gone by; each job's time is divided by the
slowdown the two chunks around it show (their mean against ``NOMINAL_S``).
Over ten runs of each workload (28 s each, seeds 11-20) the spread of the
run medians of the pass time (interquartile range over median) fell from
19-25% raw to 3-13%. The match is not exact: the slow speed slowed the
reference by about 1.5x and single jobs by 1.2x to 1.6x, so some drift is
left. The raw wall times and every chunk time are kept in the result file.

A change to the program does not move the reference, so a slower program
still reads slower; only the host's drift, which moves both, cancels.
"""

from __future__ import annotations

import gc
import time

ROUNDS = 5000
CHECKSUM = 214190  # reference_work()'s value; a different one is a bug here
NOMINAL_S = 0.020  # about its median chunk time on a 2-vCPU host, Python 3.11
INTERVAL_S = 0.25  # job time between two chunks


def reference_work(rounds: int = ROUNDS) -> int:
    """Deterministic interpreter work, independent of the package."""
    x = 12345
    table: dict = {}
    acc = 0
    kept = []
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        s = frozenset((x >> k) & 255 for k in (0, 3, 7, 11, 15, 19))
        key = x & 511
        prev = table.get(key)
        if prev is not None:
            acc += len(prev & s) + len(prev | s) - len(s - prev)
        table[key] = s
        kept.append((len(s), key, s))
    kept.sort(key=lambda t: (t[0], t[1]))
    return acc + sum(t[1] for t in kept[::7])


def slowdown(before: float, after: float) -> float:
    """The host's slowdown between two chunk times."""
    return (before + after) / (2 * NOMINAL_S)


class HostSpeed:
    """Times reference chunks and keeps every sample."""

    def __init__(self):
        self.samples: list = []

    def sample(self) -> float:
        """Time one chunk; returns its duration. The collector is off
        meanwhile, so the size of the program's heap does not leak in."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            value = reference_work()
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if value != CHECKSUM:
            raise RuntimeError(f"reference work gave {value}, "
                               f"expected {CHECKSUM}")
        self.samples.append(elapsed)
        return elapsed
