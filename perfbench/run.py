#!/usr/bin/env python3
"""goalagenda benchmark: seeded workloads, output checks, end-to-end and
per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload plan-search --seed 1 --seconds 28 --trace 0

The package is imported from ``src/`` next to this directory; nothing needs
building (the pure-Python kernel is used unless a compiled one is present;
the backend is recorded). One process, one thread, closed loop: each job
starts when the previous one has finished. The run sets up five times
(import the package afresh, then parse and ground every instance), warms up
with one checked but untimed pass, then times passes over the workload's
jobs for about ``--seconds`` (it starts no pass that would likely end past
them). Short chunks of a fixed reference workload, timed between jobs,
measure how fast the shared host runs meanwhile; every end-to-end time is
reported at the reference host speed (see hostspeed.py), which takes out
most of the host's drift. With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics instead (see
spans.py). Every output of every pass is checked (see checks.py); on seed 0
outputs must also match the digests in expected_seed0.json, captured with
``--capture`` at the parent commit.

End-to-end metrics:

setup_s        median time of one set-up (import, parse and ground)
pass_s         median time of the job calls of one pass
largest_job_s  median time of the workload's largest job
ok_ratio       jobs that passed every check / jobs attempted; a job fails
               on an exception, a budget hit or a failed check
plan_actions   actions over the workload's plans in one pass (plan quality)
plan_steps     parallel steps over the workload's plans in one pass
peak_rss_mb    peak resident memory of the run

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Metadata (backend, Python, nproc, commit, seed) and every sample,
raw wall times and reference chunk times too, go to perfbench/results/. ``--compare OLD NEW`` prints the deltas between two
result files and refuses files taken on different kernel backends.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import hostspeed
import inputs
import spans
from workloads import EXPECTED_STATUS, WORKLOADS, plan_json, run_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
EXPECTED = HERE / "expected_seed0.json"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "largest_job_s": "s",
                    "ok_ratio": "ratio", "plan_actions": "count",
                    "plan_steps": "count", "peak_rss_mb": "MB"}


def import_package():
    """Import goalagenda afresh from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "goalagenda"]:
        del sys.modules[name]
    try:
        ga = importlib.import_module("goalagenda")
        for sub in ("agenda", "corpus", "driver", "graphplan", "model",
                    "oracle", "ordering", "pddl"):
            importlib.import_module(f"goalagenda.{sub}")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import goalagenda from {src}: "
                         f"{exc}") from None
    if not Path(ga.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: goalagenda imported from "
                         f"{ga.__file__}, not from {src}")
    return ga


def load(ga, instance):
    if instance.route == "ground":
        return ga.corpus.load_ground_json(instance.text)
    domain, problem = ga.pddl.parse(ga.corpus.domain_text(instance.domain),
                                    instance.text)
    return ga.pddl.ground(domain, problem)


def generate(ga, names, seed):
    made = {n: inputs.make(n, seed, ga.corpus) for n in names}
    if seed == 0:
        for name, inst in made.items():
            reference = inputs.corpus_text(name, ga.corpus)
            if reference is not None and reference != inst.text:
                raise SystemExit(f"perfbench: seed 0 text of {name} differs "
                                 "from the shipped corpus generator")
    return made


def setup(names, seed, speed, tracer=None):
    """Import the package, then parse and ground every instance, done
    SETUP_REPEATS times, each between two reference chunks. Returns the
    last set-up's package, instances and problems, each set-up's time, each
    at the reference host speed and, when traced, each set-up's spans."""
    made, times, scaled, groups = None, [], [], []
    after = speed.sample()
    for _ in range(SETUP_REPEATS):
        before = after
        t0 = time.perf_counter()
        ga = import_package()
        import_s = time.perf_counter() - t0
        if made is None:
            made = generate(ga, names, seed)
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        problems = {n: load(ga, inst) for n, inst in made.items()}
        times.append(import_s + time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
            groups.append(tracer.take())
        after = speed.sample()
        scaled.append(times[-1] / hostspeed.slowdown(before, after))
    return ga, made, problems, times, scaled, groups


class Runner:
    """Runs passes over one workload's jobs and checks every output."""

    def __init__(self, ga, jobs, made, problems, expected, speed):
        self.ga = ga
        self.speed = speed  # takes reference chunks between jobs
        self.jobs = jobs
        self.made = made
        self.problems = problems
        self.expected = expected  # job id -> digest, or None: nothing to match
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect: list = []
        self.failures: list = []

    def run_pass(self, tracer=None):
        """One pass; returns (wall time of the jobs, per-job times,
        plan_actions, plan_steps, and the pass's and the jobs' times at the
        reference host speed). Checks run after the timed loop.

        Reference chunks open the pass, close it, and split it wherever
        ``hostspeed.INTERVAL_S`` of job time has gone by; each job's time
        is divided by the slowdown of the two chunks around it."""
        outcomes, scaled, pending = [], {}, []
        gc.collect()  # the last pass's garbage is not this pass's cost
        before = self.speed.sample()
        since, reference_s = 0.0, 0.0
        pass_start = time.perf_counter()
        for index, (command, name) in enumerate(self.jobs):
            job_id = f"{command}:{name}"
            root = tracer.open_root("job", job_id) if tracer else None
            t0 = time.perf_counter()
            try:
                value, error = run_job(self.ga, command,
                                       self.problems[name]), None
            except Exception as exc:  # every job failure is counted
                value, error = None, exc
            elapsed = time.perf_counter() - t0
            if root is not None:
                tracer.close_root(root)
            outcomes.append((command, name, job_id, value, error, elapsed))
            pending.append((job_id, elapsed))
            since += elapsed
            if since >= hostspeed.INTERVAL_S or index == len(self.jobs) - 1:
                after = self.speed.sample()
                reference_s += after
                slowdown = hostspeed.slowdown(before, after)
                scaled.update((j, e / slowdown) for j, e in pending)
                pending, since, before = [], 0.0, after
        wall = time.perf_counter() - pass_start - reference_s
        times, actions, steps = {}, 0, 0
        for command, name, job_id, value, error, elapsed in outcomes:
            times[job_id] = elapsed
            self.attempted += 1
            problems = self._check(command, name, job_id, value, error)
            if problems:
                self.failed += 1
                self.failures.extend(f"{job_id}: {p}" for p in problems)
            elif command != "analyze-h" and command != "verify":
                plan = value[1].plan
                actions += plan.action_count()
                steps += len(plan.steps)
        return wall, times, actions, steps, sum(scaled.values()), scaled

    def _check(self, command, name, job_id, value, error) -> list:
        if error is not None:
            if not isinstance(error, self.ga.model.PlanningError):
                self.incorrect.append(job_id)
                traceback.print_exception(error, file=sys.stderr)
            return [f"{type(error).__name__}: {error}"]
        problem, inst = self.problems[name], self.made[name]
        if command == "verify":
            if value["limit_exceeded"]:
                return ["state budget exceeded"]
            output = value
            found = checks.verify_rows(value)
            if inst.tower and value["states"] != checks.stack_states(
                    len(inst.tower)):
                found.append(f"{value['states']} states, closed form "
                             f"{checks.stack_states(len(inst.tower))}")
        else:
            agenda, result = (value, None) if command == "analyze-h" else value
            output = (self.ga.agenda.agenda_to_dict(problem, agenda)
                      if result is None else plan_json(problem, result))
            found = checks.stack_agenda(problem, agenda, inst.tower) \
                if inst.tower else []
            if result is not None:
                if result.status == "resource_limit":
                    return ["budget hit: resource_limit"]
                want = EXPECTED_STATUS.get(name, "solved")
                if result.status != want:
                    found.append(f"status {result.status}, expected {want}")
                elif want == "solved":
                    found += checks.replay(problem, result.plan, inst.goals)
        digest = checks.digest(output)
        if self.digests.setdefault(job_id, digest) != digest:
            found.append("output differs between passes")
        if self.expected is not None and self.expected.get(job_id) != digest:
            found.append("output differs from the captured seed-0 output")
        if found:
            self.incorrect.append(job_id)
        return found


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def commit() -> str:
    """The checkout's commit; "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def compare(old_path, new_path) -> int:
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    if old["meta"]["backend"] != new["meta"]["backend"]:
        print(f"perfbench: refusing to compare a {old['meta']['backend']} "
              f"kernel run with a {new['meta']['backend']} one",
              file=sys.stderr)
        return 2
    for key in ("workload", "trace"):
        if old["meta"][key] != new["meta"][key]:
            print(f"perfbench: {key} differs; nothing to compare",
                  file=sys.stderr)
            return 2
    for name, entry in new["metrics"].items():
        before = old["metrics"].get(name)
        if before is None:
            print(f"{name:28} {entry['value']:>14.6g} {entry['unit']:6} (new)")
            continue
        change = (entry["value"] - before["value"]) / before["value"] \
            if before["value"] else float("nan")
        print(f"{name:28} {before['value']:>14.6g} -> {entry['value']:<14.6g}"
              f"{entry['unit']:6} {change:+.1%}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture", action="store_true",
                        help="record this workload's seed-0 output digests")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.capture and args.seed != 0:
        parser.error("--capture records seed 0 only")

    jobs, largest = WORKLOADS[args.workload]
    names = list(dict.fromkeys(name for _, name in jobs))
    tracer = spans.Tracer("goalagenda") if args.trace else None
    speed = hostspeed.HostSpeed()
    ga, made, problems, setup_times, setup_scaled, setup_spans = setup(
        names, args.seed, speed, tracer)
    captured = (json.loads(EXPECTED.read_text(encoding="utf-8"))
                if EXPECTED.exists() else {})
    expected = None
    if args.seed == 0 and not args.capture:
        expected = captured.get(args.workload, {})
    runner = Runner(ga, jobs, made, problems, expected, speed)

    runner.run_pass()  # warm-up: allocator and caches, checked not timed
    plain, traced, layer = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:  # stop before a round that would likely end past the deadline
        round_start = time.perf_counter()
        plain.append(runner.run_pass())
        if tracer:
            missing = tracer.install()
            traced.append(runner.run_pass(tracer))
            tracer.uninstall()
            layer.append(tracer.take())
        now = time.perf_counter()
        if now + (now - round_start) >= deadline:
            break

    largest_id = f"{largest[0]}:{largest[1]}"
    pass_times = [p[0] for p in plain]
    largest_times = [p[1][largest_id] for p in plain]
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "backend": ga.kernel_backend(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "passes": len(plain),
        "pass_samples_s": pass_times, "largest_job_samples_s": largest_times,
        "setup_samples_s": setup_times,
        "reference_samples_s": speed.samples,
        "scaled_pass_samples_s": [p[4] for p in plain],
        "scaled_largest_job_samples_s": [p[5][largest_id] for p in plain],
        "scaled_setup_samples_s": setup_scaled,
        "failures": runner.failures,
    }
    if args.trace:
        metrics = layer_report(setup_spans, setup_times, setup_scaled,
                               layer, traced, plain, missing)
        meta["absent"] = sorted((set(spans.SPAN_METRICS)
                                 | set(spans.COUNT_METRICS))
                                - set(metrics))
        units = {m: spans.unit(m) for m in metrics}
    else:
        metrics = {  # times at the reference host speed (hostspeed.py)
            "setup_s": statistics.median(setup_scaled),
            "pass_s": statistics.median(meta["scaled_pass_samples_s"]),
            "largest_job_s": statistics.median(
                meta["scaled_largest_job_samples_s"]),
            "ok_ratio": 1 - runner.failed / runner.attempted,
            "plan_actions": plain[-1][2],
            "plan_steps": plain[-1][3],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {meta['backend']}  python {meta['python']}  "
          f"nproc {meta['nproc']}  commit {meta['commit'][:12]}")
    q1, med, q3 = quartiles(pass_times)
    print(f"{len(plain)} untraced passes: raw wall median {med:.4f} s, "
          f"quartiles {q1:.4f}..{q3:.4f} s; "
          f"{runner.attempted} jobs, {runner.failed} failed; "
          f"{len(speed.samples)} reference chunks, median "
          f"{statistics.median(speed.samples):.4f} s")
    for failure in runner.failures[:20]:
        print(f"  FAILED {failure}")
    for name, value in metrics.items():
        print(f"  {name:28} {value:>14.6f} {units[name]}")
    for name in meta.get("absent", ()):
        print(f"  {name:28} {'absent':>14}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"meta": meta, "metrics": {n: {"value": v, "unit": units[n]}
                                        for n, v in metrics.items()}}
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n",
                                          encoding="utf-8")
    if args.trace:
        spans.dump(RESULTS / f"{stem}.spans.jsonl",
                   [s for group in setup_spans + layer for s in group])
    if args.capture:
        captured[args.workload] = runner.digests
        EXPECTED.write_text(json.dumps(captured, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not runner.incorrect,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report["metrics"],
    }))
    return 0


def layer_report(setup_spans, setup_times, setup_scaled, layer, traced, plain,
                 missing) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's
    value (pddl metrics over the set-up repeats instead), plus the tracing
    overhead. Like the end-to-end times, every time is at the reference
    host speed: a span's self time is divided by the slowdown measured
    around its job, or around its set-up."""
    per_pass = [spans.layer_metrics(group, missing,
                                    {job: times[job] / scaled[job]
                                     for job in scaled})
                for group, (_, times, _, _, _, scaled) in zip(layer, traced)]
    per_setup = [spans.layer_metrics(group, missing, {None: raw / scaled})
                 for group, raw, scaled in zip(setup_spans, setup_times,
                                               setup_scaled)]
    out = {}
    for metric in list(spans.SPAN_METRICS) + list(spans.COUNT_METRICS):
        source = per_setup if metric.startswith("pddl.") else per_pass
        samples = [m[metric] for m in source if metric in m]
        if samples:
            out[metric] = statistics.median(samples)
    out["trace.overhead_s"] = (statistics.median(p[4] for p in traced)
                               - statistics.median(p[4] for p in plain))
    return out


if __name__ == "__main__":
    sys.exit(main())
