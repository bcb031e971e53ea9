#!/usr/bin/env python3
"""End-to-end benchmark of the parallel tabu search, one workload per call.

    python3 perfbench/run.py --workload c532-warm --seed 1 --seconds 16 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
prints the per-layer metrics (real-run phases plus a traced in-process
simulated replay).  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
``{"report": ...}`` object with provenance and every raw sample.  The exit
code is non-zero when a run fails or a correctness check rejects a result.
The measurement runs in a child process in a session of its own; every
process left in that session's group is stopped and waited for before the
command returns.

    python3 perfbench/run.py --self-test      # smoke run of every workload
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Workloads, metrics and their definitions: perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Spawned worker processes re-import this file as ``__mp_main__``: keep the
# module level to the path set-up and the standard library.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def git_sha() -> str | None:
    """HEAD of the checkout (``None`` for a plain export without ``.git``)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "git_sha": git_sha(),
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class Outcome:
    """What one benchmark run measured, before printing."""

    metrics: Dict[str, Optional[float]]
    #: samples behind each metric (1 when it is a single measurement)
    counts: Dict[str, int]
    attempted: int
    failed: int
    failures: List[str]
    raw: dict


def measured(workload, seed: int, seconds: float, setup_args: tuple):
    """Set-up, serial baseline and untraced searches; the pool is closed
    on return."""
    import measure

    prepared = measure.setup(workload, seed, *setup_args)
    try:
        baseline = measure.serial_baseline(prepared)
        return measure.measure_runs(prepared, baseline, seconds)
    finally:
        prepared.close()  # reaps the workers, so CHILDREN rusage covers them


def run_untraced(workload, seed: int, seconds: float, setup_args: tuple = ()) -> Outcome:
    """End-to-end metrics of untraced runs."""
    import measure

    measurement = measured(workload, seed, seconds, setup_args)
    samples = measurement.samples
    counts = {
        "setup_s": len(measurement.prepared.setups),
        "run_s": len(samples),
        "best_cost": len(samples),
    }
    return Outcome(
        metrics=measure.end_to_end(measurement, measure.peak_rss_mib()),
        counts=counts,
        attempted=measurement.attempted,
        failed=measurement.failed,
        failures=measurement.failures,
        raw=raw_samples(measurement),
    )


def run_traced(workload, seed: int, seconds: float, setup_args: tuple = ()) -> Outcome:
    """Per-layer metrics: phases of untraced real runs, then an untraced and
    a traced simulated replay of the same configuration."""
    import pickle
    import statistics

    import layers
    import measure

    measurement = measured(workload, seed, seconds, setup_args)
    prepared, baseline = measurement.prepared, measurement.baseline
    replayed, replay_result = layers.replay_metrics(prepared, baseline.target_cost)
    replay_failures = [
        f"replay: {v}" for v in measure.check_result(prepared.problem, replay_result)
    ]
    real = measurement.last_result
    if real is not None and replay_result.best_cost != real.best_cost:
        replay_failures.append(
            f"replay best_cost {replay_result.best_cost!r} != measured run's "
            f"{real.best_cost!r}"
        )
    samples = measurement.samples
    setups = prepared.setups
    median = measure.median
    rounds = [d for s in samples for d in s.round_s] if workload.mode != "sim" else []
    round_p50 = median(rounds) or 0.0

    def phase(name):
        return median(s.phases.get(name) for s in samples) or 0.0

    metrics = {
        "session.pool_init_s": median(s.get("pool_init_s") for s in setups) or 0.0,
        "session.warmup_s": median(s.get("warmup_s") for s in setups) or 0.0,
        "session.master_start_s": phase("master_start_s"),
        "session.first_round_s": phase("first_round_s"),
        "session.teardown_s": phase("teardown_s"),
        "search.iters_per_s": measure.iters_per_s(samples),
        "search.time_to_target_s": median(s.time_to_target_s for s in samples),
        "pvm.cold_start_s": phase("cold_start_s"),
        "pvm.problem_bytes": float(len(pickle.dumps(prepared.problem, protocol=4))),
        "parallel.round_s_p50": round_p50,
        "parallel.round_s_tail": max(rounds, default=0.0),
        "parallel.round_samples": float(len(rounds)),
        "parallel.round_overhead_s": (
            round_p50 - workload.local_iterations * baseline.iter_ms / 1e3 if rounds else 0.0
        ),
        "parallel.interrupted_tsws": float(
            median(s.interrupted_tsws for s in samples) or 0.0
        ),
        "tabu.serial_iter_ms": baseline.iter_ms,
        "problems.load_s": median(s["load_s"] for s in setups),
        "problems.build_s": median(s["build_s"] for s in setups),
        "host.calibration_ms": 1e3 * statistics.mean(measurement.calibrations),
        **replayed,
    }
    counts = {name: len(setups) for name in (
        "session.pool_init_s", "session.warmup_s", "problems.load_s", "problems.build_s")}
    counts["host.calibration_ms"] = len(measurement.calibrations)
    counts.update({name: len(samples) for name in (
        "session.master_start_s", "session.first_round_s", "session.teardown_s",
        "search.iters_per_s", "search.time_to_target_s", "pvm.cold_start_s",
        "parallel.interrupted_tsws")})
    counts.update({name: len(rounds) for name in (
        "parallel.round_s_p50", "parallel.round_s_tail", "parallel.round_overhead_s")})
    raw = raw_samples(measurement)
    raw["replay"] = {"best_cost": replay_result.best_cost, "failures": replay_failures}
    return Outcome(
        metrics=metrics,
        counts=counts,
        attempted=measurement.attempted + 1,  # the replay counts as a run
        failed=measurement.failed + bool(replay_failures),
        failures=measurement.failures + replay_failures,
        raw=raw,
    )


def raw_samples(measurement) -> dict:
    return {
        "setups": measurement.prepared.setups,
        "setup_calibrations_s": measurement.prepared.calibrations,
        "run_calibrations_s": measurement.calibrations,
        "baseline": {
            "iterations": measurement.baseline.iterations,
            "wall_s": measurement.baseline.wall_s,
            "target_cost": measurement.baseline.target_cost,
        },
        "runs": [
            {
                "wall_s": s.wall_s,
                "calibration_s": s.calibration_s,
                "best_cost": s.best_cost,
                "steady_iterations": s.steady_iterations,
                "steady_span_s": s.steady_span_s,
                "time_to_target_s": s.time_to_target_s,
                "round_s": s.round_s,
                "phases": s.phases,
                "violations": s.violations,
            }
            for s in measurement.samples
        ],
    }


def result_object(specs, outcome: Outcome) -> tuple:
    """The result line: every metric of ``specs`` with its unit.  A metric
    that could not be measured fails the run."""
    missing = [m.name for m in specs if outcome.metrics.get(m.name) is None]
    failures = outcome.failures + [f"metric {name} was not measured" for name in missing]
    failed = min(outcome.attempted, outcome.failed + bool(missing))
    return {
        "correct": not failures,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": float(outcome.metrics[m.name]), "unit": m.unit}
            for m in specs
            if m.name not in missing
        },
    }, failures


def emit(workload_name, seed, trace, outcome: Outcome) -> int:
    """Print the table, the report line and the result line; return the exit code."""
    from workloads import END_TO_END, PER_LAYER

    specs = PER_LAYER if trace else END_TO_END
    result, failures = result_object(specs, outcome)
    print(f"workload {workload_name}  seed {seed}  trace {trace}  "
          f"runs {len(outcome.raw['runs'])}")
    for spec in specs:
        value = outcome.metrics.get(spec.name)
        shown = "missing" if value is None else f"{value:.6g}"
        count = outcome.counts.get(spec.name, 1)
        print(f"  {spec.name:34s} {shown:>14s} {spec.unit:9s} n={count}")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    report = {
        "workload": workload_name,
        "trace": trace,
        "provenance": provenance(seed),
        "samples": outcome.counts,
        "raw": outcome.raw,
        "failures": failures,
    }
    print(json.dumps({"report": report}, default=float))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_spec() -> int:
    from workloads import metrics_markdown, spec

    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
    (ROOT / "perfbench" / "METRICS.md").write_text(metrics_markdown())
    print("wrote BENCHMARK.json and perfbench/METRICS.md")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument(GROUP_FLAG, dest="in_own_group", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.in_own_group:
        return run_in_own_group(sys.argv[1:] if argv is None else list(argv))
    from workloads import RUN_SECONDS, WORKLOADS

    if args.write_spec:
        return write_spec()
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    runner = run_traced if args.trace else run_untraced
    outcome = runner(workload, args.seed, seconds)
    return emit(workload.name, args.seed, args.trace, outcome)


#: Marks the benchmark process that :func:`run_in_own_group` starts.
GROUP_FLAG = "--in-own-group"
#: How long the processes left in the group get to end by themselves (the
#: ``multiprocessing`` resource tracker exits once the benchmark process has
#: gone) before they are killed.
GROUP_GRACE_S = 10.0


def run_in_own_group(argv: List[str]) -> int:
    """Run the benchmark in a child process in a new session, then stop every
    process left in that session's group and wait until each has ended.

    Worker processes, and the resource tracker ``multiprocessing`` starts,
    inherit the group, so nothing the benchmark starts outlives this call.
    This process also becomes the child subreaper, so the processes orphaned
    when the benchmark exits are reaped here.
    """
    set_child_subreaper()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), GROUP_FLAG, *argv],
        start_new_session=True,
    )

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    previous = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        end_group(child)


def set_child_subreaper() -> None:
    """Make orphaned descendants children of this process (Linux only)."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def group_members(pgid: int) -> List[int]:
    """Pids of the live (not zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # fields after the parenthesised command: state, ppid, pgrp, ...
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def reap_children() -> None:
    """Collect every exited child (orphans land here as the subreaper)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def end_group(child: subprocess.Popen) -> None:
    """Kill what is left of ``child``'s process group and wait for its end:
    first the grace for processes that exit by themselves, then SIGKILL."""
    pgid = child.pid  # a new session's leader is its group's leader
    if child.poll() is None:
        os.killpg(pgid, signal.SIGKILL)
        child.wait()
    deadline = time.monotonic() + GROUP_GRACE_S
    while True:
        reap_children()
        members = group_members(pgid)
        if not members:
            return
        if time.monotonic() >= deadline:
            for pid in members:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
