#!/usr/bin/env python
"""Session lifecycle latency: warm-pool submits vs cold startups on processes.

PR 7 split worker lifecycle from run lifecycle: a :class:`repro.WorkerPool`
keeps the TSW/CLW process tree (and the kernel's shared-memory exports)
alive across consecutive searches, so a warm submit only spawns the master
and ships ``SETUP`` messages, while a cold :func:`repro.run_parallel_search`
pays kernel construction plus one OS-process spawn per worker every time.
This benchmark puts a number on that split and on the checkpoint codec.

Method
------
* **Cold** — ``REPRO_SESSION_REPEATS`` one-shot
  ``run_parallel_search(..., backend="processes")`` calls on a deliberately
  small c532 workload (startup-dominated); best (minimum) wall time wins.
* **Warm** — one :class:`~repro.session.WorkerPool` (spawn time reported
  separately), then the same number of :class:`~repro.session.SearchSession`
  runs against it.  The worker pids must be stable across runs (no respawn)
  and, since the workload pins ``sync_mode="homogeneous"``, every run must
  reproduce the cold best cost exactly.
* **Checkpoint codec** — a simulated session is stepped one global
  iteration, checkpointed, and restored: artifact size plus encode / save /
  load+restore times, and the resumed run must finish bit-identical to an
  uninterrupted session.

Results are written to ``BENCH_session.json`` (override with the
``BENCH_SESSION_JSON`` env var); CI uploads the file per run.  The enforced
bar: the best warm submit must be at least 3x faster than the best cold
startup (the measurement section gets one retry, mirroring the wall-clock
benchmark — shared runners have noisy neighbours).

Environment knobs:

* ``REPRO_SESSION_TSWS``    — TSW count (default ``4``, 1 CLW each)
* ``REPRO_SESSION_REPEATS`` — cold/warm runs measured (default ``3``)
* ``REPRO_SESSION_BAR``     — warm-vs-cold speedup bar (default ``3.0``)

Run it directly (worker processes re-import it, hence the ``__main__``
guard)::

    PYTHONPATH=src python benchmarks/bench_session_lifecycle.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro import (
    ParallelSearchParams,
    SearchSession,
    SessionState,
    TabuSearchParams,
    WorkerPool,
    homogeneous_cluster,
    load_benchmark,
    run_parallel_search,
)
from repro.parallel import build_problem

from _utils import available_cpus

CIRCUIT = "c532"
SEED = 2003
#: Acceptance: warm submit >= 3x faster than cold startup (overridable for
#: slower/noisier environments).
WARM_BAR = float(os.environ.get("REPRO_SESSION_BAR", "3.0"))


def _params(num_tsws: int) -> ParallelSearchParams:
    # Small, startup-dominated workload: the search itself takes a fraction
    # of a second, so the cold/warm gap isolates lifecycle overhead.
    # Homogeneous sync makes every run's decisions timing-independent, which
    # lets the benchmark assert warm runs reproduce the cold best exactly.
    return ParallelSearchParams(
        num_tsws=num_tsws,
        clws_per_tsw=1,
        global_iterations=2,
        sync_mode="homogeneous",
        diversify=False,
        tabu=TabuSearchParams(local_iterations=10, pairs_per_step=64, move_depth=3),
        seed=SEED,
    )


def measure_lifecycle(netlist, problem, params, cluster, repeats):
    """Time `repeats` cold one-shot runs and `repeats` warm pooled runs."""
    cold_seconds = []
    cold_best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_parallel_search(
            netlist,
            params,
            backend="processes",
            cluster=cluster,
            problem=problem,
        )
        cold_seconds.append(time.perf_counter() - start)
        cold_best = result.best_cost

    pool_start = time.perf_counter()
    pool = WorkerPool(
        params.num_tsws, params.clws_per_tsw, backend="processes", cluster=cluster
    )
    pool_spawn_seconds = time.perf_counter() - pool_start
    warm_seconds = []
    pids_stable = True
    try:
        pids_before = pool.tsw_pids
        for _ in range(repeats):
            session = SearchSession(problem=problem, params=params, pool=pool)
            start = time.perf_counter()
            result = session.run()
            warm_seconds.append(time.perf_counter() - start)
            # same seed + homogeneous sync: the pooled run must walk the
            # same trajectory as the cold one-shot run
            assert result.best_cost == cold_best, (result.best_cost, cold_best)
        pids_stable = pool.tsw_pids == pids_before
        runs_served = pool.runs_served
    finally:
        pool.close()
    return {
        "cold_seconds_all": cold_seconds,
        "cold_seconds": min(cold_seconds),
        "pool_spawn_seconds": pool_spawn_seconds,
        "warm_seconds_all": warm_seconds,
        "warm_seconds": min(warm_seconds),
        "warm_vs_cold": min(cold_seconds) / min(warm_seconds),
        "runs_served": runs_served,
        "pids_stable": pids_stable,
        "best_cost": cold_best,
    }


def measure_checkpoint(problem, params):
    """Checkpoint-codec cost on a simulated mid-run session."""
    session = SearchSession(problem=problem, params=params, backend="simulated")
    session.step(1)
    state = session.checkpoint()

    encode_start = time.perf_counter()
    blob = state.to_bytes()
    encode_ms = (time.perf_counter() - encode_start) * 1e3

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.ckpt"
        save_start = time.perf_counter()
        state.save(path)
        save_ms = (time.perf_counter() - save_start) * 1e3

        restore_start = time.perf_counter()
        resumed = SearchSession.restore(SessionState.load(path))
        load_restore_ms = (time.perf_counter() - restore_start) * 1e3
        resumed_result = resumed.run()

    uninterrupted = SearchSession(
        problem=problem, params=params, backend="simulated"
    ).run()
    identical = bool(resumed_result.best_cost == uninterrupted.best_cost)
    assert identical, (resumed_result.best_cost, uninterrupted.best_cost)
    return {
        "size_bytes": len(blob),
        "encode_ms": encode_ms,
        "save_ms": save_ms,
        "load_restore_ms": load_restore_ms,
        "resume_bit_identical": identical,
    }


def run_benchmark(num_tsws, repeats):
    netlist = load_benchmark(CIRCUIT)
    params = _params(num_tsws)
    problem = build_problem(netlist, params)
    cluster = homogeneous_cluster(2 * num_tsws + 1)

    lifecycle = measure_lifecycle(netlist, problem, params, cluster, repeats)
    attempts = 1
    # One retry, mirroring bench_wallclock_parallel.py: a transient dip on a
    # noisy shared runner must not read as a lifecycle regression.
    if lifecycle["warm_vs_cold"] < WARM_BAR:
        retry = measure_lifecycle(netlist, problem, params, cluster, repeats)
        attempts = 2
        if retry["warm_vs_cold"] > lifecycle["warm_vs_cold"]:
            lifecycle = retry
    lifecycle["attempts"] = attempts
    print(
        f"cold start: {lifecycle['cold_seconds']:6.2f} s   "
        f"warm submit: {lifecycle['warm_seconds']:6.2f} s   "
        f"(pool spawn {lifecycle['pool_spawn_seconds']:.2f} s, "
        f"{lifecycle['runs_served']} runs served, "
        f"pids stable: {lifecycle['pids_stable']})"
    )
    print(f"warm vs cold: {lifecycle['warm_vs_cold']:.2f}x")

    checkpoint = measure_checkpoint(problem, params)
    print(
        f"checkpoint : {checkpoint['size_bytes']} bytes, "
        f"encode {checkpoint['encode_ms']:.2f} ms, save {checkpoint['save_ms']:.2f} ms, "
        f"load+restore {checkpoint['load_restore_ms']:.2f} ms, "
        f"resume bit-identical: {checkpoint['resume_bit_identical']}"
    )

    return {
        "circuit": CIRCUIT,
        "backend": "processes",
        "cpu_count": available_cpus(),
        "topology": {"num_tsws": num_tsws, "clws_per_tsw": 1},
        "workload": {
            "global_iterations": params.global_iterations,
            "local_iterations": params.tabu.local_iterations,
            "pairs_per_step": params.tabu.pairs_per_step,
            "move_depth": params.tabu.move_depth,
            "sync_mode": params.sync_mode,
            "repeats": repeats,
        },
        "lifecycle": lifecycle,
        "checkpoint": checkpoint,
        "bar": WARM_BAR,
    }


def main() -> int:
    num_tsws = int(os.environ.get("REPRO_SESSION_TSWS", "4"))
    repeats = int(os.environ.get("REPRO_SESSION_REPEATS", "3"))
    report = run_benchmark(num_tsws, repeats)

    out_path = Path(os.environ.get("BENCH_SESSION_JSON", "BENCH_session.json"))
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    lifecycle = report["lifecycle"]
    failed = False
    if lifecycle["warm_vs_cold"] < WARM_BAR:
        print(
            f"FAIL: warm submit only {lifecycle['warm_vs_cold']:.2f}x faster "
            f"than cold startup (bar: {WARM_BAR}x)",
            file=sys.stderr,
        )
        failed = True
    else:
        print(f"warm-start speedup {lifecycle['warm_vs_cold']:.2f}x >= {WARM_BAR}x bar")
    if not lifecycle["pids_stable"]:
        print("FAIL: worker pids changed across warm runs (respawn)", file=sys.stderr)
        failed = True
    if not report["checkpoint"]["resume_bit_identical"]:
        print("FAIL: resumed run diverged from uninterrupted run", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def test_session_lifecycle():
    """Pytest entry point (not collected by default: bench_* naming)."""
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
