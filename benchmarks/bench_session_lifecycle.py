#!/usr/bin/env python
"""Session lifecycle latency: warm-pool submits vs cold startups on processes.

PR 7 split worker lifecycle from run lifecycle: a :class:`repro.WorkerPool`
keeps the TSW/CLW process tree (and the kernel's shared-memory exports)
alive across consecutive searches, so a warm submit only spawns the master
and ships ``SETUP`` messages, while a cold :func:`repro.run_parallel_search`
pays kernel construction plus one OS-process spawn per worker every time.
This benchmark puts a number on that split, on one worker's boot and on
the checkpoint codec.

Method
------
* **Cold vs warm** — one :class:`~repro.session.WorkerPool` is spawned
  (its spawn time reported separately), its first warm run is timed alone,
  then alternating rounds (``benchmarks/_timing.py``) each time one cold
  one-shot ``run_parallel_search(..., backend="processes")`` call on a
  deliberately small c532 workload (startup-dominated) and one warm
  :class:`~repro.session.SearchSession` run against the pool, after one
  untimed warm-up of each.  The worker pids must be stable across runs (no
  respawn) and, since the workload pins ``sync_mode="homogeneous"``, every
  run must reproduce the same best cost exactly.
* **Worker boot** — a fresh :class:`~repro.pvm.ProcessKernel` spawns a
  trivial body :data:`BOOT_SPAWNS` times, one after another, from a process
  on a kernel thread: the wall time from the spawn to the body's first
  message, and the CPU time the worker had used when its body started.
* **Checkpoint codec** — a simulated session is stepped one global
  iteration, checkpointed, and restored: artifact size plus encode / save /
  load+restore times, and the resumed run must finish bit-identical to an
  uninterrupted session.

Results are written to ``BENCH_session.json`` (override with the
``BENCH_SESSION_JSON`` env var).  The enforced bar: a steady warm submit
takes at most :data:`WARM_SECONDS_BAR`.  Reported, not enforced: the median
per-round ratio of cold to warm wall time against 3x (the bar it replaced:
cold start got cheap, so the ratio fell without warm runs getting slower),
and the first warm run over the steady one against 1.5x (met only once
pool boot finishes inside ``WorkerPool.__init__``).

Run it directly (a ``__main__`` guard keeps worker processes from running
the benchmark)::

    PYTHONPATH=src python benchmarks/bench_session_lifecycle.py
"""

from __future__ import annotations

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
from repro.pvm import ProcessKernel

from _timing import Bar, alternate, check, ratio, summary, timed

CIRCUIT = "c532"
SEED = 2003
NUM_TSWS = 4
#: Alternating rounds of one cold and one warm run.
ROUNDS = 3
#: Acceptance: a steady warm submit takes at most this many seconds — the
#: steady reading committed before this bar (0.119 s) with the headroom the
#: c532 serial bar keeps over its reading (7 against 4.44 ms/iter).
WARM_SECONDS_BAR = 0.187
#: Reported: cold over warm wall time (the enforced bar until cold start
#: got cheap), and the first warm run after ``WorkerPool()`` over a steady
#: one.
WARM_VS_COLD_BAR = 3.0
FIRST_WARM_BAR = 1.5
#: Spawns the worker-boot measurement times.
BOOT_SPAWNS = 10
OUTPUT = Path(os.environ.get("BENCH_SESSION_JSON", "BENCH_session.json"))


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


def measure_lifecycle(netlist, problem, params, cluster):
    """Alternate cold one-shot runs with warm pooled runs."""
    pools = []
    pool_spawn_seconds = timed(
        lambda: pools.append(
            WorkerPool(
                params.num_tsws, params.clws_per_tsw, backend="processes", cluster=cluster
            )
        )
    )()
    best_costs = set()

    def cold():
        result = run_parallel_search(
            netlist, params, backend="processes", cluster=cluster, problem=problem
        )
        best_costs.add(result.best_cost)

    def warm():
        session = SearchSession(problem=problem, params=params, pool=pool)
        best_costs.add(session.run().best_cost)

    with pools[0] as pool:
        pids_before = pool.tsw_pids
        first_warm_seconds = timed(warm)()
        samples = alternate({"cold": timed(cold), "warm": timed(warm)}, ROUNDS)
        assert pool.tsw_pids == pids_before, "worker pids changed across warm runs"
        runs_served = pool.runs_served
    # same seed + homogeneous sync: pooled runs walk the cold runs' trajectory
    assert len(best_costs) == 1, best_costs
    warm_seconds = summary(samples["warm"])
    return {
        "cold_seconds": summary(samples["cold"]),
        "pool_spawn_seconds": summary([pool_spawn_seconds]),
        "first_warm_seconds": summary([first_warm_seconds]),
        "warm_seconds": warm_seconds,
        "warm_vs_cold": ratio(samples["cold"], samples["warm"]),
        "first_warm_vs_steady": first_warm_seconds / warm_seconds["median"],
        "runs_served": runs_served,
        "best_cost": best_costs.pop(),
    }


def boot_probe(ctx):
    """A trivial worker body: its first message carries the CPU seconds its
    process had used when the body started."""
    yield ctx.send(ctx.parent, "boot", time.process_time())


def boot_timer(ctx, spawns: int):
    """Spawn :func:`boot_probe` ``spawns`` times, one after another; each
    spawn's ``(wall seconds to the first message, worker CPU seconds)``."""
    samples = []
    for _ in range(spawns):
        start = yield ctx.now()
        child = yield ctx.spawn(boot_probe)
        message = yield ctx.recv(tag="boot", src=child)
        samples.append(((yield ctx.now()) - start, message.payload))
    return samples


def measure_worker_boot(cluster):
    """One worker's boot on a fresh kernel (the driver's fork server is
    already running): spawn to first message, and CPU at body start."""
    with ProcessKernel(cluster) as kernel:
        pid = kernel.spawn_local(boot_timer, BOOT_SPAWNS)
        kernel.join_all(timeout=120.0)
        samples = kernel.result_of(pid)
    return {
        "spawn_to_first_message_ms": summary([wall for wall, _ in samples], 1e3),
        "cpu_at_body_start_ms": summary([cpu for _, cpu in samples], 1e3),
    }


def measure_checkpoint(problem, params):
    """Checkpoint-codec cost on a simulated mid-run session."""
    session = SearchSession(problem=problem, params=params, backend="simulated")
    session.step(1)
    state = session.checkpoint()
    resumed = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.ckpt"
        samples = alternate(
            {
                "encode": timed(state.to_bytes),
                "save": timed(lambda: state.save(path)),
                "load_restore": timed(
                    lambda: resumed.append(SearchSession.restore(SessionState.load(path)))
                ),
            },
            ROUNDS,
        )
    resumed_result = resumed[-1].run()
    uninterrupted = SearchSession(
        problem=problem, params=params, backend="simulated"
    ).run()
    assert resumed_result.best_cost == uninterrupted.best_cost, (
        resumed_result.best_cost,
        uninterrupted.best_cost,
    )
    return {
        "size_bytes": len(state.to_bytes()),
        "encode_ms": summary(samples["encode"], 1e3),
        "save_ms": summary(samples["save"], 1e3),
        "load_restore_ms": summary(samples["load_restore"], 1e3),
        "resume_bit_identical": True,
    }


def main() -> int:
    netlist = load_benchmark(CIRCUIT)
    params = _params(NUM_TSWS)
    problem = build_problem(netlist, params)
    cluster = homogeneous_cluster(2 * NUM_TSWS + 1)
    report = {
        "circuit": CIRCUIT,
        "backend": "processes",
        "topology": {"num_tsws": NUM_TSWS, "clws_per_tsw": 1},
        "workload": {
            "global_iterations": params.global_iterations,
            "local_iterations": params.tabu.local_iterations,
            "pairs_per_step": params.tabu.pairs_per_step,
            "move_depth": params.tabu.move_depth,
            "sync_mode": params.sync_mode,
            "rounds": ROUNDS,
            "boot_spawns": BOOT_SPAWNS,
        },
        "lifecycle": measure_lifecycle(netlist, problem, params, cluster),
        "worker_boot": measure_worker_boot(cluster),
        "checkpoint": measure_checkpoint(problem, params),
    }
    lifecycle = report["lifecycle"]
    bars = [
        Bar("warm_seconds", lifecycle["warm_seconds"]["median"], WARM_SECONDS_BAR),
        Bar(
            "warm_vs_cold",
            lifecycle["warm_vs_cold"]["median"],
            WARM_VS_COLD_BAR,
            higher_is_better=True,
            enforced=False,
        ),
        Bar(
            "first_warm_vs_steady",
            lifecycle["first_warm_vs_steady"],
            FIRST_WARM_BAR,
            enforced=False,
        ),
    ]
    return check(bars, report, OUTPUT)


if __name__ == "__main__":
    sys.exit(main())
