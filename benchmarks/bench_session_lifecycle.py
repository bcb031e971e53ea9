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
* **Cold vs warm** — one :class:`~repro.session.WorkerPool` is spawned
  (its spawn time reported separately), then alternating rounds
  (``benchmarks/_timing.py``) each time one cold one-shot
  ``run_parallel_search(..., backend="processes")`` call on a deliberately
  small c532 workload (startup-dominated) and one warm
  :class:`~repro.session.SearchSession` run against the pool, after one
  untimed warm-up of each.  The worker pids must be stable across runs (no
  respawn) and, since the workload pins ``sync_mode="homogeneous"``, every
  run must reproduce the same best cost exactly.
* **Checkpoint codec** — a simulated session is stepped one global
  iteration, checkpointed, and restored: artifact size plus encode / save /
  load+restore times, and the resumed run must finish bit-identical to an
  uninterrupted session.

Results are written to ``BENCH_session.json`` (override with the
``BENCH_SESSION_JSON`` env var).  The enforced bar: the median per-round
ratio of cold to warm wall time is at least 3x.

Run it directly (worker processes re-import it, hence the ``__main__``
guard)::

    PYTHONPATH=src python benchmarks/bench_session_lifecycle.py
"""

from __future__ import annotations

import os
import sys
import tempfile
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

from _timing import Bar, alternate, check, ratio, summary, timed

CIRCUIT = "c532"
SEED = 2003
NUM_TSWS = 4
#: Alternating rounds of one cold and one warm run.
ROUNDS = 3
#: Acceptance: warm submit >= 3x faster than cold startup.
WARM_BAR = 3.0
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
        samples = alternate({"cold": timed(cold), "warm": timed(warm)}, ROUNDS)
        assert pool.tsw_pids == pids_before, "worker pids changed across warm runs"
        runs_served = pool.runs_served
    # same seed + homogeneous sync: pooled runs walk the cold runs' trajectory
    assert len(best_costs) == 1, best_costs
    return {
        "cold_seconds": summary(samples["cold"]),
        "pool_spawn_seconds": summary([pool_spawn_seconds]),
        "warm_seconds": summary(samples["warm"]),
        "warm_vs_cold": ratio(samples["cold"], samples["warm"]),
        "runs_served": runs_served,
        "best_cost": best_costs.pop(),
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
        },
        "lifecycle": measure_lifecycle(netlist, problem, params, cluster),
        "checkpoint": measure_checkpoint(problem, params),
    }
    bar = Bar(
        "warm_vs_cold",
        report["lifecycle"]["warm_vs_cold"]["median"],
        WARM_BAR,
        higher_is_better=True,
    )
    return check([bar], report, OUTPUT)


if __name__ == "__main__":
    sys.exit(main())
