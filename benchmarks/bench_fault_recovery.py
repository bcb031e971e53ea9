#!/usr/bin/env python
"""Fault-recovery benchmark: cost of surviving worker death mid-run.

PR 8 made the master elastic: a :class:`repro.FaultPolicy` arms deadline
tracking and obituary handling, a dead TSW's candidate range is re-partitioned
over the survivors, and the run completes degraded instead of raising.  This
benchmark puts numbers on that machinery:

* **Recovery overhead (simulated)** — the same seeded search, fault-enabled,
  with and without a :class:`repro.FaultPlan` that kills one of three TSWs
  mid-run.  Reported: virtual makespan of both runs, final cost of both runs,
  and the solution-quality degradation ratio of losing a third of the fleet.
* **Determinism (enforced)** — the killed run repeated with the same plan
  must reproduce a bit-identical trajectory: same trace, same fault events.
* **Real kill recovery (processes)** — a warm 3-TSW pool on the
  multiprocessing backend, one loop SIGTERMed once the master has collected
  the run's first round of reports (a wall-clock timer would miss a run
  that finishes before it fires).
  Reported: wall time to degraded completion vs an unfaulted run, the repair
  respawn count, and that a second full-strength run follows.  Enforced: the
  killed run completes with the dead worker's range re-assigned.

Results are written to ``BENCH_faults.json`` (override with the
``BENCH_FAULTS_JSON`` env var); each wall time is one run, recorded as
``{median, iqr, n}`` like every timed value (``benchmarks/_timing.py``).

Run it directly (worker processes re-import it, hence the ``__main__``
guard)::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro import (
    FaultPlan,
    FaultPolicy,
    KillWorker,
    ParallelSearchParams,
    SearchSession,
    TabuSearchParams,
    WorkerPool,
)
from repro.core.registry import get_domain

from _timing import check, summary, timed
from _utils import after_first_round

CIRCUIT = "tiny16"
SEED = 2003
NUM_TSWS = 3
OUTPUT = Path(os.environ.get("BENCH_FAULTS_JSON", "BENCH_faults.json"))


def _sim_params() -> ParallelSearchParams:
    return ParallelSearchParams(
        num_tsws=NUM_TSWS,
        clws_per_tsw=2,
        global_iterations=6,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=4),
        seed=SEED,
        fault=FaultPolicy(round_deadline=50.0, clw_deadline=25.0, max_missed_deadlines=0),
    )


def _event_rows(result):
    return [
        {"time": e.time, "kind": e.kind, "worker": e.worker, "detail": e.detail}
        for e in result.fault_events
    ]


def measure_simulated_recovery(problem):
    """Fault-armed run with and without a mid-run TSW kill, plus determinism."""
    params = _sim_params()

    def run(plan):
        return SearchSession(problem=problem, params=params, fault_plan=plan).run()

    clean = run(None)
    assert clean.complete and not clean.fault_events

    plan = FaultPlan(seed=7, kills=(KillWorker(at=0.08, name="tsw1"),))
    killed = run(plan)
    assert killed.complete, "killed run must complete degraded, not raise"
    dead = [e for e in killed.fault_events if e.kind == "worker-dead"]
    reassigned = [e for e in killed.fault_events if e.kind == "range-reassigned"]
    assert [e.worker for e in dead] == ["tsw1"], dead
    assert reassigned, "dead worker's range must be re-assigned"

    repeat = run(plan)
    deterministic = (
        repeat.trace == killed.trace
        and _event_rows(repeat) == _event_rows(killed)
        and repeat.best_cost == killed.best_cost
    )
    assert deterministic, "same fault plan must replay bit-identically"

    degradation = killed.best_cost / clean.best_cost if clean.best_cost else 1.0
    print(
        f"simulated : clean {clean.best_cost:.4f} ({clean.virtual_runtime:.3f} vs), "
        f"1-of-{NUM_TSWS} killed {killed.best_cost:.4f} "
        f"({killed.virtual_runtime:.3f} vs), degradation {degradation:.3f}x, "
        f"deterministic: {deterministic}"
    )
    return {
        "clean_best_cost": clean.best_cost,
        "clean_virtual_seconds": clean.virtual_runtime,
        "killed_best_cost": killed.best_cost,
        "killed_virtual_seconds": killed.virtual_runtime,
        "quality_degradation": degradation,
        "deterministic": deterministic,
        "fault_events": _event_rows(killed),
    }


def measure_process_recovery(problem):
    """SIGTERM one of three warm TSW loops mid-run on the processes backend."""
    params = ParallelSearchParams(
        num_tsws=NUM_TSWS,
        clws_per_tsw=1,
        global_iterations=6,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=40),
        seed=SEED,
        fault=FaultPolicy(round_deadline=3.0, clw_deadline=2.0, max_missed_deadlines=0),
    )
    runs = []

    def run():
        runs.append(pool.run_master(problem, params, join_timeout=300.0)[0])

    with WorkerPool(NUM_TSWS, 1, backend="processes") as pool:
        clean_wall = timed(run)()
        clean = runs[-1]
        assert clean.complete and clean.dead_workers == ()

        victim = pool.tsw_pids[1]
        killed_flags = []
        kill = lambda: killed_flags.append(pool.kernel.terminate_worker(victim))  # noqa: E731
        with after_first_round(kill):
            degraded_wall = timed(run)()
        degraded = runs[-1]
        assert killed_flags == [True], "the kill must actually fire mid-run"
        assert degraded.complete, "killed run must complete degraded, not raise"
        assert degraded.dead_workers == ("tsw1",), degraded.dead_workers
        kinds = [e.kind for e in degraded.fault_events]
        assert "range-reassigned" in kinds, kinds

        # a fault-enabled run repairs the pool first: the dead loop respawns
        repaired_wall = timed(run)()
        second = runs[-1]
        assert second.complete and second.dead_workers == ()
        respawns = [e.worker for e in second.fault_events if e.kind == "worker-respawned"]
        assert respawns == ["tsw1"], respawns

    print(
        f"processes : clean {clean_wall:6.2f} s, 1 TSW killed {degraded_wall:6.2f} s "
        f"(overhead {degraded_wall - clean_wall:+.2f} s), "
        f"repaired rerun {repaired_wall:6.2f} s (respawned {respawns})"
    )
    return {
        "clean_wall_seconds": summary([clean_wall]),
        "killed_wall_seconds": summary([degraded_wall]),
        "recovery_overhead_seconds": summary([degraded_wall - clean_wall]),
        "repaired_wall_seconds": summary([repaired_wall]),
        "dead_workers": list(degraded.dead_workers),
        "respawned": respawns,
        "fault_events": _event_rows(degraded),
    }


def main() -> int:
    problem = get_domain("placement").build_problem(CIRCUIT, reference_seed=SEED)
    report = {
        "circuit": CIRCUIT,
        "seed": SEED,
        "num_tsws": NUM_TSWS,
        "simulated": measure_simulated_recovery(problem),
        "processes": measure_process_recovery(problem),
    }
    return check([], report, OUTPUT)


if __name__ == "__main__":
    sys.exit(main())
