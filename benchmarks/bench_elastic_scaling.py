#!/usr/bin/env python
"""Elastic scale-up benchmark: value and cost of admitting workers mid-run.

PR 10 lets a running search grow: ``WorkerPool.grow`` hands fresh TSW loops
to the in-flight master (seeded :class:`repro.SpawnWorker` plan entries do
the same on the simulator), which SETUP-handshakes them, full-provisions
their resident state through the delta path and folds them into the next
global-iteration boundary's range re-partition.  This benchmark puts numbers
on that machinery:

* **Elastic vs static fleet (processes)** — the same seeded search on a warm
  pool that starts with 2 TSWs and admits 2 more once the master has
  collected the first round of reports (a wall-clock timer would miss a
  run that finishes before it fires), against the static 2-TSW fleet.
  Reported: wall time and total evaluations of both runs.  Enforced: the
  elastic run makes >= 1.05x the static small fleet's evaluations — the
  admitted workers do real work.
* **Admission overhead (simulated)** — virtual time from the seeded
  admission request to the boundary re-partition that activates the new
  workers.  Enforced: the new workers join at the *next* boundary (bounded
  by one global iteration), not rounds later.
* **Determinism (enforced)** — a grow+kill plan (two workers admitted, one
  original killed) repeated under the simulator must replay bit-identically:
  same trace, same fault events, same final cost.

Results are written to ``BENCH_elastic.json`` (override with the
``BENCH_ELASTIC_JSON`` env var); each wall time is one run, recorded as
``{median, iqr, n}`` (``benchmarks/_timing.py``).

Run it directly (worker processes re-import it, hence the ``__main__``
guard)::

    PYTHONPATH=src python benchmarks/bench_elastic_scaling.py
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
    SpawnWorker,
    TabuSearchParams,
    WorkerPool,
)
from repro.core.registry import get_domain

from _timing import Bar, check, summary, timed
from _utils import after_first_round

CIRCUIT = "tiny16"
SEED = 2003
GAIN_BAR = 1.05
OUTPUT = Path(os.environ.get("BENCH_ELASTIC_JSON", "BENCH_elastic.json"))


def _event_rows(result):
    return [
        {"time": e.time, "kind": e.kind, "worker": e.worker, "detail": e.detail}
        for e in result.fault_events
    ]


def measure_elastic_vs_static(problem):
    """Admit 2 workers into a 2-TSW run vs staying at 2 TSWs (processes)."""
    params = ParallelSearchParams(
        num_tsws=2,
        clws_per_tsw=1,
        global_iterations=8,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=60),
        seed=SEED,
        fault=FaultPolicy(round_deadline=30.0, clw_deadline=20.0, max_missed_deadlines=0),
    )

    runs = []

    def run():
        runs.append(pool.run_master(problem, params, join_timeout=300.0)[0])

    with WorkerPool(2, 1, backend="processes") as pool:
        static_wall = timed(run)()
        static = runs[-1]
        assert static.complete and static.num_workers == 2

    with WorkerPool(2, 1, backend="processes") as pool:
        grown = []
        with after_first_round(lambda: grown.extend(pool.grow(2))):
            elastic_wall = timed(run)()
        elastic = runs[-1]
        assert elastic.complete, "elastic run must complete"
        assert len(grown) == 2, "grow must fire mid-run"
        assert elastic.admitted_workers == ("tsw2", "tsw3"), elastic.admitted_workers
        rows = {row[0]: row for row in elastic.health}
        assert rows[2][4] > 0 and rows[3][4] > 0, "admitted workers must contribute"

    gain = elastic.total_tsw_evaluations / static.total_tsw_evaluations
    print(
        f"processes : static 2 TSWs {static_wall:6.2f} s "
        f"({static.total_tsw_evaluations} evals), elastic 2+2 "
        f"{elastic_wall:6.2f} s ({elastic.total_tsw_evaluations} evals), "
        f"evaluation gain {gain:.2f}x"
    )
    return {
        "static_wall_seconds": summary([static_wall]),
        "static_evaluations": static.total_tsw_evaluations,
        "elastic_wall_seconds": summary([elastic_wall]),
        "elastic_evaluations": elastic.total_tsw_evaluations,
        "evaluation_gain": gain,
        "admitted": list(elastic.admitted_workers),
    }


def _sim_params(num_tsws: int = 3) -> ParallelSearchParams:
    return ParallelSearchParams(
        num_tsws=num_tsws,
        clws_per_tsw=2,
        global_iterations=6,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=4),
        seed=SEED,
        fault=FaultPolicy(round_deadline=50.0, clw_deadline=25.0, max_missed_deadlines=0),
    )


def measure_admission_overhead(problem):
    """Virtual time from the seeded admission to the activating re-partition."""
    plan = FaultPlan(spawns=(SpawnWorker(at=0.05, count=2),))
    session = SearchSession(problem=problem, params=_sim_params(), fault_plan=plan)
    result = session.run()
    assert result.complete
    master = session._master_result
    assert master.admitted_workers == ("tsw3", "tsw4"), master.admitted_workers

    admitted = [e for e in result.fault_events if e.kind == "worker-admitted"]
    reassigned = [e for e in result.fault_events if e.kind == "range-reassigned"]
    assert admitted and reassigned
    activation = reassigned[0].time
    overhead = activation - plan.spawns[0].at
    # rounds are ~0.03 virtual seconds here; the admission lands at the next
    # boundary, so request-to-activation stays under one round plus slack
    rounds = [t for t, _ in master.master_trace]
    round_span = max(
        b - a for a, b in zip(rounds, rounds[1:])
    ) if len(rounds) > 1 else 1.0
    assert overhead <= round_span + 0.11, (
        f"admission must activate at the next boundary: request at "
        f"{plan.spawns[0].at}, activated at {activation} "
        f"(round span {round_span:.4f})"
    )
    print(
        f"simulated : admission requested at {plan.spawns[0].at:.3f} vs, "
        f"activated at {activation:.3f} vs (overhead {overhead:.3f} vs, "
        f"round span {round_span:.3f} vs)"
    )
    return {
        "requested_at": plan.spawns[0].at,
        "activated_at": activation,
        "overhead_virtual_seconds": overhead,
        "round_span_virtual_seconds": round_span,
        "admitted": list(master.admitted_workers),
    }


def measure_grow_kill_determinism(problem):
    """A grow+kill plan must replay bit-identically under the simulator."""
    plan = FaultPlan(
        seed=7,
        spawns=(SpawnWorker(at=0.05, count=2),),
        kills=(KillWorker(at=0.16, name="tsw1"),),
    )

    def run():
        session = SearchSession(
            problem=problem, params=_sim_params(), fault_plan=plan
        )
        result = session.run()
        return result, session._master_result

    first, first_master = run()
    second, second_master = run()
    assert first.complete and second.complete
    assert first_master.admitted_workers == ("tsw3", "tsw4")
    assert first_master.dead_workers == ("tsw1",)
    deterministic = (
        first.trace == second.trace
        and _event_rows(first) == _event_rows(second)
        and first.best_cost == second.best_cost
    )
    assert deterministic, "same grow+kill plan must replay bit-identically"
    print(
        f"simulated : grow+kill plan replayed bit-identically "
        f"(admitted {first_master.admitted_workers}, "
        f"dead {first_master.dead_workers}, best {first.best_cost:.4f})"
    )
    return {
        "deterministic": deterministic,
        "admitted": list(first_master.admitted_workers),
        "dead": list(first_master.dead_workers),
        "best_cost": first.best_cost,
        "fault_events": _event_rows(first),
    }


def main() -> int:
    problem = get_domain("placement").build_problem(CIRCUIT, reference_seed=SEED)
    report = {
        "circuit": CIRCUIT,
        "seed": SEED,
        "elastic_vs_static": measure_elastic_vs_static(problem),
        "admission_overhead": measure_admission_overhead(problem),
        "grow_kill_determinism": measure_grow_kill_determinism(problem),
    }
    gain = Bar(
        "evaluation_gain",
        report["elastic_vs_static"]["evaluation_gain"],
        GAIN_BAR,
        higher_is_better=True,
    )
    return check([gain], report, OUTPUT)


if __name__ == "__main__":
    sys.exit(main())
