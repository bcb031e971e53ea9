#!/usr/bin/env python
"""Trajectory digests: one hash per seeded scenario, for cross-commit diffs.

Runs a fixed matrix of small seeded searches on the simulated backend —
homogeneous and heterogeneous sync, both domains, fault plans (kills,
message loss, throttles, deadline re-sends), elastic grow/drain, checkpoint
round trips (one of them in fault mode) and warm worker pools, fault-free
and with a dead CLW loop —
through the public API only, and prints
one ``<scenario> <digest>`` line per scenario.  A digest hashes everything a
run's trajectory shows from outside: best cost and solution, the best-cost
trace, the per-round records, the virtual makespan, the simulator's message,
byte and event counts, and the fault events.  A ``serial`` line hashes
serial :class:`~repro.tabu.search.TabuSearch` runs (tiny16 and rand32, two
seeds, early accept on and off), each continued through an
``export_serial_state``/``restore_serial_search`` round trip, since no
session scenario runs the serial driver.  A ``weighted-sum`` line hashes
one homogeneous session and one serial search under the cost model's
weighted-sum ablation (``CostModelParams(aggregation="weighted_sum")``),
which every other scenario leaves out.  A last ``checkpoint-bytes`` line
hashes the checkpoint artifacts of two sessions paused after one round
(tiny16 and rand32, the ones ``tests/session/fixtures/`` commits), so a
change that alters what a checkpoint writes shows too.

Two commits walk the same trajectories exactly when every digest matches.
Compare a base commit against a change by running the script once against
each tree's ``src/``::

    PYTHONPATH=src python benchmarks/trajectory_digest.py > head.txt
    PYTHONPATH=/path/to/base/src python benchmarks/trajectory_digest.py > base.txt
    diff base.txt head.txt

The whole matrix takes a few seconds.
"""

from __future__ import annotations

import hashlib
import pickle
import sys

import numpy as np

from repro import (
    CostModelParams,
    DrainWorker,
    FaultPlan,
    FaultPolicy,
    KillWorker,
    MessageFaults,
    ParallelSearchParams,
    SearchSession,
    SessionState,
    SpawnWorker,
    TabuSearch,
    TabuSearchParams,
    TerminationCriteria,
    ThrottleMachine,
    WorkerPool,
    get_domain,
    paper_cluster,
)
from repro.session import export_serial_state, restore_serial_search

POLICY = FaultPolicy(round_deadline=50.0, clw_deadline=25.0, max_missed_deadlines=0)


def _params(**overrides) -> ParallelSearchParams:
    defaults = dict(
        num_tsws=3,
        clws_per_tsw=2,
        global_iterations=5,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=3, pairs_per_step=3, move_depth=2),
        seed=11,
    )
    defaults.update(overrides)
    return ParallelSearchParams(**defaults)


def _result_fields(result) -> tuple:
    """Everything observable about one packaged session result."""
    stats = result.sim_stats
    return (
        repr(float(result.best_cost)),
        np.asarray(result.best_solution, dtype=np.int64).tobytes(),
        repr([(float(t), float(c)) for t, c in result.trace]),
        repr(
            [
                (r.index, r.best_cost_after, r.received_costs, r.interrupted_tsws, r.finish_time)
                for r in result.global_records
            ]
        ),
        repr(float(result.virtual_runtime)),
        repr(
            None
            if stats is None
            else (
                stats.virtual_makespan,
                stats.total_events,
                stats.total_messages,
                stats.total_bytes,
            )
        ),
        repr([(e.time, e.kind, e.worker, e.detail) for e in result.fault_events]),
        result.complete,
    )


def _digest(*results) -> str:
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(repr(_result_fields(result)).encode())
    return hasher.hexdigest()[:16]


def _run(problem, params, plan=None, cluster=None):
    return SearchSession(
        problem=problem, params=params, fault_plan=plan, cluster=cluster
    ).run()


def _checkpoint_round_trip(problem, params, cluster=None):
    session = SearchSession(problem=problem, params=params, cluster=cluster)
    session.step(2)
    paused = session.result()
    blob = session.checkpoint().to_bytes()
    restored = SearchSession.restore(SessionState.from_bytes(blob), cluster=cluster)
    return paused, restored.run()


def _pool_runs(problem, fault=None, plan=None):
    params = _params(num_tsws=2, fault=fault)
    pool = WorkerPool(
        params.num_tsws, params.clws_per_tsw, backend="simulated", fault_plan=plan
    )
    try:
        first = SearchSession(problem=problem, params=params, pool=pool).run()
        second = SearchSession(
            problem=problem, params=params.with_(seed=12), pool=pool
        ).run()
    finally:
        pool.close()
    return first, second


def scenarios():
    """``(name, thunk)`` pairs; each thunk returns the results to digest."""
    tiny = get_domain("placement").build_problem("tiny16", reference_seed=7)
    qap = get_domain("qap").build_problem("rand32", reference_seed=0)
    hetero = dict(sync_mode="heterogeneous", num_tsws=4, diversify=True)
    return [
        ("homogeneous", lambda: [_run(tiny, _params())]),
        (
            "heterogeneous",
            lambda: [_run(tiny, _params(**hetero), cluster=paper_cluster())],
        ),
        (
            "qap-heterogeneous",
            lambda: [_run(qap, _params(**hetero), cluster=paper_cluster())],
        ),
        ("fault-armed", lambda: [_run(tiny, _params(fault=POLICY))]),
        (
            "tsw-kill",
            lambda: [
                _run(
                    tiny,
                    _params(fault=POLICY),
                    FaultPlan(seed=7, kills=(KillWorker(at=0.08, name="tsw1"),)),
                )
            ],
        ),
        (
            "clw-kill",
            lambda: [
                _run(
                    tiny,
                    _params(fault=POLICY),
                    FaultPlan(kills=(KillWorker(at=0.08, name="tsw0.clw1"),)),
                )
            ],
        ),
        (
            "loss-throttle",
            lambda: [
                _run(
                    tiny,
                    _params(fault=POLICY),
                    FaultPlan(
                        seed=3,
                        throttles=(ThrottleMachine(at=0.02, machine=1, factor=0.2),),
                        message_faults=MessageFaults(
                            loss_probability=0.15, delay_jitter=0.002
                        ),
                    ),
                )
            ],
        ),
        (
            "loss-resend",
            lambda: [
                _run(
                    tiny,
                    _params(fault=POLICY.with_(max_missed_deadlines=2)),
                    FaultPlan(seed=5, message_faults=MessageFaults(loss_probability=0.15)),
                )
            ],
        ),
        (
            "hetero-clw-kill-loss",
            lambda: [
                _run(
                    tiny,
                    _params(fault=POLICY.with_(max_missed_deadlines=1), **hetero),
                    FaultPlan(
                        seed=9,
                        kills=(KillWorker(at=0.08, name="tsw2.clw0"),),
                        message_faults=MessageFaults(
                            loss_probability=0.1, delay_jitter=0.003
                        ),
                    ),
                    cluster=paper_cluster(),
                )
            ],
        ),
        (
            "elastic",
            lambda: [
                _run(
                    tiny,
                    _params(fault=POLICY, global_iterations=6),
                    FaultPlan(
                        seed=7,
                        spawns=(SpawnWorker(at=0.05, count=2),),
                        drains=(DrainWorker(at=0.1, name="tsw1"),),
                        kills=(KillWorker(at=0.2, name="tsw3"),),
                    ),
                )
            ],
        ),
        ("homogeneous-resume", lambda: _checkpoint_round_trip(tiny, _params())),
        (
            "heterogeneous-resume",
            lambda: _checkpoint_round_trip(tiny, _params(**hetero), paper_cluster()),
        ),
        # a fault-mode pause: both tiers harvest through the bounded wait
        ("fault-resume", lambda: _checkpoint_round_trip(tiny, _params(fault=POLICY))),
        ("pool-two-runs", lambda: _pool_runs(tiny)),
        (
            # a CLW loop dies before the first run: its TSW strikes it out
            # at the CLW deadline of every run's setup and stays in the run
            "pool-clw-kill",
            lambda: _pool_runs(
                tiny, POLICY, FaultPlan(kills=(KillWorker(at=0.01, name="tsw0.clw1"),))
            ),
        ),
    ]


def serial_digest() -> str:
    """sha256 over seeded serial searches, each resumed from its own export.

    Every search runs 12 iterations, is exported and restored into a fresh
    search that runs to 24, and then diversifies once; the hash covers both
    runs' results, the exported state, the final tabu payload and the
    diversified solution and cost.
    """
    hasher = hashlib.sha256()
    for domain, instance, reference_seed in (("placement", "tiny16", 7), ("qap", "rand32", 0)):
        problem = get_domain(domain).build_problem(instance, reference_seed=reference_seed)
        for seed in (1, 2):
            for early_accept in (True, False):
                params = TabuSearchParams(
                    tabu_tenure=5, pairs_per_step=6, move_depth=3, early_accept=early_accept
                )
                evaluator = problem.make_evaluator(problem.random_solution(seed))
                search = TabuSearch(evaluator, params, seed=seed)
                first = search.run(TerminationCriteria(max_iterations=12))
                state = export_serial_state(search)
                resumed = restore_serial_search(problem, params, state, seed=seed)
                second = resumed.run(TerminationCriteria(max_iterations=24))
                resumed.diversify()
                for result in (first, second):
                    fields = (
                        float(result.best_cost), result.iterations, result.evaluations, result.trace
                    )
                    hasher.update(repr(fields).encode())
                    hasher.update(np.asarray(result.best_solution, np.int64).tobytes())
                hasher.update(pickle.dumps(state, protocol=4))
                hasher.update(repr(sorted(resumed.tabu_list.to_payload())).encode())
                hasher.update(resumed.evaluator.snapshot().tobytes())
                hasher.update(
                    repr((resumed.current_cost, resumed.evaluator.evaluations)).encode()
                )
    return hasher.hexdigest()[:16]


def weighted_sum_digest() -> str:
    """sha256 over a homogeneous session and a serial search on tiny16, both
    scored by the weighted-sum ablation instead of the fuzzy goals."""
    problem = get_domain("placement").build_problem(
        "tiny16", cost_params=CostModelParams(aggregation="weighted_sum"), reference_seed=7
    )
    hasher = hashlib.sha256()
    hasher.update(repr(_result_fields(_run(problem, _params()))).encode())
    params = TabuSearchParams(tabu_tenure=5, pairs_per_step=6, move_depth=3)
    search = TabuSearch(problem.make_evaluator(problem.random_solution(1)), params, seed=1)
    result = search.run(TerminationCriteria(max_iterations=24))
    fields = (float(result.best_cost), result.iterations, result.evaluations, result.trace)
    hasher.update(repr(fields).encode())
    hasher.update(np.asarray(result.best_solution, np.int64).tobytes())
    return hasher.hexdigest()[:16]


def checkpoint_digest() -> str:
    """sha256 over the artifacts of tiny16 and rand32 paused after ``step(1)``."""
    hasher = hashlib.sha256()
    params = _params(num_tsws=2, clws_per_tsw=1, global_iterations=4)
    for domain, instance, reference_seed in (("placement", "tiny16", 7), ("qap", "rand32", 0)):
        problem = get_domain(domain).build_problem(instance, reference_seed=reference_seed)
        session = SearchSession(problem=problem, params=params)
        session.step(1)
        hasher.update(session.checkpoint().to_bytes())
    return hasher.hexdigest()[:16]


def main() -> int:
    for name, thunk in scenarios():
        print(f"{name} {_digest(*thunk())}", flush=True)
    print(f"serial {serial_digest()}", flush=True)
    print(f"weighted-sum {weighted_sum_digest()}", flush=True)
    print(f"checkpoint-bytes {checkpoint_digest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
