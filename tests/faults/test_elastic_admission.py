"""Elastic scale-up and graceful drain: admit new workers into a running search.

The elasticity counterpart of ``test_sim_recovery``: seeded
:class:`~repro.pvm.SpawnWorker` / :class:`~repro.pvm.DrainWorker` plan
entries grow and shrink the TSW roster at fixed virtual times on the
simulated backend (bit-identically on every replay), while
:meth:`~repro.session.WorkerPool.grow` / ``drain`` do the same against live
runs on the real backends.  Admission is processed at global-iteration
boundaries only, so the trajectory stays deterministic; a drained worker
retires without a strike and its loop stays reusable.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.parallel import FaultPolicy, ParallelSearchParams
from repro.pvm import DrainWorker, FaultPlan, KillWorker, SpawnWorker
from repro.session import SearchSession, SessionState, WorkerPool
from repro.tabu import TabuSearchParams

NUM_TSWS = 3


def fault_params(**overrides) -> ParallelSearchParams:
    defaults = dict(
        num_tsws=NUM_TSWS,
        clws_per_tsw=2,
        global_iterations=5,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=3, pairs_per_step=3, move_depth=2),
        seed=11,
        fault=FaultPolicy(
            round_deadline=50.0, clw_deadline=25.0, max_missed_deadlines=0
        ),
    )
    defaults.update(overrides)
    return ParallelSearchParams(**defaults)


def run_session(problem, plan, **overrides):
    session = SearchSession(
        problem=problem, params=fault_params(**overrides), fault_plan=plan
    )
    result = session.run()
    return result, session._master_result


def event_tuples(result):
    return [(e.time, e.kind, e.worker, e.detail) for e in result.fault_events]


def assert_bit_identical(first, second):
    assert first.best_cost == second.best_cost
    assert np.array_equal(first.best_solution, second.best_solution)
    assert len(first.global_records) == len(second.global_records)
    for ours, theirs in zip(first.global_records, second.global_records):
        assert ours.received_costs == theirs.received_costs
        assert ours.best_cost_after == theirs.best_cost_after


# --------------------------------------------------------------------------- #
# seeded admission on the simulated backend
# --------------------------------------------------------------------------- #
class TestSimAdmission:
    def test_spawned_workers_join_and_contribute(self, problem):
        plan = FaultPlan(seed=7, spawns=(SpawnWorker(at=0.05, count=2),))
        result, master = run_session(problem, plan)
        assert result.complete
        assert master.admitted_workers == ("tsw3", "tsw4")
        assert master.num_workers == NUM_TSWS + 2
        kinds = [e.kind for e in result.fault_events]
        assert kinds.count("worker-admitted") == 2
        assert "range-reassigned" in kinds
        # all K+N ranges are live: every worker's ledger row shows reports
        # and evaluations after admission (new workers included)
        rows = {row[0]: row for row in master.health}
        assert sorted(rows) == list(range(NUM_TSWS + 2))
        for key in (NUM_TSWS, NUM_TSWS + 1):
            alive, last_evaluations = rows[key][1], rows[key][4]
            assert alive
            assert last_evaluations > 0

    def test_admission_replay_is_bit_identical(self, problem):
        plan = FaultPlan(seed=7, spawns=(SpawnWorker(at=0.05, count=2),))
        first, _ = run_session(problem, plan)
        second, _ = run_session(problem, plan)
        assert first.trace == second.trace
        assert event_tuples(first) == event_tuples(second)
        assert_bit_identical(first, second)

    def test_grow_plus_kill_replays_bit_identically(self, problem):
        plan = FaultPlan(
            seed=7,
            spawns=(SpawnWorker(at=0.05, count=2),),
            kills=(KillWorker(at=0.16, name="tsw1"),),
        )
        first, master = run_session(problem, plan)
        assert first.complete
        assert master.admitted_workers == ("tsw3", "tsw4")
        assert master.dead_workers == ("tsw1",)
        second, _ = run_session(problem, plan)
        assert first.trace == second.trace
        assert event_tuples(first) == event_tuples(second)
        assert_bit_identical(first, second)

    def test_admission_is_recorded_in_the_checkpoint(self, problem):
        plan = FaultPlan(spawns=(SpawnWorker(at=0.05, count=1),))
        session = SearchSession(
            problem=problem, params=fault_params(), fault_plan=plan
        )
        session.step(3)
        state = session.checkpoint()
        assert state.run_state.num_workers == NUM_TSWS + 1
        admitted = [e for e in state.topology_events if e.kind == "worker-admitted"]
        assert [e.worker for e in admitted] == [f"tsw{NUM_TSWS}"]


class TestSimDrain:
    def test_drain_retires_without_strike(self, problem):
        plan = FaultPlan(drains=(DrainWorker(at=0.05, name="tsw1"),))
        result, master = run_session(problem, plan)
        assert result.complete
        assert master.drained_workers == ("tsw1",)
        assert master.dead_workers == ()
        drains = [e for e in result.fault_events if e.kind == "worker-drained"]
        assert [e.worker for e in drains] == ["tsw1"]
        assert "no strike" in drains[0].detail
        rows = {row[0]: row for row in master.health}
        # drained flag set, alive cleared, zero missed deadlines (no strike)
        assert rows[1][8] is True
        assert rows[1][1] is False
        assert rows[1][2] == 0

    def test_drain_replay_is_bit_identical(self, problem):
        plan = FaultPlan(drains=(DrainWorker(at=0.05, name="tsw1"),))
        first, _ = run_session(problem, plan)
        second, _ = run_session(problem, plan)
        assert first.trace == second.trace
        assert event_tuples(first) == event_tuples(second)
        assert_bit_identical(first, second)


# --------------------------------------------------------------------------- #
# grown topology x checkpoint/resume
# --------------------------------------------------------------------------- #
class TestGrownTopologyResume:
    def test_grown_resume_is_bit_identical(self, problem):
        plan = FaultPlan(spawns=(SpawnWorker(at=0.05, count=2),))
        baseline, base_master = run_session(problem, plan)
        assert base_master.num_workers == NUM_TSWS + 2

        session = SearchSession(
            problem=problem, params=fault_params(), fault_plan=plan
        )
        session.step(3)
        blob = session.checkpoint().to_bytes()
        state = SessionState.from_bytes(blob)
        # the admission happened before the interrupt and is in the artifact;
        # the resumed epoch is NOT re-armed with the plan (its kernel clock
        # restarts at zero, so the spawn would fire again) — the grown
        # topology comes from the artifact alone
        assert state.run_state.num_workers == NUM_TSWS + 2
        restored = SearchSession.restore(state)
        resumed = restored.run()
        assert resumed.complete
        assert_bit_identical(resumed, baseline)
        assert restored._master_result.num_workers == NUM_TSWS + 2

    def test_topology_events_survive_the_artifact_round_trip(self, problem):
        plan = FaultPlan(
            spawns=(SpawnWorker(at=0.05, count=1),),
            kills=(KillWorker(at=0.16, name="tsw1"),),
        )
        session = SearchSession(
            problem=problem, params=fault_params(), fault_plan=plan
        )
        session.step(4)
        blob = session.checkpoint().to_bytes()
        state = SessionState.from_bytes(blob)
        kinds = [e.kind for e in state.topology_events]
        assert "worker-admitted" in kinds
        assert "worker-dead" in kinds
        # restored sessions keep accumulating on top of the restored history
        restored = SearchSession.restore(state)
        assert [e.kind for e in restored._topology_events] == kinds

    def test_drained_worker_stays_retired_across_resume(self, problem):
        plan = FaultPlan(drains=(DrainWorker(at=0.05, name="tsw1"),))
        baseline, base_master = run_session(problem, plan)
        assert base_master.drained_workers == ("tsw1",)

        session = SearchSession(
            problem=problem, params=fault_params(), fault_plan=plan
        )
        session.step(3)
        state = SessionState.from_bytes(session.checkpoint().to_bytes())
        assert state.run_state.drained_workers == (1,)
        restored = SearchSession.restore(state)
        resumed = restored.run()
        assert resumed.complete
        # the drain is an earlier-epoch fact, so the resumed epoch reports no
        # *new* drains — but the worker stays retired in the ledger
        assert restored._master_result.drained_workers == ()
        rows = {row[0]: row for row in restored._master_result.health}
        assert rows[1][8] is True  # still drained
        assert rows[1][1] is False  # still off the roster
        assert_bit_identical(resumed, baseline)


# --------------------------------------------------------------------------- #
# live grow/drain on the real backends
# --------------------------------------------------------------------------- #
def elastic_pool_params(**overrides) -> ParallelSearchParams:
    defaults = dict(
        num_tsws=2,
        clws_per_tsw=1,
        global_iterations=60,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=8, pairs_per_step=4, move_depth=2),
        seed=11,
        fault=FaultPolicy(
            round_deadline=50.0, clw_deadline=25.0, max_missed_deadlines=0
        ),
    )
    defaults.update(overrides)
    return ParallelSearchParams(**defaults)


class TestThreadsPoolElasticity:
    def test_grow_mid_run_admits_and_contributes(self, problem):
        with WorkerPool(2, 1, backend="threads") as pool:
            grown = []
            timer = threading.Timer(
                0.15, lambda: grown.extend(pool.grow(2))
            )
            timer.start()
            try:
                result, _, _ = pool.run_master(
                    problem, elastic_pool_params(), join_timeout=120.0
                )
            finally:
                timer.cancel()
            assert result.complete
            assert len(grown) == 2
            assert result.admitted_workers == ("tsw2", "tsw3")
            assert result.num_workers == 4
            rows = {row[0]: row for row in result.health}
            assert sorted(rows) == [0, 1, 2, 3]
            for key in (2, 3):
                assert rows[key][4] > 0  # admitted workers ran real ranges
            kinds = [e.kind for e in result.fault_events]
            assert kinds.count("worker-admitted") == 2
            assert "range-reassigned" in kinds

    def test_drain_mid_run_then_pool_reuse(self, problem):
        with WorkerPool(3, 1, backend="threads") as pool:
            signalled = []
            timer = threading.Timer(0.15, lambda: signalled.append(pool.drain(1)))
            timer.start()
            try:
                result, _, _ = pool.run_master(
                    problem,
                    elastic_pool_params(num_tsws=3),
                    join_timeout=120.0,
                )
            finally:
                timer.cancel()
            assert result.complete
            assert signalled == [True]
            assert result.drained_workers == ("tsw1",)
            assert result.dead_workers == ()
            # the drained loop parked idle: a later fresh run reuses it
            second, _, _ = pool.run_master(
                problem,
                elastic_pool_params(
                    num_tsws=3,
                    global_iterations=2,
                    tabu=TabuSearchParams(local_iterations=3),
                ),
                join_timeout=120.0,
            )
            assert second.complete
            assert second.drained_workers == ()

    def test_grow_between_runs_idles_until_admitted(self, problem):
        with WorkerPool(2, 1, backend="threads") as pool:
            pool.grow(1)
            assert len(pool.tsw_pids) == 3
            # no run in flight: nothing to signal, the loop just parks
            result, _, _ = pool.run_master(
                problem,
                elastic_pool_params(
                    global_iterations=2, tabu=TabuSearchParams(local_iterations=3)
                ),
                join_timeout=120.0,
            )
            assert result.complete
            assert result.num_workers == 2  # fresh runs use the configured K


class TestProcessesPoolElasticity:
    def test_grow_mid_run_admits_and_contributes(self, problem, after_first_round):
        with WorkerPool(2, 1, backend="processes") as pool:
            grown = []
            after_first_round(lambda: grown.extend(pool.grow(1)))
            result, _, _ = pool.run_master(
                problem,
                elastic_pool_params(global_iterations=40),
                join_timeout=120.0,
            )
            assert result.complete
            assert len(grown) == 1
            assert result.admitted_workers == ("tsw2",)
            assert result.num_workers == 3
            rows = {row[0]: row for row in result.health}
            assert rows[2][4] > 0
            kinds = [e.kind for e in result.fault_events]
            assert "worker-admitted" in kinds
            assert "range-reassigned" in kinds


# --------------------------------------------------------------------------- #
# repair history (satellite: respawns surface on the *next* run)
# --------------------------------------------------------------------------- #
class TestRepairHistory:
    def test_manual_repair_is_stamped_into_the_next_run(self, problem):
        with WorkerPool(2, 1, backend="processes") as pool:
            victim = pool.tsw_pids[1]
            assert pool.kernel.terminate_worker(victim)
            deadline = time.monotonic() + 10.0
            while not pool.worker_dead(1):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert pool.repair() == [1]
            # even a run WITHOUT fault mode reports the repair history
            result, _, _ = pool.run_master(
                problem,
                elastic_pool_params(
                    fault=None,
                    global_iterations=2,
                    tabu=TabuSearchParams(local_iterations=3),
                ),
                join_timeout=120.0,
            )
            assert result.complete
            respawns = [
                e for e in result.fault_events if e.kind == "worker-respawned"
            ]
            assert [e.worker for e in respawns] == ["tsw1"]
            # the history is consumed: the run after reports a clean sheet
            second, _, _ = pool.run_master(
                problem,
                elastic_pool_params(
                    fault=None,
                    global_iterations=2,
                    tabu=TabuSearchParams(local_iterations=3),
                ),
                join_timeout=120.0,
            )
            assert second.fault_events == []
