"""End-to-end recovery on the simulated backend: deterministic degradation.

These are the headline tests of the fault-tolerant master: a seeded
:class:`~repro.pvm.FaultPlan` kills workers (or degrades the network) at
fixed virtual times, and the run must *complete* — degraded, with the dead
worker's candidate range re-assigned — with a bit-identical trajectory on
every repetition of the same plan.
"""

from __future__ import annotations

import pytest

from repro.parallel import FaultPolicy, ParallelSearchParams
from repro.pvm import FaultPlan, KillWorker, MessageFaults, ThrottleMachine
from repro.session import SearchSession, WorkerPool
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


def run_with(problem, plan, **overrides):
    session = SearchSession(
        problem=problem, params=fault_params(**overrides), fault_plan=plan
    )
    return session.run()


def event_tuples(result):
    return [(e.time, e.kind, e.worker, e.detail) for e in result.fault_events]


class TestKillRecovery:
    def test_tsw_kill_completes_degraded_with_range_reassigned(self, problem):
        plan = FaultPlan(seed=7, kills=(KillWorker(at=0.08, name="tsw1"),))
        result = run_with(problem, plan)
        assert result.complete
        kinds = [e.kind for e in result.fault_events]
        assert "worker-dead" in kinds
        assert "range-reassigned" in kinds
        dead = [e.worker for e in result.fault_events if e.kind == "worker-dead"]
        assert dead == ["tsw1"]

    def test_recovery_trajectory_is_bit_identical(self, problem):
        plan = FaultPlan(seed=7, kills=(KillWorker(at=0.08, name="tsw1"),))
        first = run_with(problem, plan)
        second = run_with(problem, plan)
        assert first.best_cost == second.best_cost
        assert first.trace == second.trace
        assert event_tuples(first) == event_tuples(second)

    def test_clw_kill_recovers_through_the_tsw(self, problem):
        plan = FaultPlan(kills=(KillWorker(at=0.08, name="tsw0.clw1"),))
        result = run_with(problem, plan)
        assert result.complete
        # the TSW lost a CLW, not the master a TSW: no master-level death
        assert "worker-dead" not in [e.kind for e in result.fault_events]

    def test_all_workers_dead_returns_best_so_far(self, problem):
        plan = FaultPlan(
            kills=tuple(
                KillWorker(at=0.08, name=f"tsw{i}") for i in range(NUM_TSWS)
            )
        )
        result = run_with(problem, plan)
        # nothing left to drive: the run ends degraded instead of raising
        assert result.complete
        kinds = [e.kind for e in result.fault_events]
        assert "all-workers-dead" in kinds
        assert result.best_cost is not None

    def test_fault_mode_without_faults_matches_plain_run(self, problem):
        plain = SearchSession(
            problem=problem, params=fault_params(fault=None)
        ).run()
        armed = run_with(problem, None)
        assert armed.complete
        assert armed.fault_events == []
        assert armed.best_cost == plain.best_cost
        assert len(armed.global_records) == len(plain.global_records)
        for ours, theirs in zip(armed.global_records, plain.global_records):
            assert ours.received_costs == theirs.received_costs


class TestNetworkDegradation:
    def test_loss_and_throttle_complete_deterministically(self, problem):
        plan = FaultPlan(
            seed=3,
            throttles=(ThrottleMachine(at=0.02, machine=1, factor=0.2),),
            message_faults=MessageFaults(loss_probability=0.15, delay_jitter=0.002),
        )
        first = run_with(problem, plan)
        second = run_with(problem, plan)
        assert first.complete and second.complete
        assert first.trace == second.trace
        assert event_tuples(first) == event_tuples(second)

    def test_heavy_loss_strikes_silent_workers_out(self, problem):
        # under max_missed_deadlines=0 a single lost report is a strike-out;
        # at 60% loss some worker will go silent within five rounds
        plan = FaultPlan(
            seed=5, message_faults=MessageFaults(loss_probability=0.6)
        )
        result = run_with(problem, plan)
        assert result.complete
        kinds = {e.kind for e in result.fault_events}
        assert kinds & {"worker-dead", "deadline-resend"}


def pool_runs(problem, plan=None, **overrides):
    """Two consecutive runs (seeds 11, 12) on one warm simulated 2x2 pool."""
    params = fault_params(num_tsws=2, **overrides)
    pool = WorkerPool(2, 2, backend="simulated", fault_plan=plan)
    try:
        return [
            SearchSession(problem=problem, params=params.with_(seed=seed), pool=pool).run()
            for seed in (11, 12)
        ]
    finally:
        pool.close()


class TestWarmPoolRecovery:
    def test_stale_deadline_timeouts_leave_the_clock_alone(self, problem):
        """A fault-mode run leaves stale deadline timeouts queued after its
        last event; they must neither stretch the run's virtual runtime nor
        delay the pool's next run."""
        plain = pool_runs(problem, fault=None, global_iterations=3)
        armed = pool_runs(problem, global_iterations=3)
        assert [r.virtual_runtime for r in armed] == [r.virtual_runtime for r in plain]
        assert [r.trace for r in armed] == [r.trace for r in plain]
        assert armed[1].virtual_runtime < 1.0

    def test_dead_clw_loop_costs_its_tsw_one_clw(self, problem, monkeypatch):
        """A TSW set up with a dead CLW loop strikes that CLW out at the CLW
        deadline of its setup (the bounded ``SETUP_ACK`` wait) and stays in
        the run.  The pool's repair would respawn the loop first, so it is
        switched off here to reach the wait."""
        plan = FaultPlan(kills=(KillWorker(at=0.01, name="tsw0.clw1"),))
        monkeypatch.setattr(WorkerPool, "repair", lambda self: [])
        policy = fault_params().fault
        first, _ = pool_runs(problem, plan)
        # struck out at the CLW deadline, well before the round deadline
        assert policy.clw_deadline < first.virtual_runtime < policy.round_deadline
        for result in (first, _):
            assert result.complete
            dead = [e.worker for e in result.fault_events if e.kind == "worker-dead"]
            assert "tsw0" not in dead
            assert all(len(r.received_costs) == 2 for r in result.global_records)

    def test_dead_clw_loop_is_respawned_before_the_next_run(self, problem):
        """A CLW loop that died while the pool idled gets its TSW's slot
        respawned by the next fault-mode run's repair, which then walks the
        fault-free pool's search."""
        plain = pool_runs(problem, fault=None)
        plan = FaultPlan(kills=(KillWorker(at=0.01, name="tsw0.clw1"),))
        repaired = pool_runs(problem, plan)
        respawns = [
            [e.worker for e in r.fault_events if e.kind == "worker-respawned"]
            for r in repaired
        ]
        assert respawns == [["tsw0"], []]
        for ours, theirs in zip(repaired, plain):
            assert ours.complete
            assert "worker-dead" not in [e.kind for e in ours.fault_events]
            assert ours.best_cost == theirs.best_cost
            assert list(ours.best_solution) == list(theirs.best_solution)
            assert [r.received_costs for r in ours.global_records] == [
                r.received_costs for r in theirs.global_records
            ]
            assert ours.virtual_runtime < 1.0
