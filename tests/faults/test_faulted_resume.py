"""Checkpoint/resume while fault mode is armed: the ledger survives the pause.

PR 8 made the master fault-tolerant and PR 7 made runs resumable; this suite
pins their composition.  A mid-run checkpoint of a fault-mode session must
carry the health ledger (strikes, EWMA throughput, speed hints) through the
artifact byte round-trip, a resume must revive workers without losing that
history, and a kill landing *after* the resume must leave the same degraded
trajectory as the run that never paused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import FaultPolicy, ParallelSearchParams
from repro.pvm import FaultPlan, KillWorker
from repro.session import SearchSession, SessionState
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


def assert_bit_identical(resumed, baseline):
    assert resumed.best_cost == baseline.best_cost
    assert np.array_equal(resumed.best_solution, baseline.best_solution)
    assert len(resumed.global_records) == len(baseline.global_records)
    for ours, theirs in zip(resumed.global_records, baseline.global_records):
        assert ours.received_costs == theirs.received_costs
        assert ours.best_cost_after == theirs.best_cost_after


class TestLedgerThroughTheArtifact:
    def test_ledger_rows_round_trip_with_throughput_history(self, problem):
        plan = FaultPlan(kills=(KillWorker(at=0.16, name="tsw1"),))
        session = SearchSession(
            problem=problem, params=fault_params(), fault_plan=plan
        )
        session.step(4)  # the kill has fired by now (round 3)
        state = SessionState.from_bytes(session.checkpoint().to_bytes())
        rows = {row[0]: row for row in state.run_state.health}
        assert sorted(rows) == list(range(NUM_TSWS))
        # the dead worker's row records the death; survivors carry EWMA rates
        assert rows[1][1] is False
        assert rows[1][8] is False  # dead, not drained
        for key in (0, 2):
            assert rows[key][1] is True
            assert rows[key][3] is not None and rows[key][3] > 0  # rate
            assert rows[key][5] > 0  # rounds_reported

    def test_speed_hints_round_trip_and_rearm_the_resumed_ledger(self, problem):
        params = fault_params(worker_speed_hints=(1.0, 2.0, 4.0))
        session = SearchSession(problem=problem, params=params)
        session.step(2)
        state = SessionState.from_bytes(session.checkpoint().to_bytes())
        assert state.run_state.speed_hints == {0: 1.0, 1: 2.0, 2: 4.0}
        # a resume rebuilds the ledger with the same hints and keeps history
        restored = SearchSession.restore(state)
        result = restored.run()
        assert result.complete
        rows = {row[0]: row for row in restored._master_result.health}
        for key in range(NUM_TSWS):
            assert rows[key][5] > 0

    def test_resume_revives_earlier_deaths_but_keeps_history(self, problem):
        plan = FaultPlan(kills=(KillWorker(at=0.16, name="tsw1"),))
        session = SearchSession(
            problem=problem, params=fault_params(), fault_plan=plan
        )
        session.step(4)
        dead_rows = {row[0]: row for row in session.checkpoint().run_state.health}
        assert dead_rows[1][1] is False
        # cold resume = repair: the dead worker is respawned and reports again
        restored = SearchSession.restore(session.checkpoint())
        result = restored.run()
        assert result.complete
        rows = {row[0]: row for row in restored._master_result.health}
        assert rows[1][1] is True
        assert len(result.global_records[-1].received_costs) == NUM_TSWS


class TestPauseAfterClwDeath:
    def test_harvest_skips_the_dead_clw_and_keeps_its_tsw(self, problem):
        # tsw0 loses a CLW in round 2; the pause after round 3 must harvest
        # tsw0 from its surviving CLW instead of waiting on the dead one
        plan = FaultPlan(kills=(KillWorker(at=0.08, name="tsw0.clw1"),))
        session = SearchSession(
            problem=problem, params=fault_params(), fault_plan=plan
        )
        session.step(3)
        state = SessionState.from_bytes(session.checkpoint().to_bytes())
        run_state = state.run_state
        assert "worker-dead" not in [e.kind for e in run_state.fault_events]
        states = {s.tsw_index: s for s in run_state.worker_states}
        assert sorted(states) == list(range(NUM_TSWS))
        assert [c.clw_index for c in states[0].clw_states] == [0]
        cells = sorted(c for r in run_state.assigned_ranges.values() for c in r.cells)
        assert cells == list(range(problem.num_cells))
        result = SearchSession.restore(state).run()
        assert result.complete


class TestKillAfterResume:
    def test_kill_after_resume_matches_uninterrupted(self, problem):
        # Uninterrupted: the kill at t=0.16 lands mid-round-3.
        plan = FaultPlan(kills=(KillWorker(at=0.16, name="tsw1"),))
        base_session = SearchSession(
            problem=problem, params=fault_params(), fault_plan=plan
        )
        baseline = base_session.run()
        assert base_session._master_result.dead_workers == ("tsw1",)
        per_round = [len(r.received_costs) for r in baseline.global_records]
        assert per_round == [3, 3, 2, 2, 2]

        # Interrupted after round 1, resumed with the kill re-aimed at the
        # resumed kernel's clock (which restarts at zero; t=0.14 is mid-
        # round-3 there, the same point in the trajectory).
        session = SearchSession(
            problem=problem, params=fault_params(), fault_plan=plan
        )
        session.step(1)
        assert session._topology_events == []  # paused before the kill
        state = SessionState.from_bytes(session.checkpoint().to_bytes())
        restored = SearchSession.restore(
            state, fault_plan=FaultPlan(kills=(KillWorker(at=0.14, name="tsw1"),))
        )
        resumed = restored.run()
        assert resumed.complete
        assert restored._master_result.dead_workers == ("tsw1",)
        assert_bit_identical(resumed, baseline)

    def test_kill_after_resume_is_replayable(self, problem):
        plan = FaultPlan(kills=(KillWorker(at=0.16, name="tsw1"),))
        resumed_plan = FaultPlan(kills=(KillWorker(at=0.14, name="tsw1"),))

        def interrupted_run():
            session = SearchSession(
                problem=problem, params=fault_params(), fault_plan=plan
            )
            session.step(1)
            state = SessionState.from_bytes(session.checkpoint().to_bytes())
            restored = SearchSession.restore(state, fault_plan=resumed_plan)
            return restored.run()

        first = interrupted_run()
        second = interrupted_run()
        assert_bit_identical(first, second)
        assert first.trace == second.trace
