"""Real-backend fault tolerance: OS-level deaths, repair, mid-run cancel.

On the processes backend deaths are *real*: ``terminate_worker`` sends
SIGTERM, the kernel's router reads the end of the victim's control pipe and
posts a ``WORKER_DOWN`` obituary to the registered death listener, and the
fault-tolerant master completes the run degraded.  On the threads backend a
crashing loop announces its own death, and its orphaned loops can only be
shut down by message.  (Process bodies live at module level because the
kernel ships them by pickled reference.)
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ProcessError
from repro.parallel import FaultPolicy, ParallelSearchParams
from repro.parallel.messages import Tags
from repro.pvm import ProcessKernel, ThreadKernel, homogeneous_cluster
from repro.pvm.faults import WORKER_DOWN_TAG
from repro.session import SearchSession, WorkerPool
from repro.tabu import TabuSearchParams


# --------------------------------------------------------------------------- #
# process bodies
# --------------------------------------------------------------------------- #
def sleeping_proc(ctx, seconds):
    yield ctx.sleep(seconds)
    return "slept"


def obituary_listener(ctx):
    notice = yield ctx.recv_timeout(30.0, tag=WORKER_DOWN_TAG)
    if notice is None:
        return None
    return (notice.payload.name, notice.payload.reason)


def crashing_proc(ctx):
    yield ctx.compute(1.0)
    raise RuntimeError("synthetic crash")


# --------------------------------------------------------------------------- #
# kernel-level death detection
# --------------------------------------------------------------------------- #
class TestProcessKernelDeaths:
    def test_terminated_worker_is_detected_and_announced(self):
        with ProcessKernel(homogeneous_cluster(4)) as kernel:
            listener = kernel.spawn(obituary_listener, name="listener")
            kernel.notify_deaths_to(listener)
            victim = kernel.spawn(sleeping_proc, 60.0, name="victim")
            time.sleep(0.3)  # let the victim start sleeping
            assert kernel.terminate_worker(victim)
            kernel.join(listener, timeout=30.0)
            name, reason = kernel.result_of(listener)
            assert name == "victim"
            assert "exit" in reason or "died" in reason
            assert kernel.worker_dead(victim)
            # the end of the victim's control pipe finished its record, so a
            # join does not wedge on it
            kernel.join(victim, timeout=10.0)
            with pytest.raises(ProcessError):
                kernel.result_of(victim)

    def test_terminate_unknown_or_finished_worker_is_false(self):
        with ProcessKernel(homogeneous_cluster(2)) as kernel:
            pid = kernel.spawn(sleeping_proc, 0.0, name="quick")
            kernel.join(pid, timeout=30.0)
            assert not kernel.terminate_worker(pid)


class TestThreadKernelDeaths:
    def test_crash_is_announced_to_the_death_listener(self):
        kernel = ThreadKernel(homogeneous_cluster(4))
        listener = kernel.spawn(obituary_listener, name="listener")
        kernel.notify_deaths_to(listener)
        kernel.spawn(crashing_proc, name="crasher")
        kernel.join(listener, timeout=30.0)
        name, reason = kernel.result_of(listener)
        assert name == "crasher"
        assert "crash" in reason


# --------------------------------------------------------------------------- #
# full-stack recovery on the processes backend
# --------------------------------------------------------------------------- #
NUM_TSWS = 3


def pool_params(**overrides) -> ParallelSearchParams:
    defaults = dict(
        num_tsws=NUM_TSWS,
        clws_per_tsw=1,
        global_iterations=6,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=40),
        seed=11,
        fault=FaultPolicy(
            round_deadline=3.0, clw_deadline=2.0, max_missed_deadlines=0
        ),
    )
    defaults.update(overrides)
    return ParallelSearchParams(**defaults)


class TestProcessesPoolRecovery:
    def test_mid_run_kill_completes_degraded_then_repairs(self, problem, after_first_round):
        with WorkerPool(NUM_TSWS, 1, backend="processes") as pool:
            victim = pool.tsw_pids[1]
            killed = []
            after_first_round(lambda: killed.append(pool.kernel.terminate_worker(victim)))
            result, _, _ = pool.run_master(problem, pool_params(), join_timeout=120.0)
            assert killed == [True]
            assert result.complete
            assert result.dead_workers == ("tsw1",)
            kinds = [e.kind for e in result.fault_events]
            assert "worker-dead" in kinds
            assert "range-reassigned" in kinds

            # the pool notices the dead loop, respawns it in-slot, and the
            # next fault-enabled run starts from full strength again
            assert pool.worker_dead(1)
            second, _, _ = pool.run_master(
                problem,
                pool_params(
                    global_iterations=2, tabu=TabuSearchParams(local_iterations=3)
                ),
                join_timeout=120.0,
            )
            assert second.complete
            assert second.dead_workers == ()
            respawns = [
                e for e in second.fault_events if e.kind == "worker-respawned"
            ]
            assert [e.worker for e in respawns] == ["tsw1"]
        # context exit: close() succeeded — the dead loop's records were
        # reaped, so join_all did not wedge on them


    def test_clw_loop_killed_between_runs_is_respawned(self, problem):
        quick = pool_params(global_iterations=2, tabu=TabuSearchParams(local_iterations=3))
        with WorkerPool(NUM_TSWS, 1, backend="processes") as pool:
            first, _, _ = pool.run_master(problem, quick, join_timeout=120.0)
            assert first.complete
            (clw,) = pool.kernel.child_pids(pool.tsw_pids[0])
            assert pool.kernel.terminate_worker(clw)
            deadline = time.monotonic() + 30.0
            while not pool.kernel.worker_dead(clw):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert not pool.worker_dead(0)  # the TSW loop itself still serves

            second, _, _ = pool.run_master(problem, quick, join_timeout=120.0)
            assert second.complete
            assert second.dead_workers == ()
            respawns = [
                e.worker for e in second.fault_events if e.kind == "worker-respawned"
            ]
            assert respawns == ["tsw0"]


class TestThreadsPoolRepair:
    def test_repair_shuts_the_crashed_loops_orphans_down(self):
        pool = WorkerPool(2, 1, backend="threads", cluster=homogeneous_cluster(4))
        try:
            victim = pool.tsw_pids[0]
            pool.kernel.post(victim, Tags.SETUP, object())  # malformed: the loop crashes
            deadline = time.monotonic() + 30.0
            while not pool.worker_dead(0):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            subtree = [victim, *pool.kernel.child_pids(victim)]
            assert len(subtree) == 2  # the loop and its CLW loop

            start = time.monotonic()
            assert pool.repair() == [0]
            assert time.monotonic() - start < 1.0
            for pid in subtree:
                pool.kernel.join(pid, timeout=0.0)  # raises if still running
        finally:
            # the orphaned CLW loop is finished, so the join does not abort
            # on the crashed loop's error
            pool.close(join_timeout=30.0)


class TestProcessesPoolRepair:
    def test_repair_shuts_the_crashed_loops_orphans_down_cleanly(self):
        with WorkerPool(2, 1, backend="processes", cluster=homogeneous_cluster(4)) as pool:
            victim = pool.tsw_pids[0]
            pool.kernel.post(victim, Tags.SETUP, object())  # malformed: the loop crashes
            deadline = time.monotonic() + 30.0
            while not pool.worker_dead(0):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            (orphan,) = pool.kernel.child_pids(victim)

            assert pool.repair() == [0]
            # asked to shut down, not terminated: the orphaned CLW loop
            # left its loop and reported its (zero) served runs
            assert pool.kernel.result_of(orphan) == 0


class TestProcessesCancelMidRound:
    def test_cancel_delivered_mid_round_pauses_at_the_boundary(self, problem):
        params = ParallelSearchParams(
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=60,
            sync_mode="homogeneous",
            tabu=TabuSearchParams(local_iterations=40),
            seed=11,
        )
        session = SearchSession(
            problem=problem, params=params, backend="processes", join_timeout=120.0
        )
        session.submit()
        time.sleep(1.5)  # let the run get well into a round
        session.cancel()  # posted straight into the running master's mailbox
        result = session.result(timeout=120.0)
        assert not result.complete
        status = session.status()
        assert status.state == "cancelled"
        # the cancel landed mid-run: before the end, after a clean boundary
        assert 0 < status.rounds_done < params.global_iterations
        # and the paused state resumes on the simulated backend
        resumed = SearchSession.restore(
            session.checkpoint(), problem=problem, backend="simulated"
        ).run()
        assert resumed.complete
