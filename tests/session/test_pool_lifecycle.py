"""Warm worker pools: persistent TSW/CLW loops serving consecutive runs."""

from __future__ import annotations

import gc
import weakref
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import get_domain
from repro.errors import SessionError
from repro.parallel import ParallelSearchParams
from repro.placement import load_benchmark, timing
from repro.session import SearchSession, SessionState, WorkerPool, make_kernel
from repro.pvm import SimKernel, homogeneous_cluster
from repro.tabu import TabuSearchParams

NUM_TSWS = 2
CLWS_PER_TSW = 2


def quick_params(**overrides) -> ParallelSearchParams:
    defaults = dict(
        num_tsws=NUM_TSWS,
        clws_per_tsw=CLWS_PER_TSW,
        global_iterations=3,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=4, pairs_per_step=3, move_depth=2),
        seed=11,
    )
    defaults.update(overrides)
    return ParallelSearchParams(**defaults)


@pytest.fixture(scope="module")
def problem():
    return get_domain("placement").build_problem("tiny16", reference_seed=7)


class TestMakeKernel:
    def test_simulated_kernel(self):
        assert isinstance(make_kernel("simulated", homogeneous_cluster(4)), SimKernel)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SessionError, match="backend"):
            make_kernel("quantum")


class TestWarmPool:
    def test_two_consecutive_runs_without_respawning(self, problem):
        params = quick_params()
        cold = SearchSession(problem=problem, params=params).run()
        with WorkerPool(
            NUM_TSWS, CLWS_PER_TSW, cluster=homogeneous_cluster(6)
        ) as pool:
            pids_before = pool.tsw_pids
            first = SearchSession(problem=problem, params=params, pool=pool).run()
            second = SearchSession(problem=problem, params=params, pool=pool).run()
            # the persistent loops survived both runs: same pids, no respawn
            assert pool.tsw_pids == pids_before
            assert pool.runs_served == 2
        # warm runs take the same decisions as a cold run
        for warm in (first, second):
            assert warm.best_cost == cold.best_cost
            assert np.array_equal(warm.best_solution, cold.best_solution)
            for ours, theirs in zip(warm.global_records, cold.global_records):
                assert ours.received_costs == theirs.received_costs

    def test_warm_resume_after_checkpoint(self, problem):
        params = quick_params()
        cold = SearchSession(problem=problem, params=params).run()
        with WorkerPool(
            NUM_TSWS, CLWS_PER_TSW, cluster=homogeneous_cluster(6)
        ) as pool:
            session = SearchSession(problem=problem, params=params, pool=pool)
            session.step(1)
            state = session.checkpoint()
            resumed = SearchSession.restore(state, pool=pool).run()
        assert resumed.best_cost == cold.best_cost
        assert np.array_equal(resumed.best_solution, cold.best_solution)

    def test_topology_mismatch_is_rejected(self, problem):
        with WorkerPool(
            NUM_TSWS, CLWS_PER_TSW, cluster=homogeneous_cluster(6)
        ) as pool:
            bad = quick_params(num_tsws=NUM_TSWS + 1)
            session = SearchSession(problem=problem, params=bad, pool=pool)
            with pytest.raises(SessionError, match="topology"):
                session.run()

    def test_closed_pool_refuses_runs(self, problem):
        pool = WorkerPool(NUM_TSWS, CLWS_PER_TSW, cluster=homogeneous_cluster(6))
        pool.close()
        assert pool.closed
        with pytest.raises(SessionError, match="closed"):
            pool.run_master(problem, quick_params())
        # closing twice is a no-op
        pool.close()

    def test_session_adopts_pool_backend(self, problem):
        with WorkerPool(
            NUM_TSWS, CLWS_PER_TSW, cluster=homogeneous_cluster(6)
        ) as pool:
            session = SearchSession(
                problem=problem, params=quick_params(), backend="threads", pool=pool
            )
            assert session.backend == pool.backend == "simulated"

    @pytest.mark.parametrize("backend", ["simulated", "threads"])
    def test_second_run_builds_no_timing_graph(self, problem, monkeypatch, backend):
        built, looked_up = [], []
        build, lookup = timing._build_graph, timing.timing_graph
        monkeypatch.setattr(timing, "_build_graph", lambda n: built.append(n) or build(n))
        monkeypatch.setattr(
            timing, "timing_graph", lambda n: looked_up.append(n) or lookup(n)
        )
        params = quick_params()
        with WorkerPool(
            NUM_TSWS, CLWS_PER_TSW, backend=backend, cluster=homogeneous_cluster(6)
        ) as pool:
            SearchSession(problem=problem, params=params, pool=pool).run()
            built.clear()
            looked_up.clear()
            SearchSession(problem=problem, params=params, pool=pool).run()
        # the master, every TSW and every CLW built an evaluator on the
        # caller's problem object (threads: messages travel by reference) ...
        assert len(looked_up) >= 1 + NUM_TSWS * (1 + CLWS_PER_TSW)
        assert all(netlist is problem.netlist for netlist in looked_up)
        # ... around the graph that was already there
        assert built == []

    def test_switching_problems_frees_the_old_graph(self, problem):
        netlist = load_benchmark("tiny16", use_cache=False)
        old = get_domain("placement").build_problem(netlist, reference_seed=7)
        graph = weakref.ref(timing.timing_graph(netlist))
        params = quick_params()
        with WorkerPool(
            NUM_TSWS, CLWS_PER_TSW, cluster=homogeneous_cluster(6)
        ) as pool:
            SearchSession(problem=old, params=params, pool=pool).run()
            del old, netlist
            SearchSession(problem=problem, params=params, pool=pool).run()
            gc.collect()
            assert graph() is None


class TestWarmPoolThreads:
    def test_threads_pool_serves_two_runs(self, problem):
        params = quick_params()
        cold = SearchSession(problem=problem, params=params).run()
        with WorkerPool(
            NUM_TSWS,
            CLWS_PER_TSW,
            backend="threads",
            cluster=homogeneous_cluster(6),
        ) as pool:
            pids_before = pool.tsw_pids
            first = SearchSession(problem=problem, params=params, pool=pool).run()
            second = SearchSession(problem=problem, params=params, pool=pool).run()
            assert pool.tsw_pids == pids_before
            assert pool.runs_served == 2
        # homogeneous sync: real-time scheduling must not change decisions
        for warm in (first, second):
            assert warm.best_cost == cold.best_cost
            assert np.array_equal(warm.best_solution, cold.best_solution)


def assert_same_run(ours, theirs) -> None:
    assert ours.best_cost == theirs.best_cost
    assert np.array_equal(ours.best_solution, theirs.best_solution)
    assert len(ours.global_records) == len(theirs.global_records)
    for mine, other in zip(ours.global_records, theirs.global_records):
        assert mine.received_costs == other.received_costs


def loop_pids(pool: WorkerPool) -> list:
    """Kernel pids of every persistent loop: the TSW loops and their CLW loops."""
    pids = list(pool.tsw_pids)
    for tsw in pool.tsw_pids:
        pids.extend(pool.kernel.child_pids(tsw))
    return pids


def mapped_by(pool: WorkerPool, pid: int) -> str:
    """The memory map of the OS process behind kernel pid ``pid``."""
    os_pid = pool.kernel._records[pid].process.pid
    return Path(f"/proc/{os_pid}/maps").read_text()


def shared_blocks(pool: WorkerPool) -> list:
    return [pack.block_name for pack in pool.kernel._shm_packs]


class TestWarmPoolProcesses:
    def test_processes_pool_serves_runs_from_one_shared_block(self, problem):
        params = quick_params()
        cold = SearchSession(problem=problem, params=params).run()
        with WorkerPool(
            NUM_TSWS, CLWS_PER_TSW, backend="processes", cluster=homogeneous_cluster(6)
        ) as pool:
            pids_before = pool.tsw_pids
            first = SearchSession(problem=problem, params=params, pool=pool).run()
            second = SearchSession(problem=problem, params=params, pool=pool).run()
            assert pool.tsw_pids == pids_before
            assert pool.runs_served == 2
            # the SETUPs carried the problem as its handle: one exported
            # block, mapped zero-copy into every TSW and CLW loop
            (block,) = shared_blocks(pool)
            loops = loop_pids(pool)
            assert len(loops) == NUM_TSWS * (1 + CLWS_PER_TSW)
            if Path("/proc/self/maps").exists():
                for pid in loops:
                    assert block in mapped_by(pool, pid)

            # a different (equal) problem object exports its own block
            # and the loops switch to it
            rebuilt = get_domain("placement").build_problem("tiny16", reference_seed=7)
            third = SearchSession(problem=rebuilt, params=params, pool=pool).run()
            old, new = shared_blocks(pool)
            assert old == block
            if Path("/proc/self/maps").exists():
                for pid in loops:
                    assert new in mapped_by(pool, pid)
        for warm in (first, second, third):
            assert_same_run(warm, cold)

    def test_close_starts_no_process(self, monkeypatch):
        pool = WorkerPool(1, 1, backend="processes", cluster=homogeneous_cluster(2))

        def no_spawn(*args, **kwargs):
            raise AssertionError("closing a pool must not start a process")

        monkeypatch.setattr(pool.kernel, "spawn", no_spawn)
        monkeypatch.setattr(pool.kernel, "spawn_local", no_spawn)
        pool.close()
        assert pool.closed
        # the kernel ran the loops and nothing else ...
        loops = loop_pids(pool)
        assert sorted(pool.kernel._records) == sorted(loops)
        # ... and each left through its own POOL_SHUTDOWN handling, having
        # served no run
        for pid in loops:
            assert pool.kernel.result_of(pid) == 0

    def test_checkpoint_outlives_the_pool_blocks(self, problem):
        params = quick_params()
        uninterrupted = SearchSession(problem=problem, params=params).run()
        with WorkerPool(
            NUM_TSWS, CLWS_PER_TSW, backend="processes", cluster=homogeneous_cluster(6)
        ) as pool:
            session = SearchSession(problem=problem, params=params, pool=pool)
            session.step(1)
            artifact = session.checkpoint().to_bytes()
            blocks = shared_blocks(pool)
        assert blocks  # the run shipped the problem through shared memory
        for name in blocks:  # ... and the closed pool unlinked it
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        resumed = SearchSession.restore(
            SessionState.from_bytes(artifact),
            backend="processes",
            cluster=homogeneous_cluster(6),
        ).run()
        assert_same_run(resumed, uninterrupted)
