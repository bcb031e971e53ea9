"""Warm worker pools: keep the PVM worker tree alive across searches.

Worker lifecycle and run lifecycle are split: a :class:`WorkerPool` owns one
kernel (any backend) plus one persistent
:func:`~repro.parallel.worker_loop.tsw_worker_loop` process per TSW — each
owning its CLW loops — and serves any number of consecutive master runs
against them.  A warm run ships the problem and parameters in ``SETUP``
messages instead of respawning the loops.

On the processes backend a warm run starts no OS process at all: the master
runs on a thread of the kernel process (the caller's) and uses the caller's
problem object, and each ``SETUP`` carries the problem as its small
shared-memory handle, on both hops.  The kernel exports each distinct
problem object once, when it first crosses, and holds the block until the
pool closes; each loop attaches it once and keeps it for every run on that
problem, releasing it when a ``SETUP`` names a different one.  So reuse one
problem object for consecutive runs: rebuilding an equal problem per run
exports (and pins) one more block each time.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SessionError
from ..metrics.trace import FaultEvent
from ..parallel.config import ParallelSearchParams
from ..parallel.master import MasterResult, MasterRunState, master_process
from ..parallel.messages import Tags
from ..parallel.worker_loop import tsw_worker_loop
from ..pvm.cluster import ClusterSpec, paper_cluster
from ..pvm.faults import AdmitWorkers, DrainWorker, FaultPlan
from ..pvm.process_backend import ProcessKernel, ThreadKernel
from ..pvm.simulator import SimKernel, SimStats

__all__ = ["drive_master", "make_kernel", "WorkerPool"]


def make_kernel(
    backend: str,
    cluster: Optional[ClusterSpec] = None,
    *,
    fault_plan: Optional[FaultPlan] = None,
):
    """Build a PVM kernel for ``backend`` (shared by runner, pool, session).

    ``fault_plan`` injects deterministic failures and is supported by the
    simulated backend only — the real backends experience *real* failures.
    """
    cluster = cluster or paper_cluster()
    if backend == "simulated":
        return SimKernel(cluster, fault_plan=fault_plan)
    if fault_plan is not None:
        raise SessionError(
            f"fault plans are a simulated-backend feature, not {backend!r}"
        )
    if backend == "threads":
        return ThreadKernel(cluster)
    if backend == "processes":
        return ProcessKernel(cluster)
    raise SessionError(f"unknown backend {backend!r}")


def drive_master(
    kernel,
    body,
    problem: Any,
    params: ParallelSearchParams,
    *,
    listen: bool,
    warm: bool,
    join_timeout: float,
    track: Callable[[Optional[int]], None],
    **master_kwargs: Any,
) -> Tuple[MasterResult, Optional[SimStats], float]:
    """Run one master epoch on any kernel and return its outcome.

    The master ``body`` runs on machine 0 as a local process of ``kernel``.
    With ``listen`` it hears every worker death (and, on the simulator, the
    fault plan's admit and drain requests).  A warm or listening epoch waits
    for the master alone — parked pool loops and orphans of a killed worker
    are idle, not stuck — and a cold epoch without a listener waits for
    every process.  ``track`` is told the master's pid once it runs and
    ``None`` once it is done (the caller's handle for cancel, grow and
    drain).

    Returns ``(result, sim_stats, kernel_time)``: the simulator's stats and
    virtual makespan, or ``None`` and the kernel's wall clock.
    """
    pid = kernel.spawn_local(
        body, problem, params, name="master", machine_index=0, **master_kwargs
    )
    if listen:
        kernel.notify_deaths_to(pid)
    track(pid)
    try:
        if warm or listen:
            # raises ProcessError if the master misses the deadline
            kernel.join(pid, timeout=join_timeout)
        else:
            kernel.join_all(timeout=join_timeout)
    finally:
        track(None)
        if listen:
            kernel.notify_deaths_to(None)
    result = kernel.result_of(pid)
    if isinstance(kernel, SimKernel):
        stats = kernel.stats()
        return result, stats, stats.virtual_makespan
    return result, None, kernel.now


class WorkerPool:
    """A persistent TSW/CLW worker tree serving consecutive master runs."""

    def __init__(
        self,
        num_tsws: int = 4,
        clws_per_tsw: int = 1,
        *,
        backend: str = "simulated",
        cluster: Optional[ClusterSpec] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.backend = backend
        self.num_tsws = int(num_tsws)
        self.clws_per_tsw = int(clws_per_tsw)
        self.cluster = cluster or paper_cluster()
        self.fault_plan = fault_plan
        self.kernel = make_kernel(backend, self.cluster, fault_plan=fault_plan)
        self._closed = False
        self._lock = threading.Lock()
        self._active_master_pid: Optional[int] = None
        self._runs_served = 0
        self._next_worker_index = self.num_tsws
        self._pending_repair_events: List[FaultEvent] = []
        self._tsw_pids: List[int] = [
            self.kernel.spawn(tsw_worker_loop, self.clws_per_tsw, name=f"tsw{i}")
            for i in range(self.num_tsws)
        ]
        if self.is_simulated:
            # let the loops spawn their CLW loops and park in their receives
            self.kernel.run(allow_blocked=True)

    # ------------------------------------------------------------------ #
    @property
    def is_simulated(self) -> bool:
        return isinstance(self.kernel, SimKernel)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def tsw_pids(self) -> Tuple[int, ...]:
        """Pids of the persistent TSW loops (stable across runs)."""
        return tuple(self._tsw_pids)

    @property
    def runs_served(self) -> int:
        """How many master runs this pool has completed."""
        return self._runs_served

    # ------------------------------------------------------------------ #
    def worker_dead(self, index: int) -> bool:
        """Whether the persistent TSW loop ``index`` is no longer serving."""
        return self.kernel.worker_dead(self._tsw_pids[index])

    def _subtree_dead(self, index: int) -> bool:
        """Whether the TSW loop ``index`` or any of its CLW loops is dead."""
        pid = self._tsw_pids[index]
        return self.kernel.worker_dead(pid) or any(
            self.kernel.worker_dead(child) for child in self.kernel.child_pids(pid)
        )

    def repair(self) -> List[int]:
        """Respawn in-slot every persistent TSW loop that is dead or has a
        dead CLW loop.

        Returns the indices that were respawned.  A live TSW loop is first
        sent ``POOL_SHUTDOWN``, which it forwards to its CLW loops.  A
        respawned loop starts cold (its CLW loops included) and is
        re-``SETUP`` by the next warm master run — resident-solution state
        is recovered through the delta/NACK path.  Each respawn is stamped
        into the pool's repair history, which the *next* ``run_master``
        (fault mode or not) folds into its result's ``fault_events`` as
        ``worker-respawned`` — so a manual repair between runs stays
        visible to operators.
        """
        if self._closed:
            raise SessionError("worker pool is closed")
        respawned: List[int] = []
        for index in range(len(self._tsw_pids)):
            if not self._subtree_dead(index):
                continue
            pid = self._tsw_pids[index]
            if not self.kernel.worker_dead(pid):
                self.kernel.post(pid, Tags.POOL_SHUTDOWN)
            if not self.is_simulated:
                self._retire_subtree(pid)
            self._tsw_pids[index] = self.kernel.spawn(
                tsw_worker_loop, self.clws_per_tsw, name=f"tsw{index}"
            )
            respawned.append(index)
            self._pending_repair_events.append(
                FaultEvent(
                    time=float(self.kernel.now),
                    kind="worker-respawned",
                    worker=f"tsw{index}",
                    detail="pool loop respawned in-slot",
                )
            )
        if respawned and self.is_simulated:
            # let the fresh loops spawn their CLW loops and park
            self.kernel.run(allow_blocked=True)
        return respawned

    def _retire_subtree(self, loop_pid: int) -> None:
        """Take a retired loop's CLW-loop subtree down with it.

        The orphans are shut down first: ``STOP`` ends a run one may still
        be in, then ``POOL_SHUTDOWN`` ends the loop.  A kernel-thread loop
        cannot be terminated, so this is the only way to finish it.  Only
        the OS processes still running a grace later are terminated; the
        kernel finishes their records when their control pipes end.
        """
        orphans: List[int] = []
        frontier = list(self.kernel.child_pids(loop_pid))
        while frontier:
            child = frontier.pop()
            orphans.append(child)
            frontier.extend(self.kernel.child_pids(child))
        for pid in orphans:
            self.kernel.post(pid, Tags.STOP)
            self.kernel.post(pid, Tags.POOL_SHUTDOWN)
        remaining = self._reap([loop_pid, *orphans], grace=1.0)
        for pid in remaining:
            self.kernel.terminate_worker(pid)
        self._reap(remaining, grace=5.0)

    def _reap(self, pids: List[int], *, grace: float) -> List[int]:
        """Wait until every process of ``pids`` is dead or ``grace`` seconds
        pass; return the ones still running."""
        deadline = time.monotonic() + grace
        while True:
            pids = [pid for pid in pids if not self.kernel.worker_dead(pid)]
            if not pids or time.monotonic() >= deadline:
                return pids
            time.sleep(0.01)

    # ------------------------------------------------------------------ #
    def grow(
        self,
        count: int = 1,
        *,
        machines: Optional[List[Optional[int]]] = None,
    ) -> List[int]:
        """Spawn ``count`` additional persistent TSW loops into the pool.

        If a master run is in flight on a real backend, the new loops are
        handed to it immediately (``ADMIT``): the master SETUP-handshakes
        them, full-provisions their resident state through the delta path,
        registers them in its health ledger and folds them into the next
        boundary's range re-partition.  Otherwise the loops idle until the
        next (fresh or resumed) run admits them.  On the simulated backend
        mid-run admission is driven by seeded ``SpawnWorker`` plan entries
        instead — a single-threaded kernel has no outside to call
        :meth:`grow` from while a run is stepping.

        Returns the new loops' pids (also appended to :attr:`tsw_pids`).
        """
        if self._closed:
            raise SessionError("worker pool is closed")
        count = int(count)
        if count < 1:
            raise SessionError(f"grow needs count >= 1, got {count}")
        machine_list = list(machines) if machines is not None else [None] * count
        if len(machine_list) != count:
            raise SessionError(
                f"grow got {len(machine_list)} machine pins for {count} workers"
            )
        new_pids: List[int] = []
        for machine in machine_list:
            index = self._next_worker_index
            self._next_worker_index += 1
            pid = self.kernel.spawn(
                tsw_worker_loop, self.clws_per_tsw, name=f"tsw{index}", machine_index=machine
            )
            self._tsw_pids.append(pid)
            new_pids.append(pid)
        if self.is_simulated:
            # let the new loops spawn their CLW loops and park in their recv
            self.kernel.run(allow_blocked=True)
        with self._lock:
            master = self._active_master_pid
        if master is not None and not self.is_simulated:
            self.kernel.post(master, Tags.ADMIT, AdmitWorkers(pids=tuple(new_pids)))
        return new_pids

    def drain(self, index: int) -> bool:
        """Ask the in-flight master to gracefully retire TSW ``index``.

        The worker finishes its current range, its last report is folded in
        at the global-iteration boundary, its range is re-partitioned over
        the remaining workers, and it retires without a strike (its loop
        parks idle, reusable by a later run or admission).  Returns whether
        a running master was signalled — on the simulated backend (or with
        no run in flight) use a seeded ``DrainWorker`` plan entry instead.
        """
        index = int(index)
        if not 0 <= index < len(self._tsw_pids):
            raise SessionError(f"drain: no TSW loop with index {index}")
        with self._lock:
            master = self._active_master_pid
        if master is None or self.is_simulated:
            return False
        self.kernel.post(master, Tags.DRAIN, DrainWorker(at=0.0, name=f"tsw{index}"))
        return True

    # ------------------------------------------------------------------ #
    def run_master(
        self,
        problem: Any,
        params: ParallelSearchParams,
        *,
        resume_state: Optional[MasterRunState] = None,
        max_rounds: Optional[int] = None,
        join_timeout: float = 3600.0,
    ) -> Tuple[MasterResult, Optional[SimStats], float]:
        """Run one master epoch against the warm workers.

        Returns ``(master_result, sim_stats_or_None, kernel_time_at_end)``.
        """
        if self._closed:
            raise SessionError("worker pool is closed")
        if params.num_tsws != self.num_tsws or params.clws_per_tsw != self.clws_per_tsw:
            raise SessionError(
                f"pool topology ({self.num_tsws} TSWs x {self.clws_per_tsw} CLWs) "
                f"does not match params ({params.num_tsws} x {params.clws_per_tsw})"
            )
        if params.fault_enabled:
            # dead loops (killed by a fault plan, crashed, or OS-terminated)
            # are respawned and re-SETUP before any run traffic; repair()
            # stamps the respawns into the pool's pending repair history
            self.repair()
        # repair history (this repair and any earlier manual repair()) is
        # surfaced through this run's fault events
        repair_events = list(self._pending_repair_events)
        self._pending_repair_events.clear()
        result, stats, kernel_time = drive_master(
            self.kernel,
            master_process,
            problem,
            params,
            # the listener also receives seeded admit/drain requests, so arm
            # it whenever a plan is loaded, not only in fault mode
            listen=params.fault_enabled or self.fault_plan is not None,
            warm=True,
            join_timeout=join_timeout,
            track=self._track_master,
            resume_state=resume_state,
            max_rounds=max_rounds,
            pool_pids=list(self._tsw_pids),
        )
        self._runs_served += 1
        result.fault_events[:0] = repair_events
        return result, stats, kernel_time

    def _track_master(self, pid: Optional[int]) -> None:
        with self._lock:
            self._active_master_pid = pid

    def post_cancel(self) -> bool:
        """Ask the currently-running pooled master (if any) to pause.

        Only meaningful on the real backends — the simulated kernel runs on
        the caller's own thread, so there is no concurrent master to signal.
        """
        with self._lock:
            pid = self._active_master_pid
        if pid is None or self.is_simulated:
            return False
        self.kernel.post(pid, Tags.CANCEL)
        return True

    # ------------------------------------------------------------------ #
    def close(self, join_timeout: float = 60.0) -> None:
        """Shut the persistent worker loops down and release the kernel."""
        if self._closed:
            return
        self._closed = True
        for pid in self._tsw_pids:
            self.kernel.post(pid, Tags.POOL_SHUTDOWN)
        if self.is_simulated:
            # loops a fault plan left orphaned stay parked: idle, not stuck
            self.kernel.run(allow_blocked=True)
        else:
            self.kernel.join_all(timeout=join_timeout)
            self.kernel.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
