"""Shared plumbing of the real-execution kernels (threads and processes).

The discrete-event :class:`~repro.pvm.simulator.SimKernel` owns its own event
loop and needs none of this; the two *real* backends —
:class:`~repro.pvm.threads_backend.ThreadKernel` and
:class:`~repro.pvm.process_backend.ProcessKernel` — share everything that is
not "how a worker actually executes": pid allocation, round-robin machine
placement, the record table, result retrieval, and the join semantics.

``join_all`` is written once here because getting it right matters for both
backends: a naive snapshot of the record table misses workers that are
spawned *while* joining (the master spawns TSWs, each TSW spawns CLWs — all
after ``join_all`` was entered), so the loop re-scans until no unfinished
record remains.  The ``timeout`` is one overall deadline for the whole join,
not a per-worker allowance.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import ProcessError
from .cluster import ClusterSpec
from .process import ProcessFunction

__all__ = ["WorkerRecord", "RealKernelBase"]


@dataclass
class WorkerRecord:
    """Book-keeping shared by both real backends for one worker."""

    pid: int
    name: str
    parent: Optional[int]
    machine_index: int
    result: Any = None
    error: Optional[BaseException] = None
    finished: bool = False


class RealKernelBase:
    """Record table, placement, join and result semantics of a real kernel.

    Subclasses implement :meth:`spawn` (how a worker starts) and
    :meth:`_wait_record` (how to wait for one worker, honouring a timeout).
    """

    def __init__(self, cluster: ClusterSpec, *, failure_grace: float = 10.0) -> None:
        if failure_grace < 0:
            raise ProcessError(f"failure_grace must be >= 0, got {failure_grace}")
        self._cluster = cluster
        self._records: Dict[int, WorkerRecord] = {}
        self._next_pid = itertools.count(1)
        self._next_machine = 0
        self._lock = threading.Lock()
        #: Once any worker has finished with an error, how long join_all keeps
        #: waiting for the rest before aborting — a dead worker usually means
        #: the survivors are blocked on messages that will never arrive, and
        #: burning the whole deadline (an hour by default in the runner) just
        #: delays the real diagnosis.
        self.failure_grace = failure_grace
        self._death_listener: Optional[int] = None

    # ------------------------------------------------------------------ #
    # identity / placement
    # ------------------------------------------------------------------ #
    @property
    def cluster(self) -> ClusterSpec:
        """The cluster description this kernel was built for."""
        return self._cluster

    def _allocate(self, machine_index: Optional[int]) -> Tuple[int, int]:
        """Reserve a pid and resolve the machine index (round-robin default)."""
        with self._lock:
            pid = next(self._next_pid)
            if machine_index is None:
                machine_index = self._next_machine
                self._next_machine = (self._next_machine + 1) % self._cluster.num_machines
            machine_index %= self._cluster.num_machines
        return pid, machine_index

    def spawn_local(self, func: ProcessFunction, *args: Any, **kwargs: Any) -> int:
        """Start a process on a thread of the kernel process.

        Sessions start each run's master this way.  Every process of the
        thread kernel is already local, so the default is :meth:`spawn`; the
        processes kernel overrides it.
        """
        return self.spawn(func, *args, **kwargs)

    def _register(self, record: WorkerRecord) -> None:
        """Publish a fully-built record (its execution vehicle must be ready)."""
        with self._lock:
            self._records[record.pid] = record

    def _register_and_start(self, record: WorkerRecord, start) -> None:
        """Publish the record, then launch its execution vehicle.

        Registration comes first because the new worker (and its descendants)
        may address this pid — children send to ``ctx.parent`` the moment
        they run.  On launch failure the record is marked finished-with-error
        so join_all never waits on a worker that will never run.
        """
        self._register(record)
        try:
            start()
        except BaseException as error:
            record.error = error
            record.finished = True
            self._mark_unrunnable(record)
            raise

    def _mark_unrunnable(self, record: WorkerRecord) -> None:
        """Backend hook: release waiters attached to a never-started worker."""

    def _record(self, pid: int) -> WorkerRecord:
        try:
            return self._records[pid]
        except KeyError:
            raise ProcessError(f"unknown process id {pid}") from None

    # ------------------------------------------------------------------ #
    # join / results
    # ------------------------------------------------------------------ #
    def _wait_record(self, record: WorkerRecord, timeout: Optional[float]) -> bool:
        """Wait for one worker to finish; return ``False`` on timeout."""
        raise NotImplementedError

    def join(self, pid: int, timeout: Optional[float] = None) -> None:
        """Wait for a process to finish."""
        record = self._record(pid)
        if not self._wait_record(record, timeout):
            raise ProcessError(f"process {record.name!r} did not finish within {timeout} s")

    def notify_deaths_to(self, pid: Optional[int]) -> None:
        """Register (or clear) the pid that receives ``worker_down`` notices.

        The base implementation only records the listener; each backend
        decides how deaths are detected (thread crash, OS process exit).
        """
        with self._lock:
            self._death_listener = pid

    def worker_dead(self, pid: int) -> bool:
        """Whether a worker's execution vehicle is gone (finished or crashed).

        Used by pool repair to find persistent loops that need respawning;
        backends with out-of-band liveness (OS exit codes) override this to
        report hard deaths before any join observes them.
        """
        return self._record(pid).finished

    def child_pids(self, pid: int) -> list:
        """Pids of the direct children of ``pid`` in the spawn tree.

        Pool repair uses this to find the orphaned CLW loops of a dead
        persistent TSW loop (their parent edge survives the parent's death).
        """
        with self._lock:
            return [r.pid for r in self._records.values() if r.parent == pid]

    def join_all(self, timeout: Optional[float] = None) -> None:
        """Wait for every spawned process — including ones spawned meanwhile.

        Workers spawn other workers (master → TSWs → CLWs), so the record
        table grows while we join; the loop re-scans until a pass finds no
        unfinished record.  ``timeout`` is one overall deadline for the whole
        operation, not a per-worker allowance.  If a worker has *failed* and
        the others do not wind down within :attr:`failure_grace` seconds, the
        join aborts with that worker's error instead of waiting out the
        deadline.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        failed: Optional[WorkerRecord] = None
        failure_deadline: Optional[float] = None
        while True:
            with self._lock:
                records = list(self._records.values())
            unfinished = [record for record in records if not record.finished]
            if not unfinished:
                return
            if failed is None:
                failed = next(
                    (r for r in records if r.finished and r.error is not None), None
                )
                if failed is not None:
                    failure_deadline = time.monotonic() + self.failure_grace
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                shown = [f"{r.name!r} (pid {r.pid})" for r in unfinished[:8]]
                if len(unfinished) > len(shown):
                    shown.append(f"+{len(unfinished) - len(shown)} more")
                raise ProcessError(
                    f"join_all deadline of {timeout} s elapsed with "
                    f"{len(unfinished)} process(es) still running: "
                    f"{', '.join(shown)}"
                )
            if failure_deadline is not None and now >= failure_deadline:
                assert failed is not None
                raise ProcessError(
                    f"process {failed.name!r} failed while {len(unfinished)} "
                    f"process(es) were still running; aborting the join"
                ) from failed.error
            # Wait in short slices so newly-failed workers are noticed
            # promptly even while blocked on a long-running one, and poll
            # every other unfinished record so a silently-died worker is
            # detected no matter where it sits in the table.
            slice_end = now + 0.5
            for candidate in (deadline, failure_deadline):
                if candidate is not None:
                    slice_end = min(slice_end, candidate)
            self._wait_record(unfinished[0], max(0.0, slice_end - now))
            for record in unfinished[1:]:
                self._wait_record(record, 0.0)

    def result_of(self, pid: int) -> Any:
        """Return value of a finished process."""
        record = self._record(pid)
        if record.error is not None:
            raise ProcessError(f"process {record.name!r} failed") from record.error
        if not record.finished:
            raise ProcessError(f"process {record.name!r} has not finished")
        return record.result

    def shutdown(self) -> None:
        """Release backend resources (no-op by default; processes override)."""

    def __enter__(self) -> "RealKernelBase":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()
