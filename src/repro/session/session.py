"""Resumable search sessions: submit / status / cancel over the master loop.

A :class:`SearchSession` owns one run of the parallel tabu search as a
sequence of *epochs* — master invocations that each execute some (or all)
remaining global iterations and pause at an iteration boundary.  Between
epochs the full run state lives in a serializable
:class:`~repro.parallel.master.MasterRunState`, so a session can be

* run to completion synchronously (:meth:`SearchSession.run` — exactly the
  classic :func:`~repro.parallel.runner.run_parallel_search` behaviour),
* advanced a few global iterations at a time (:meth:`SearchSession.step`),
* driven in the background with streaming progress events
  (:meth:`SearchSession.submit` / :meth:`SearchSession.status` /
  :meth:`SearchSession.cancel` / :meth:`SearchSession.result`),
* checkpointed to a byte-stable artifact and restored later — on the same
  or another backend — with a bit-identical continued trajectory
  (:meth:`SearchSession.checkpoint` / :meth:`SearchSession.restore`), and
* pointed at a warm :class:`~repro.session.WorkerPool` so consecutive runs
  and resumed epochs reuse live worker processes instead of respawning.

Determinism scope: with ``sync_mode="homogeneous"`` every decision of the
search is timing-independent, so interrupted-and-resumed trajectories match
the uninterrupted run bit for bit.  The paper's ``"heterogeneous"`` mode
makes timing-dependent interrupt decisions; sessions still checkpoint and
resume it, but only the homogeneous mode carries the bit-identity guarantee.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple, Union

from ..core.protocols import SearchProblem, ensure_search_problem
from ..errors import SessionError
from ..parallel.config import ParallelSearchParams
from ..parallel.master import MasterResult, MasterRunState, master_process
from ..parallel.messages import Tags
from ..pvm.cluster import ClusterSpec
from ..pvm.faults import FaultPlan
from ..pvm.simulator import ProcessInfo, SimStats
from .pool import WorkerPool, drive_master, make_kernel
from .state import SessionState

__all__ = ["ProgressEvent", "SessionStatus", "SearchSession", "TOPOLOGY_KINDS"]

#: Fault-event kinds that change the worker roster — the session accumulates
#: these across epochs into the topology history that checkpoints carry and
#: ``sessions inspect`` reports.
TOPOLOGY_KINDS = (
    "worker-admitted",
    "worker-dead",
    "worker-drained",
    "worker-respawned",
)


@dataclass(frozen=True)
class ProgressEvent:
    """Streamed to the ``on_event`` callback after every finished epoch."""

    epoch: int
    rounds_done: int
    total_rounds: int
    best_cost: float
    complete: bool
    virtual_time: float


@dataclass(frozen=True)
class SessionStatus:
    """Snapshot of a session's lifecycle state."""

    #: ``"idle"``, ``"running"``, ``"paused"``, ``"cancelled"``,
    #: ``"complete"`` or ``"failed"``.
    state: str
    rounds_done: int
    total_rounds: int
    best_cost: Optional[float]
    epochs: int
    wall_clock_seconds: float

    @property
    def progress(self) -> float:
        """Fraction of global iterations finished."""
        if self.total_rounds <= 0:
            return 1.0
        return min(1.0, self.rounds_done / self.total_rounds)


def _resolve_problem(netlist: Any, problem: Optional[SearchProblem], params) -> SearchProblem:
    """Accept a SearchProblem, or wrap a bare netlist via the placement domain."""
    if problem is None:
        if netlist is None:
            raise SessionError(
                "SearchSession needs an instance: pass a netlist or problem="
            )
        if hasattr(netlist, "make_evaluator"):
            problem = netlist
        else:
            from ..core.registry import get_domain

            problem = get_domain("placement").build_problem(
                netlist, cost_params=params.cost, reference_seed=params.seed
            )
    ensure_search_problem(problem)
    return problem


class SearchSession:
    """One resumable parallel-tabu-search run (see module docstring)."""

    def __init__(
        self,
        netlist: Any = None,
        params: Optional[ParallelSearchParams] = None,
        *,
        problem: Optional[SearchProblem] = None,
        backend: str = "simulated",
        cluster: Optional[ClusterSpec] = None,
        pool: Optional[WorkerPool] = None,
        join_timeout: float = 3600.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.params = params or ParallelSearchParams()
        self.problem = _resolve_problem(netlist, problem, self.params)
        self.pool = pool
        self.backend = pool.backend if pool is not None else backend
        self.cluster = pool.cluster if pool is not None else cluster
        self.join_timeout = join_timeout
        if fault_plan is not None:
            if pool is not None:
                raise SessionError(
                    "pass the fault plan to the WorkerPool, not the session — "
                    "the pool owns the kernel"
                )
            if self.backend != "simulated":
                raise SessionError(
                    f"fault plans are a simulated-backend feature, not {self.backend!r}"
                )
        self.fault_plan = fault_plan

        self._lock = threading.RLock()
        self._run_state: Optional[MasterRunState] = None
        self._master_result: Optional[MasterResult] = None
        self._complete = False
        self._cancel_requested = False
        self._epochs = 0
        self._wall_seconds = 0.0
        self._virtual_runtime = 0.0
        self._sim_stats: Optional[SimStats] = None
        self._process_infos: List[ProcessInfo] = []
        self._fault_events: List[Any] = []
        self._topology_events: List[Any] = []
        self._driver: Optional[threading.Thread] = None
        self._driver_error: Optional[BaseException] = None
        self._active: Optional[Tuple[Any, int]] = None  # (kernel, master pid)

    # ------------------------------------------------------------------ #
    # lifecycle queries
    # ------------------------------------------------------------------ #
    @property
    def complete(self) -> bool:
        return self._complete

    @property
    def rounds_done(self) -> int:
        with self._lock:
            if self._complete:
                return int(self.params.global_iterations)
            if self._run_state is not None:
                return int(self._run_state.next_iteration)
            return 0

    @property
    def best_cost(self) -> Optional[float]:
        with self._lock:
            if self._master_result is not None:
                return float(self._master_result.best_cost)
            if self._run_state is not None:
                return float(self._run_state.best_cost)
            return None

    def status(self) -> SessionStatus:
        """Thread-safe lifecycle snapshot (the ``status`` of submit/status/cancel)."""
        with self._lock:
            if self._driver is not None and self._driver.is_alive():
                state = "running"
            elif self._driver_error is not None:
                state = "failed"
            elif self._complete:
                state = "complete"
            elif self._cancel_requested and self._epochs > 0:
                state = "cancelled"
            elif self._epochs > 0:
                state = "paused"
            else:
                state = "idle"
            return SessionStatus(
                state=state,
                rounds_done=self.rounds_done,
                total_rounds=int(self.params.global_iterations),
                best_cost=self.best_cost,
                epochs=self._epochs,
                wall_clock_seconds=self._wall_seconds,
            )

    # ------------------------------------------------------------------ #
    # epoch execution
    # ------------------------------------------------------------------ #
    def _run_epoch(self, max_rounds: Optional[int]) -> MasterResult:
        """Run one master invocation (this thread) and fold in its result."""
        with self._lock:
            if self._complete:
                raise SessionError("session already ran to completion")
            resume_state = self._run_state
        wall_start = time.perf_counter()

        if self.pool is not None:
            kernel = self.pool.kernel
            master_result, stats, kernel_time = self.pool.run_master(
                self.problem,
                self.params,
                resume_state=resume_state,
                max_rounds=max_rounds,
                join_timeout=self.join_timeout,
            )
        else:
            kernel = make_kernel(self.backend, self.cluster, fault_plan=self.fault_plan)

            def track(pid: Optional[int]) -> None:
                with self._lock:
                    self._active = None if pid is None else (kernel, pid)

            try:
                master_result, stats, kernel_time = drive_master(
                    kernel,
                    master_process,
                    self.problem,
                    self.params,
                    # a dead worker must not abort the epoch: its obituary
                    # goes to the master, and the epoch waits for the master
                    # alone, since crashed or orphaned workers stay behind
                    listen=self.params.fault_enabled or self.fault_plan is not None,
                    warm=False,
                    join_timeout=self.join_timeout,
                    track=track,
                    resume_state=resume_state,
                    max_rounds=max_rounds,
                )
            finally:
                kernel.shutdown()
        process_infos = kernel.all_processes() if stats is not None else []

        wall = time.perf_counter() - wall_start
        with self._lock:
            self._epochs += 1
            self._wall_seconds += wall
            self._master_result = master_result
            self._run_state = master_result.run_state
            self._complete = master_result.complete
            self._sim_stats = stats
            self._process_infos = process_infos
            epoch_events = getattr(master_result, "fault_events", ()) or ()
            self._fault_events.extend(epoch_events)
            self._topology_events.extend(
                event for event in epoch_events if event.kind in TOPOLOGY_KINDS
            )
            # the master stitches resumed trace points onto the session
            # timeline, so the trace end bounds the session's virtual span
            session_end = (
                master_result.trace[-1][0] if master_result.trace else kernel_time
            )
            self._virtual_runtime = max(float(kernel_time), float(session_end))
        return master_result

    def _ensure_not_running(self) -> None:
        with self._lock:
            if self._driver is not None and self._driver.is_alive():
                raise SessionError("session is running in the background")
            if self._driver_error is not None:
                raise self._driver_error

    # ------------------------------------------------------------------ #
    # synchronous API
    # ------------------------------------------------------------------ #
    def run(self):
        """Run all remaining global iterations and return the packaged result."""
        self._ensure_not_running()
        while not self._complete:
            before = self.rounds_done
            self._run_epoch(None)
            if self._cancel_requested:
                break
            if not self._complete and self.rounds_done <= before:
                # an epoch that neither finished, advanced, nor was cancelled
                # would loop forever (e.g. a paused run whose workers all
                # died before the first report)
                raise SessionError(
                    "epoch finished incomplete without advancing any global "
                    "iteration; aborting instead of looping"
                )
        return self._package()

    def step(self, rounds: int = 1) -> SessionStatus:
        """Advance up to ``rounds`` global iterations, then pause."""
        if rounds < 1:
            raise SessionError(f"step needs at least one round, got {rounds}")
        self._ensure_not_running()
        if not self._complete:
            self._run_epoch(rounds)
        return self.status()

    # ------------------------------------------------------------------ #
    # asynchronous API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        *,
        chunk_rounds: Optional[int] = None,
        on_event: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        """Start (or continue) the run on a background driver thread.

        ``chunk_rounds`` caps the global iterations per epoch; between
        epochs the driver checks for :meth:`cancel` and streams a
        :class:`ProgressEvent` (whose callback may itself call ``cancel`` —
        that is the cooperative-cancellation point on the simulated
        backend, which cannot be interrupted mid-epoch).
        """
        with self._lock:
            self._ensure_not_running()
            if self._complete:
                raise SessionError("session already ran to completion")
            self._cancel_requested = False
            self._driver_error = None

        def _drive() -> None:
            try:
                while True:
                    with self._lock:
                        if self._complete or self._cancel_requested:
                            break
                    result = self._run_epoch(chunk_rounds)
                    if on_event is not None:
                        on_event(
                            ProgressEvent(
                                epoch=self._epochs,
                                rounds_done=self.rounds_done,
                                total_rounds=int(self.params.global_iterations),
                                best_cost=float(result.best_cost),
                                complete=result.complete,
                                virtual_time=self._virtual_runtime,
                            )
                        )
            except BaseException as error:  # noqa: BLE001 - surfaced via result()
                with self._lock:
                    self._driver_error = error

        thread = threading.Thread(target=_drive, name="session-driver", daemon=True)
        with self._lock:
            self._driver = thread
        thread.start()

    def cancel(self) -> None:
        """Request a pause at the next global-iteration boundary.

        On the real backends the request is injected into the running
        master's mailbox immediately; on the simulated backend it takes
        effect at the next epoch boundary (use ``chunk_rounds`` to bound
        the wait).
        """
        with self._lock:
            self._cancel_requested = True
            active = self._active
        if self.pool is not None:
            self.pool.post_cancel()
        elif active is not None and self.backend != "simulated":
            kernel, pid = active
            kernel.post(pid, Tags.CANCEL)

    def result(self, timeout: Optional[float] = None):
        """Wait for the background driver and return the packaged result."""
        with self._lock:
            driver = self._driver
        if driver is not None:
            driver.join(timeout)
            if driver.is_alive():
                raise SessionError(f"session still running after {timeout}s")
        with self._lock:
            if self._driver_error is not None:
                raise self._driver_error
        return self._package()

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #
    def checkpoint(self, path: Optional[Any] = None) -> SessionState:
        """Freeze the paused run state into a byte-stable artifact."""
        self._ensure_not_running()
        with self._lock:
            state = SessionState(
                problem=self.problem,
                params=self.params,
                backend=self.backend,
                run_state=self._run_state,
                complete=self._complete,
                topology_events=tuple(self._topology_events),
            )
        if path is not None:
            state.save(path)
        return state

    @classmethod
    def restore(
        cls,
        source: Union[SessionState, str, Any],
        *,
        problem: Optional[SearchProblem] = None,
        backend: Optional[str] = None,
        cluster: Optional[ClusterSpec] = None,
        pool: Optional[WorkerPool] = None,
        join_timeout: float = 3600.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "SearchSession":
        """Rebuild a session from a checkpoint (state object or file path).

        The continued trajectory is bit-identical to the uninterrupted run
        under ``sync_mode="homogeneous"`` — on any backend, warm or cold.
        A resumed grown/drained topology is restored exactly (roster, range
        assignment, ledger state).  ``fault_plan`` arms the resumed epochs
        with a (simulated-backend) failure schedule — its times are on the
        *fresh kernel's* clock, which restarts at zero on resume.
        """
        state = source if isinstance(source, SessionState) else SessionState.load(source)
        session = cls(
            params=state.params,
            problem=problem if problem is not None else state.problem,
            backend=backend if backend is not None else state.backend,
            cluster=cluster,
            pool=pool,
            join_timeout=join_timeout,
            fault_plan=fault_plan,
        )
        session._run_state = state.run_state
        session._complete = state.complete
        session._topology_events = list(state.topology_events)
        return session

    # ------------------------------------------------------------------ #
    # result packaging
    # ------------------------------------------------------------------ #
    def _package(self):
        from ..parallel.runner import ParallelSearchResult

        with self._lock:
            master_result = self._master_result
            if master_result is None:
                raise SessionError("no epoch has run yet")
            return ParallelSearchResult(
                instance=self.problem.name,
                params=self.params,
                best_cost=master_result.best_cost,
                initial_cost=master_result.initial_cost,
                best_objectives=master_result.best_objectives,
                best_solution=master_result.best_solution,
                trace=master_result.trace,
                global_records=master_result.global_records,
                virtual_runtime=self._virtual_runtime,
                sim_stats=self._sim_stats,
                process_infos=self._process_infos,
                wall_clock_seconds=self._wall_seconds,
                complete=master_result.complete,
                fault_events=list(self._fault_events),
            )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Cancel any background work (the pool, if any, stays open — the
        caller that created it owns its lifetime)."""
        self.cancel()
        with self._lock:
            driver = self._driver
        if driver is not None and driver.is_alive():
            driver.join(self.join_timeout)

    def __enter__(self) -> "SearchSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
