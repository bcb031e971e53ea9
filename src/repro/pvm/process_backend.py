"""The real-execution kernel: OS processes, or threads of the kernel process.

The :class:`ProcessKernel` runs the *same* generator-based master/TSW/CLW
process code as the simulator, but on real OS processes — so the batched
numpy work inside every worker runs on its own core, outside the GIL.  This
is the backend that turns the paper's claim into measurable wall-clock
speedup (see ``benchmarks/bench_wallclock_parallel.py``).  The
:class:`ThreadKernel` is the same kernel with every spawn local: each
process runs on a thread of the kernel process.

Execution model
---------------

* The kernel lives in the launching process (the driver).  Every worker is
  one OS process; it receives its immutable start-up state (identity,
  machine spec, process function and arguments) when it is spawned and
  never again: steady-state messages carry only solutions.
* Workers fork from the driver's ``multiprocessing`` fork server, one helper
  process that imports the worker modules (:data:`_PRELOAD`) once and lives
  until the driver exits; every kernel of the driver shares it.  A worker
  therefore starts in tens of milliseconds instead of paying a fresh
  interpreter and ``import repro``.  Where the platform has no fork server,
  workers start with ``spawn``.  Like a spawned one, a forked worker runs the
  driver's ``__main__`` module again (as ``__mp_main__``), so scripts keep
  their ``if __name__ == "__main__"`` guard.
* A worker gets the driver's environment as of its spawn, not the server's.
* :meth:`ProcessKernel.spawn_local` runs a process on a thread of the
  kernel process instead, through the same syscall interpreter, inboxes and
  join logic.  The session layer starts each run's master this way, so a run
  pays no interpreter boot, no ``import repro`` and no problem rebuild for
  it; the master uses the caller's objects as they are.
* :class:`ThreadKernel` starts every process this way.  Its inboxes hold
  :class:`Message` objects by reference: nothing is pickled, and every
  process holds the caller's objects (the problem included).  It never
  starts an OS process, so it creates no fork server, router thread or
  ``multiprocessing`` object: a kernel starts those when it first needs a
  ``multiprocessing`` inbox or an OS spawn.
* Everything that crosses a process boundary — spawn calls, messages, exit
  outcomes — is pickled once by :func:`repro.pvm.shm.dumps`, which writes
  every shared-memory-exported object (the problem) as its small
  :class:`~repro.pvm.shm.SharedObjectRef`, wherever it sits in the payload.
  The kernel exports each distinct object once, on first sight, and keeps
  the block until shutdown; each worker attaches it once.
* Each process owns one inbox queue (a ``multiprocessing`` queue of pickled
  messages on the processes kernel).  ``Receive`` pops from it with the same
  tag/src filtering as the simulator (messages that do not match are
  buffered locally, preserving arrival order).
* A worker's ``Send``, ``Spawn`` and exit are *requests* shipped to a single
  router queue that a thread in the kernel process drains: sends are
  forwarded, still pickled, to the destination inbox, spawns create a new OS
  process and the child pid is returned to the requester over a private
  pipe, exits record the worker's result.  Child→parent messages skip the
  router and go straight into the parent's inbox, and a kernel-thread
  process delivers its messages and spawns directly.
* A death is announced with a ``worker_down`` notice to the process's parent
  and to the registered death listener: a kernel-thread process that ends
  with an error announces itself, and a monitor thread announces an OS
  process that exits without reporting.
* ``Compute`` throttles: the runtime measures the real time the process body
  spent computing since it was last resumed and sleeps it longer by the
  machine's slowdown factor ``1 / effective_rate - 1`` from the
  :class:`~repro.pvm.cluster.ClusterSpec` — a machine of speed 0.5 takes
  twice the reference wall-clock time, emulating the paper's heterogeneous
  LAN on homogeneous hardware.  This holds on both kernels.  On the
  reference machines (rate 1.0, e.g. every machine of
  ``homogeneous_cluster``) it is a no-op.
* ``GetTime`` returns wall-clock seconds since the kernel was created,
  measured against a ``time.time()`` epoch shared with every worker (the
  monotonic clock is not guaranteed comparable across processes).  A message
  is stamped once, when it is sent.

Everything that crosses a process boundary — :class:`Message` envelopes,
protocol payloads, process functions (by module reference), results — must
pickle; ``tests/parallel/test_backend_parity.py`` locks this in for the
whole protocol.
"""

from __future__ import annotations

import inspect
import itertools
import os
import pickle
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import multiprocessing
from multiprocessing.connection import Connection

from ..errors import ProcessError
from .cluster import ClusterSpec
from .faults import WORKER_DOWN_TAG, WorkerDown
from .machine import MachineSpec
from .message import Message, estimate_payload_bytes
from .process import (
    Compute,
    GetTime,
    ProcessContext,
    ProcessFunction,
    Receive,
    Send,
    Sleep,
    Spawn,
    Syscall,
)
from .shm import SharedArrayPack, SharedObjectRef, close_attachments, dumps, export_shared

__all__ = ["ProcessKernel", "ThreadKernel"]

#: ``(func, args, kwargs)`` of a process body, as the runtime starts it.
_Call = Tuple[ProcessFunction, Tuple[Any, ...], Dict[str, Any]]

#: Modules the fork server imports once for all its workers: the worker
#: bodies and the domains' shared-memory restore functions.
_PRELOAD = [
    "repro.parallel.worker_loop",
    "repro.problems.placement",
    "repro.problems.qap.evaluator",
]
#: Serialises fork-server starts: their ``PYTHONPATH`` edit is process-wide.
_FORK_SERVER_LOCK = threading.Lock()


def _worker_context() -> multiprocessing.context.BaseContext:
    """The context workers start from: the preloaded fork server, running
    once this returns, or ``spawn`` where the platform has no fork server."""
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    from multiprocessing import forkserver

    context = multiprocessing.get_context("forkserver")
    with _FORK_SERVER_LOCK:
        context.set_forkserver_preload(_PRELOAD)
        # The server does not apply the driver's sys.path before preloading,
        # so a ``repro`` found only through a runtime sys.path insert would
        # fail to preload, silently; its import root goes on the PYTHONPATH.
        import_root = str(Path(__file__).resolve().parents[2])
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (import_root, saved)))
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return context


def _check_generator_function(func: ProcessFunction) -> None:
    if not inspect.isgeneratorfunction(func):
        raise ProcessError(
            f"process function {getattr(func, '__name__', func)!r} must be a generator function"
        )


def _outcome(result: Any, error: Optional[BaseException]) -> bytes:
    """Pickled ``(result, error)``; an unpicklable value becomes a ProcessError."""
    try:
        return dumps((result, error))
    except Exception:  # noqa: BLE001 - any pickling failure degrades the same way
        value = result if error is None else error
        degraded = ProcessError(f"unpicklable value could not cross processes: {value!r}")
        return dumps((None, degraded))


# --------------------------------------------------------------------------- #
# process side
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _WorkerBootstrap:
    """Everything a worker process needs, pickled once at spawn time."""

    pid: int
    name: str
    parent: Optional[int]
    machine_index: int
    machine: MachineSpec
    epoch: float
    #: The process call ``(func, args, kwargs)``, pickled by :func:`dumps`.
    call: bytes
    #: The driver's ``os.environ`` at spawn; a forked worker would otherwise
    #: see the fork server's.
    environ: Dict[str, str]
    #: The parent's inbox queue, inherited at spawn so child→parent messages
    #: (the per-iteration CLW results and TSW reports) skip the router hop
    #: entirely and land in the parent's mailbox with one queue operation.
    parent_inbox: Any = None


class _QueueMailbox:
    """Tag/source-filtered view of one process's inbox queue.

    The inbox holds :class:`Message` objects: pickled (``bytes``) in a
    ``multiprocessing`` queue, or by reference in a thread kernel's queue.
    Messages popped from the queue that do not match the current filter are
    buffered locally in arrival order and served to later receives,
    mirroring the mailbox semantics of the simulator.
    """

    def __init__(self, inbox: Any) -> None:
        self._inbox = inbox
        self._buffer: List[Message] = []

    def _scan(self, tag: Optional[str], src: Optional[int]) -> Optional[Message]:
        for index, message in enumerate(self._buffer):
            if message.matches(tag=tag, src=src):
                return self._buffer.pop(index)
        return None

    def _take(self, item: Any) -> None:
        self._buffer.append(pickle.loads(item) if isinstance(item, bytes) else item)

    def _drain_nowait(self) -> None:
        while True:
            try:
                self._take(self._inbox.get_nowait())
            except queue_module.Empty:
                return

    def get(
        self, *, tag: Optional[str], src: Optional[int], blocking: bool, timeout: Optional[float]
    ) -> Optional[Message]:
        found = self._scan(tag, src)
        if found is not None:
            return found
        if not blocking:
            self._drain_nowait()
            return self._scan(tag, src)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait_for = 1.0
            if deadline is not None:
                wait_for = deadline - time.monotonic()
                if wait_for <= 0:
                    return None
                wait_for = min(wait_for, 1.0)
            try:
                self._take(self._inbox.get(timeout=wait_for))
            except queue_module.Empty:
                continue
            found = self._scan(tag, src)
            if found is not None:
                return found


class _RouterPort:
    """Outbound side of a worker OS process: the router queue and pipes."""

    def __init__(self, bootstrap: _WorkerBootstrap, router: Any, control: Connection) -> None:
        self._bootstrap = bootstrap
        self._router = router
        self._control = control

    def send(self, message: Message) -> None:
        blob = dumps(message)
        if self._bootstrap.parent_inbox is not None and message.dst == self._bootstrap.parent:
            # fast path: the hot upward messages go straight into the
            # parent's mailbox (one queue hop instead of two + a router
            # thread wake-up)
            self._bootstrap.parent_inbox.put(blob)
        else:
            self._router.put(("send", message.dst, blob))

    def spawn(self, syscall: Spawn) -> int:
        _check_generator_function(syscall.func)
        call = dumps((syscall.func, syscall.args, syscall.kwargs))
        self._router.put(
            ("spawn", self._bootstrap.pid, call, syscall.machine_index, syscall.name)
        )
        kind, payload = self._control.recv()
        if kind != "spawned":
            raise ProcessError(f"spawn failed in kernel process: {payload}")
        return payload

    def exit(self, result: Any, error: Optional[BaseException]) -> None:
        self._router.put(("exit", self._bootstrap.pid, _outcome(result, error)))
        close_attachments()


class _KernelPort:
    """Outbound side of a process on a thread of the kernel process."""

    def __init__(self, kernel: "ProcessKernel", record: "_ProcessRecord") -> None:
        self._kernel = kernel
        self._record = record

    def send(self, message: Message) -> None:
        self._kernel._deliver(message.dst, self._kernel._wire(message))

    def spawn(self, syscall: Spawn) -> int:
        return self._kernel.spawn(
            syscall.func,
            *syscall.args,
            machine_index=syscall.machine_index,
            name=syscall.name,
            parent=self._record.pid,
            **syscall.kwargs,
        )

    def exit(self, result: Any, error: Optional[BaseException]) -> None:
        self._kernel._finish(self._record, result, error)
        if error is not None:
            # Every error of a kernel-thread process lands here, so it can
            # announce its own death; an OS process that dies without
            # reporting is left to the death monitor.
            self._kernel._post_obituary(self._record, f"{type(error).__name__}: {error}")


class _WorkerRuntime:
    """Syscall interpreter of one process body, on a worker OS process or a
    thread of the kernel process; ``port`` carries its sends, spawns and exit."""

    def __init__(
        self,
        context: ProcessContext,
        epoch: float,
        inbox: Any,
        port: _RouterPort | _KernelPort,
    ) -> None:
        self._context = context
        self._epoch = epoch
        self._mailbox = _QueueMailbox(inbox)
        self._port = port
        # extra wall-clock seconds slept per second of real compute
        self._slowdown = max(0.0, 1.0 / context.machine.effective_rate - 1.0)

    @property
    def _now(self) -> float:
        return time.time() - self._epoch

    def run(self, load_call: Callable[[], _Call]) -> None:
        result: Any = None
        error: Optional[BaseException] = None
        try:
            func, args, kwargs = load_call()
            generator = func(self._context, *args, **kwargs)
            value: Any = None
            resumed_at = time.perf_counter()
            while True:
                try:
                    syscall = generator.send(value)
                except StopIteration as stop:
                    result = stop.value
                    break
                computed = time.perf_counter() - resumed_at
                value = self._handle(syscall, computed)
                resumed_at = time.perf_counter()
        except BaseException as exc:  # noqa: BLE001 - reported through the port
            error = exc
        self._port.exit(result, error)

    def _handle(self, syscall: Syscall, computed_seconds: float) -> Any:
        if isinstance(syscall, Compute):
            # The real computation already ran at full host speed; emulate the
            # assigned machine by sleeping the slowdown surplus.
            if self._slowdown > 0.0 and computed_seconds > 0.0:
                time.sleep(computed_seconds * self._slowdown)
            return None
        if isinstance(syscall, Sleep):
            time.sleep(syscall.seconds)
            return None
        if isinstance(syscall, GetTime):
            return self._now
        if isinstance(syscall, Send):
            now = self._now
            self._port.send(
                Message(
                    src=self._context.pid,
                    dst=syscall.dst,
                    tag=syscall.tag,
                    payload=syscall.payload,
                    size_bytes=estimate_payload_bytes(syscall.payload),
                    send_time=now,
                    arrival_time=now,
                )
            )
            return None
        if isinstance(syscall, Receive):
            return self._mailbox.get(
                tag=syscall.tag,
                src=syscall.src,
                blocking=syscall.blocking,
                timeout=syscall.timeout,
            )
        if isinstance(syscall, Spawn):
            return self._port.spawn(syscall)
        raise ProcessError(f"unsupported syscall {syscall!r}")


def _worker_main(
    bootstrap: _WorkerBootstrap, router: Any, inbox: Any, control: Connection
) -> None:
    """Entry point of every worker OS process."""
    os.environ.clear()
    os.environ.update(bootstrap.environ)
    context = ProcessContext(
        pid=bootstrap.pid,
        parent=bootstrap.parent,
        name=bootstrap.name,
        machine_index=bootstrap.machine_index,
        machine=bootstrap.machine,
    )
    runtime = _WorkerRuntime(
        context, bootstrap.epoch, inbox, _RouterPort(bootstrap, router, control)
    )
    runtime.run(lambda: pickle.loads(bootstrap.call))


# --------------------------------------------------------------------------- #
# kernel side
# --------------------------------------------------------------------------- #
@dataclass
class _ProcessRecord:
    """Book-keeping for one process, on an OS process or a kernel thread."""

    pid: int
    name: str
    parent: Optional[int]
    machine_index: int
    result: Any = None
    error: Optional[BaseException] = None
    finished: bool = False
    #: The worker's OS process, or ``None`` for a kernel-thread process.
    process: Optional[multiprocessing.process.BaseProcess] = None
    inbox: Any = None
    control: Optional[Connection] = None  # kernel-side end of the spawn-reply pipe
    done: threading.Event = field(default_factory=threading.Event)
    #: When a hard death (process exited, no exit message) was first seen.
    #: Persists across _wait_record calls so the report grace accumulates
    #: even under join_all's short wait slices.
    death_detected_at: Optional[float] = None


def _running(unfinished: List[_ProcessRecord]) -> str:
    """``"N process(es) still running: 'a' (pid 3), ..."`` naming up to 8."""
    shown = [f"{r.name!r} (pid {r.pid})" for r in unfinished[:8]]
    if len(unfinished) > len(shown):
        shown.append(f"+{len(unfinished) - len(shown)} more")
    return f"{len(unfinished)} process(es) still running: {', '.join(shown)}"


class ProcessKernel:
    """Run generator-based processes on real OS processes (wall-clock time).

    Owns pid allocation, round-robin machine placement, the record table and
    the join and result semantics of every process, whichever vehicle runs
    it.  Call :meth:`shutdown` (or use the kernel as a context manager) when
    done so the router thread and any straggler processes are reaped.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        failure_grace: float = 10.0,
        death_report_grace: float = 10.0,
        death_notify_grace: float = 0.5,
    ) -> None:
        if failure_grace < 0:
            raise ProcessError(f"failure_grace must be >= 0, got {failure_grace}")
        self._cluster = cluster
        self._records: Dict[int, _ProcessRecord] = {}
        self._next_pid = itertools.count(1)
        self._next_machine = 0
        self._lock = threading.Lock()
        #: Once any worker has finished with an error, how long join_all keeps
        #: waiting for the rest before aborting — a dead worker usually means
        #: the survivors are blocked on messages that will never arrive, and
        #: burning the whole deadline (an hour by default in the runner) just
        #: delays the real diagnosis.
        self.failure_grace = failure_grace
        #: How long a dead (exited) process gets to have its final exit
        #: message drained by the router before being declared
        #: dead-without-reporting.  The clock persists on the record, so
        #: short join_all wait slices still accumulate toward it.
        self.death_report_grace = death_report_grace
        #: How long the death monitor waits after spotting an exit code
        #: before posting a ``worker_down`` notice — long enough for the
        #: router to drain a *clean* exit message, short enough that the
        #: master learns of a crash well before any round deadline.
        self.death_notify_grace = death_notify_grace
        self._death_listener: Optional[int] = None
        self._epoch = time.time()
        self._closed = False
        self._monitor_thread: Optional[threading.Thread] = None
        # The OS runtime: worker start context, router queue and thread,
        # started on first use (see _os_context).
        self._start_lock = threading.Lock()
        self._mp: Optional[multiprocessing.context.BaseContext] = None
        self._router_queue: Any = None
        self._router_thread: Optional[threading.Thread] = None
        #: Every ``multiprocessing`` queue made (router, inboxes), closed at shutdown.
        self._mp_queues: List[Any] = []
        # shared-memory exports: id(object) -> (object, ref) — the object is
        # kept referenced so its id cannot be recycled — plus packs to unlink
        self._shm_refs: Dict[int, Tuple[Any, SharedObjectRef]] = {}
        self._shm_packs: List[SharedArrayPack] = []

    @property
    def cluster(self) -> ClusterSpec:
        """The cluster description this kernel was built for."""
        return self._cluster

    @property
    def now(self) -> float:
        """Wall-clock seconds since the kernel was created."""
        return time.time() - self._epoch

    def _os_context(self) -> multiprocessing.context.BaseContext:
        """The context OS workers start from.

        The first call starts the fork server, the router queue and the
        router thread, so a kernel that never needs them creates none.
        """
        with self._start_lock:
            if self._mp is None:
                if self._closed:
                    raise ProcessError("kernel has been shut down")
                context = _worker_context()
                self._router_queue = context.Queue()
                self._mp_queues.append(self._router_queue)
                self._router_thread = threading.Thread(
                    target=self._route, name="pvm-router", daemon=True
                )
                self._router_thread.start()
                self._mp = context
            return self._mp

    # ------------------------------------------------------------------ #
    def spawn(
        self,
        func: ProcessFunction,
        *args: Any,
        machine_index: Optional[int] = None,
        name: str = "",
        parent: Optional[int] = None,
        **kwargs: Any,
    ) -> int:
        """Start a process in its own OS process and return its pid."""
        _check_generator_function(func)
        return self._spawn_call(
            self._dumps((func, args, kwargs)),
            machine_index=machine_index,
            name=name,
            parent=parent,
        )

    def spawn_local(
        self,
        func: ProcessFunction,
        *args: Any,
        machine_index: Optional[int] = None,
        name: str = "",
        parent: Optional[int] = None,
        **kwargs: Any,
    ) -> int:
        """Start a process on a thread of the kernel process; return its pid.

        The process gets the caller's arguments as they are — no pickling,
        no shared-memory attach — and pays no interpreter start.  It talks
        to the OS-process workers through the same inboxes, and its own
        sends and spawns skip the router.
        """
        _check_generator_function(func)
        record = self._new_record(machine_index, name, parent)
        context = ProcessContext(
            pid=record.pid,
            parent=parent,
            name=record.name,
            machine_index=record.machine_index,
            machine=self._cluster.machine(record.machine_index),
        )
        runtime = _WorkerRuntime(context, self._epoch, record.inbox, _KernelPort(self, record))
        thread = threading.Thread(
            target=runtime.run,
            args=(lambda: (func, args, kwargs),),
            name=record.name,
            daemon=True,
        )
        self._register_and_start(record, thread.start)
        return record.pid

    def _spawn_call(
        self, call: bytes, *, machine_index: Optional[int], name: str, parent: Optional[int]
    ) -> int:
        """Start an OS process running a :func:`dumps`-pickled call."""
        record = self._new_record(machine_index, name, parent)
        mp = self._os_context()
        kernel_conn, worker_conn = mp.Pipe()
        record.control = kernel_conn
        parent_inbox = None
        if parent is not None:
            try:
                parent_inbox = self._record(parent).inbox
            except ProcessError:
                pass
        bootstrap = _WorkerBootstrap(
            pid=record.pid,
            name=record.name,
            parent=parent,
            machine_index=record.machine_index,
            machine=self._cluster.machine(record.machine_index),
            epoch=self._epoch,
            call=call,
            environ=dict(os.environ),
            parent_inbox=parent_inbox,
        )
        process = mp.Process(
            target=_worker_main,
            args=(bootstrap, self._router_queue, record.inbox, worker_conn),
            name=record.name,
            daemon=True,
        )
        record.process = process
        # _wait_record distinguishes the registered-but-not-started window
        # from a hard death via Process.exitcode (None until the process has
        # started and exited).
        self._register_and_start(record, process.start)
        worker_conn.close()  # the worker holds its own handle now
        return record.pid

    def _new_record(
        self, machine_index: Optional[int], name: str, parent: Optional[int]
    ) -> _ProcessRecord:
        """A record with a fresh pid, a placement and an inbox, not yet registered."""
        if self._closed:
            raise ProcessError("kernel has been shut down")
        with self._lock:
            pid = next(self._next_pid)
            if machine_index is None:
                machine_index = self._next_machine
                self._next_machine = (self._next_machine + 1) % self._cluster.num_machines
            machine_index %= self._cluster.num_machines
        record = _ProcessRecord(
            pid=pid, name=name or f"proc{pid}", parent=parent, machine_index=machine_index
        )
        record.inbox = self._new_inbox()
        return record

    def _new_inbox(self) -> Any:
        """A process's inbox: a ``multiprocessing`` queue, which worker OS
        processes can write to."""
        inbox = self._os_context().Queue()
        self._mp_queues.append(inbox)
        return inbox

    def _register_and_start(self, record: _ProcessRecord, start: Callable[[], None]) -> None:
        """Publish the record, then launch its execution vehicle.

        Registration comes first because the new process (and its
        descendants) may address this pid — children send to ``ctx.parent``
        the moment they run.  On launch failure the record is finished with
        the error so join_all never waits on a process that will never run.
        """
        with self._lock:
            self._records[record.pid] = record
        try:
            start()
        except BaseException as error:
            self._finish(record, None, error)
            raise

    def _record(self, pid: int) -> _ProcessRecord:
        try:
            return self._records[pid]
        except KeyError:
            raise ProcessError(f"unknown process id {pid}") from None

    @staticmethod
    def _finish(record: _ProcessRecord, result: Any, error: Optional[BaseException]) -> None:
        """Record a process's outcome and wake everything waiting on it."""
        record.result, record.error = result, error
        record.finished = True
        record.done.set()

    def _finish_hard_death(self, record: _ProcessRecord) -> None:
        """Finish the record of an OS process that exited without reporting."""
        assert record.process is not None
        self._finish(
            record,
            None,
            ProcessError(
                f"process {record.name!r} died without reporting "
                f"(exitcode {record.process.exitcode})"
            ),
        )

    # ------------------------------------------------------------------ #
    def post(self, dst: int, tag: str, payload: Any = None) -> None:
        """Inject a message into a worker's inbox from outside any process.

        The driver-side control channel of the session layer: a cancel
        request reaches a running master exactly like a peer's send would
        (``src=0`` — no real process ever holds pid 0).  Messages to a
        finished worker are dropped, mirroring send semantics.
        """
        record = self._record(dst)
        if record.finished:
            return
        now = self.now
        record.inbox.put(
            self._wire(
                Message(
                    src=0,
                    dst=dst,
                    tag=tag,
                    payload=payload,
                    size_bytes=estimate_payload_bytes(payload),
                    send_time=now,
                    arrival_time=now,
                )
            )
        )

    def _deliver(self, dst: int, item: Any) -> None:
        """Put an inbox item into ``dst``'s inbox (unknown pids: dropped)."""
        try:
            record = self._record(dst)
        except ProcessError:
            return  # message to a pid this kernel never spawned
        record.inbox.put(item)

    def _wire(self, message: Message) -> Any:
        """What an inbox holds of ``message``: its :func:`dumps` pickle."""
        return self._dumps(message)

    def _dumps(self, obj: Any) -> bytes:
        """:func:`dumps` with this kernel's shared-memory exports."""
        return dumps(obj, self._share)

    def _share(self, obj: Any) -> Optional[SharedObjectRef]:
        """The ref of a shm-exportable object, exported on first sight.

        Each distinct object is exported once per kernel and its block is
        kept until :meth:`shutdown`; every later crossing ships the same
        small handle.
        """
        if not hasattr(type(obj), "__shm_export__"):
            return None
        # check-then-export under the lock: a kernel-thread process and the
        # caller's thread may race on the same object, and a double export
        # would duplicate the shared block
        with self._lock:
            entry = self._shm_refs.get(id(obj))
            if entry is None:
                if self._closed:  # shutdown would never unlink the block
                    raise ProcessError("kernel has been shut down")
                ref, pack = export_shared(obj)
                entry = self._shm_refs[id(obj)] = (obj, ref)
                self._shm_packs.append(pack)
        return entry[1]

    # ------------------------------------------------------------------ #
    # liveness
    # ------------------------------------------------------------------ #
    def worker_dead(self, pid: int) -> bool:
        """Finished, or the OS process has an exit code (hard death).

        Used by pool repair to find persistent loops that need respawning;
        the exit code reports a hard death before any join observes it.
        """
        record = self._record(pid)
        if record.finished:
            return True
        process = record.process
        return process is not None and not process.is_alive() and process.exitcode is not None

    def terminate_worker(self, pid: int) -> bool:
        """Hard-kill one worker OS process (failure injection for tests).

        Returns whether a live process was actually signalled; a
        kernel-thread process cannot be killed.  The death monitor /
        deadline tracking then observe the death exactly as they would a
        real crash.
        """
        process = self._record(pid).process
        if process is None or not process.is_alive():
            return False
        process.terminate()
        return True

    def reap_worker(self, pid: int) -> bool:
        """Finalize the record of a worker whose OS process already exited.

        A hard-dead worker never ships an exit message, so its record would
        otherwise stay unfinished forever and wedge ``join_all`` (e.g. a
        pool ``close`` after a repair).  Returns whether the record is now
        finished.  A genuine exit message that was merely slow through the
        router still overrides the synthesized error.
        """
        record = self._record(pid)
        if record.finished:
            return True
        process = record.process
        if process is None or process.is_alive() or process.exitcode is None:
            return False
        process.join(timeout=5.0)
        if record.death_detected_at is None:
            record.death_detected_at = time.monotonic()
        self._finish_hard_death(record)
        return True

    def child_pids(self, pid: int) -> list:
        """Pids of the direct children of ``pid`` in the spawn tree.

        Pool repair uses this to find the orphaned CLW loops of a dead
        persistent TSW loop (their parent edge survives the parent's death).
        """
        with self._lock:
            return [r.pid for r in self._records.values() if r.parent == pid]

    def notify_deaths_to(self, pid: Optional[int]) -> None:
        """Register (or clear) the pid that receives ``worker_down`` notices,
        and start the exit-code monitor."""
        with self._lock:
            self._death_listener = pid
        if pid is not None and self._monitor_thread is None and not self._closed:
            self._monitor_thread = threading.Thread(
                target=self._monitor_deaths, name="pvm-death-monitor", daemon=True
            )
            self._monitor_thread.start()

    def _post_obituary(self, record: _ProcessRecord, reason: str) -> None:
        """Post a ``worker_down`` notice to the parent and the death listener."""
        payload = WorkerDown(pid=record.pid, name=record.name, reason=reason)
        with self._lock:
            listener = self._death_listener
        for target in {record.parent, listener}:
            if target is None or target == record.pid:
                continue
            try:
                self.post(target, WORKER_DOWN_TAG, payload)
            except Exception:  # noqa: BLE001 - a closed inbox must not stop the notice
                continue

    def _monitor_deaths(self) -> None:
        """Poll worker exit codes; post ``worker_down`` for hard deaths.

        A clean exit ships an exit message through the router, which marks
        the record finished; the notify grace gives that message time to
        land so normal completions never produce obituaries.
        """
        notified: set = set()
        suspect_since: Dict[int, float] = {}
        while not self._closed:
            with self._lock:
                records = list(self._records.values())
            for record in records:
                pid = record.pid
                if pid in notified or record.finished:
                    suspect_since.pop(pid, None)
                    continue
                process = record.process
                if process is None or process.is_alive() or process.exitcode is None:
                    suspect_since.pop(pid, None)
                    continue
                now = time.monotonic()
                first_seen = suspect_since.setdefault(pid, now)
                if now - first_seen < self.death_notify_grace:
                    continue
                if record.finished:  # exit message landed during the grace
                    continue
                notified.add(pid)
                self._post_obituary(
                    record, f"process exited (exitcode {process.exitcode})"
                )
            time.sleep(0.05)

    # ------------------------------------------------------------------ #
    # join / results
    # ------------------------------------------------------------------ #
    def join(self, pid: int, timeout: Optional[float] = None) -> None:
        """Wait for a process to finish."""
        record = self._record(pid)
        if not self._wait_record(record, timeout):
            raise ProcessError(f"process {record.name!r} did not finish within {timeout} s")

    def _wait_record(self, record: _ProcessRecord, timeout: Optional[float]) -> bool:
        """Wait for one process to finish; return ``False`` on timeout."""
        process = record.process  # None for a kernel-thread process
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if deadline is None:
                wait_for = 0.05
            else:
                # honour a zero/exhausted budget: poll without blocking
                wait_for = min(0.05, max(0.0, deadline - time.monotonic()))
            if record.done.wait(wait_for):
                # Reap the OS process — unless it never started (spawn
                # failure), where join() would assert.
                if process is not None and (process.is_alive() or process.exitcode is not None):
                    process.join(timeout=5.0)
                return True
            if process is not None and not process.is_alive() and process.exitcode is not None:
                # Started and exited (exitcode None would mean the spawn is
                # still mid-flight): give the router time to drain a final
                # exit message — on a loaded machine it can lag well behind
                # the worker's death — then record the hard death.
                now = time.monotonic()
                if record.death_detected_at is None:
                    record.death_detected_at = now
                elif now - record.death_detected_at >= self.death_report_grace:
                    self._finish_hard_death(record)
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False

    def join_all(self, timeout: Optional[float] = None) -> None:
        """Wait for every spawned process — including ones spawned meanwhile.

        Workers spawn other workers (master → TSWs → CLWs, all after
        ``join_all`` was entered), so a snapshot of the record table would
        miss some; the loop re-scans until a pass finds no unfinished
        record.  ``timeout`` is one overall deadline for the whole
        operation, not a per-worker allowance.  If a worker has *failed* and
        the others do not wind down within :attr:`failure_grace` seconds, the
        join aborts with that worker's error instead of waiting out the
        deadline.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        failed: Optional[_ProcessRecord] = None
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
                raise ProcessError(
                    f"join_all deadline of {timeout} s elapsed with "
                    f"{_running(unfinished)}"
                )
            if failure_deadline is not None and now >= failure_deadline:
                assert failed is not None
                raise ProcessError(
                    f"process {failed.name!r} failed with "
                    f"{_running(unfinished)}; aborting the join"
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

    # ------------------------------------------------------------------ #
    def _route(self) -> None:
        """Drain worker requests: deliver sends, perform spawns, record exits."""
        while True:
            try:
                item = self._router_queue.get(timeout=1.0)
            except queue_module.Empty:
                if self._closed:
                    return
                continue
            except (EOFError, OSError):
                return
            except Exception:  # noqa: BLE001 - e.g. a request that fails to *un*pickle
                if self._closed:
                    return
                continue
            if item is None:
                return
            try:
                self._dispatch(item)
            except Exception:  # noqa: BLE001 - one dead worker must not stop routing
                # e.g. BrokenPipeError replying to a requester that was
                # killed: drop the request, keep serving the other workers.
                continue

    def _dispatch(self, item: Tuple[Any, ...]) -> None:
        kind = item[0]
        if kind == "send":
            _, dst, blob = item
            self._deliver(dst, blob)  # forwarded still pickled
        elif kind == "spawn":
            _, requester_pid, call, machine_index, name = item
            requester = self._record(requester_pid)
            assert requester.control is not None
            try:
                child = self._spawn_call(
                    call, machine_index=machine_index, name=name, parent=requester_pid
                )
                requester.control.send(("spawned", child))
            except Exception as error:  # noqa: BLE001 - reported to the requester
                requester.control.send(("spawn-error", repr(error)))
        elif kind == "exit":
            _, pid, outcome = item
            record = self._record(pid)
            if record.finished and record.death_detected_at is None:
                # Already marked by something other than hard-death detection
                # (e.g. a spawn failure): keep the first outcome.
                return
            # A genuine exit message overrides a *synthesized*
            # died-without-reporting error — the router was merely slow to
            # drain it, and the worker's real result is strictly better.
            self._finish(record, *pickle.loads(outcome))

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop the router thread, reap every worker process, unlink the
        shared blocks.  A kernel-thread process still running on a
        ``multiprocessing`` inbox loses it and ends with an error; on a
        thread kernel's inbox it keeps running (a thread cannot be stopped)."""
        if self._closed:
            return
        with self._lock:
            self._closed = True
        with self._start_lock:
            router = self._router_thread
        if router is not None:
            self._router_queue.put(None)
            router.join(timeout=10.0)
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
            self._monitor_thread = None
        with self._lock:
            records = list(self._records.values())
        for record in records:
            if record.process is not None and record.process.is_alive():
                record.process.terminate()
                record.process.join(timeout=5.0)
            if record.control is not None:
                record.control.close()
        for mp_queue in self._mp_queues:
            mp_queue.cancel_join_thread()
            mp_queue.close()
        for pack in self._shm_packs:
            pack.close()
            pack.unlink()
        self._shm_packs.clear()
        self._shm_refs.clear()

    def __enter__(self) -> "ProcessKernel":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()


class ThreadKernel(ProcessKernel):
    """The same kernel with every spawn local: each process runs on a thread
    of the kernel process and messages travel by reference, so every process
    holds the caller's objects.  The GIL serialises the process bodies: its
    wall clock is no multi-core speedup measurement."""

    def spawn(self, func: ProcessFunction, *args: Any, **kwargs: Any) -> int:
        """Start a process on a thread of the kernel process; return its pid."""
        return self.spawn_local(func, *args, **kwargs)

    def _new_inbox(self) -> Any:
        return queue_module.SimpleQueue()

    def _wire(self, message: Message) -> Any:
        return message
