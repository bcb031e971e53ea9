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
  kernel process instead, through the same syscall interpreter and join
  logic.  The session layer starts each run's master this way, so a run
  pays no interpreter boot, no ``import repro`` and no problem rebuild for
  it; the master uses the caller's objects as they are.
* :class:`ThreadKernel` starts every process this way.  Its inboxes hold
  :class:`Message` objects by reference: nothing is pickled, and every
  process holds the caller's objects (the problem included).  It never
  starts an OS process, so it creates no fork server, router thread or
  pipe: a kernel starts those at its first OS spawn.
* Everything that crosses a process boundary — spawn calls, messages, exit
  outcomes — is pickled once by :func:`repro.pvm.shm.dumps`, which writes
  every shared-memory-exported object (the problem) as its small
  :class:`~repro.pvm.shm.SharedObjectRef`, wherever it sits in the payload.
  The kernel exports each distinct object once, on first sight, and keeps
  the block until shutdown; each worker attaches it once.
* Messages go task to task, as with PVM's direct routing.  A worker OS
  process and each worker OS process it spawns share a *link*, one duplex
  socket pair: the parent makes it and hands the child's end to the kernel
  with its spawn request.  Every worker also holds a *control pipe* to the
  kernel, read by a router thread, for everything else: spawns, its exit
  outcome, kernel posts, the traffic with kernel-thread processes (which
  write to it directly and receive from an in-process queue) and any send
  between workers that share no link, which the router forwards.
* A worker receives by polling its control pipe and links at once, with
  the simulator's tag/src filtering: messages that do not match are
  buffered locally in arrival order.  Its writes keep reading while a
  socket is full, so two workers writing to each other never wait on each
  other; the router itself writes only small replies and notices.
* An exit outcome precedes the end of its control pipe, so a pipe that ends
  without one is a hard death: the router finishes the record and posts a
  ``worker_down`` notice to the parent and the death listener.  A
  kernel-thread process that ends with an error announces itself.
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
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import multiprocessing
from multiprocessing.connection import Connection, wait

from ..errors import ProcessError
from .cluster import ClusterSpec
from .faults import WORKER_DOWN_TAG, WorkerDown
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
#: Once any worker has finished with an error, how many seconds ``join_all``
#: keeps waiting for the rest before aborting — a dead worker usually means
#: the survivors are blocked on messages that will never arrive, and burning
#: the whole deadline (an hour by default in the runner) just delays the
#: real diagnosis.
FAILURE_GRACE = 10.0
#: Serialises fork-server starts: their ``PYTHONPATH`` edit is process-wide.
_FORK_SERVER_LOCK = threading.Lock()

#: :class:`~multiprocessing.connection.Connection`'s frame header, a signed
#: length, and the 8-byte length that follows a ``-1`` header past 2 GiB.
_HEADER = struct.Struct("!i")
_LONG_HEADER = struct.Struct("!Q")
#: Size of a worker socket's receive buffer: one ``recv_into`` fills at most
#: this much (a fresh ``recv`` buffer this large would cost an allocation,
#: with its page faults, per message).
_READ_BYTES = 1 << 18


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


def _stamped(src: int, dst: int, tag: str, payload: Any, now: float) -> Message:
    """A message sent (and, on a real kernel, arriving) at ``now``."""
    size = estimate_payload_bytes(payload)
    return Message(src, dst, tag, payload, size, send_time=now, arrival_time=now)


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
class _Mailbox:
    """Tag/source-filtered receive over one process's arrivals.

    Arrivals that do not match the current filter are buffered locally in
    arrival order and served to later receives, mirroring the mailbox
    semantics of the simulator.  A subclass's ``_pull(timeout)`` waits up to
    ``timeout`` seconds (``None``: no limit) for arrivals, then buffers
    every message that has arrived.
    """

    def __init__(self) -> None:
        self._buffer: List[Message] = []

    def _scan(self, tag: Optional[str], src: Optional[int]) -> Optional[Message]:
        for index, message in enumerate(self._buffer):
            if message.matches(tag=tag, src=src):
                return self._buffer.pop(index)
        return None

    def get(
        self, *, tag: Optional[str], src: Optional[int], blocking: bool, timeout: Optional[float]
    ) -> Optional[Message]:
        found = self._scan(tag, src)
        if found is not None:
            return found
        if not blocking:
            self._pull(0.0)
            return self._scan(tag, src)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait_for = None if deadline is None else deadline - time.monotonic()
            if wait_for is not None and wait_for <= 0:
                return None
            self._pull(wait_for)
            found = self._scan(tag, src)
            if found is not None:
                return found


def _frame(data: bytes) -> bytes:
    """``data`` framed as :meth:`Connection.send_bytes` frames it."""
    if len(data) > 0x7FFFFFFF:
        return _HEADER.pack(-1) + _LONG_HEADER.pack(len(data)) + data
    return _HEADER.pack(len(data)) + data


class _Wire:
    """A worker's end of one socket, non-blocking, carrying framed pickles."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.sock = sock
        self.fd = sock.fileno()
        self.ended = False
        self._pending = bytearray()
        self._chunk = memoryview(bytearray(_READ_BYTES))

    def frames(self) -> List[bytearray]:
        """Read what has arrived and return its complete frames; at the end
        of the stream (or a reset) set :attr:`ended`."""
        while True:
            try:
                count = self.sock.recv_into(self._chunk)
            except BlockingIOError:
                break
            except OSError:  # reset: the peer died with our bytes unread
                count = 0
            if not count:
                self.ended = True
                break
            self._pending += self._chunk[:count]
            if count < _READ_BYTES:
                break
        frames = []
        pending = self._pending
        while len(pending) >= _HEADER.size:
            (size,) = _HEADER.unpack_from(pending)
            start = _HEADER.size
            if size == -1:
                if len(pending) < start + _LONG_HEADER.size:
                    break
                (size,) = _LONG_HEADER.unpack_from(pending, start)
                start += _LONG_HEADER.size
            if len(pending) < start + size:
                break
            frames.append(pending[start : start + size])
            del pending[: start + size]
        return frames


class _WorkerPort(_Mailbox):
    """A worker OS process's transport: its control pipe to the kernel and
    its links to its parent and children, all read by one ``poll``."""

    def __init__(
        self, parent: Optional[int], control: Connection, link: Optional[Connection]
    ) -> None:
        super().__init__()
        self._poll = select.poll()
        self._wires: Dict[int, _Wire] = {}  # fd -> wire
        self._links: Dict[int, _Wire] = {}  # peer pid -> wire
        self._reply: Optional[Tuple[str, Any]] = None
        self._control = self._attach(control)
        if link is not None:
            self._links[parent] = self._attach(link)

    def _attach(self, end: Connection | socket.socket) -> _Wire:
        if isinstance(end, Connection):
            with end:
                end = socket.socket(fileno=os.dup(end.fileno()))
        wire = _Wire(end)
        self._wires[wire.fd] = wire
        self._poll.register(wire.fd, select.POLLIN)
        return wire

    def _hang_up(self, wire: _Wire) -> None:
        """Drop a wire whose peer is gone; a dead kernel ends the process."""
        if self._wires.get(wire.fd) is wire:
            del self._wires[wire.fd]
            self._poll.unregister(wire.fd)
            wire.sock.close()
            self._links = {pid: w for pid, w in self._links.items() if w is not wire}
        if wire is self._control:
            raise ProcessError("the kernel closed this worker's control pipe")

    def _pull(self, timeout: Optional[float], writing: Optional[_Wire] = None) -> None:
        """Wait for arrivals — or, with ``writing``, until that wire takes
        more bytes — and buffer every message that has arrived."""
        if writing is not None:
            self._poll.modify(writing.fd, select.POLLIN | select.POLLOUT)
        try:
            events = self._poll.poll(None if timeout is None else timeout * 1e3)
        finally:
            if writing is not None and self._wires.get(writing.fd) is writing:
                self._poll.modify(writing.fd, select.POLLIN)
        for fd, event in events:
            wire = self._wires.get(fd)
            if wire is None or event == select.POLLOUT:
                continue
            for frame in wire.frames():
                arrival = pickle.loads(frame)
                if isinstance(arrival, Message):
                    self._buffer.append(arrival)
                else:  # the kernel's reply to our spawn request
                    self._reply = arrival
            if wire.ended:
                self._hang_up(wire)

    def _until_sent(self, wire: _Wire, attempt: Callable[[], Any]) -> Any:
        """Retry ``attempt`` — a write to ``wire`` — reading arrivals while
        the socket is full."""
        while True:
            try:
                return attempt()
            except BlockingIOError:
                self._pull(None, writing=wire)

    def _write(self, wire: _Wire, data: bytes) -> None:
        """Write one frame."""
        view = memoryview(_frame(data))
        while view:
            view = view[self._until_sent(wire, lambda: wire.sock.send(view)) :]

    def send(self, message: Message) -> None:
        blob = dumps(message)
        wire = self._links.get(message.dst)
        if wire is None:
            self._write(self._control, pickle.dumps(("send", message.dst, blob), -1))
            return
        try:
            self._write(wire, blob)
        except OSError:  # the peer is gone: the message is dropped
            self._hang_up(wire)

    def spawn(self, syscall: Spawn) -> int:
        _check_generator_function(syscall.func)
        call = dumps((syscall.func, syscall.args, syscall.kwargs))
        mine, theirs = socket.socketpair()
        try:
            with theirs:
                request = ("spawn", call, syscall.machine_index, syscall.name)
                self._write(self._control, pickle.dumps(request, -1))
                # the child's end of the link follows the request
                send_end = lambda: socket.send_fds(  # noqa: E731
                    self._control.sock, [b"\0"], [theirs.fileno()]
                )
                self._until_sent(self._control, send_end)
                while self._reply is None:
                    self._pull(None)
        except BaseException:
            mine.close()
            raise
        (kind, payload), self._reply = self._reply, None
        if kind != "spawned":
            mine.close()
            raise ProcessError(f"spawn failed in kernel process: {payload}")
        self._links[payload] = self._attach(mine)
        return payload

    def exit(self, result: Any, error: Optional[BaseException]) -> None:
        try:
            self._write(self._control, pickle.dumps(("exit", _outcome(result, error)), -1))
        except (OSError, ProcessError):  # the kernel is gone
            pass
        close_attachments()


class _KernelPort(_Mailbox):
    """Transport of a process on a thread of the kernel process: an
    in-process inbox, and direct calls into the kernel."""

    def __init__(self, kernel: "ProcessKernel", record: "_ProcessRecord") -> None:
        super().__init__()
        self._kernel = kernel
        self._record = record

    def _pull(self, timeout: Optional[float]) -> None:
        inbox = self._record.inbox
        try:
            item = inbox.get(timeout=timeout)
            while True:
                self._buffer.append(pickle.loads(item) if isinstance(item, bytes) else item)
                item = inbox.get_nowait()
        except queue_module.Empty:
            return

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
            # announce its own death; the router announces a worker OS
            # process that dies without reporting.
            self._kernel._post_obituary(self._record, f"{type(error).__name__}: {error}")


class _WorkerRuntime:
    """Syscall interpreter of one process body, on a worker OS process or a
    thread of the kernel process; ``port`` carries its traffic."""

    def __init__(
        self, context: ProcessContext, epoch: float, port: _WorkerPort | _KernelPort
    ) -> None:
        self._context = context
        self._epoch = epoch
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
            self._port.send(
                _stamped(self._context.pid, syscall.dst, syscall.tag, syscall.payload, self._now)
            )
            return None
        if isinstance(syscall, Receive):
            return self._port.get(
                tag=syscall.tag,
                src=syscall.src,
                blocking=syscall.blocking,
                timeout=syscall.timeout,
            )
        if isinstance(syscall, Spawn):
            return self._port.spawn(syscall)
        raise ProcessError(f"unsupported syscall {syscall!r}")


def _worker_main(
    context: ProcessContext,
    epoch: float,
    call: bytes,
    environ: Dict[str, str],
    control: Connection,
    link: Optional[Connection],
) -> None:
    """Entry point of every worker OS process: run the :func:`dumps`-pickled
    ``call`` under the driver's ``environ`` at spawn (a forked worker would
    otherwise see the fork server's)."""
    os.environ.clear()
    os.environ.update(environ)
    port = _WorkerPort(context.parent, control, link)
    _WorkerRuntime(context, epoch, port).run(lambda: pickle.loads(call))


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
    #: A kernel-thread process's inbox.
    inbox: Optional[queue_module.SimpleQueue] = None
    #: The kernel's end of a worker's control pipe; written under ``lock``.
    control: Optional[Connection] = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    done: threading.Event = field(default_factory=threading.Event)


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

    def __init__(self, cluster: ClusterSpec) -> None:
        self._cluster = cluster
        self._records: Dict[int, _ProcessRecord] = {}
        self._next_pid = itertools.count(1)
        self._next_machine = 0
        self._lock = threading.Lock()
        self._death_listener: Optional[int] = None
        self._epoch = time.time()
        self._closed = False
        # The OS runtime — worker start context, the router thread and the
        # pipe that wakes it, the forwarding thread and its queue of sends
        # between workers that share no link — started on first use.
        self._start_lock = threading.Lock()
        self._mp: Optional[multiprocessing.context.BaseContext] = None
        self._threads: List[threading.Thread] = []
        self._wake_fds: Tuple[int, int] = (-1, -1)
        self._forwards: queue_module.SimpleQueue = queue_module.SimpleQueue()
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

        The first call starts the fork server, the router thread and the
        forwarding thread, so a kernel that never needs them creates none.
        """
        with self._start_lock:
            if self._mp is None:
                if self._closed:
                    raise ProcessError("kernel has been shut down")
                context = _worker_context()
                self._wake_fds = os.pipe()
                for target, name in ((self._route, "pvm-router"), (self._forward, "pvm-forward")):
                    self._threads.append(threading.Thread(target=target, name=name, daemon=True))
                    self._threads[-1].start()
                self._mp = context
            return self._mp

    def _wake_router(self) -> None:
        """Make the router re-read the record table (or see the shutdown)."""
        try:
            os.write(self._wake_fds[1], b"\0")
        except OSError:  # shut down meanwhile
            pass

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
        no shared-memory attach — and pays no interpreter start.  It receives
        from an in-process inbox, and its own sends and spawns skip the
        router.
        """
        _check_generator_function(func)
        record = self._new_record(machine_index, name, parent)
        record.inbox = queue_module.SimpleQueue()
        runtime = _WorkerRuntime(self._context(record), self._epoch, _KernelPort(self, record))
        thread = threading.Thread(
            target=runtime.run, args=(lambda: (func, args, kwargs),), name=record.name, daemon=True
        )
        self._register_and_start(record, thread.start)
        return record.pid

    def _spawn_call(
        self,
        call: bytes,
        *,
        machine_index: Optional[int],
        name: str,
        parent: Optional[int],
        link: Optional[Connection] = None,
    ) -> int:
        """Start an OS process running a :func:`dumps`-pickled call; ``link``
        is its end of the link to its parent worker."""
        record = self._new_record(machine_index, name, parent)
        mp = self._os_context()
        record.control, worker_end = mp.Pipe()
        record.process = mp.Process(
            target=_worker_main,
            args=(self._context(record), self._epoch, call, dict(os.environ), worker_end, link),
            name=record.name,
            daemon=True,
        )
        try:
            self._register_and_start(record, record.process.start)
        finally:
            worker_end.close()  # the worker holds its own copy now
            self._wake_router()
        return record.pid

    def _new_record(
        self, machine_index: Optional[int], name: str, parent: Optional[int]
    ) -> _ProcessRecord:
        """A record with a fresh pid and a placement, not yet registered."""
        if self._closed:
            raise ProcessError("kernel has been shut down")
        with self._lock:
            pid = next(self._next_pid)
            if machine_index is None:
                machine_index = self._next_machine
                self._next_machine = (self._next_machine + 1) % self._cluster.num_machines
            machine_index %= self._cluster.num_machines
        return _ProcessRecord(
            pid=pid, name=name or f"proc{pid}", parent=parent, machine_index=machine_index
        )

    def _context(self, record: _ProcessRecord) -> ProcessContext:
        return ProcessContext(
            pid=record.pid,
            parent=record.parent,
            name=record.name,
            machine_index=record.machine_index,
            machine=self._cluster.machine(record.machine_index),
        )

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

    # ------------------------------------------------------------------ #
    def post(self, dst: int, tag: str, payload: Any = None) -> None:
        """Inject a message into a process's mailbox from outside any process.

        The driver-side control channel of the session layer: a cancel
        request reaches a running master exactly like a peer's send would
        (``src=0`` — no real process ever holds pid 0).  Messages to a
        finished process are dropped, mirroring send semantics.
        """
        self._record(dst)
        self._deliver(dst, self._wire(_stamped(0, dst, tag, payload, self.now)))

    def _deliver(self, dst: int, item: Any) -> None:
        """Hand a message (as :meth:`_wire` made it) to ``dst``: into a
        kernel-thread inbox, or down a worker's control pipe.  Messages to
        unknown, finished or dead processes are dropped."""
        record = self._records.get(dst)
        if record is None or record.finished:
            return
        if record.control is None:
            record.inbox.put(item)
            return
        with record.lock:
            try:
                record.control.send_bytes(item)
            except OSError:  # the worker is gone
                pass

    def _wire(self, message: Message) -> Any:
        """What crosses to another process of ``message``: its :func:`dumps` pickle."""
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
        """Whether the process finished, failed or died: pool repair uses it
        to find persistent loops that need respawning."""
        return self._record(pid).finished

    def terminate_worker(self, pid: int) -> bool:
        """Hard-kill one worker OS process (failure injection for tests).

        Returns whether a live process was actually signalled; a
        kernel-thread process cannot be killed.  The router then observes
        the death exactly as it would a real crash.
        """
        process = self._record(pid).process
        if process is None or not process.is_alive():
            return False
        process.terminate()
        return True

    def child_pids(self, pid: int) -> list:
        """Pids of the direct children of ``pid`` in the spawn tree.

        Pool repair uses this to find the orphaned CLW loops of a dead
        persistent TSW loop (their parent edge survives the parent's death).
        """
        with self._lock:
            return [r.pid for r in self._records.values() if r.parent == pid]

    def notify_deaths_to(self, pid: Optional[int]) -> None:
        """Register (or clear) the pid that receives ``worker_down`` notices."""
        with self._lock:
            self._death_listener = pid

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

    # ------------------------------------------------------------------ #
    # join / results
    # ------------------------------------------------------------------ #
    def join(self, pid: int, timeout: Optional[float] = None) -> None:
        """Wait for a process to finish."""
        record = self._record(pid)
        if not self._wait_record(record, timeout):
            raise ProcessError(f"process {record.name!r} did not finish within {timeout} s")

    def _wait_record(self, record: _ProcessRecord, timeout: Optional[float]) -> bool:
        """Wait for one process to finish and reap its OS process; return
        ``False`` on timeout."""
        if not record.done.wait(timeout):
            return False
        process = record.process
        # Reap the OS process — unless it never started (spawn failure),
        # where join() would assert.
        if process is not None and (process.is_alive() or process.exitcode is not None):
            process.join(timeout=5.0)
        return True

    def join_all(self, timeout: Optional[float] = None) -> None:
        """Wait for every spawned process — including ones spawned meanwhile.

        Workers spawn other workers (master → TSWs → CLWs, all after
        ``join_all`` was entered), so a snapshot of the record table would
        miss some; the loop re-scans until a pass finds no unfinished
        record.  ``timeout`` is one overall deadline for the whole
        operation, not a per-worker allowance.  If a worker has *failed* and
        the others do not wind down within :data:`FAILURE_GRACE` seconds, the
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
                    failure_deadline = time.monotonic() + FAILURE_GRACE
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
            # Wait in short slices so a worker that fails meanwhile is
            # noticed promptly even while blocked on a long-running one.
            slice_end = now + 0.5
            for candidate in (deadline, failure_deadline):
                if candidate is not None:
                    slice_end = min(slice_end, candidate)
            self._wait_record(unfinished[0], max(0.0, slice_end - now))

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
        """Serve the workers' control pipes until shutdown."""
        wake = self._wake_fds[0]
        while not self._closed:
            with self._lock:
                owners = {
                    r.control: r
                    for r in self._records.values()
                    if r.control is not None and not r.control.closed
                }
            try:
                ready = wait([wake, *owners])
            except OSError:  # a pipe closed by shutdown
                continue
            for conn in ready:
                if conn == wake:
                    os.read(wake, 4096)
                    continue
                record = owners[conn]
                try:
                    request = pickle.loads(conn.recv_bytes())
                except (EOFError, OSError):
                    self._hang_up(record)
                    continue
                try:
                    self._dispatch(record, conn, request)
                except Exception:  # noqa: BLE001 - one worker must not stop routing
                    continue

    def _dispatch(self, record: _ProcessRecord, conn: Connection, request: Tuple) -> None:
        """Serve one request from ``record``'s worker: deliver or forward a
        send, perform a spawn, record the exit outcome."""
        kind = request[0]
        if kind == "send":
            _, dst, blob = request
            target = self._records.get(dst)
            if target is not None and target.control is not None:
                self._forwards.put((dst, blob))
            else:
                self._deliver(dst, blob)
        elif kind == "spawn":
            _, call, machine_index, name = request
            with socket.socket(fileno=os.dup(conn.fileno())) as sock:
                _, (fd,), _, _ = socket.recv_fds(sock, 1, 1)
            with Connection(fd) as link:  # the child's end of its link to us
                try:
                    child = self._spawn_call(
                        call, machine_index=machine_index, name=name, parent=record.pid, link=link
                    )
                    reply: Tuple[str, Any] = ("spawned", child)
                except Exception as error:  # noqa: BLE001 - reported to the requester
                    reply = ("spawn-error", repr(error))
            with record.lock:  # the requester reads while it waits for this
                record.control.send_bytes(pickle.dumps(reply, -1))
        elif kind == "exit" and not record.finished:
            self._finish(record, *pickle.loads(request[1]))

    def _forward(self) -> None:
        """Write the sends between workers that share no link.

        A write to a worker waits while the worker's socket is full, and the
        router must never wait on one, so this thread of its own writes them.
        """
        for dst, blob in iter(self._forwards.get, None):
            self._deliver(dst, blob)

    def _hang_up(self, record: _ProcessRecord) -> None:
        """A worker's control pipe ended: close it; without an exit outcome
        before it, the worker died hard — finish it and announce it."""
        with record.lock:
            record.control.close()
        if record.finished:
            return
        record.process.join(timeout=1.0)
        code = record.process.exitcode
        error = ProcessError(f"process {record.name!r} died without reporting (exitcode {code})")
        self._finish(record, None, error)
        self._post_obituary(record, f"process exited (exitcode {code})")

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop the router thread, reap every worker process, unlink the
        shared blocks.  A kernel-thread process still running keeps running
        (a thread cannot be stopped); its sends to workers are dropped."""
        if self._closed:
            return
        with self._lock:
            self._closed = True
        with self._start_lock:
            threads = self._threads
        if threads:
            self._wake_router()
            threads[0].join(timeout=10.0)
        with self._lock:
            records = list(self._records.values())
        for record in records:
            if record.process is not None and record.process.is_alive():
                record.process.terminate()
                record.process.join(timeout=5.0)
        self._forwards.put(None)
        for thread in threads:
            thread.join(timeout=10.0)
        for record in records:
            if record.control is not None:
                with record.lock:
                    record.control.close()
        if threads:
            for fd in self._wake_fds:
                os.close(fd)
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

    def _wire(self, message: Message) -> Any:
        return message
