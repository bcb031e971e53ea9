"""Deterministic discrete-event kernel for the simulated heterogeneous cluster.

The kernel plays the role PVM plays in the paper: it places processes on
machines, moves messages between them and — because machines have different
speeds and loads — decides *when* everything happens.  Unlike PVM it runs in
a single OS process and advances a virtual clock, which makes runs
deterministic and lets the experiments measure speedup without fighting the
GIL (see DESIGN.md for the substitution rationale).

Semantics
---------

* Every process has its own clock.  Computation (``Compute``) advances only
  that clock, by ``work_units * seconds_per_work_unit / machine.effective_rate``.
* Messages take ``latency + bytes/bandwidth`` of virtual time; a receive
  completes at ``max(receiver clock, message arrival time)``.
* All state changes are driven by a single global event queue processed in
  time order, so the simulation is causal and reproducible: with the same
  inputs the same schedule is produced every run.
* When the event queue drains while some process is still blocked in a
  receive, the kernel raises :class:`~repro.errors.SimulationError` — a
  deadlock in the master/TSW/CLW protocol is a bug, not something to ignore.

Failure injection
-----------------

A seeded :class:`~repro.pvm.faults.FaultPlan` turns the kernel into a
deterministic failure harness: scheduled node death (``KillWorker``, which
also takes down the victim's descendants and posts ``worker_down`` obituaries
to its parent and any registered death listener), slow-node throttling
(``ThrottleMachine``), and seeded message loss/reordering
(``MessageFaults``).  All faults are ordinary events on the one global queue,
so the same plan reproduces the same failure trajectory bit-for-bit.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ProcessError, SimulationError
from .cluster import ClusterSpec
from .faults import (
    WORKER_ADMIT_TAG,
    WORKER_DOWN_TAG,
    WORKER_DRAIN_TAG,
    AdmitWorkers,
    FaultPlan,
    KillWorker,
    ThrottleMachine,
    WorkerDown,
)
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

__all__ = ["ProcessState", "ProcessInfo", "SimStats", "SimKernel"]


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    READY = "ready"
    BLOCKED = "blocked"
    FINISHED = "finished"
    FAILED = "failed"
    KILLED = "killed"


@dataclass(slots=True)
class _ProcessRecord:
    pid: int
    name: str
    parent: Optional[int]
    machine_index: int
    generator: Any
    context: ProcessContext
    clock: float = 0.0
    state: ProcessState = ProcessState.READY
    mailbox: List[Message] = field(default_factory=list)
    pending_recv: Optional[Receive] = None
    recv_token: int = 0
    result: Any = None
    error: Optional[BaseException] = None
    busy_seconds: float = 0.0
    work_units: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    finished_at: Optional[float] = None


@dataclass(frozen=True, slots=True)
class ProcessInfo:
    """Read-only view of a process exposed to callers of the kernel."""

    pid: int
    name: str
    parent: Optional[int]
    machine_index: int
    machine_name: str
    state: ProcessState
    clock: float
    busy_seconds: float
    work_units: float
    messages_sent: int
    bytes_sent: int
    result: Any
    finished_at: Optional[float]


@dataclass(frozen=True, slots=True)
class SimStats:
    """Aggregate statistics of one simulation run."""

    virtual_makespan: float
    total_events: int
    total_messages: int
    total_bytes: int
    total_work_units: float
    per_machine_busy: Tuple[float, ...]
    num_processes: int


#: Events one :meth:`SimKernel.run` may process before it calls the run a
#: livelock of the process protocol.
MAX_EVENTS = 20_000_000

# event kinds, ordered deterministically by (time, sequence number)
_RESUME = "resume"
_DELIVER = "deliver"
_TIMEOUT = "timeout"
_FAULT = "fault"

#: States in which a process no longer runs or receives messages.
_DEAD_STATES = (ProcessState.FINISHED, ProcessState.FAILED, ProcessState.KILLED)


class SimKernel:
    """Discrete-event scheduler for processes on a :class:`ClusterSpec`."""

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self._cluster = cluster
        self._events: List[Tuple[float, int, str, Any]] = []
        self._seq = itertools.count()
        self._procs: Dict[int, _ProcessRecord] = {}
        self._next_pid = itertools.count(1)
        self._next_machine = 0
        self._events_processed = 0
        self._now = 0.0
        self._fault_plan = fault_plan
        self._machine_scale: Dict[int, float] = {}
        self._death_listener: Optional[int] = None
        self._fault_rng: Optional[random.Random] = None
        if fault_plan is not None:
            if fault_plan.message_faults is not None:
                self._fault_rng = random.Random(fault_plan.seed)
            for kill in fault_plan.kills:
                self._schedule(kill.at, _FAULT, ("kill", kill))
            for throttle in fault_plan.throttles:
                self._schedule(throttle.at, _FAULT, ("throttle_on", throttle))
                if throttle.until is not None:
                    self._schedule(throttle.until, _FAULT, ("throttle_off", throttle))
            for spawn in fault_plan.spawns:
                self._schedule(spawn.at, _FAULT, ("admit", spawn))
            for drain in fault_plan.drains:
                self._schedule(drain.at, _FAULT, ("drain", drain))

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def cluster(self) -> ClusterSpec:
        """The cluster this kernel simulates."""
        return self._cluster

    @property
    def now(self) -> float:
        """Time of the last processed event (the global virtual clock)."""
        return self._now

    def spawn(
        self,
        func: ProcessFunction,
        *args: Any,
        machine_index: Optional[int] = None,
        name: str = "",
        parent: Optional[int] = None,
        **kwargs: Any,
    ) -> int:
        """Create a process from outside the simulation; it starts at :attr:`now`."""
        return self._create_process(
            func, args, kwargs, machine_index=machine_index, name=name, parent=parent,
            start_time=self._now,
        )

    #: The simulator has one vehicle, so a local spawn is an ordinary one;
    #: the name matches the real kernels' driver surface.
    spawn_local = spawn

    def post(self, dst: int, tag: str, payload: Any = None) -> None:
        """Send a message from outside any process (``src=0``).

        It arrives one message latency after :attr:`now`; a message to a
        finished process is dropped on delivery, like any send.
        """
        self._record(dst)
        arrival = self._now + self._cluster.message_latency
        self._schedule(
            arrival,
            _DELIVER,
            Message(
                src=0,
                dst=dst,
                tag=tag,
                payload=payload,
                size_bytes=estimate_payload_bytes(payload),
                send_time=self._now,
                arrival_time=arrival,
            ),
        )

    def run(self, *, allow_blocked: bool = False) -> SimStats:
        """Process events until none is left.

        ``allow_blocked=True`` suppresses the deadlock check: processes left
        blocked in a receive when the event queue drains are treated as
        *idle*, not deadlocked.  A persistent worker pool uses this — its
        workers park in a blocking receive between runs, and a later
        :meth:`spawn` + :meth:`run` wakes them with new messages.

        Raises
        ------
        SimulationError
            If a deadlock is detected (event queue empty while processes are
            blocked, and ``allow_blocked`` is not set) or the event budget is
            exhausted.
        ProcessError
            If a process body raised; the original exception is chained.
        """
        while self._events:
            time, _, kind, data = heapq.heappop(self._events)
            self._events_processed += 1
            if self._events_processed > MAX_EVENTS:
                raise SimulationError(
                    f"event budget exhausted ({MAX_EVENTS} events); "
                    "suspected livelock in the process protocol"
                )
            if kind == _TIMEOUT:
                # a stale timeout (its receive already completed) is counted
                # but does not move the clock
                pid, token = data
                if self._handle_timeout(pid, token, time):
                    self._now = max(self._now, time)
                continue
            self._now = max(self._now, time)
            if kind == _RESUME:
                pid, value = data
                self._step(pid, value, time)
            elif kind == _DELIVER:
                self._deliver(data, time)
            elif kind == _FAULT:
                self._apply_fault(data, time)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")

        blocked = [rec for rec in self._procs.values() if rec.state is ProcessState.BLOCKED]
        if blocked and not allow_blocked:
            names = ", ".join(f"{rec.name or rec.pid}" for rec in blocked)
            raise SimulationError(
                f"deadlock: no more events but {len(blocked)} process(es) still blocked: {names}"
            )
        return self.stats()

    # -- the driver surface the real kernels share --------------------- #
    def join(self, pid: int, timeout: Optional[float] = None) -> None:
        """Run until no event is left; parked processes are idle.

        ``timeout`` (wall-clock on the real kernels) does not apply to a
        run that ends when its event queue does.
        """
        self._record(pid)
        self.run(allow_blocked=True)

    def join_all(self, timeout: Optional[float] = None) -> None:
        """Run until no event is left; a blocked process is a deadlock."""
        self.run()

    def worker_dead(self, pid: int) -> bool:
        """Whether the process finished, failed or was killed."""
        return self._record(pid).state in _DEAD_STATES

    def shutdown(self) -> None:
        """Nothing to release: the simulator owns no thread or process."""

    def child_pids(self, pid: int) -> List[int]:
        """Pids of the direct children of ``pid`` in the spawn tree."""
        return [rec.pid for rec in self._procs.values() if rec.parent == pid]

    def process_info(self, pid: int) -> ProcessInfo:
        """Read-only view of one process."""
        rec = self._record(pid)
        return ProcessInfo(
            pid=rec.pid,
            name=rec.name,
            parent=rec.parent,
            machine_index=rec.machine_index,
            machine_name=self._cluster.machine(rec.machine_index).name,
            state=rec.state,
            clock=rec.clock,
            busy_seconds=rec.busy_seconds,
            work_units=rec.work_units,
            messages_sent=rec.messages_sent,
            bytes_sent=rec.bytes_sent,
            result=rec.result,
            finished_at=rec.finished_at,
        )

    def result_of(self, pid: int) -> Any:
        """Return value of a finished process."""
        rec = self._record(pid)
        if rec.state is ProcessState.FAILED:
            raise ProcessError(f"process {rec.name or pid} failed") from rec.error
        if rec.state is ProcessState.KILLED:
            raise ProcessError(f"process {rec.name or pid} was killed") from rec.error
        if rec.state is not ProcessState.FINISHED:
            raise ProcessError(f"process {rec.name or pid} has not finished (state={rec.state})")
        return rec.result

    def notify_deaths_to(self, pid: Optional[int]) -> None:
        """Register (or clear) the pid that receives ``worker_down`` notices.

        Obituaries always go to a killed process's parent; a death listener
        additionally hears about *every* kill — a pool master is not the
        parent of the persistent worker loops it drives, but still needs to
        know when one dies mid-run.
        """
        self._death_listener = pid

    def all_processes(self) -> List[ProcessInfo]:
        """Information about every process ever created."""
        return [self.process_info(pid) for pid in sorted(self._procs)]

    def stats(self) -> SimStats:
        """Aggregate statistics of the run so far."""
        per_machine = [0.0] * self._cluster.num_machines
        total_msgs = 0
        total_bytes = 0
        total_work = 0.0
        makespan = 0.0
        for rec in self._procs.values():
            per_machine[rec.machine_index % self._cluster.num_machines] += rec.busy_seconds
            total_msgs += rec.messages_sent
            total_bytes += rec.bytes_sent
            total_work += rec.work_units
            makespan = max(makespan, rec.clock)
        return SimStats(
            virtual_makespan=makespan,
            total_events=self._events_processed,
            total_messages=total_msgs,
            total_bytes=total_bytes,
            total_work_units=total_work,
            per_machine_busy=tuple(per_machine),
            num_processes=len(self._procs),
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _record(self, pid: int) -> _ProcessRecord:
        try:
            return self._procs[pid]
        except KeyError:
            raise ProcessError(f"unknown process id {pid}") from None

    def _schedule(self, time: float, kind: str, data: Any) -> None:
        heapq.heappush(self._events, (time, next(self._seq), kind, data))

    def _assign_machine(self, requested: Optional[int]) -> int:
        if requested is not None:
            if requested < 0:
                raise ProcessError(f"machine_index must be non-negative, got {requested}")
            return requested % self._cluster.num_machines
        index = self._next_machine
        self._next_machine = (self._next_machine + 1) % self._cluster.num_machines
        return index

    def _create_process(
        self,
        func: ProcessFunction,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        *,
        machine_index: Optional[int],
        name: str,
        parent: Optional[int],
        start_time: float,
    ) -> int:
        pid = next(self._next_pid)
        machine_idx = self._assign_machine(machine_index)
        context = ProcessContext(
            pid=pid,
            parent=parent,
            name=name or f"proc{pid}",
            machine_index=machine_idx,
            machine=self._cluster.machine(machine_idx),
        )
        generator = func(context, *args, **kwargs)
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"process function {getattr(func, '__name__', func)!r} must be a generator "
                "function (its body must use `yield`)"
            )
        rec = _ProcessRecord(
            pid=pid,
            name=context.name,
            parent=parent,
            machine_index=machine_idx,
            generator=generator,
            context=context,
            clock=start_time,
        )
        self._procs[pid] = rec
        self._schedule(start_time, _RESUME, (pid, None))
        return pid

    def _finish(self, rec: _ProcessRecord, result: Any) -> None:
        rec.state = ProcessState.FINISHED
        rec.result = result
        rec.finished_at = rec.clock

    def _fail(self, rec: _ProcessRecord, error: BaseException) -> None:
        rec.state = ProcessState.FAILED
        rec.error = error
        rec.finished_at = rec.clock
        raise ProcessError(
            f"process {rec.name!r} (pid {rec.pid}) raised {type(error).__name__}: {error}"
        ) from error

    def _step(self, pid: int, send_value: Any, at_time: float) -> None:
        """Resume a process and interpret its syscalls until it blocks/ends."""
        rec = self._record(pid)
        if rec.state in _DEAD_STATES:
            return
        rec.state = ProcessState.READY
        rec.clock = max(rec.clock, at_time)
        value = send_value
        while True:
            try:
                syscall = rec.generator.send(value)
            except StopIteration as stop:
                self._finish(rec, stop.value)
                return
            except Exception as error:  # noqa: BLE001 - surfaced as ProcessError
                self._fail(rec, error)
                return
            if not isinstance(syscall, Syscall):
                self._fail(
                    rec,
                    ProcessError(
                        f"process {rec.name!r} yielded {type(syscall).__name__}, expected a Syscall"
                    ),
                )
                return

            if isinstance(syscall, Compute):
                seconds = self._cluster.compute_seconds(rec.machine_index, syscall.work_units)
                scale = self._machine_scale.get(rec.machine_index % self._cluster.num_machines)
                if scale is not None:
                    seconds /= scale
                rec.busy_seconds += seconds
                rec.work_units += syscall.work_units
                rec.clock += seconds
                self._schedule(rec.clock, _RESUME, (pid, None))
                return
            if isinstance(syscall, Sleep):
                rec.clock += syscall.seconds
                self._schedule(rec.clock, _RESUME, (pid, None))
                return
            if isinstance(syscall, GetTime):
                value = rec.clock
                continue
            if isinstance(syscall, Send):
                value = self._do_send(rec, syscall)
                continue
            if isinstance(syscall, Spawn):
                value = self._create_process(
                    syscall.func,
                    syscall.args,
                    syscall.kwargs,
                    machine_index=syscall.machine_index,
                    name=syscall.name,
                    parent=rec.pid,
                    start_time=rec.clock + self._cluster.spawn_overhead,
                )
                continue
            if isinstance(syscall, Receive):
                outcome = self._do_receive(rec, syscall)
                if outcome is _BLOCKED:
                    return
                value = outcome
                continue
            # unreachable for known syscalls
            self._fail(rec, ProcessError(f"unsupported syscall {syscall!r}"))  # pragma: no cover
            return

    # -- send / receive -------------------------------------------------- #
    def _do_send(self, rec: _ProcessRecord, syscall: Send) -> None:
        dst = self._record(syscall.dst)
        if dst.state in _DEAD_STATES:
            # Late messages to finished processes are dropped, mirroring PVM's
            # behaviour of messages to exited tasks.
            return None
        size = estimate_payload_bytes(syscall.payload)
        arrival = rec.clock + self._cluster.transfer_seconds(size)
        faults = self._fault_plan.message_faults if self._fault_plan else None
        if faults is not None and faults.active_at(rec.clock) and syscall.tag not in faults.protect_tags:
            # draws happen in send order, which the single-threaded kernel
            # replays identically: loss/jitter patterns are seed-reproducible
            if faults.loss_probability > 0 and self._fault_rng.random() < faults.loss_probability:
                rec.messages_sent += 1
                rec.bytes_sent += size
                return None
            if faults.delay_jitter > 0:
                arrival += self._fault_rng.random() * faults.delay_jitter
        message = Message(
            src=rec.pid,
            dst=syscall.dst,
            tag=syscall.tag,
            payload=syscall.payload,
            size_bytes=size,
            send_time=rec.clock,
            arrival_time=arrival,
        )
        rec.messages_sent += 1
        rec.bytes_sent += size
        self._schedule(arrival, _DELIVER, message)
        return None

    def _match_mailbox(self, rec: _ProcessRecord, recv: Receive) -> Optional[Message]:
        best_index = -1
        best_arrival = float("inf")
        for index, message in enumerate(rec.mailbox):
            if message.matches(tag=recv.tag, src=recv.src) and message.arrival_time < best_arrival:
                best_index = index
                best_arrival = message.arrival_time
        if best_index < 0:
            return None
        return rec.mailbox.pop(best_index)

    def _do_receive(self, rec: _ProcessRecord, recv: Receive):
        message = self._match_mailbox(rec, recv)
        if message is not None:
            rec.clock = max(rec.clock, message.arrival_time)
            return message
        if not recv.blocking:
            return None
        # block
        rec.state = ProcessState.BLOCKED
        rec.pending_recv = recv
        rec.recv_token += 1
        if recv.timeout is not None:
            self._schedule(rec.clock + recv.timeout, _TIMEOUT, (rec.pid, rec.recv_token))
        return _BLOCKED

    def _deliver(self, message: Message, at_time: float) -> None:
        try:
            dst = self._record(message.dst)
        except ProcessError:
            return  # receiver vanished; drop
        if dst.state in _DEAD_STATES:
            return
        dst.mailbox.append(message)
        if dst.state is ProcessState.BLOCKED and dst.pending_recv is not None:
            if message.matches(tag=dst.pending_recv.tag, src=dst.pending_recv.src):
                recv = dst.pending_recv
                dst.pending_recv = None
                dst.recv_token += 1  # invalidate any pending timeout
                dst.state = ProcessState.READY
                matched = self._match_mailbox(dst, recv)
                resume_at = max(dst.clock, matched.arrival_time if matched else at_time)
                self._schedule(resume_at, _RESUME, (dst.pid, matched))

    def _handle_timeout(self, pid: int, token: int, at_time: float) -> bool:
        """Wake a receive that timed out; False if the timeout is stale."""
        rec = self._record(pid)
        if rec.state is not ProcessState.BLOCKED or rec.recv_token != token:
            return False  # already woken by a message (or finished)
        rec.pending_recv = None
        rec.state = ProcessState.READY
        self._schedule(max(rec.clock, at_time), _RESUME, (pid, None))
        return True

    # -- fault injection -------------------------------------------------- #
    def _apply_fault(self, data: Tuple[str, Any], at_time: float) -> None:
        action, spec = data
        if action == "kill":
            self._apply_kill(spec, at_time)
        elif action == "throttle_on":
            machine = spec.machine % self._cluster.num_machines
            self._machine_scale[machine] = spec.factor
        elif action == "throttle_off":
            self._machine_scale.pop(spec.machine % self._cluster.num_machines, None)
        elif action == "admit":
            payload = AdmitWorkers(count=spec.count, machine=spec.machine)
            self._post_to_listener(WORKER_ADMIT_TAG, payload)
        elif action == "drain":
            self._post_to_listener(WORKER_DRAIN_TAG, spec)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown fault action {action!r}")

    def _apply_kill(self, spec: KillWorker, at_time: float) -> None:
        victims = [
            rec
            for rec in self._procs.values()
            if rec.state not in _DEAD_STATES
            and (spec.name is None or rec.name == spec.name)
            and (
                spec.machine is None
                or rec.machine_index == spec.machine % self._cluster.num_machines
            )
        ]
        killed: List[_ProcessRecord] = []
        for rec in victims:
            self._kill_record(rec, at_time, f"killed by fault plan at t={at_time:g}", killed)
            if spec.kill_children:
                for child in self._live_descendants(rec.pid):
                    self._kill_record(
                        child, at_time, f"parent {rec.name!r} killed at t={at_time:g}", killed
                    )
        dead_pids = {rec.pid for rec in killed}
        for rec in killed:
            self._post_obituary(rec, at_time, dead_pids)

    def _live_descendants(self, pid: int) -> List[_ProcessRecord]:
        out: List[_ProcessRecord] = []
        frontier = [pid]
        while frontier:
            parent = frontier.pop()
            for rec in self._procs.values():
                if rec.parent == parent and rec.state not in _DEAD_STATES:
                    out.append(rec)
                    frontier.append(rec.pid)
        return out

    def _kill_record(
        self,
        rec: _ProcessRecord,
        at_time: float,
        reason: str,
        killed: List[_ProcessRecord],
    ) -> None:
        if rec.state in _DEAD_STATES:
            return
        rec.state = ProcessState.KILLED
        rec.error = ProcessError(f"process {rec.name!r} (pid {rec.pid}) {reason}")
        rec.clock = max(rec.clock, at_time)
        rec.finished_at = rec.clock
        rec.mailbox.clear()
        rec.pending_recv = None
        rec.recv_token += 1  # invalidate any pending receive timeout
        killed.append(rec)

    def _post_to_listener(self, tag: str, payload: Any) -> None:
        """Deliver a fault-plan lifecycle request to the death listener.

        Admission and drain requests have no victim process to route from, so
        they only make sense with a registered listener (the fault-tolerant
        master); without one — or once it has exited — they are dropped.
        """
        target = self._death_listener
        if target is None or target not in self._procs:
            return
        if self._procs[target].state in _DEAD_STATES:
            return
        self.post(target, tag, payload)

    def _post_obituary(self, rec: _ProcessRecord, at_time: float, dead_pids: set) -> None:
        targets = []
        if rec.parent is not None:
            targets.append(rec.parent)
        if self._death_listener is not None and self._death_listener not in targets:
            targets.append(self._death_listener)
        payload = WorkerDown(pid=rec.pid, name=rec.name, reason="killed by fault plan")
        for target in targets:
            if target in dead_pids or target not in self._procs:
                continue
            if self._procs[target].state in _DEAD_STATES:
                continue
            size = estimate_payload_bytes(payload)
            arrival = at_time + self._cluster.message_latency
            self._schedule(
                arrival,
                _DELIVER,
                Message(
                    src=rec.pid,
                    dst=target,
                    tag=WORKER_DOWN_TAG,
                    payload=payload,
                    size_bytes=size,
                    send_time=at_time,
                    arrival_time=arrival,
                ),
            )


#: Sentinel returned by ``_do_receive`` when the caller must stop stepping.
_BLOCKED = object()
