"""Process-side API of the simulated PVM: syscalls and the process context.

Simulated processes are written as Python *generator functions*::

    def worker(ctx: ProcessContext, param):
        yield ctx.compute(120.0)                    # burn 120 work units
        yield ctx.send(ctx.parent, "result", 42)    # asynchronous send
        msg = yield ctx.recv(tag="new_best")        # blocking receive
        return msg.payload                          # process exit value

Every interaction with the outside world is expressed by *yielding a syscall
object* built by the :class:`ProcessContext`; the kernel interprets the
syscall and resumes the generator with the result.  This mirrors how a PVM
program calls ``pvm_send`` / ``pvm_recv``, but lets a deterministic
discrete-event kernel (or the real kernel, on OS processes or threads)
supply the semantics.

The context also exposes the process id, the parent id and the machine the
process landed on — the pieces of ``pvm_mytid`` / ``pvm_parent`` the paper's
processes need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import ProcessError
from .machine import MachineSpec

__all__ = [
    "Syscall",
    "Compute",
    "Send",
    "Receive",
    "Spawn",
    "GetTime",
    "Sleep",
    "ProcessContext",
    "ProcessFunction",
]

#: Signature of a simulated process body.
ProcessFunction = Callable[..., Any]


class Syscall:
    """Marker base class for everything a process may yield to the kernel."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Compute(Syscall):
    """Consume CPU: advance the process's clock by ``work_units`` of computation.

    One work unit corresponds to one swap evaluation of the tabu search; the
    cluster spec converts it to virtual seconds according to the speed and
    load of the machine the process runs on.
    """

    work_units: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.work_units < 0:
            raise ProcessError(f"work_units must be non-negative, got {self.work_units}")


@dataclass(frozen=True, slots=True)
class Send(Syscall):
    """Asynchronous message send (``pvm_send``)."""

    dst: int
    tag: str
    payload: Any = None


@dataclass(frozen=True, slots=True)
class Receive(Syscall):
    """Receive a message (``pvm_recv`` / ``pvm_nrecv`` / ``pvm_trecv``).

    ``blocking=False`` turns the call into a probe that immediately returns
    ``None`` when no matching message is waiting.  ``timeout`` (virtual
    seconds) makes a blocking receive give up and return ``None``.
    """

    tag: Optional[str] = None
    src: Optional[int] = None
    blocking: bool = True
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout < 0:
            raise ProcessError(f"timeout must be non-negative, got {self.timeout}")


@dataclass(frozen=True, slots=True)
class Spawn(Syscall):
    """Start a child process (``pvm_spawn``); yields the child's process id."""

    func: ProcessFunction
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    machine_index: Optional[int] = None
    name: str = ""


@dataclass(frozen=True, slots=True)
class GetTime(Syscall):
    """Read the process's current virtual time."""


@dataclass(frozen=True, slots=True)
class Sleep(Syscall):
    """Advance the process's clock without doing work (pure waiting)."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ProcessError(f"seconds must be non-negative, got {self.seconds}")


class ProcessContext:
    """Handle given to every simulated process.

    It carries the process identity (pid, parent, machine) and provides
    convenience constructors for all syscalls, so process code reads like a
    message-passing program rather than a pile of dataclass instantiations.
    """

    __slots__ = ("_pid", "_parent", "_name", "_machine_index", "_machine")

    def __init__(
        self,
        pid: int,
        parent: Optional[int],
        name: str,
        machine_index: int,
        machine: MachineSpec,
    ) -> None:
        self._pid = pid
        self._parent = parent
        self._name = name
        self._machine_index = machine_index
        self._machine = machine

    # -- identity ------------------------------------------------------- #
    @property
    def pid(self) -> int:
        """This process's id (``pvm_mytid``)."""
        return self._pid

    @property
    def parent(self) -> Optional[int]:
        """Parent process id (``pvm_parent``), ``None`` for root processes."""
        return self._parent

    @property
    def name(self) -> str:
        """Human-readable process name, e.g. ``"tsw2"``."""
        return self._name

    @property
    def machine_index(self) -> int:
        """Index of the machine this process was placed on."""
        return self._machine_index

    @property
    def machine(self) -> MachineSpec:
        """Specification of the machine this process runs on."""
        return self._machine

    # -- syscall constructors ------------------------------------------- #
    def compute(self, work_units: float, label: str = "") -> Compute:
        """Burn CPU for ``work_units`` of computation."""
        return Compute(work_units=work_units, label=label)

    def send(self, dst: int, tag: str, payload: Any = None) -> Send:
        """Send ``payload`` to process ``dst`` with ``tag`` (asynchronous)."""
        return Send(dst=dst, tag=tag, payload=payload)

    def recv(self, tag: Optional[str] = None, src: Optional[int] = None) -> Receive:
        """Blocking receive of the next message matching ``tag`` / ``src``."""
        return Receive(tag=tag, src=src, blocking=True)

    def recv_timeout(
        self, timeout: float, tag: Optional[str] = None, src: Optional[int] = None
    ) -> Receive:
        """Blocking receive that gives up (returns ``None``) after ``timeout``."""
        return Receive(tag=tag, src=src, blocking=True, timeout=timeout)

    def probe(self, tag: Optional[str] = None, src: Optional[int] = None) -> Receive:
        """Non-blocking receive: returns a message or ``None`` immediately."""
        return Receive(tag=tag, src=src, blocking=False)

    def spawn(
        self,
        func: ProcessFunction,
        *args: Any,
        machine_index: Optional[int] = None,
        name: str = "",
        **kwargs: Any,
    ) -> Spawn:
        """Start a child process running ``func(ctx, *args, **kwargs)``."""
        return Spawn(
            func=func, args=args, kwargs=dict(kwargs), machine_index=machine_index, name=name
        )

    def now(self) -> GetTime:
        """Current virtual time of this process."""
        return GetTime()

    def sleep(self, seconds: float) -> Sleep:
        """Idle for ``seconds`` of virtual time."""
        return Sleep(seconds=seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ProcessContext(pid={self._pid}, name={self._name!r}, "
            f"machine={self._machine.name!r})"
        )
