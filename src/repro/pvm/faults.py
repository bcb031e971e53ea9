"""Deterministic fault-injection plans for the simulated cluster.

A :class:`FaultPlan` is a *seeded, declarative schedule* of failures — node
death, slow-node throttling, message loss/jitter — that the
:class:`~repro.pvm.simulator.SimKernel` replays as ordinary discrete events.
Because the simulator is single-threaded and every random draw comes from the
plan's own seeded generator, the same plan produces bit-identical failure
trajectories run after run: recovery policies become testable in CI at
cluster scales (and failure rates) the CI box could never host for real.

This module sits in the ``pvm`` layer, below ``repro.parallel``: the payload
of a death notice (:class:`WorkerDown`) and its tag live here so kernels can
emit obituaries without importing the search protocol.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import SimulationError

__all__ = [
    "WORKER_DOWN_TAG",
    "WORKER_ADMIT_TAG",
    "WORKER_DRAIN_TAG",
    "WorkerDown",
    "AdmitWorkers",
    "KillWorker",
    "SpawnWorker",
    "DrainWorker",
    "ThrottleMachine",
    "MessageFaults",
    "FaultPlan",
]

#: Tag of a death notice.  ``repro.parallel.messages.Tags.WORKER_DOWN`` uses
#: the same literal so the two layers agree without importing each other.
WORKER_DOWN_TAG = "worker_down"

#: Tag of a mid-run admission request (``Tags.ADMIT`` uses the same literal):
#: the kernel (replaying a :class:`SpawnWorker` plan entry) or a driver-side
#: ``WorkerPool.grow`` asks the running master to fold new TSWs into the run.
WORKER_ADMIT_TAG = "worker_admit"

#: Tag of a graceful drain request (``Tags.DRAIN`` uses the same literal):
#: the named worker finishes its current range, then retires without a strike.
WORKER_DRAIN_TAG = "worker_drain"

#: Tags that message-level faults never touch by default: dropping lifecycle
#: or obituary traffic does not model a lossy network, it wedges the harness.
DEFAULT_PROTECTED_TAGS: Tuple[str, ...] = (
    "stop",
    "pool_shutdown",
    "setup",
    "setup_ack",
    "state_request",
    "state_reply",
    WORKER_DOWN_TAG,
    WORKER_ADMIT_TAG,
    WORKER_DRAIN_TAG,
)


@dataclass(frozen=True)
class WorkerDown:
    """Payload of a death notice delivered to a parent or death listener."""

    pid: int
    name: str
    reason: str = ""


@dataclass(frozen=True)
class AdmitWorkers:
    """Payload of a ``worker_admit`` request delivered to a running master.

    Two shapes, by origin:

    * **count-based** (simulated :class:`SpawnWorker` plan entries): the
      master spawns ``count`` fresh TSW subtrees itself, optionally pinned to
      ``machine``;
    * **pid-based** (``WorkerPool.grow`` on the real backends): the pool
      already spawned persistent worker loops — ``pids`` names them and the
      master SETUP/SETUP_ACK-handshakes them into the run.
    """

    count: int = 1
    machine: Optional[int] = None
    pids: Tuple[int, ...] = ()


def _require_time(label: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise SimulationError(f"{label} must be a finite non-negative time, got {value}")
    return value


@dataclass(frozen=True)
class KillWorker:
    """Kill every live process matching ``name`` / ``machine`` at time ``at``.

    Matching is by exact process name, by machine index, or both; at least
    one selector is required.  ``kill_children`` (default) also kills the
    victim's live descendants — a dead TSW takes its CLWs down with it, the
    way a dead PVM host takes every task it placed.
    """

    at: float
    name: Optional[str] = None
    machine: Optional[int] = None
    kill_children: bool = True

    def __post_init__(self) -> None:
        _require_time("KillWorker.at", self.at)
        if self.name is None and self.machine is None:
            raise SimulationError("KillWorker needs a name and/or machine selector")
        if self.machine is not None and self.machine < 0:
            raise SimulationError(f"KillWorker.machine must be >= 0, got {self.machine}")


@dataclass(frozen=True)
class SpawnWorker:
    """Admit ``count`` fresh TSW workers into the running search at ``at``.

    The kernel delivers a :class:`AdmitWorkers` request to the registered
    fault listener (the fault-tolerant master); the master spawns the new
    subtrees itself, registers them in its health ledger and folds them into
    the next range re-partition.  Because the request is an ordinary event on
    the one global queue, the grown topology replays bit-identically.
    """

    at: float
    count: int = 1
    machine: Optional[int] = None

    def __post_init__(self) -> None:
        _require_time("SpawnWorker.at", self.at)
        if int(self.count) < 1:
            raise SimulationError(f"SpawnWorker.count must be >= 1, got {self.count}")
        if self.machine is not None and self.machine < 0:
            raise SimulationError(
                f"SpawnWorker.machine must be >= 0, got {self.machine}"
            )


@dataclass(frozen=True)
class DrainWorker:
    """Gracefully retire the worker named ``name`` at time ``at``.

    The master lets the worker finish its current range (it drains at the
    next global-iteration boundary, after the worker's report was folded
    in), re-partitions its range over the remaining workers and stops it —
    without a strike: a drained worker is not a dead worker.
    """

    at: float
    name: str = ""

    def __post_init__(self) -> None:
        _require_time("DrainWorker.at", self.at)
        if not isinstance(self.name, str) or not self.name:
            raise SimulationError("DrainWorker.name must be a non-empty worker name")


@dataclass(frozen=True)
class ThrottleMachine:
    """Scale one machine's effective speed by ``factor`` from ``at`` on.

    ``factor`` multiplies the machine's speed: ``0.25`` makes every compute on
    it take 4x longer (a limplocked node); ``until`` (optional) restores full
    speed at that time.
    """

    at: float
    machine: int
    factor: float
    until: Optional[float] = None

    def __post_init__(self) -> None:
        _require_time("ThrottleMachine.at", self.at)
        if self.machine < 0:
            raise SimulationError(f"ThrottleMachine.machine must be >= 0, got {self.machine}")
        if not math.isfinite(self.factor) or self.factor <= 0:
            raise SimulationError(
                f"ThrottleMachine.factor must be finite and positive, got {self.factor}"
            )
        if self.until is not None:
            _require_time("ThrottleMachine.until", self.until)
            if self.until <= self.at:
                raise SimulationError("ThrottleMachine.until must be after .at")


@dataclass(frozen=True)
class MessageFaults:
    """Seeded message-level faults: independent loss and delivery jitter.

    Applies to sends whose clock falls in ``[start, stop)`` and whose tag is
    not protected.  ``loss_probability`` drops the message outright;
    ``delay_jitter`` adds a uniform ``[0, delay_jitter)`` delay to delivery,
    which reorders messages relative to their send order.
    """

    loss_probability: float = 0.0
    delay_jitter: float = 0.0
    start: float = 0.0
    stop: Optional[float] = None
    protect_tags: Tuple[str, ...] = DEFAULT_PROTECTED_TAGS

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_probability < 1.0):
            raise SimulationError(
                f"loss_probability must be in [0, 1), got {self.loss_probability}"
            )
        if not math.isfinite(self.delay_jitter) or self.delay_jitter < 0:
            raise SimulationError(f"delay_jitter must be >= 0, got {self.delay_jitter}")
        _require_time("MessageFaults.start", self.start)
        if self.stop is not None:
            _require_time("MessageFaults.stop", self.stop)
            if self.stop <= self.start:
                raise SimulationError("MessageFaults.stop must be after .start")
        object.__setattr__(self, "protect_tags", tuple(self.protect_tags))

    def active_at(self, time: float) -> bool:
        if time < self.start:
            return False
        return self.stop is None or time < self.stop


def _load_entry(label: str, raw: Any, kind: type) -> Any:
    """Construct one plan entry, localizing errors to ``label`` and field."""
    if not isinstance(raw, dict):
        raise SimulationError(
            f"malformed fault plan: {label} must be a JSON object, got {type(raw).__name__}"
        )
    valid = set(getattr(kind, "__dataclass_fields__", {}))
    bogus = sorted(set(raw) - valid)
    if bogus:
        raise SimulationError(
            f"malformed fault plan: {label}: unknown field(s) {', '.join(bogus)} "
            f"(valid: {', '.join(sorted(valid))})"
        )
    try:
        return kind(**raw)
    except (TypeError, SimulationError) as error:
        raise SimulationError(f"malformed fault plan: {label}: {error}") from error


def _load_entries(label: str, raw: Any, kind: type) -> Tuple[Any, ...]:
    if not isinstance(raw, (list, tuple)):
        raise SimulationError(
            f"malformed fault plan: {label} must be a list, got {type(raw).__name__}"
        )
    return tuple(
        _load_entry(f"{label}[{index}]", entry, kind) for index, entry in enumerate(raw)
    )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded failure schedule for one simulated run."""

    seed: int = 0
    kills: Tuple[KillWorker, ...] = ()
    throttles: Tuple[ThrottleMachine, ...] = ()
    message_faults: Optional[MessageFaults] = None
    spawns: Tuple[SpawnWorker, ...] = ()
    drains: Tuple[DrainWorker, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kills", tuple(self.kills))
        object.__setattr__(self, "throttles", tuple(self.throttles))
        object.__setattr__(self, "spawns", tuple(self.spawns))
        object.__setattr__(self, "drains", tuple(self.drains))

    # -- JSON loading (CLI surface) ------------------------------------- #
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise SimulationError(f"fault plan must be a JSON object, got {type(data).__name__}")
        known = {"seed", "kills", "throttles", "message_faults", "spawns", "drains"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SimulationError(f"unknown fault-plan keys: {', '.join(unknown)}")
        kills = _load_entries("kills", data.get("kills", ()), KillWorker)
        throttles = _load_entries("throttles", data.get("throttles", ()), ThrottleMachine)
        spawns = _load_entries("spawns", data.get("spawns", ()), SpawnWorker)
        drains = _load_entries("drains", data.get("drains", ()), DrainWorker)
        mf = data.get("message_faults")
        if mf is None:
            message_faults = None
        else:
            message_faults = _load_entry("message_faults", mf, MessageFaults)
        return cls(
            seed=int(data.get("seed", 0)),
            kills=kills,
            throttles=throttles,
            message_faults=message_faults,
            spawns=spawns,
            drains=drains,
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise SimulationError(f"cannot load fault plan from {path!r}: {error}") from error
        return cls.from_dict(data)
