"""A scripted stand-in for a PVM kernel: one process body against fixed messages.

:class:`ScriptedKernel` interprets the syscalls of one process generator and
serves its receives from a fixed script, so a test hands a body exactly the
interleaving it wants — late, duplicate or missing replies, death notices —
whatever a real scheduler would do.  :class:`ScriptedContext` builds the same
syscalls as the kernels' process contexts.  Test modules in this directory
import both (``from scripted_kernel import …``).
"""

from __future__ import annotations

import itertools
import math
from typing import Any, List, Tuple

from repro.pvm.message import Message
from repro.pvm.process import Compute, GetTime, Receive, Send, Sleep, Spawn


class ScriptedDeadlock(AssertionError):
    """The body waits, without a timeout, for a message the script lacks."""


class ScriptedKernel:
    """Minimal syscall interpreter feeding a generator a fixed message script.

    ``script`` lists ``(src, tag, payload)`` messages, there from the start,
    or ``(src, tag, payload, at)`` ones that arrive at virtual time ``at``.
    A blocking receive takes the first entry that matches its filters and
    has arrived by its timeout, and moves the clock to that arrival; a
    receive that times out moves the clock to its limit and returns
    ``None``.  Non-blocking probes always return ``None``.  Sends are
    recorded in :attr:`sent`, and spawns hand out fake pids from 100.
    """

    def __init__(self, script: List[Tuple]) -> None:
        self.script = [entry if len(entry) == 4 else (*entry, 0.0) for entry in script]
        self.sent: List[Send] = []
        self.spawned: List[Spawn] = []
        self.clock = 0.0
        self._pids = itertools.count(100)

    def run(self, generator) -> Any:
        value: Any = None
        while True:
            try:
                syscall = generator.send(value)
            except StopIteration as stop:
                return stop.value
            value = self._handle(syscall)

    def _handle(self, syscall) -> Any:
        if isinstance(syscall, (Compute, Sleep)):
            return None
        if isinstance(syscall, GetTime):
            return self.clock
        if isinstance(syscall, Send):
            self.sent.append(syscall)
            return None
        if isinstance(syscall, Spawn):
            self.spawned.append(syscall)
            return next(self._pids)
        if isinstance(syscall, Receive):
            return self._receive(syscall)
        raise AssertionError(f"unexpected syscall {syscall!r}")

    def _receive(self, syscall: Receive) -> Any:
        if not syscall.blocking:
            return None
        limit = math.inf if syscall.timeout is None else self.clock + syscall.timeout
        for index, (src, tag, payload, at) in enumerate(self.script):
            if syscall.tag not in (None, tag) or syscall.src not in (None, src) or at > limit:
                continue
            self.script.pop(index)
            self.clock = max(self.clock, at)
            return Message(
                src=src, dst=0, tag=tag, payload=payload, size_bytes=64,
                send_time=self.clock, arrival_time=self.clock,
            )
        if syscall.timeout is None:
            raise ScriptedDeadlock(
                f"the body waits for tag={syscall.tag!r} but the script holds "
                "no such message — a reply that never comes wedged the wait"
            )
        self.clock = limit
        return None


class ScriptedContext:
    """Context stub: identity plus the same syscall constructors as the kernels."""

    pid = 0
    parent = 0
    name = "scripted"
    machine_index = 0
    machine = None

    def compute(self, work_units, label=""):
        return Compute(work_units=work_units, label=label)

    def send(self, dst, tag, payload=None):
        return Send(dst=dst, tag=tag, payload=payload)

    def recv(self, tag=None, src=None):
        return Receive(tag=tag, src=src, blocking=True)

    def recv_timeout(self, timeout, tag=None, src=None):
        return Receive(tag=tag, src=src, blocking=True, timeout=timeout)

    def probe(self, tag=None, src=None):
        return Receive(tag=tag, src=src, blocking=False)

    def spawn(self, func, *args, machine_index=None, name="", **kwargs):
        return Spawn(
            func=func, args=args, kwargs=dict(kwargs), machine_index=machine_index, name=name
        )

    def now(self):
        return GetTime()

    def sleep(self, seconds):
        return Sleep(seconds=seconds)
