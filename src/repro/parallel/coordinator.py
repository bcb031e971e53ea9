"""One parent's children — the coordinator both protocol tiers run on.

The paper runs one parent–child protocol at two levels (Figures 2–4): the
master drives its TSWs and each TSW drives its CLWs through the same cycle —
broadcast the current solution, collect one report per child (asking the
slow half to report early under heterogeneous sync), adopt.  A
:class:`Coordinator` owns everything per-child on one level:

* the roster (child index ↔ pid, dead and drained children) and the cell
  range of every live child, re-partitioned over the survivors when a child
  dies and shipped with the next message to each child;
* a :class:`~repro.parallel.delta.DeltaEncoder` keyed by child index: each
  shipment is a swap-list delta against what the child holds resident,
  falling back to full after a ``needs_full`` NACK;
* in fault mode, the :class:`~repro.parallel.health.HealthLedger` and the
  report deadlines: a silent child is forgiven with a full re-send or struck
  out, and a ``WORKER_DOWN`` obituary kills it at once.

The protocol phases are generator methods the parent drives with
``yield from``: :meth:`provision` (then :meth:`await_acks` for warm loops),
:meth:`broadcast`, :meth:`collect`, :meth:`harvest` and :meth:`stop`.  The
three that wait for one reply per child share one receive loop: without a
fault policy it is a tagged receive; with one it runs to a deadline fixed
when the wait starts, and messages it scoops up but does not handle (the
master's ``CANCEL``/``ADMIT``/``DRAIN``, a TSW's ``REPORT_NOW``) land in
:attr:`Coordinator.inbox` for the parent's next boundary.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from ..metrics.trace import FaultEvent
from ..tabu.candidate import partition_cells, partition_cells_weighted
from .config import FaultPolicy
from .delta import DeltaEncoder
from .health import HealthLedger
from .messages import ReportNow, Tags
from .sync import SyncPolicy

__all__ = ["Coordinator"]


class Coordinator:
    """Roster, ranges, resident encoder and health of one parent's children.

    ``prefix`` (``"tsw"``/``"clw"``) names child ``i`` ``f"{prefix}{i}"`` in
    fault events and labels re-partitioned ranges.  ``round_of`` reads the
    round identifier off a report.  ``ledger_keys`` are the indices the
    fault-mode ledger tracks from the start.
    """

    def __init__(
        self,
        ctx,
        *,
        sync: SyncPolicy,
        fault: Optional[FaultPolicy],
        deadline: float,
        prefix: str,
        num_cells: int,
        scheme: str,
        ranges: Dict[int, Any],
        task_tag: str,
        result_tag: str,
        round_of: Callable[[Any], int],
        ledger_keys: List[int],
    ) -> None:
        self.ctx = ctx
        self.sync = sync
        self.fault = fault
        self.deadline = deadline
        self.prefix = prefix
        self.num_cells = num_cells
        self.scheme = scheme
        self.task_tag = task_tag
        self.result_tag = result_tag
        self.round_of = round_of
        #: Live range assignment, and the range object each child last got.
        self.ranges: Dict[int, Any] = dict(ranges)
        self.shipped: Dict[int, Any] = {}
        #: Child index → pid, in provisioning order, and back.
        self.pid_of: Dict[int, int] = {}
        self.index_of: Dict[int, int] = {}
        self.dead: Set[int] = set()
        self.drained: Set[int] = set()
        self.encoder = DeltaEncoder()
        self.ledger: Optional[HealthLedger] = None
        if fault is not None:
            self.ledger = HealthLedger(fault, ledger_keys)
        #: Fault and topology incidents of this run, in order; their times
        #: are shifted by ``time_offset`` (a resumed master's timeline).
        self.events: List[FaultEvent] = []
        self.time_offset = 0.0
        self.inbox: List[Any] = []
        self._unacked: Set[int] = set()

    # ------------------------------------------------------------------ #
    # roster
    # ------------------------------------------------------------------ #
    def live_indices(self) -> List[int]:
        """Indices of the children neither dead nor drained, ascending."""
        return sorted(i for i in self.pid_of if i not in self.dead and i not in self.drained)

    def live(self) -> List[int]:
        """Pids of the live children, in index order."""
        return [self.pid_of[index] for index in self.live_indices()]

    def note(self, kind: str, index: int, detail: str, at: float) -> None:
        """Record an event about child ``index`` (``-1``: the whole roster)."""
        self.events.append(
            FaultEvent(float(at) + self.time_offset, kind, f"{self.prefix}{index}", detail)
        )

    def repartition(self, indices: List[int]) -> None:
        """Split the cells over ``indices``, weighted by observed throughput
        in fault mode once every one of them has a rate."""
        weights = None
        if self.ledger is not None:
            weights = self.ledger.throughput_weights(indices)
        if weights is not None:
            new_ranges = partition_cells_weighted(
                self.num_cells, weights, scheme=self.scheme, label_prefix=self.prefix
            )
        else:
            new_ranges = partition_cells(
                self.num_cells, len(indices), scheme=self.scheme, label_prefix=self.prefix
            )
        self.ranges.update(zip(indices, new_ranges))

    def declare_dead(self, pid: int, reason: str, at: float) -> None:
        """Mark a child dead and re-partition the cells over the survivors."""
        index = self.index_of[pid]
        self.dead.add(index)
        self.ledger.mark_dead(index)
        self.encoder.invalidate(index)
        self.note("worker-dead", index, reason, at)
        survivors = self.live_indices()
        if survivors:
            self.repartition(survivors)
            self.note(
                "range-reassigned", index, f"range split over {len(survivors)} survivor(s)", at
            )

    def obituary(self, message):
        """Act on a ``WORKER_DOWN`` in fault mode; True if it killed a child."""
        pid = message.payload.pid
        if self.fault is None or pid not in self.index_of or self.index_of[pid] in self.dead:
            return False
        at = yield self.ctx.now()
        self.declare_dead(pid, message.payload.reason or "backend obituary", at)
        return True

    def drain(self, index: int, at: float):
        """Gracefully retire a live child: no strike, its range is dropped."""
        self.drained.add(index)
        if self.ledger is not None:
            self.ledger.mark_drained(index)
        self.encoder.invalidate(index)
        del self.ranges[index]
        self.note("worker-drained", index, "graceful drain (no strike)", at)
        yield self.ctx.send(self.pid_of[index], Tags.STOP)

    # ------------------------------------------------------------------ #
    # provision
    # ------------------------------------------------------------------ #
    def provision(
        self, index: int, body, setup: Any, loop_pid: Optional[int] = None, **spawn_kwargs
    ):
        """Start child ``index`` on ``ranges[index]`` from its setup record.

        Without ``loop_pid`` this spawns ``body(ctx, setup)`` (with
        ``spawn_kwargs``: name, machine); with one it sends the record to
        that warm worker loop as a ``SETUP``, which :meth:`await_acks` then
        waits out.
        """
        if loop_pid is None:
            pid = yield self.ctx.spawn(body, setup, **spawn_kwargs)
        else:
            pid = loop_pid
            yield self.ctx.send(pid, Tags.SETUP, setup)
            self._unacked.add(pid)
        self.pid_of[index] = pid
        self.index_of[pid] = index
        self.shipped[index] = self.ranges[index]

    def await_acks(self):
        """Wait for the ``SETUP_ACK`` of every loop provisioned since the last call.

        No run traffic may precede the ack: a large ``SETUP`` has a
        size-dependent latency, so a smaller message sent later could
        overtake it.  In fault mode loops still silent at the deadline are
        struck out — the run starts degraded instead of never starting.
        """
        expected, self._unacked = self._unacked, set()
        yield from self._gather(Tags.SETUP_ACK, expected, "no setup ack")

    # ------------------------------------------------------------------ #
    # the one wait
    # ------------------------------------------------------------------ #
    def _wait(self, tag: str, pending: Set[int], handle, expire):
        """Receive ``tag`` messages until no pid is left in ``pending``.

        ``handle(reply)`` deals with one ``tag`` message: it discards the
        sender from ``pending``, and returns True when it re-sent the child
        work, which restarts the deadline.  Without a fault policy the wait
        is a tagged receive.  With one, the deadline is fixed when the wait
        starts; a ``WORKER_DOWN`` goes through :meth:`obituary` (a child it
        kills is no longer pending), every other message goes to
        :attr:`inbox`, and at the deadline ``expire(now)`` forgives or
        strikes out the silent children before the wait restarts.  Both
        callbacks are generators, as they may send.
        """
        ctx = self.ctx
        if self.fault is None:
            while pending:
                yield from handle((yield ctx.recv(tag=tag)))
            return
        deadline = float((yield ctx.now())) + self.deadline
        while pending:
            now = float((yield ctx.now()))
            if now >= deadline:
                yield from expire(now)
                deadline = float((yield ctx.now())) + self.deadline
                continue
            reply = yield ctx.recv_timeout(deadline - now)
            if reply is None:
                continue
            if reply.tag == Tags.WORKER_DOWN:
                if (yield from self.obituary(reply)):
                    pending.discard(reply.payload.pid)
            elif reply.tag != tag:
                self.inbox.append(reply)
            elif (yield from handle(reply)):
                deadline = float((yield ctx.now())) + self.deadline

    def _gather(self, tag: str, pending: Set[int], reason: str):
        """``{index: payload}`` of one ``tag`` reply from each pid in
        ``pending``; in fault mode the children still silent at the deadline
        are declared dead for ``reason``."""
        replies: Dict[int, Any] = {}

        def handle(reply):
            replies[self.index_of[reply.src]] = reply.payload
            pending.discard(reply.src)
            yield from ()

        def expire(now):
            for pid in sorted(pending):
                self.declare_dead(pid, reason, now)
            pending.clear()
            yield from ()

        yield from self._wait(tag, pending, handle, expire)
        return replies

    # ------------------------------------------------------------------ #
    # one round: broadcast, then collect
    # ------------------------------------------------------------------ #
    def broadcast(self, round_id: int, target, task, budget_base: Optional[int] = None):
        """Send each live child ``task(payload, cell_range, budget)``.

        ``payload`` encodes ``target`` against the child's resident
        solution, ``cell_range`` is its range if re-partitioned since last
        shipped, and ``budget`` its limplock-shrunk local-iteration budget
        (fault mode) when that differs from ``budget_base``.
        """
        for pid in self.live():
            index = self.index_of[pid]
            payload = self.encoder.encode(index, target, version=round_id)
            cell_range = self.ranges[index]
            if cell_range is self.shipped[index]:
                cell_range = None
            budget = None
            if self.ledger is not None and budget_base is not None:
                budget = self.ledger.iteration_budget(index, budget_base)
                if budget == budget_base:
                    budget = None
            yield self.ctx.send(pid, self.task_tag, task(payload, cell_range, budget))
            if cell_range is not None:
                self.shipped[index] = cell_range

    def collect(self, round_id: int, target, task, accept=None):
        """Collect one report per live child; returns them by child index.

        Stale and duplicate reports are dropped, a ``needs_full`` NACK gets
        a full re-send, and ``accept(index, report)`` may reject a report —
        each of these forgets the child's resident state.  Under
        heterogeneous sync the children still working get a ``REPORT_NOW``
        once the policy's share has reported.
        """
        participants = self.live()
        pending: Set[int] = set(participants)
        results: Dict[int, Any] = {}
        interrupt_sent = False

        def handle(reply):
            nonlocal interrupt_sent
            result = reply.payload
            # Account for the sender *before* the staleness check: under a
            # truly asynchronous backend a late or duplicate report from an
            # earlier round may be the only message this child sends this
            # round, and skipping the discard would wedge the collect loop
            # forever (tests/parallel/test_stale_results.py).
            pending.discard(reply.src)
            index = self.index_of[reply.src]
            if self.round_of(result) != round_id:
                self.encoder.invalidate(index)
                return
            if result.needs_full:
                self.encoder.invalidate(index)
                payload = self.encoder.encode(index, target, version=round_id)
                yield self.ctx.send(reply.src, self.task_tag, task(payload, None, None))
                pending.add(reply.src)
                return True
            if index in results or (accept is not None and not accept(index, result)):
                self.encoder.invalidate(index)
                return
            if self.ledger is not None:
                self.ledger.clear_misses(index)
            results[index] = result
            if (
                not interrupt_sent
                and pending
                and self.sync.should_interrupt(len(results), len(participants))
            ):
                for pid in pending:
                    yield self.ctx.send(pid, Tags.REPORT_NOW, ReportNow(round_id=round_id))
                interrupt_sent = True

        def expire(now):
            return self._deadline_passed(pending, round_id, target, task, now)

        yield from self._wait(self.result_tag, pending, handle, expire)
        # Arrival order is nondeterministic on the real backends; ordering
        # by child index makes everything downstream timing-independent.
        return [results[index] for index in sorted(results)]

    def _deadline_passed(self, pending: Set[int], round_id: int, target, task, now):
        """Forgive each silent child with a full re-send, or strike it out.

        The re-send carries the child's range, so it counts as shipping it.
        """
        struck: List[int] = []
        for pid in sorted(pending):
            index = self.index_of[pid]
            if self.ledger.register_miss(index):
                struck.append(pid)
                continue
            self.encoder.invalidate(index)
            payload = self.encoder.encode(index, target, version=round_id)
            self.note("deadline-resend", index, "", now)
            yield self.ctx.send(pid, self.task_tag, task(payload, self.ranges[index], None))
            self.shipped[index] = self.ranges[index]
        for pid in struck:
            pending.discard(pid)
            self.declare_dead(pid, "missed report deadline", now)

    # ------------------------------------------------------------------ #
    # harvest and stop
    # ------------------------------------------------------------------ #
    def harvest(self):
        """Ask every live child for its state; returns ``{index: state}``.

        Only called at a round boundary, when every child is idle.  In fault
        mode a child that dies, or stays silent until the deadline, is
        declared dead instead of wedging the harvest (a resume revives it).
        """
        live = self.live()
        for pid in live:
            yield self.ctx.send(pid, Tags.STATE_REQUEST)
        return (yield from self._gather(Tags.STATE_REPLY, set(live), "no state reply"))

    def stop(self):
        """``STOP`` every child not drained — struck-out ones included, as a
        child declared dead may still be alive."""
        for index, pid in self.pid_of.items():
            if index not in self.drained:
                yield self.ctx.send(pid, Tags.STOP)
