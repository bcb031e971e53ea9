"""Regression tests: a stale/duplicate worker report must not wedge a collect loop.

Under the simulator the master/TSW collect loops only ever see fresh results,
so the latent race was invisible: a result whose round id did not match hit
``continue`` *without* discarding the sender from ``pending``.  On a truly
asynchronous backend a late or duplicate report from an earlier round can be
the only message a worker sends during the current round — and the loop then
waits forever for a result that never comes.

The :class:`ScriptedKernel` below drives a process generator against a fixed
message script.  When the generator asks for a receive the script cannot
serve, the harness raises :class:`ScriptedDeadlock` — which is exactly what
the pre-fix code does with the injected stale results (the collect loop asks
for one more result than the script holds).  With the fix (discard the sender
*before* the staleness check) the scripts below run to completion.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Tuple

import numpy as np
import pytest

from repro.parallel import ParallelSearchParams, build_problem
from repro.parallel.delta import SolutionPayload
from repro.parallel.master import MasterResult, master_process
from repro.parallel.messages import ClwResult, GlobalStart, Tags, TswResult, TswSummary
from repro.parallel.tsw import tsw_process
from repro.placement import load_benchmark
from repro.pvm.process import Compute, GetTime, Receive, Send, Sleep, Spawn
from repro.pvm.message import Message
from repro.tabu.candidate import partition_cells
from repro.tabu import TabuSearchParams


class ScriptedDeadlock(AssertionError):
    """The generator asked for a message the script does not contain."""


class ScriptedKernel:
    """Minimal syscall interpreter feeding a generator a fixed message script.

    ``script`` is a list of ``(src, tag, payload)`` triples; every *blocking*
    receive consumes the first entry matching its tag filter.  Non-blocking
    probes always return ``None``.  Spawns hand out fake pids from 100.
    """

    def __init__(self, script: List[Tuple[int, str, Any]]) -> None:
        self.script = list(script)
        self.sent: List[Send] = []
        self.spawned: List[Spawn] = []
        self._pids = itertools.count(100)
        self._clock = 0.0

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
            self._clock += 1.0
            return self._clock
        if isinstance(syscall, Send):
            self.sent.append(syscall)
            return None
        if isinstance(syscall, Spawn):
            self.spawned.append(syscall)
            return next(self._pids)
        if isinstance(syscall, Receive):
            if not syscall.blocking:
                return None
            for index, (src, tag, payload) in enumerate(self.script):
                if syscall.tag is not None and tag != syscall.tag:
                    continue
                if syscall.src is not None and src != syscall.src:
                    continue
                self.script.pop(index)
                self._clock += 1.0
                return Message(
                    src=src, dst=0, tag=tag, payload=payload, size_bytes=64,
                    send_time=self._clock, arrival_time=self._clock,
                )
            raise ScriptedDeadlock(
                f"collect loop is waiting for tag={syscall.tag!r} but the "
                f"script is exhausted — a stale result wedged the loop"
            )
        raise AssertionError(f"unexpected syscall {syscall!r}")


@pytest.fixture(scope="module")
def problem():
    params = ParallelSearchParams(seed=5)
    return build_problem(load_benchmark("mini64"), params)


def make_tsw_result(problem, *, tsw_index: int, global_iteration: int) -> TswResult:
    solution = problem.random_solution(seed=40 + tsw_index)
    return TswResult(
        tsw_index=tsw_index,
        global_iteration=global_iteration,
        best_solution=SolutionPayload.full_shipment(solution, global_iteration),
        best_cost=1e9,  # deliberately worse than the incumbent: never adopted
        local_iterations_done=1,
        interrupted=False,
        evaluations=10,
        tabu_payload=(),
        trace=(),
    )


class TestMasterStaleResult:
    def test_stale_tsw_result_does_not_wedge_the_master(self, problem):
        """TSW 0's only message this round is a duplicate report from an old
        round; the master must still complete the global iteration."""
        params = ParallelSearchParams(
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=1,
            sync_mode="homogeneous",
            seed=5,
            tabu=TabuSearchParams(local_iterations=1, pairs_per_step=2, move_depth=1),
        )
        stale = make_tsw_result(problem, tsw_index=0, global_iteration=7)
        fresh = make_tsw_result(problem, tsw_index=1, global_iteration=0)
        kernel = ScriptedKernel(
            [
                (100, Tags.TSW_RESULT, stale),  # TSW pid 100: stale, its only message
                (101, Tags.TSW_RESULT, fresh),
            ]
        )
        result = kernel.run(master_process(_ctx(), problem, params))
        assert isinstance(result, MasterResult)
        assert kernel.script == []  # every scripted message was consumed
        # the stale result was dropped: only the fresh one is recorded
        assert result.global_records[0].received_costs == (fresh.best_cost,)
        # both TSWs still received the shutdown broadcast
        stops = [send for send in kernel.sent if send.tag == Tags.STOP]
        assert {send.dst for send in stops} == {100, 101}

    def test_duplicate_current_round_result_is_counted_once(self, problem):
        """A duplicated report for the *current* round must not be recorded
        twice (double-counted costs/evaluations/trace points)."""
        params = ParallelSearchParams(
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=1,
            sync_mode="homogeneous",
            seed=5,
            tabu=TabuSearchParams(local_iterations=1, pairs_per_step=2, move_depth=1),
        )
        fresh_a = make_tsw_result(problem, tsw_index=0, global_iteration=0)
        fresh_b = make_tsw_result(problem, tsw_index=1, global_iteration=0)
        kernel = ScriptedKernel(
            [
                (100, Tags.TSW_RESULT, fresh_a),
                (100, Tags.TSW_RESULT, fresh_a),  # duplicate delivery
                (101, Tags.TSW_RESULT, fresh_b),
            ]
        )
        result = kernel.run(master_process(_ctx(), problem, params))
        assert kernel.script == []
        assert result.global_records[0].received_costs == (
            fresh_a.best_cost,
            fresh_b.best_cost,
        )

    def test_genuine_result_accepted_after_stale_freed_the_slot(self, problem):
        """A stale duplicate frees TSW 0's pending slot; its genuine
        current-round report arriving afterwards must still be recorded."""
        params = ParallelSearchParams(
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=1,
            sync_mode="homogeneous",
            seed=5,
            tabu=TabuSearchParams(local_iterations=1, pairs_per_step=2, move_depth=1),
        )
        stale = make_tsw_result(problem, tsw_index=0, global_iteration=7)
        fresh_a = make_tsw_result(problem, tsw_index=0, global_iteration=0)
        fresh_b = make_tsw_result(problem, tsw_index=1, global_iteration=0)
        kernel = ScriptedKernel(
            [
                (100, Tags.TSW_RESULT, stale),    # frees TSW 0's slot
                (100, Tags.TSW_RESULT, fresh_a),  # genuine, slot already freed
                (101, Tags.TSW_RESULT, fresh_b),
            ]
        )
        result = kernel.run(master_process(_ctx(), problem, params))
        assert kernel.script == []
        assert result.global_records[0].received_costs == (
            fresh_a.best_cost,
            fresh_b.best_cost,
        )


class TestTswStaleResult:
    def test_stale_clw_result_does_not_wedge_the_tsw(self, problem):
        """CLW 0 replies with a result for an earlier round; the TSW's collect
        loop must still finish the local iteration."""
        params = ParallelSearchParams(
            num_tsws=1,
            clws_per_tsw=2,
            global_iterations=1,
            sync_mode="homogeneous",
            diversify=False,
            seed=5,
            tabu=TabuSearchParams(local_iterations=1, pairs_per_step=2, move_depth=1),
        )
        num_cells = problem.num_cells
        tsw_range = partition_cells(num_cells, 1, scheme="contiguous", label_prefix="tsw")[0]
        clw_ranges = partition_cells(num_cells, 2, scheme="strided", label_prefix="clw")
        start = GlobalStart(
            global_iteration=0,
            solution=SolutionPayload.full_shipment(problem.random_solution(seed=3), 0),
            tabu_payload=None,
        )
        stale = ClwResult(
            clw_index=0, round_id=99, pairs=(), cost_before=1.0, cost_after=1.0,
            trials=0, interrupted=False,
        )
        fresh = ClwResult(
            clw_index=1, round_id=1, pairs=(), cost_before=1.0, cost_after=1.0,
            trials=0, interrupted=False,
        )
        kernel = ScriptedKernel(
            [
                (0, Tags.GLOBAL_START, start),
                (100, Tags.CLW_RESULT, stale),  # CLW pid 100: stale, its only message
                (101, Tags.CLW_RESULT, fresh),
                (0, Tags.STOP, None),
            ]
        )
        summary = kernel.run(
            tsw_process(_ctx(), problem, params, 0, tsw_range, list(clw_ranges), seed=17)
        )
        assert isinstance(summary, TswSummary)
        assert kernel.script == []
        assert summary.local_iterations_done == 1
        # the TSW still reported to its parent and stopped its CLWs
        assert any(send.tag == Tags.TSW_RESULT for send in kernel.sent)
        stops = [send for send in kernel.sent if send.tag == Tags.STOP]
        assert {send.dst for send in stops} == {100, 101}


class _ctx:
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
        return Spawn(func=func, args=args, kwargs=dict(kwargs), machine_index=machine_index, name=name)

    def now(self):
        return GetTime()

    def sleep(self, seconds):
        return Sleep(seconds=seconds)
