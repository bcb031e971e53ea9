"""The coordinator's one wait, in fault mode, at a harvest and a collect.

A pause harvests the worker tree: the master asks each TSW for its state,
and each TSW asks its CLWs first.  With a fault policy both tiers wait
through the same bounded receive loop as their acks and collects: the
deadline is fixed when the wait starts, a death notice goes through the
coordinator's obituary, and a message of another tag is kept in its
``inbox`` — where a TSW still finds the master's ``STOP``, and the master
a drain requested in the epoch's last round or during its harvest, which
it honours before it records the pause.  A
:class:`~scripted_kernel.ScriptedKernel` serves each body a fixed
interleaving, so no test depends on where a simulated kill lands.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.parallel import FaultPolicy, ParallelSearchParams
from repro.parallel.coordinator import Coordinator
from repro.parallel.master import master_process
from repro.parallel.delta import SolutionPayload
from repro.parallel.messages import (
    ClwResult,
    ClwWorkerState,
    DrainWorker,
    GlobalStart,
    Tags,
    TswResult,
    TswSetup,
    TswSummary,
    WorkerDown,
)
from repro.parallel.sync import SyncPolicy
from repro.parallel.tsw import tsw_process
from repro.problems.placement import PlacementProblem
from repro.placement import load_benchmark
from repro.tabu import TabuSearchParams, partition_cells
from scripted_kernel import ScriptedContext, ScriptedKernel

POLICY = FaultPolicy(round_deadline=50.0, clw_deadline=25.0, max_missed_deadlines=0)


@pytest.fixture(scope="module")
def problem():
    return PlacementProblem.from_netlist(load_benchmark("tiny16"), reference_seed=7)


def fault_params(**overrides) -> ParallelSearchParams:
    defaults = dict(
        num_tsws=2,
        clws_per_tsw=2,
        global_iterations=2,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=1, pairs_per_step=2, move_depth=1),
        seed=11,
        fault=POLICY,
    )
    defaults.update(overrides)
    return ParallelSearchParams(**defaults)


def clw_state(clw_index: int) -> ClwWorkerState:
    return ClwWorkerState(
        clw_index=clw_index, rng_state={}, assignment=np.empty(0, np.int64),
        evaluator_state=b"", evaluations=0, resident_version=0, tasks_done=0,
        trials=0, interruptions=0,
    )


def test_a_clw_that_dies_during_the_harvest_costs_its_tsw_only_that_clw(problem):
    """CLW 1 dies while its TSW waits for the CLWs' states: the TSW replies
    at once with CLW 0's state, well inside the master's round deadline,
    instead of waiting for a reply that never comes."""
    params = fault_params()
    clw_ranges = tuple(partition_cells(problem.num_cells, 2, scheme="strided"))
    setup = TswSetup(problem, params, 0, partition_cells(problem.num_cells, 2)[0], clw_ranges, 17)
    kernel = ScriptedKernel(
        [
            (0, Tags.STATE_REQUEST, None),
            (100, Tags.STATE_REPLY, clw_state(0), 1.0),
            (101, Tags.WORKER_DOWN, WorkerDown(pid=101, name="tsw0.clw1", reason="killed"), 2.0),
            (0, Tags.STOP, None, 3.0),
        ]
    )
    kernel.run(tsw_process(ScriptedContext(), setup))
    assert kernel.script == []
    replies = [send for send in kernel.sent if send.tag == Tags.STATE_REPLY]
    assert [send.dst for send in replies] == [0]
    assert [state.clw_index for state in replies[0].payload.clw_states] == [0]
    # the dead CLW is still sent STOP, as a child declared dead may live on
    stops = [send.dst for send in kernel.sent if send.tag == Tags.STOP]
    assert stops == [100, 101]


def test_a_stop_scooped_during_a_collect_ends_the_tsw_after_its_report(problem):
    """The master's STOP arrives while the TSW still collects its CLWs'
    results, so the collect keeps it in the inbox: the TSW reports the
    round, stops both CLWs and returns, instead of waiting for a second
    STOP that never comes."""
    params = fault_params()
    clw_ranges = tuple(partition_cells(problem.num_cells, 2, scheme="strided"))
    setup = TswSetup(problem, params, 0, partition_cells(problem.num_cells, 2)[0], clw_ranges, 17)
    start = GlobalStart(
        global_iteration=0,
        solution=SolutionPayload.full_shipment(problem.random_solution(seed=3), 0),
    )

    def clw_result(clw_index):
        return ClwResult(
            clw_index=clw_index, round_id=1, pairs=(), cost_before=1.0, cost_after=1.0,
            trials=0, interrupted=False,
        )

    kernel = ScriptedKernel(
        [
            (0, Tags.GLOBAL_START, start),
            (100, Tags.CLW_RESULT, clw_result(0), 1.0),
            (0, Tags.STOP, None, 1.5),
            (101, Tags.CLW_RESULT, clw_result(1), 2.0),
        ]
    )
    summary = kernel.run(tsw_process(ScriptedContext(), setup))
    assert kernel.script == []
    assert isinstance(summary, TswSummary)
    assert (summary.global_iterations_done, summary.local_iterations_done) == (1, 1)
    ends = [(send.tag, send.dst) for send in kernel.sent if send.tag in (Tags.TSW_RESULT, Tags.STOP)]
    assert ends == [(Tags.TSW_RESULT, 0), (Tags.STOP, 100), (Tags.STOP, 101)]


def test_a_stop_scooped_during_a_harvest_ends_the_tsw_after_its_reply(problem):
    """The same STOP during the TSW's harvest: it replies with both CLWs'
    states, then stops both CLWs and returns."""
    params = fault_params()
    clw_ranges = tuple(partition_cells(problem.num_cells, 2, scheme="strided"))
    setup = TswSetup(problem, params, 0, partition_cells(problem.num_cells, 2)[0], clw_ranges, 17)
    kernel = ScriptedKernel(
        [
            (0, Tags.STATE_REQUEST, None),
            (100, Tags.STATE_REPLY, clw_state(0), 1.0),
            (0, Tags.STOP, None, 1.5),
            (101, Tags.STATE_REPLY, clw_state(1), 2.0),
        ]
    )
    summary = kernel.run(tsw_process(ScriptedContext(), setup))
    assert kernel.script == []
    assert isinstance(summary, TswSummary)
    ends = [(send.tag, send.dst) for send in kernel.sent if send.tag in (Tags.STATE_REPLY, Tags.STOP)]
    assert ends == [(Tags.STATE_REPLY, 0), (Tags.STOP, 100), (Tags.STOP, 101)]
    assert [state.clw_index for state in kernel.sent[2].payload.clw_states] == [0, 1]


def test_the_master_harvest_gives_up_one_round_deadline_after_it_began(problem):
    """Replies that keep arriving do not restart the wait: the TSWs still
    silent when the round deadline passes are struck out at that deadline."""
    params = fault_params(num_tsws=4, clws_per_tsw=1)
    kernel = ScriptedKernel(
        [
            (100, Tags.STATE_REPLY, "tsw0 state", 20.0),
            (101, Tags.STATE_REPLY, "tsw1 state", 40.0),
            (102, Tags.STATE_REPLY, "tsw2 state", 60.0),  # past the deadline
        ]
    )
    result = kernel.run(master_process(ScriptedContext(), problem, params, max_rounds=0))
    assert not result.complete
    assert result.run_state.worker_states == ("tsw0 state", "tsw1 state")
    dead = [(e.time, e.worker, e.detail) for e in result.fault_events if e.kind == "worker-dead"]
    assert dead == [
        (POLICY.round_deadline, "tsw2", "no state reply"),
        (POLICY.round_deadline, "tsw3", "no state reply"),
    ]
    assert result.dead_workers == ("tsw2", "tsw3")


def test_a_message_of_another_tag_during_a_harvest_lands_in_the_inbox():
    """A drain request that arrives while the master harvests is kept for
    its next boundary, not dropped."""
    coord = Coordinator(
        ScriptedContext(),
        sync=SyncPolicy(mode="homogeneous"),
        fault=POLICY,
        deadline=POLICY.round_deadline,
        prefix="tsw",
        num_cells=16,
        scheme="contiguous",
        ranges=dict(enumerate(partition_cells(16, 2))),
        task_tag=Tags.GLOBAL_START,
        result_tag=Tags.TSW_RESULT,
        round_of=lambda result: result.global_iteration,
        ledger_keys=[0, 1],
    )
    drain = DrainWorker(at=0.0, name="tsw1")

    def parent():
        for index in range(2):
            yield from coord.provision(index, tsw_process, None, name=f"tsw{index}")
        return (yield from coord.harvest())

    kernel = ScriptedKernel(
        [
            (100, Tags.STATE_REPLY, "tsw0 state", 1.0),
            (0, Tags.DRAIN, drain, 2.0),
            (101, Tags.STATE_REPLY, "tsw1 state", 3.0),
        ]
    )
    assert kernel.run(parent()) == {0: "tsw0 state", 1: "tsw1 state"}
    assert kernel.script == []
    assert [(m.tag, m.payload) for m in coord.inbox] == [(Tags.DRAIN, drain)]


def tsw_result(problem, index: int) -> TswResult:
    """A round-0 report no better than the master's start: nothing adopted."""
    return TswResult(
        tsw_index=index, global_iteration=0,
        best_solution=SolutionPayload.full_shipment(problem.random_solution(seed=3), 0),
        best_cost=float("inf"), local_iterations_done=1, interrupted=False, evaluations=0,
    )


@pytest.mark.parametrize("phase", ["last round", "harvest"])
def test_a_drain_in_an_epochs_last_round_or_harvest_is_honoured_at_the_pause(problem, phase):
    """A DRAIN scooped while the master collects its epoch's last round, or
    while it harvests, is honoured at the pause: the paused roster retires
    the worker, and the resumed run starts without it."""
    params = fault_params(clws_per_tsw=1)
    states = [SimpleNamespace(tsw_index=index) for index in range(2)]
    script = [
        (100, Tags.TSW_RESULT, tsw_result(problem, 0), 1.0),
        (101, Tags.TSW_RESULT, tsw_result(problem, 1), 2.0),
        (100, Tags.STATE_REPLY, states[0], 3.0),
        (101, Tags.STATE_REPLY, states[1], 4.0),
    ]
    # between the two TSW results, or between the two state replies
    position, at = {"last round": (1, 1.5), "harvest": (3, 3.5)}[phase]
    script.insert(position, (0, Tags.DRAIN, DrainWorker(at, "tsw1"), at))
    kernel = ScriptedKernel(script)
    result = kernel.run(master_process(ScriptedContext(), problem, params, max_rounds=1))
    assert kernel.script == []
    run_state = result.run_state
    assert run_state.drained_workers == (1,)
    assert [e.worker for e in result.fault_events if e.kind == "worker-drained"] == ["tsw1"]
    assert 1 not in run_state.assigned_ranges
    assert run_state.worker_states == (states[0],)
    # tsw1 gets one STOP, its drain's
    assert [send.dst for send in kernel.sent if send.tag == Tags.STOP] == [101, 100]

    resumed = ScriptedKernel([(100, Tags.STATE_REPLY, states[0], 1.0)])
    paused_again = resumed.run(
        master_process(ScriptedContext(), problem, params, resume_state=run_state, max_rounds=0)
    )
    assert [spawn.name for spawn in resumed.spawned] == ["tsw0"]
    assert paused_again.run_state.drained_workers == (1,)
