"""Backend-parity suite: simulated / threads / processes run the same protocol.

For a fixed seed on a small circuit every backend must (a) improve on the
initial solution, (b) return a valid placement, and (c) — in homogeneous
wait-for-all mode, where no timing-dependent interrupts fire — be run-to-run
deterministic.  The suite also locks in that everything the process backend
ships across OS-process boundaries pickles.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.parallel import ParallelSearchParams, run_parallel_search
from repro.parallel.delta import SolutionPayload
from repro.parallel.messages import (
    ClwResult,
    ClwTask,
    GlobalStart,
    ReportNow,
    TswResult,
)
from repro.placement import load_benchmark
from repro.pvm import homogeneous_cluster
from repro.pvm.message import Message
from repro.pvm.process import Compute, Receive, Send, Spawn
from repro.tabu import TabuSearchParams

CIRCUIT = "mini64"
BACKENDS = ("simulated", "threads", "processes")


def parity_params(seed: int = 11) -> ParallelSearchParams:
    return ParallelSearchParams(
        num_tsws=2,
        clws_per_tsw=1,
        global_iterations=2,
        sync_mode="homogeneous",  # wait-for-all: no timing-dependent interrupts
        tabu=TabuSearchParams(local_iterations=3, pairs_per_step=3, move_depth=2),
        seed=seed,
    )


@pytest.fixture(scope="module")
def netlist():
    return load_benchmark(CIRCUIT)


def run_once(netlist, backend):
    return run_parallel_search(
        netlist,
        parity_params(),
        backend=backend,
        cluster=homogeneous_cluster(4),
        join_timeout=300.0,
    )


@pytest.fixture(scope="module")
def results(netlist):
    """One pair of identically-seeded runs per backend."""
    return {
        backend: (run_once(netlist, backend), run_once(netlist, backend))
        for backend in BACKENDS
    }


class TestBackendParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_improves_on_initial_solution(self, results, backend):
        for result in results[backend]:
            assert result.best_cost <= result.initial_cost
            assert result.best_cost < result.initial_cost  # strict on this workload

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_solution_invariants(self, results, netlist, backend):
        for result in results[backend]:
            solution = result.best_solution
            assert solution.shape == (netlist.num_cells,)
            assert len(np.unique(solution)) == netlist.num_cells  # a permutation

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_homogeneous_mode_is_run_to_run_deterministic(self, results, backend):
        first, second = results[backend]
        assert first.best_cost == pytest.approx(second.best_cost, abs=0.0)
        assert np.array_equal(first.best_solution, second.best_solution)

    def test_backends_reach_comparable_quality(self, results):
        costs = {backend: results[backend][0].best_cost for backend in BACKENDS}
        spread = max(costs.values()) - min(costs.values())
        assert spread < 0.25, costs


class TestSpawnSafety:
    """Everything that crosses an OS-process boundary must pickle."""

    def test_message_envelope_round_trips(self):
        payload = GlobalStart(
            global_iteration=3,
            solution=SolutionPayload.full_shipment(np.arange(16, dtype=np.int64), 3),
            tabu_payload=(),
        )
        message = Message(
            src=1, dst=2, tag="global_start", payload=payload, size_bytes=128,
            send_time=0.5, arrival_time=0.7,
        )
        clone = pickle.loads(pickle.dumps(message))
        assert (clone.src, clone.dst, clone.tag) == (1, 2, "global_start")
        assert np.array_equal(
            clone.payload.solution.full_solution(), payload.solution.full_solution()
        )

    def test_protocol_payloads_round_trip(self):
        payloads = [
            GlobalStart(global_iteration=0, solution=SolutionPayload.full_shipment(np.arange(8), 0)),
            ReportNow(round_id=4),
            ClwTask(round_id=1, solution=SolutionPayload.full_shipment(np.arange(8), 1)),
            ClwResult(
                clw_index=0, round_id=1, pairs=((1, 2), (3, 4)), cost_before=1.0,
                cost_after=0.9, trials=6, interrupted=False,
            ),
            TswResult(
                tsw_index=1,
                global_iteration=0,
                best_solution=SolutionPayload.full_shipment(np.arange(8), 0),
                best_cost=0.8, local_iterations_done=3, interrupted=False, evaluations=42,
                tabu_payload=(("swap", (1, 2), 9),), trace=((0.1, 1.0),),
            ),
        ]
        for payload in payloads:
            clone = pickle.loads(pickle.dumps(payload))
            assert type(clone) is type(payload)

    def test_syscalls_round_trip(self):
        def gen(ctx):
            yield  # pragma: no cover - only pickled by reference, never run

        syscalls = [
            Compute(work_units=3.0, label="x"),
            Send(dst=2, tag="t", payload={"k": np.arange(3)}),
            Receive(tag="t", src=1, blocking=True, timeout=0.5),
            Spawn(func=load_benchmark, args=("mini64",), kwargs={}, name="w"),
        ]
        for syscall in syscalls:
            clone = pickle.loads(pickle.dumps(syscall))
            assert type(clone) is type(syscall)
