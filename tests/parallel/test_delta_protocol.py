"""Tests of the delta-encoded parallel protocol (PR 3).

Covers the wire machinery (:mod:`repro.parallel.delta`), the equivalence of
delta adoption with full installation, and the ``needs_full`` divergence
recovery of both the CLW and the TSW, driven by scripted parents under the
discrete-event kernel.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import get_domain
from repro.parallel import ParallelSearchParams
from repro.parallel.clw import clw_process
from repro.parallel.delta import (
    DeltaEncoder,
    ResidentSolution,
    SolutionPayload,
    decode_solution,
    solution_crc,
    swap_list_between,
)
from repro.parallel.messages import ClwSetup, ClwTask, GlobalStart, Tags, TswSetup
from repro.parallel.tsw import _result_to_candidate, tsw_process
from repro.placement import load_benchmark
from repro.problems.placement import PlacementProblem
from repro.pvm import SimKernel, homogeneous_cluster
from repro.tabu import TabuSearchParams, full_range, partition_cells
from repro.tabu.search import TabuSearch

CIRCUITS = ("mini64", "c532", "c1355")


@pytest.fixture(scope="module")
def problem():
    return PlacementProblem.from_netlist(load_benchmark("mini64"), reference_seed=0)


def random_swapped(solution: np.ndarray, num_swaps: int, rng) -> np.ndarray:
    target = solution.copy()
    for _ in range(num_swaps):
        cell_a, cell_b = rng.integers(0, solution.size, size=2)
        target[[cell_a, cell_b]] = target[[cell_b, cell_a]]
    return target


class TestSwapListBetween:
    def test_roundtrip_random_permutations(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(4, 200))
            base = rng.permutation(n * 2)[:n]
            target = base.copy()[rng.permutation(n)]
            # target must stay a valid assignment of the same slots
            swaps = swap_list_between(base, target)
            replay = base.copy()
            for cell_a, cell_b in swaps:
                replay[[cell_a, cell_b]] = replay[[cell_b, cell_a]]
            assert np.array_equal(replay, target)
            assert swaps.shape[0] <= int(np.count_nonzero(base != target))

    def test_identity_is_empty(self):
        base = np.arange(10)
        assert swap_list_between(base, base).shape == (0, 2)

    def test_few_swaps_stay_few(self):
        rng = np.random.default_rng(1)
        base = rng.permutation(500)
        target = random_swapped(base, 5, rng)
        assert swap_list_between(base, target).shape[0] <= 10


class TestWireCodec:
    def test_full_payload_roundtrip(self):
        solution = np.arange(400, dtype=np.int64)[::-1].copy()
        payload = SolutionPayload.full_shipment(solution, version=7)
        restored = pickle.loads(pickle.dumps(payload))
        assert restored.is_full and restored.version == 7
        assert np.array_equal(restored.full_solution(), solution)

    def test_delta_payload_roundtrip(self):
        swaps = np.array([[1, 2], [3, 9]], dtype=np.int64)
        payload = SolutionPayload.delta_shipment(swaps, version=5, base_version=4, target_crc=123)
        restored = pickle.loads(pickle.dumps(payload))
        assert not restored.is_full
        assert restored.version == 5 and restored.base_version == 4
        assert restored.target_crc == 123
        assert np.array_equal(restored.swap_pairs(), swaps)

    def test_delta_is_much_smaller_than_legacy_full(self):
        solution = np.arange(1000, dtype=np.int64)
        legacy = len(pickle.dumps(solution))
        full = len(pickle.dumps(SolutionPayload.full_shipment(solution, 0)))
        delta = len(
            pickle.dumps(
                SolutionPayload.delta_shipment(np.array([[1, 2]]), 1, 0, 99)
            )
        )
        assert full < legacy  # int32 halves the raw int64 pickle
        assert delta < legacy / 20


class TestDeltaEncoder:
    def test_full_then_delta_then_fallback(self):
        rng = np.random.default_rng(2)
        base = rng.permutation(200)
        encoder = DeltaEncoder()
        first = encoder.encode("w", base, version=0)
        assert first.is_full

        near = random_swapped(base, 3, rng)
        second = encoder.encode("w", near, version=1)
        assert not second.is_full
        assert second.base_version == 0
        assert second.target_crc == solution_crc(near)

        far = near.copy()[rng.permutation(200)]
        third = encoder.encode("w", far, version=2)
        assert third.is_full  # diff beyond MAX_DELTA_FRACTION ships full
        assert encoder.full_shipments == 2 and encoder.delta_shipments == 1

    def test_invalidate_forces_full(self):
        rng = np.random.default_rng(3)
        base = rng.permutation(64)
        encoder = DeltaEncoder()
        encoder.encode("w", base, version=0)
        encoder.invalidate("w")
        again = encoder.encode("w", random_swapped(base, 1, rng), version=1)
        assert again.is_full

    def test_set_resident_enables_delta(self):
        rng = np.random.default_rng(4)
        base = rng.permutation(64)
        encoder = DeltaEncoder()
        encoder.set_resident("w", 9, base)
        payload = encoder.encode("w", random_swapped(base, 2, rng), version=10)
        assert not payload.is_full and payload.base_version == 9


@pytest.fixture(scope="module", params=["placement", "qap"])
def domain_problem(request):
    """One small problem per registered domain."""
    if request.param == "placement":
        return get_domain("placement").build_problem("tiny16", reference_seed=7)
    return get_domain("qap").build_problem("rand32", reference_seed=0)


class TestResidentSolution:
    """Every outcome of the receiver side both tiers share, on both domains."""

    def first_contact(self, problem, version=0):
        resident = ResidentSolution()
        base = problem.random_solution(seed=1)
        evaluator, applied = resident.adopt(
            problem, None, SolutionPayload.full_shipment(base, version)
        )
        assert applied == -1
        return resident, evaluator, base

    def test_full_payload_on_first_contact_builds_the_evaluator(self, domain_problem):
        resident, evaluator, base = self.first_contact(domain_problem, version=3)
        assert resident.version == 3
        assert np.array_equal(evaluator.snapshot(), base)
        assert evaluator.cost() == domain_problem.make_evaluator(base).cost()

    def test_delta_on_first_contact_asks_for_a_resend(self, domain_problem):
        resident = ResidentSolution()
        delta = SolutionPayload.delta_shipment(np.array([[0, 1]]), 1, base_version=-1)
        assert resident.adopt(domain_problem, None, delta) == (None, None)
        assert resident.version == -1

    def test_full_install_replaces_the_resident_solution(self, domain_problem):
        resident, evaluator, _ = self.first_contact(domain_problem)
        target = domain_problem.random_solution(seed=2)
        adopted, applied = resident.adopt(
            domain_problem, evaluator, SolutionPayload.full_shipment(target, 1)
        )
        assert adopted is evaluator and applied == -1 and resident.version == 1
        assert np.array_equal(evaluator.snapshot(), target)

    def test_empty_delta_installs_nothing(self, domain_problem):
        resident, evaluator, base = self.first_contact(domain_problem)
        before = evaluator.cost()
        empty = SolutionPayload.delta_shipment(
            np.zeros((0, 2)), 1, base_version=0, target_crc=solution_crc(base)
        )
        adopted, applied = resident.adopt(domain_problem, evaluator, empty)
        assert adopted is evaluator and applied == 0 and resident.version == 1
        assert np.array_equal(evaluator.snapshot(), base)
        assert evaluator.cost() == before

    def test_applied_delta_equals_a_full_install(self, domain_problem):
        resident, evaluator, base = self.first_contact(domain_problem)
        target = random_swapped(base, 3, np.random.default_rng(6))
        swaps = swap_list_between(base, target)
        delta = SolutionPayload.delta_shipment(swaps, 1, 0, solution_crc(target))
        adopted, applied = resident.adopt(domain_problem, evaluator, delta)
        assert adopted is evaluator and resident.version == 1
        assert applied == swaps.shape[0] > 0
        installed = domain_problem.make_evaluator(base)
        installed.install_solution(target)
        assert np.array_equal(evaluator.snapshot(), installed.snapshot())
        assert evaluator.cost() == pytest.approx(installed.cost(), abs=1e-9)

    def test_wrong_base_version_asks_for_a_resend(self, domain_problem):
        resident, evaluator, base = self.first_contact(domain_problem)
        wrong = SolutionPayload.delta_shipment(
            np.array([[0, 1]]), 2, base_version=1, target_crc=solution_crc(base)
        )
        assert resident.adopt(domain_problem, evaluator, wrong) == (evaluator, None)
        assert resident.version == 0  # the resident solution is untouched
        assert np.array_equal(evaluator.snapshot(), base)

    def test_failed_checksum_asks_for_a_resend_and_resets_the_version(
        self, domain_problem
    ):
        resident, evaluator, base = self.first_contact(domain_problem)
        bad = SolutionPayload.delta_shipment(
            np.array([[0, 1]]), 1, base_version=0, target_crc=solution_crc(base)
        )
        assert resident.adopt(domain_problem, evaluator, bad) == (evaluator, None)
        assert resident.version == -1
        # the full re-send recovers
        target = domain_problem.random_solution(seed=3)
        _, applied = resident.adopt(
            domain_problem, evaluator, SolutionPayload.full_shipment(target, 1)
        )
        assert applied == -1 and resident.version == 1
        assert np.array_equal(evaluator.snapshot(), target)

    def test_decode_solution_checks_crc(self):
        rng = np.random.default_rng(5)
        base = rng.permutation(64)
        target = random_swapped(base, 2, rng)
        payload = SolutionPayload.delta_shipment(
            swap_list_between(base, target), 1, 0, solution_crc(target)
        )
        assert np.array_equal(decode_solution(payload, base), target)
        corrupted = SolutionPayload.delta_shipment(
            payload.swap_pairs(), 1, 0, solution_crc(target) ^ 0xFF
        )
        assert decode_solution(corrupted, base) is None


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_delta_adopt_matches_full_install_with_tabu_state(circuit):
    """Delta adoption == full install == scratch: cost, caches, tabu state."""
    netlist = load_benchmark(circuit)
    prob = PlacementProblem.from_netlist(netlist, reference_seed=0)
    rng = np.random.default_rng(17)
    base = prob.random_solution(1)

    delta_eval = prob.make_evaluator(base)
    delta_search = TabuSearch(delta_eval, TabuSearchParams(), seed=3)
    full_eval = prob.make_evaluator(base)
    full_search = TabuSearch(full_eval, TabuSearchParams(), seed=3)

    tabu_payload = (("pair", (1, 2), 5), ("pair", (3, 4), 9))
    current = base
    for round_index in range(3):
        target = random_swapped(current, int(rng.integers(1, 12)), rng)
        pairs = swap_list_between(current, target)
        # the TSW's delta adopt: apply on the evaluator, then record the best
        cost_delta = delta_eval.apply_swaps(pairs, exact_timing=True)
        delta_search.note_best()
        cost_full = full_eval.install_solution(target)
        full_search.note_best()
        assert cost_delta == pytest.approx(cost_full, abs=1e-6)
        assert np.array_equal(delta_eval.snapshot(), full_eval.snapshot())

        scratch_eval = prob.make_evaluator(target)
        assert cost_delta == pytest.approx(scratch_eval.cost(), abs=1e-6)
        for field in ("_x_min", "_x_max", "_y_min", "_y_max",
                      "_inner_x_min", "_inner_x_max", "_inner_y_min", "_inner_y_max"):
            assert np.allclose(
                getattr(delta_eval._wirelength, field),
                getattr(scratch_eval._wirelength, field),
                atol=1e-6,
            ), field

        delta_search.adopt_tabu_list(tabu_payload)
        full_search.adopt_tabu_list(tabu_payload)
        assert delta_search.tabu_list.to_payload() == full_search.tabu_list.to_payload()
        assert delta_search.best_cost == pytest.approx(full_search.best_cost, abs=1e-6)
        current = target


class TestClwDeltaProtocol:
    def run_parent(self, problem, parent):
        kernel = SimKernel(homogeneous_cluster(4))
        pid = kernel.spawn(parent, name="scripted-parent", machine_index=0)
        kernel.run()
        return kernel.result_of(pid)

    def spawn_clw(self, ctx, problem, params):
        return ctx.spawn(
            clw_process, ClwSetup(problem, params, full_range(problem.num_cells), 0, 123),
            name="clw0",
        )

    def test_delta_task_is_adopted_incrementally(self, problem):
        """Full first task, delta second task, empty-delta third task."""
        params = TabuSearchParams(pairs_per_step=4, move_depth=2)

        def parent(ctx):
            clw = yield self.spawn_clw(ctx, problem, params)
            encoder = DeltaEncoder()
            rng = np.random.default_rng(0)
            solution = problem.random_solution(seed=1)
            replies = []
            # round 1: full, round 2: small delta, round 3: unchanged
            solutions = [solution, random_swapped(solution, 3, rng)]
            solutions.append(solutions[-1])
            for round_id, target in enumerate(solutions, start=1):
                payload = encoder.encode(0, target, version=round_id)
                yield ctx.send(clw, Tags.CLW_TASK, ClwTask(round_id=round_id, solution=payload))
                reply = yield ctx.recv(tag=Tags.CLW_RESULT)
                replies.append(reply.payload)
            yield ctx.send(clw, Tags.STOP)
            return replies

        replies = self.run_parent(problem, parent)
        assert [r.adopt_swaps for r in replies] == [-1, 3, 0]
        assert all(not r.needs_full for r in replies)
        assert all(r.round_id == i for i, r in enumerate(replies, start=1))
        # per-step costs ride along and match the pair count
        for reply in replies:
            assert len(reply.step_costs) == len(reply.pairs)

    def test_divergent_delta_triggers_full_recovery(self, problem):
        """A delta against a wrong base is NACKed and a full re-send recovers."""
        params = TabuSearchParams(pairs_per_step=4, move_depth=2)

        def parent(ctx):
            clw = yield self.spawn_clw(ctx, problem, params)
            rng = np.random.default_rng(1)
            solution = problem.random_solution(seed=2)
            # proper full task first
            yield ctx.send(
                clw, Tags.CLW_TASK,
                ClwTask(round_id=1, solution=SolutionPayload.full_shipment(solution, 1)),
            )
            first = (yield ctx.recv(tag=Tags.CLW_RESULT)).payload
            # now a delta claiming a base the CLW never adopted
            bogus = SolutionPayload.delta_shipment(
                np.array([[0, 1]]), version=2, base_version=77,
                target_crc=solution_crc(solution),
            )
            yield ctx.send(clw, Tags.CLW_TASK, ClwTask(round_id=2, solution=bogus))
            nack = (yield ctx.recv(tag=Tags.CLW_RESULT)).payload
            # recover with a full shipment of the same round
            target = random_swapped(solution, 2, rng)
            yield ctx.send(
                clw, Tags.CLW_TASK,
                ClwTask(round_id=2, solution=SolutionPayload.full_shipment(target, 2)),
            )
            recovered = (yield ctx.recv(tag=Tags.CLW_RESULT)).payload
            yield ctx.send(clw, Tags.STOP)
            return first, nack, recovered

        first, nack, recovered = self.run_parent(problem, parent)
        assert not first.needs_full
        assert nack.needs_full and nack.round_id == 2 and not nack.pairs
        assert not recovered.needs_full
        assert recovered.round_id == 2 and len(recovered.pairs) >= 1

    def test_wrong_crc_delta_triggers_full_recovery(self, problem):
        """A delta whose checksum fails after application is NACKed too."""
        params = TabuSearchParams(pairs_per_step=4, move_depth=2)

        def parent(ctx):
            clw = yield self.spawn_clw(ctx, problem, params)
            solution = problem.random_solution(seed=3)
            yield ctx.send(
                clw, Tags.CLW_TASK,
                ClwTask(round_id=1, solution=SolutionPayload.full_shipment(solution, 1)),
            )
            yield ctx.recv(tag=Tags.CLW_RESULT)
            # correct base version, wrong checksum: simulates a tracking bug
            bad = SolutionPayload.delta_shipment(
                np.array([[0, 1]]), version=2, base_version=1, target_crc=0xDEAD,
            )
            yield ctx.send(clw, Tags.CLW_TASK, ClwTask(round_id=2, solution=bad))
            nack = (yield ctx.recv(tag=Tags.CLW_RESULT)).payload
            target = problem.random_solution(seed=4)
            yield ctx.send(
                clw, Tags.CLW_TASK,
                ClwTask(round_id=2, solution=SolutionPayload.full_shipment(target, 2)),
            )
            recovered = (yield ctx.recv(tag=Tags.CLW_RESULT)).payload
            yield ctx.send(clw, Tags.STOP)
            return nack, recovered

        nack, recovered = self.run_parent(problem, parent)
        assert nack.needs_full
        assert not recovered.needs_full and len(recovered.pairs) >= 1


class TestTswDeltaProtocol:
    def test_first_contact_delta_broadcast_is_nacked_and_recovers(self, problem):
        """A TSW that never saw a full solution NACKs a delta broadcast."""
        params = ParallelSearchParams(
            num_tsws=1,
            clws_per_tsw=1,
            global_iterations=1,
            tabu=TabuSearchParams(local_iterations=2, pairs_per_step=3, move_depth=2),
        )
        tsw_ranges = partition_cells(problem.num_cells, 1)
        clw_ranges = partition_cells(problem.num_cells, 1)

        def master(ctx):
            tsw = yield ctx.spawn(
                tsw_process, TswSetup(problem, params, 0, tsw_ranges[0], tuple(clw_ranges), 7),
                name="tsw0",
            )
            solution = problem.random_solution(seed=1)
            bogus = SolutionPayload.delta_shipment(
                np.array([[0, 1]]), version=0, base_version=4,
                target_crc=solution_crc(solution),
            )
            yield ctx.send(
                tsw, Tags.GLOBAL_START,
                GlobalStart(global_iteration=0, solution=bogus),
            )
            nack = (yield ctx.recv(tag=Tags.TSW_RESULT)).payload
            yield ctx.send(
                tsw, Tags.GLOBAL_START,
                GlobalStart(
                    global_iteration=0, solution=SolutionPayload.full_shipment(solution, 0)
                ),
            )
            recovered = (yield ctx.recv(tag=Tags.TSW_RESULT)).payload
            yield ctx.send(tsw, Tags.STOP)
            return nack, recovered

        kernel = SimKernel(homogeneous_cluster(4))
        pid = kernel.spawn(master, name="master", machine_index=0)
        kernel.run()
        nack, recovered = kernel.result_of(pid)
        assert nack.needs_full and nack.best_cost == float("inf")
        assert not recovered.needs_full
        assert recovered.local_iterations_done == 2
        decoded = decode_solution(
            recovered.best_solution,
            problem.random_solution(seed=1),
            expected_base_version=0,
        )
        assert decoded is not None and decoded.shape == (problem.num_cells,)


def test_result_to_candidate_keeps_per_step_costs():
    """Intermediate swaps carry their own costs, not the final one."""
    from repro.parallel.messages import ClwResult

    result = ClwResult(
        clw_index=0,
        round_id=1,
        pairs=((1, 2), (3, 4), (5, 6)),
        cost_before=0.9,
        cost_after=0.5,
        trials=12,
        interrupted=False,
        step_costs=(0.8, 0.65, 0.5),
    )
    move = _result_to_candidate(result)
    assert [s.cost_after for s in move.swaps] == [0.8, 0.65, 0.5]
    assert move.cost_after == 0.5


def test_shipment_mode_does_not_change_trajectory(monkeypatch):
    """Delta and full shipment are interchangeable: same seeded trajectory.

    Forces every encoder to ship full solutions and re-runs the same seeded
    search — the result must match the delta-shipping run (resident adoption
    leaves workers in the same state a full install produces).
    """
    from repro import run_parallel_search

    netlist = load_benchmark("c532")
    params = ParallelSearchParams(
        num_tsws=2,
        clws_per_tsw=2,
        global_iterations=3,
        tabu=TabuSearchParams(local_iterations=4, pairs_per_step=6, move_depth=2),
        seed=11,
    )
    with_deltas = run_parallel_search(netlist, params, backend="simulated")

    def always_full(self, receiver, target, version):
        target = np.asarray(target, dtype=np.int64)
        self._resident[receiver] = (version, target.copy())
        self.full_shipments += 1
        return SolutionPayload.full_shipment(target, version)

    monkeypatch.setattr(DeltaEncoder, "encode", always_full)
    full_only = run_parallel_search(netlist, params, backend="simulated")
    assert with_deltas.best_cost == pytest.approx(full_only.best_cost, abs=1e-9)
    assert [r.best_cost_after for r in with_deltas.global_records] == pytest.approx(
        [r.best_cost_after for r in full_only.global_records], abs=1e-9
    )


def test_end_to_end_delta_run_matches_legacy_bytes_reduction():
    """A simulated run ships several-fold fewer bytes than full shipment would."""
    from repro import run_parallel_search

    netlist = load_benchmark("c532")
    params = ParallelSearchParams(
        num_tsws=2,
        clws_per_tsw=2,
        global_iterations=3,
        tabu=TabuSearchParams(local_iterations=5, pairs_per_step=8, move_depth=3),
        seed=7,
    )
    result = run_parallel_search(netlist, params, backend="simulated")
    assert result.best_cost < result.initial_cost
    stats = result.sim_stats
    # full shipment lower bound: every one of the protocol's solution-bearing
    # messages would carry the whole int64 assignment (~3.2 KB each)
    full_shipment_floor = stats.total_messages * netlist.num_cells * 8 * 0.5
    assert stats.total_bytes < full_shipment_floor
