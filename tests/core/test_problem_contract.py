"""Protocol-conformance suite, parameterized over every problem domain.

One battery of contract tests runs against each registered
:class:`~repro.core.protocols.SearchProblem` implementation: placement on
both shared-net detection paths of the wirelength kernel (dense and CSR),
and QAP on a symmetric and an asymmetric instance.  The contract is
exactly what the engine layers rely on:

* **batch == scalar == from-scratch** — a batched trial evaluation, the
  scalar path and the cost of a freshly built evaluator on the mutated
  assignment must agree (the placement domain's timing surrogate is an
  approximation between exact refreshes, hence its looser scratch
  tolerance; scalar-vs-batch equality is exact in both domains);
* **delta-adopt == full-install** — applying a swap-list delta with
  ``exact_timing=True`` must land in the same state as installing the full
  target assignment (what makes the wire protocol's two shipment forms
  interchangeable);
* **empty/degenerate inputs** — ``evaluate_swaps_batch([])`` and
  ``apply_swaps([])`` return/no-op consistently, self-pairs score the
  current cost and never count as work;
* **snapshots** — ``save_state``/``restore_state`` round-trips, and a
  restore is the rewind of a trial move: it lands on the saved state's
  assignment, cost and batch scores, counts no work, and one snapshot
  rewinds several walks;
* **seeded determinism** — identically-seeded runs (serial and parallel on
  the simulated backend) produce identical trajectories.

The whole battery is additionally parameterized over the batch kernel:

* ``numpy-direct`` — the shipped evaluator with a frozen reference from
  ``tests/oracles/kernels.py`` injected (the oracle): the QAP delta kernel,
  and for placement the whole batch path before it became one pass
  (:func:`~oracles.kernels.batch_reference`: the three objectives' deltas
  and the fuzzy aggregation);
* ``xp-numpy`` — the shipped evaluator, calling the :mod:`repro.accel`
  kernels and the one-pass batch, which must be bit-identical to the
  oracle.

Because both run the identical battery, any behavioural drift in the
shipped kernels fails twice over — once against the frozen kernel's
results, once against the contract itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from oracles.kernels import batch_reference, qap_reference
from repro import (
    ParallelSearchParams,
    TabuSearch,
    TabuSearchParams,
    TerminationCriteria,
    run_parallel_search,
)
from repro.core import get_domain
from repro.core.protocols import SearchProblem, SwapEvaluator, ensure_search_problem
from repro.parallel.delta import swap_list_between
from repro.placement.wirelength import WirelengthState
from repro.problems.qap import generate_qap


@dataclass(frozen=True)
class DomainSpec:
    #: Test id of the spec.
    id: str
    domain: str
    #: What the domain's ``build_problem`` receives: an instance name, or a
    #: built instance where no name yields the shape under test.
    instance: object
    #: Tolerance of the batch-prediction-versus-fresh-evaluator check.  QAP
    #: deltas are exact; the placement cost uses an incremental timing
    #: surrogate between exact refreshes, so its trial predictions carry a
    #: small, bounded approximation error by design.
    scratch_atol: float
    #: Placement only: force the wirelength kernel's sparse CSR shared-net
    #: path, which circuits take by default only past ``INCIDENCE_BUDGET``.
    csr_incidence: bool = False


SPECS = [
    DomainSpec(id="placement", domain="placement", instance="mini64", scratch_atol=2e-2),
    DomainSpec(
        id="placement-csr",
        domain="placement",
        instance="mini64",
        scratch_atol=2e-2,
        csr_incidence=True,
    ),
    DomainSpec(id="qap", domain="qap", instance="rand32", scratch_atol=1e-9),
    # Every named QAP instance is symmetric, so only this one takes the
    # batch kernel's asymmetric (column-sum) branch and the general scalar
    # delta through the whole battery.
    DomainSpec(
        id="qap-asym",
        domain="qap",
        instance=generate_qap(32, symmetric=False, name="rand32-asym"),
        scratch_atol=1e-9,
    ),
]

BACKENDS = ["numpy-direct", "xp-numpy"]


def _inject_reference_kernel(evaluator, domain: str) -> None:
    """Route the evaluator's batch scoring through the frozen reference."""
    if domain == "qap":
        evaluator.deltas_for_swaps = lambda a, b: qap_reference(evaluator, a, b)
    else:
        evaluator.evaluate_swaps_batch = lambda pairs: batch_reference(evaluator, pairs)


def make_backend_evaluator(problem, domain: str, backend: str, *, seed: int = 3):
    """An evaluator for ``problem`` running its batch kernel as ``backend``."""
    evaluator = problem.make_evaluator(problem.random_solution(seed=seed))
    if backend == "numpy-direct":
        _inject_reference_kernel(evaluator, domain)
    return evaluator


@pytest.fixture(scope="module", params=SPECS, ids=lambda spec: spec.id)
def spec(request):
    return request.param


@pytest.fixture(scope="module")
def problem(spec):
    with pytest.MonkeyPatch.context() as patch:
        if spec.csr_incidence:
            # every evaluator built while this spec's tests run takes CSR
            patch.setattr(WirelengthState, "INCIDENCE_BUDGET", 0)
        problem = get_domain(spec.domain).build_problem(spec.instance, reference_seed=0)
        if spec.domain == "placement":
            probe = problem.make_evaluator(problem.random_solution(seed=0))
            expected = "csr" if spec.csr_incidence else "dense"
            assert probe._wirelength.incidence_mode == expected
        yield problem


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def evaluator(problem, spec, backend):
    return make_backend_evaluator(problem, spec.domain, backend)


class TestProtocolSurface:
    def test_problem_satisfies_the_protocol(self, problem):
        ensure_search_problem(problem)
        assert isinstance(problem, SearchProblem)
        assert problem.num_cells >= 2
        assert isinstance(problem.name, str) and problem.name

    def test_evaluator_satisfies_the_protocol(self, evaluator, problem):
        assert isinstance(evaluator, SwapEvaluator)
        assert evaluator.num_cells == problem.num_cells
        assert evaluator.instance_name == problem.name
        assert evaluator.evaluations == 0

    def test_work_unit_hooks(self, problem):
        install = problem.install_work_units()
        assert install >= 1.0
        assert problem.adopt_work_units(0) >= 1.0
        # a huge delta never charges more than a full install
        assert problem.adopt_work_units(10**6) == pytest.approx(install)

    def test_random_solutions_are_seeded_permutation_like(self, problem):
        first = problem.random_solution(seed=5)
        again = problem.random_solution(seed=5)
        other = problem.random_solution(seed=6)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)
        assert first.shape == (problem.num_cells,)
        assert len(np.unique(first)) == problem.num_cells  # distinct positions


class TestBatchScalarScratch:
    def test_batch_equals_scalar_including_self_pairs(self, evaluator):
        rng = np.random.default_rng(11)
        n = evaluator.num_cells
        pairs = rng.integers(0, n, size=(200, 2))
        pairs[::25, 1] = pairs[::25, 0]  # sprinkle self-pairs
        batch = evaluator.evaluate_swaps_batch(pairs)
        assert batch.shape == (200,)
        for k, (a, b) in enumerate(pairs.tolist()):
            assert batch[k] == evaluator.evaluate_swap(int(a), int(b))
        self_mask = pairs[:, 0] == pairs[:, 1]
        assert np.all(batch[self_mask] == evaluator.cost())

    def test_batch_matches_fresh_evaluator(self, problem, evaluator, spec):
        rng = np.random.default_rng(12)
        n = evaluator.num_cells
        pairs = rng.integers(0, n, size=(40, 2))
        batch = evaluator.evaluate_swaps_batch(pairs)
        for (a, b), predicted in zip(pairs.tolist(), batch):
            mutated = evaluator.snapshot()
            mutated[[a, b]] = mutated[[b, a]]
            scratch = problem.make_evaluator(mutated).cost()
            assert predicted == pytest.approx(scratch, abs=spec.scratch_atol)

    def test_commit_lands_on_the_evaluated_cost(self, evaluator, spec):
        rng = np.random.default_rng(13)
        n = evaluator.num_cells
        for _ in range(20):
            a, b = (int(x) for x in rng.integers(0, n, 2))
            predicted = evaluator.evaluate_swap(a, b)
            committed = evaluator.commit_swap(a, b)
            assert committed == pytest.approx(predicted, abs=spec.scratch_atol)
        evaluator.verify_consistency()

    def test_self_pairs_do_not_count_as_work(self, evaluator):
        before = evaluator.evaluations
        evaluator.evaluate_swaps_batch([(4, 4), (5, 5)])
        evaluator.commit_swap(6, 6)
        assert evaluator.evaluations == before


class TestDeltaAdoptEqualsFullInstall:
    @staticmethod
    def _swapped_target(base: np.ndarray, *, seed: int, swaps: int) -> np.ndarray:
        """A target reachable from ``base`` by swaps — like every solution of
        a protocol round (two independent random placements may fill
        different slot subsets, which the wire protocol never produces)."""
        target = base.copy()
        rng = np.random.default_rng(seed)
        for _ in range(swaps):
            a, b = rng.integers(0, base.shape[0], size=2)
            target[[a, b]] = target[[b, a]]
        return target

    def test_swap_list_delta_matches_install(self, problem):
        base = problem.random_solution(seed=1)
        target = self._swapped_target(base, seed=2, swaps=12)
        delta_eval = problem.make_evaluator(base)
        delta = swap_list_between(base, target)
        assert delta.shape[0] > 0
        evaluations_before = delta_eval.evaluations
        delta_cost = delta_eval.apply_swaps(delta, exact_timing=True)
        full_cost = problem.make_evaluator(target).cost()
        assert np.array_equal(delta_eval.snapshot(), target)
        assert delta_cost == pytest.approx(full_cost, abs=1e-6)
        # protocol bookkeeping, not search work
        assert delta_eval.evaluations == evaluations_before
        delta_eval.verify_consistency()

    def test_adopt_after_search_walk(self, problem):
        """Delta adoption must stay exact on caches warmed by a real walk."""
        evaluator = problem.make_evaluator(problem.random_solution(seed=4))
        rng = np.random.default_rng(44)
        n = evaluator.num_cells
        for _ in range(30):
            a, b = (int(x) for x in rng.integers(0, n, 2))
            evaluator.commit_swap(a, b)
        target = self._swapped_target(evaluator.snapshot(), seed=5, swaps=9)
        delta = swap_list_between(evaluator.snapshot(), target)
        adopted = evaluator.apply_swaps(delta, exact_timing=True)
        assert np.array_equal(evaluator.snapshot(), target)
        assert adopted == pytest.approx(
            problem.make_evaluator(target).cost(), abs=1e-6
        )


class TestEmptyAndDegenerateInputs:
    def test_empty_batch_returns_empty_float_array(self, evaluator):
        for empty in ([], np.zeros((0, 2), dtype=np.int64)):
            result = evaluator.evaluate_swaps_batch(empty)
            assert result.shape == (0,)
            assert result.dtype == np.float64

    def test_empty_apply_swaps_is_a_noop(self, evaluator):
        cost = evaluator.cost()
        assignment = evaluator.snapshot()
        work = evaluator.evaluations
        for empty in ([], np.zeros((0, 2), dtype=np.int64)):
            assert evaluator.apply_swaps(empty) == pytest.approx(cost, abs=1e-9)
            assert evaluator.apply_swaps(empty, exact_timing=True) == pytest.approx(
                cost, abs=1e-9
            )
        assert np.array_equal(evaluator.snapshot(), assignment)
        assert evaluator.evaluations == work

    def test_self_pairs_inside_apply_swaps_are_dropped(self, evaluator):
        cost = evaluator.cost()
        assignment = evaluator.snapshot()
        assert evaluator.apply_swaps([(3, 3), (7, 7)]) == pytest.approx(
            cost, abs=1e-9
        )
        assert np.array_equal(evaluator.snapshot(), assignment)


class TestSnapshots:
    def test_save_restore_roundtrip(self, evaluator):
        state = evaluator.save_state()
        cost = evaluator.cost()
        assignment = evaluator.snapshot()
        rng = np.random.default_rng(21)
        n = evaluator.num_cells
        for _ in range(15):
            a, b = (int(x) for x in rng.integers(0, n, 2))
            evaluator.commit_swap(a, b)
        assert not np.array_equal(evaluator.snapshot(), assignment)
        evaluator.restore_state(state)
        assert np.array_equal(evaluator.snapshot(), assignment)
        assert evaluator.cost() == cost
        evaluator.verify_consistency()

    def test_install_solution_matches_fresh_evaluator(self, problem, evaluator):
        target = problem.random_solution(seed=8)
        installed = evaluator.install_solution(target)
        assert np.array_equal(evaluator.snapshot(), target)
        assert installed == pytest.approx(
            problem.make_evaluator(target).cost(), abs=1e-9
        )


class TestSnapshotRewind:
    """A snapshot restore is the one way a trial move is rewound."""

    def test_rewind_restores_assignment_and_cost(self, problem):
        evaluator = problem.make_evaluator(problem.random_solution(seed=6))
        state = evaluator.save_state()
        before = evaluator.snapshot()
        cost_before = evaluator.cost()
        rng = np.random.default_rng(61)
        n = evaluator.num_cells
        pairs = rng.integers(0, n, size=(9, 2))
        evaluator.apply_swaps(pairs)
        work_after_apply = evaluator.evaluations
        evaluator.restore_state(state)
        assert np.array_equal(evaluator.snapshot(), before)
        assert evaluator.cost() == cost_before
        # the rewind is bookkeeping, not search work
        assert evaluator.evaluations == work_after_apply
        evaluator.verify_consistency()

    def test_rewind_without_moves_is_a_noop(self, evaluator):
        # a CLW interrupted before its first step rewinds an empty move
        pairs = np.random.default_rng(62).integers(0, evaluator.num_cells, size=(12, 2))
        before = evaluator.snapshot()
        cost = evaluator.cost()
        scores = evaluator.evaluate_swaps_batch(pairs)
        state = evaluator.save_state()
        evaluator.apply_swaps([])
        evaluator.restore_state(state)
        assert np.array_equal(evaluator.snapshot(), before)
        assert evaluator.cost() == cost
        assert np.array_equal(evaluator.evaluate_swaps_batch(pairs), scores)

    def test_rewind_after_sequential_commits(self, problem):
        # the master's pattern: one snapshot rewinds several trial walks
        evaluator = problem.make_evaluator(problem.random_solution(seed=7))
        state = evaluator.save_state()
        before = evaluator.snapshot()
        for walk in ([(1, 5), (0, 3), (1, 2)], [(4, 9), (2, 7)]):
            for a, b in walk:
                evaluator.commit_swap(a, b)
            evaluator.restore_state(state)
            assert np.array_equal(evaluator.snapshot(), before)
        # every incremental cache rewound too: the next scores are a fresh
        # evaluator's, bit for bit
        fresh = problem.make_evaluator(before)
        pairs = np.random.default_rng(63).integers(0, evaluator.num_cells, size=(12, 2))
        assert evaluator.cost() == fresh.cost()
        assert np.array_equal(
            evaluator.evaluate_swaps_batch(pairs), fresh.evaluate_swaps_batch(pairs)
        )


class TestMaskAwareBatchContract:
    """The batch-scoring guarantees the vectorized iteration driver builds on."""

    def test_batch_is_dense_float64_aligned_with_pairs(self, evaluator):
        rng = np.random.default_rng(31)
        n = evaluator.num_cells
        pairs = rng.integers(0, n, size=(17, 2))
        costs = evaluator.evaluate_swaps_batch(pairs)
        assert costs.shape == (17,)
        assert costs.dtype == np.float64
        assert np.all(np.isfinite(costs))

    def test_fused_batch_equals_per_range_batches(self, evaluator):
        """Scoring is batch-size invariant: several batches scored in one
        call must be bit-identical to each batch scored separately."""
        rng = np.random.default_rng(32)
        n = evaluator.num_cells
        chunks = [rng.integers(0, n, size=(k, 2)) for k in (7, 5, 9)]
        fused = evaluator.evaluate_swaps_batch(np.concatenate(chunks))
        split = np.concatenate([evaluator.evaluate_swaps_batch(c) for c in chunks])
        assert np.array_equal(fused, split)

    def _masked_builder(self, problem, admissible):
        from repro.tabu import CompoundMoveBuilder, full_range

        evaluator = problem.make_evaluator(problem.random_solution(seed=8))
        builder = CompoundMoveBuilder(
            evaluator,
            full_range(evaluator.num_cells),
            pairs_per_step=6,
            depth=1,
            early_accept=False,
            admissible=admissible,
        )
        return evaluator, builder

    def test_empty_mask_selects_plain_argmin(self, problem):
        """``None`` from the hook (nothing tabu) must match no hook at all."""
        seen = {}

        def admissible(pairs, costs):
            seen["costs"] = costs.copy()
            return None

        evaluator, builder = self._masked_builder(problem, admissible)
        rng = np.random.default_rng(40)
        builder.step(rng)
        move = builder.finalize()
        assert move.swaps[0].cost_after == float(np.min(seen["costs"]))

    def test_all_tabu_falls_back_to_overall_best(self, problem):
        """With every pair masked out the step still commits the best pair —
        the builder must always produce a move (the driver's move-level
        tabu check guards acceptance)."""
        seen = {}

        def admissible(pairs, costs):
            seen["costs"] = costs.copy()
            return np.zeros(len(pairs), dtype=bool)

        evaluator, builder = self._masked_builder(problem, admissible)
        builder.step(np.random.default_rng(41))
        move = builder.finalize()
        assert move.depth == 1
        assert move.swaps[0].cost_after == float(np.min(seen["costs"]))

    def test_aspiration_override_prefers_admissible_pair(self, problem):
        """A mask admitting only one (non-optimal) pair — e.g. a tabu batch
        with a single aspiring entry — must select exactly that pair."""
        seen = {}

        def admissible(pairs, costs):
            mask = np.zeros(len(pairs), dtype=bool)
            worst = int(np.argmax(costs))
            mask[worst] = True
            seen["worst"] = float(costs[worst])
            return mask

        evaluator, builder = self._masked_builder(problem, admissible)
        builder.step(np.random.default_rng(42))
        move = builder.finalize()
        assert move.swaps[0].cost_after == seen["worst"]


class TestBackendKernelParity:
    """The shipped batch against the frozen references: the QAP kernel, and
    for placement the whole batch path (deltas and aggregation)."""

    def _pairs(self, n: int, count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n, size=(count, 2))
        pairs[::17, 1] = pairs[::17, 0]  # sprinkle self-pairs
        return pairs

    def test_xp_numpy_batch_is_bit_identical_to_reference(self, problem, spec):
        shipped = make_backend_evaluator(problem, spec.domain, "xp-numpy")
        oracle = make_backend_evaluator(problem, spec.domain, "numpy-direct")
        pairs = self._pairs(shipped.num_cells, 300, seed=91)
        assert np.array_equal(
            shipped.evaluate_swaps_batch(pairs), oracle.evaluate_swaps_batch(pairs)
        )

    def test_parity_holds_along_a_committed_walk(self, problem, spec):
        """Identity must survive cache mutation, not just the fresh state."""
        shipped = make_backend_evaluator(problem, spec.domain, "xp-numpy")
        oracle = make_backend_evaluator(problem, spec.domain, "numpy-direct")
        rng = np.random.default_rng(92)
        n = shipped.num_cells
        for step in range(12):
            pairs = self._pairs(n, 40, seed=100 + step)
            assert np.array_equal(
                shipped.evaluate_swaps_batch(pairs),
                oracle.evaluate_swaps_batch(pairs),
            )
            a, b = (int(x) for x in rng.integers(0, n, 2))
            assert shipped.commit_swap(a, b) == oracle.commit_swap(a, b)
        shipped.verify_consistency()
        oracle.verify_consistency()


@pytest.fixture
def qap_evaluator():
    """A QAP evaluator: the domain whose batch kernel pools scratch blocks."""
    problem = get_domain("qap").build_problem("rand32", reference_seed=0)
    return problem.make_evaluator(problem.random_solution(seed=3))


class TestQapScratchPool:
    """Steady-state allocation pins for the QAP evaluator's scratch pool."""

    def test_steady_state_adds_no_pool_entries(self, qap_evaluator):
        """After one warm-up pass over the driver's batch sizes, further
        iterations must reuse pooled buffers — no new keys, bounded pool."""
        evaluator = qap_evaluator
        rng = np.random.default_rng(93)
        n = evaluator.num_cells
        sizes = (3, 5, 8)  # a driver alternates between a handful of sizes
        batches = {m: rng.integers(0, n, size=(m, 2)) for m in sizes}
        for m in sizes:  # warm-up
            evaluator.evaluate_swaps_batch(batches[m])
        warm = dict(evaluator._scratch)
        assert sorted(warm) == sorted(sizes)
        for _ in range(10):  # steady state
            for m in sizes:
                evaluator.evaluate_swaps_batch(batches[m])
        assert evaluator._scratch.keys() == warm.keys()
        assert all(evaluator._scratch[m] is warm[m] for m in sizes)
        assert len(warm) <= evaluator.MAX_SCRATCH_KEYS

    def test_qap_scratch_block_identity_is_stable(self, qap_evaluator):
        """Same batch size → views over the very same pooled block (no
        re-allocation); a different size gets its own block."""
        evaluator = qap_evaluator
        first = evaluator._scratch_for(6)
        again = evaluator._scratch_for(6)
        assert all(np.shares_memory(a, b) for a, b in zip(first, again))
        other = evaluator._scratch_for(9)
        assert not np.shares_memory(first[0], other[0])

    def test_pool_is_bounded(self, qap_evaluator):
        evaluator = qap_evaluator
        for m in range(1, evaluator.MAX_SCRATCH_KEYS + 4):
            evaluator._scratch_for(m)
            assert len(evaluator._scratch) <= evaluator.MAX_SCRATCH_KEYS


class TestDiversificationHook:
    def test_distances_shape_and_sign(self, evaluator):
        candidates = np.arange(1, 9)
        distances = evaluator.diversification_distances(0, candidates)
        assert distances.shape == (8,)
        assert np.all(distances >= 0.0)

    def test_distance_to_self_is_zero(self, evaluator):
        assert evaluator.diversification_distances(5, np.array([5]))[0] == 0.0


class TestSeededTrajectoryIdentity:
    def _params(self) -> ParallelSearchParams:
        return ParallelSearchParams(
            num_tsws=2,
            clws_per_tsw=2,
            global_iterations=2,
            tabu=TabuSearchParams(local_iterations=3, pairs_per_step=3, move_depth=2),
            seed=77,
        )

    def test_serial_runs_are_identical(self, problem):
        def run():
            evaluator = problem.make_evaluator(problem.random_solution(seed=9))
            search = TabuSearch(
                evaluator,
                TabuSearchParams(pairs_per_step=4, move_depth=2),
                seed=5,
            )
            return search.run(TerminationCriteria(max_iterations=15))

        first, second = run(), run()
        assert first.trace == second.trace
        assert first.best_cost == second.best_cost
        assert np.array_equal(first.best_solution, second.best_solution)

    def test_simulated_parallel_runs_are_identical(self, problem):
        def run():
            return run_parallel_search(
                problem=problem, params=self._params(), backend="simulated"
            )

        first, second = run(), run()
        assert first.trace == second.trace
        assert first.best_cost == second.best_cost
        assert np.array_equal(first.best_solution, second.best_solution)
        assert first.best_cost < first.initial_cost

    def test_serial_and_parallel_share_the_protocol_not_the_stream(self, problem):
        """Workers own independent RNG streams by design (MPSS); the runs
        must nonetheless agree on the *instance*: same reference anchor,
        comparable costs, both improving from the same initial quality."""
        serial_eval = problem.make_evaluator(problem.random_solution(seed=9))
        serial = TabuSearch(
            serial_eval, TabuSearchParams(pairs_per_step=4, move_depth=2), seed=5
        ).run(TerminationCriteria(max_iterations=20))
        parallel = run_parallel_search(
            problem=problem, params=self._params(), backend="simulated"
        )
        assert serial.best_cost < 1.5
        assert parallel.best_cost < parallel.initial_cost
        assert parallel.best_cost == pytest.approx(serial.best_cost, abs=0.5)
