"""Trajectory identity of the shipped and reference iteration drivers.

:class:`~repro.tabu.search.TabuSearch` (array-backed tabu memory, vectorised
aspiration mask, masked selection, end-state accepts) and the reference
driver :class:`oracles.tabu.ReferenceTabuSearch` (dict tabu memory,
per-attribute Python loops, scalar aspiration checks) implement the *same*
algorithm; a seeded run of the two must walk bit-identical trajectories —
same costs, same accepted moves, same tabu states — on every domain,
serially and on the simulated parallel backend.  This suite is the oracle
that keeps the fast driver honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import repro.parallel.tsw as tsw_module
from oracles.tabu import ReferenceTabuSearch
from repro import (
    ParallelSearchParams,
    TabuSearch,
    TabuSearchParams,
    TerminationCriteria,
    run_parallel_search,
)
from repro.core import get_domain
from repro.tabu import partition_cells


@dataclass(frozen=True)
class DomainSpec:
    domain: str
    instance: str
    #: Small instance used for the tabu-heavy runs (few distinct pairs, so
    #: long tenures make tabu hits and aspiration overrides actually occur).
    dense_instance: str


SPECS = [
    DomainSpec(domain="placement", instance="mini64", dense_instance="tiny16"),
    DomainSpec(domain="qap", instance="rand32", dense_instance="rand12"),
]


@pytest.fixture(scope="module", params=SPECS, ids=lambda spec: spec.domain)
def spec(request):
    return request.param


@pytest.fixture(scope="module")
def problem(spec):
    return get_domain(spec.domain).build_problem(spec.instance, reference_seed=0)


@pytest.fixture(scope="module")
def dense_problem(spec):
    return get_domain(spec.domain).build_problem(spec.dense_instance, reference_seed=0)


def _payload_set(search: TabuSearch):
    return set(search.tabu_list.to_payload())


def _walk(
    problem, search_cls, tabu_params: TabuSearchParams, *, iterations: int, cell_range=None
):
    """Step a search manually, recording the full per-iteration trajectory."""
    evaluator = problem.make_evaluator(problem.random_solution(seed=9))
    search = search_cls(evaluator, tabu_params, cell_range=cell_range, seed=5)
    trajectory = []
    for _ in range(iterations):
        result = search.step()
        move_pairs = tuple(result.move.pairs()) if result.move is not None else ()
        trajectory.append(
            (
                result.iteration,
                result.accepted,
                result.was_tabu,
                result.used_aspiration,
                result.cost_after,
                result.best_cost,
                move_pairs,
                evaluator.evaluations,
                _payload_set(search),
            )
        )
    return search, trajectory


def _assert_identical(problem, params_kwargs, *, iterations: int, cell_range=None):
    params = TabuSearchParams(**params_kwargs)
    vec_search, vec_traj = _walk(
        problem, TabuSearch, params, iterations=iterations, cell_range=cell_range
    )
    ref_search, ref_traj = _walk(
        problem, ReferenceTabuSearch, params, iterations=iterations, cell_range=cell_range
    )
    assert vec_traj == ref_traj
    assert vec_search.best_cost == ref_search.best_cost
    assert np.array_equal(vec_search.best_solution, ref_search.best_solution)
    assert np.array_equal(
        vec_search.evaluator.snapshot(), ref_search.evaluator.snapshot()
    )
    return vec_traj


class TestSerialIdentity:
    def test_default_params_walk_identically(self, problem):
        _assert_identical(
            problem, dict(pairs_per_step=6, move_depth=3), iterations=25
        )

    def test_no_early_accept_full_depth(self, problem):
        _assert_identical(
            problem,
            dict(pairs_per_step=8, move_depth=4, early_accept=False),
            iterations=15,
        )

    def test_single_swap_moves_walk_identically(self, problem):
        _assert_identical(problem, dict(pairs_per_step=5, move_depth=1), iterations=25)

    def test_zero_tenure_walks_identically(self, problem):
        trajectory = _assert_identical(
            problem, dict(pairs_per_step=4, move_depth=2, tabu_tenure=0), iterations=20
        )
        assert not any(entry[2] for entry in trajectory)
        assert all(entry[8] == set() for entry in trajectory)

    def test_restricted_range_walks_identically(self, problem):
        """A worker's range: both drivers draw every first cell from it."""
        cell_range = partition_cells(problem.num_cells, 3)[2]
        trajectory = _assert_identical(
            problem,
            dict(pairs_per_step=6, move_depth=3),
            iterations=20,
            cell_range=cell_range,
        )
        firsts = {pair[0] for entry in trajectory for pair in entry[6]}
        assert firsts and firsts <= set(cell_range.cells)

    def test_tabu_heavy_walk_with_aspiration(self, dense_problem):
        """Long tenure on a tiny instance: tabu rejections and aspiration
        overrides actually fire, and the drivers still agree bit-for-bit."""
        trajectory = _assert_identical(
            dense_problem,
            dict(pairs_per_step=3, move_depth=2, tabu_tenure=40),
            iterations=40,
        )
        assert any(entry[2] for entry in trajectory), "no tabu hit was exercised"
        assert any(entry[3] for entry in trajectory), "no aspiration override fired"

    def test_tabu_heavy_walk_stalls(self, dense_problem):
        """Tiny steps under a long tenure: every candidate is tabu and none
        beats the best, so the iteration stalls — identically in both."""
        trajectory = _assert_identical(
            dense_problem,
            dict(pairs_per_step=2, move_depth=1, tabu_tenure=80, early_accept=False),
            iterations=80,
        )
        assert any(not entry[1] for entry in trajectory), "no stall was exercised"


class TestRunIdentity:
    def test_run_traces_are_identical(self, problem):
        def run(search_cls):
            evaluator = problem.make_evaluator(problem.random_solution(seed=9))
            search = search_cls(
                evaluator, TabuSearchParams(pairs_per_step=4, move_depth=2), seed=5
            )
            return search.run(TerminationCriteria(max_iterations=20))

        vec, ref = run(TabuSearch), run(ReferenceTabuSearch)
        assert vec.trace == ref.trace
        assert vec.best_cost == ref.best_cost
        assert vec.evaluations == ref.evaluations
        assert np.array_equal(vec.best_solution, ref.best_solution)


class TestSimulatedParallelIdentity:
    PARAMS = ParallelSearchParams(
        num_tsws=2,
        clws_per_tsw=2,
        global_iterations=2,
        tabu=TabuSearchParams(local_iterations=4, pairs_per_step=3, move_depth=2),
        seed=77,
    )

    def test_parallel_runs_are_identical(self, problem, monkeypatch):
        """The TSWs run the reference driver; CLWs hold no tabu list."""
        built = []

        class CountedReference(ReferenceTabuSearch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        vec = run_parallel_search(problem=problem, params=self.PARAMS, backend="simulated")
        monkeypatch.setattr(tsw_module, "TabuSearch", CountedReference)
        ref = run_parallel_search(problem=problem, params=self.PARAMS, backend="simulated")
        assert len(built) == self.PARAMS.num_tsws
        assert vec.best_cost == ref.best_cost
        assert np.array_equal(vec.best_solution, ref.best_solution)
        assert vec.trace == ref.trace
        assert [r.best_cost_after for r in vec.global_records] == [
            r.best_cost_after for r in ref.global_records
        ]
