"""Device-speed heterogeneity: limplock, budgets and range convergence.

A fast worker evaluates 10–50× more swaps per second than its peers.  The
health ledger compares raw observed rates, so such a skew limplocks the slow
workers and shrinks their iteration budgets, while re-partitioning by the
same observed throughput makes the fast worker absorb more cells without
starving anyone.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro import ParallelSearchParams, TabuSearchParams, run_parallel_search
from repro.core import get_domain
from repro.parallel import FaultPolicy, HealthLedger
from repro.tabu.candidate import partition_cells_weighted

POLICY = FaultPolicy(
    round_deadline=10.0,
    clw_deadline=5.0,
    max_missed_deadlines=1,
)


def feed_rounds(ledger: HealthLedger, rates: dict, rounds: int) -> None:
    """Report ``rounds`` rounds of steady per-second rates for each worker."""
    for round_index in range(1, rounds + 1):
        for key, rate in rates.items():
            ledger.record_report(key, evaluations_total=int(rate * round_index), elapsed=1.0)


class TestSpeedSkew:
    @pytest.mark.parametrize("skew", [10.0, 40.0, 50.0])
    def test_skew_limplocks_every_slow_worker(self, skew):
        """A 10–50x device next to 1x devices: the slow ones read as limplocked."""
        ledger = HealthLedger(POLICY, [0, 1, 2])
        feed_rounds(ledger, {0: 1_000.0 * skew, 1: 1_000.0, 2: 1_000.0}, rounds=3)
        assert ledger.limplocked_keys() == [1, 2]
        # budgets shrunk to the floor
        assert ledger.iteration_budget(1, 100) == 25
        assert ledger.iteration_budget(0, 100) == 100

    def test_throttled_worker_limplocks_with_a_floored_budget(self):
        """Genuine degradation in an even cluster: a worker running at a
        tenth of its peers' rate is caught, the others keep full budgets."""
        ledger = HealthLedger(POLICY, [0, 1, 2])
        feed_rounds(ledger, {0: 1_000.0, 1: 1_000.0, 2: 100.0}, rounds=3)
        assert ledger.limplocked_keys() == [2]
        # the shrunk budget scales by the rate ratio (100/1000), floored at
        # MIN_ITERATION_SHARE
        assert ledger.iteration_budget(2, 100) == 25
        assert ledger.iteration_budget(0, 100) == 100

    def test_partition_weights_are_raw_rates(self):
        """Re-partitioning splits by real throughput — that is the point."""
        ledger = HealthLedger(POLICY, [0, 1])
        feed_rounds(ledger, {0: 40_000.0, 1: 1_000.0}, rounds=2)
        assert ledger.throughput_weights([0, 1]) == pytest.approx(
            [40_000.0, 1_000.0]
        )


class TestMixedSpeedRangeConvergence:
    """Throughput-weighted partitioning over a simulated mixed-speed cluster."""

    SPEEDS = {0: 40.0, 1: 1.0, 2: 1.0}  # one fast worker, two slow ones
    NUM_CELLS = 1000

    def test_partition_converges_to_speed_ratio_without_starvation(self):
        """Iterate report → re-partition: range sizes stabilise proportional
        to real throughput and every CPU worker keeps a working range."""
        ledger = HealthLedger(POLICY, [0, 1, 2])
        sizes_per_round = []
        totals = {key: 0.0 for key in self.SPEEDS}
        for _ in range(6):
            # each worker's evaluation rate tracks its device speed,
            # independent of its range size (candidate sampling is
            # range-bound but fixed-cost per trial)
            for key, speed in self.SPEEDS.items():
                totals[key] += 1_000.0 * speed
                ledger.record_report(key, evaluations_total=int(totals[key]), elapsed=1.0)
            weights = ledger.throughput_weights(list(self.SPEEDS))
            assert weights is not None
            ranges = partition_cells_weighted(self.NUM_CELLS, weights)
            sizes_per_round.append([len(r.cells) for r in ranges])
        final = sizes_per_round[-1]
        # converged: the last two rounds agree exactly
        assert sizes_per_round[-2] == final
        # proportional to speed (40:1:1 over 1000 cells => ~952/24/24)
        expected = self.NUM_CELLS * 40.0 / 42.0
        assert final[0] == pytest.approx(expected, abs=2)
        # and nobody is starved: every worker keeps a non-empty range
        assert all(size >= 1 for size in final)

    def test_even_extreme_skew_never_empties_a_range(self):
        ranges = partition_cells_weighted(100, [5_000.0, 1.0, 1.0])
        assert all(len(r.cells) >= 1 for r in ranges)
        assert sum(len(r.cells) for r in ranges) == 100


class TestHeterogeneousClusterRun:
    def test_fault_tolerant_run_completes_deterministically(self):
        """End-to-end wiring: on the paper's mixed-speed testbed the master
        feeds its ledger the observed rates, and a fault-mode run on the
        simulated backend stays bit-deterministic and improves."""
        problem = get_domain("qap").build_problem("rand32", reference_seed=0)

        def run():
            return run_parallel_search(
                problem=problem,
                params=ParallelSearchParams(
                    num_tsws=2,
                    clws_per_tsw=1,
                    global_iterations=2,
                    tabu=TabuSearchParams(
                        local_iterations=3, pairs_per_step=3, move_depth=2
                    ),
                    seed=77,
                    fault=POLICY,
                ),
                backend="simulated",
            )

        first, again = run(), run()
        assert first.trace == again.trace
        assert first.best_cost == again.best_cost
        assert np.array_equal(first.best_solution, again.best_solution)
        assert first.best_cost < first.initial_cost
