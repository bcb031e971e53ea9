"""Device-speed heterogeneity: speed hints, budgets and range convergence.

A GPU-backed worker evaluates 10–50× more swaps per second than its CPU
peers.  Without declared speed hints the health ledger reads that skew as
pathology — every CPU worker trips the limplock detector and has its
iteration budget strangled to the floor.  With hints, limplock detection
and budget shrinking compare *hint-normalised* rates (slow for its device
class, not slow absolutely), while re-partitioning keeps using raw observed
throughput — which is exactly what makes the fast device absorb more cells
without starving anyone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import get_domain
from repro.errors import ParallelSearchError
from repro.parallel import (
    FaultPolicy,
    HealthLedger,
    ParallelSearchParams,
    run_parallel_search,
)
from repro.tabu import TabuSearchParams
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


class TestSpeedHints:
    def test_hint_must_be_positive_finite(self):
        ledger = HealthLedger(POLICY, [0])
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ledger.set_speed_hint(0, bad)

    def test_unhinted_skew_limplocks_every_cpu_worker(self):
        """The baseline failure mode: a 40x device next to 1x devices."""
        ledger = HealthLedger(POLICY, [0, 1, 2])
        feed_rounds(ledger, {0: 40_000.0, 1: 1_000.0, 2: 1_000.0}, rounds=3)
        assert ledger.limplocked_keys() == [1, 2]
        # budgets strangled to the floor even though nothing is wrong
        assert ledger.iteration_budget(1, 100) == 25

    def test_hinted_skew_keeps_cpu_workers_healthy(self):
        """Same observations, hints declaring the device classes: no
        limplock, full budgets — behaviour matches a homogeneous cluster."""
        ledger = HealthLedger(
            POLICY, [0, 1, 2], speed_hints={0: 40.0, 1: 1.0, 2: 1.0}
        )
        feed_rounds(ledger, {0: 40_000.0, 1: 1_000.0, 2: 1_000.0}, rounds=5)
        assert ledger.limplocked_keys() == []
        for key in (0, 1, 2):
            assert ledger.iteration_budget(key, 100) == 100

    @pytest.mark.parametrize("skew", [10.0, 50.0])
    def test_hints_cover_the_paper_relevant_skew_range(self, skew):
        ledger = HealthLedger(POLICY, [0, 1], speed_hints={0: skew, 1: 1.0})
        feed_rounds(ledger, {0: 1_000.0 * skew, 1: 1_000.0}, rounds=4)
        assert ledger.limplocked_keys() == []

    def test_throttled_below_its_class_still_limplocks(self):
        """Hints must not mask genuine degradation: a CPU worker running at
        a tenth of what a CPU should do gets caught exactly as before."""
        ledger = HealthLedger(
            POLICY, [0, 1, 2], speed_hints={0: 40.0, 1: 1.0, 2: 1.0}
        )
        feed_rounds(ledger, {0: 40_000.0, 1: 1_000.0, 2: 100.0}, rounds=3)
        assert ledger.limplocked_keys() == [2]
        # the shrunk budget scales by the *normalised* ratio (100/1000),
        # floored at MIN_ITERATION_SHARE
        assert ledger.iteration_budget(2, 100) == 25

    def test_hints_do_not_change_raw_partition_weights(self):
        """Re-partitioning splits by real throughput — that is the point."""
        ledger = HealthLedger(POLICY, [0, 1], speed_hints={0: 40.0, 1: 1.0})
        feed_rounds(ledger, {0: 40_000.0, 1: 1_000.0}, rounds=2)
        assert ledger.throughput_weights([0, 1]) == pytest.approx(
            [40_000.0, 1_000.0]
        )

    def test_unknown_keys_in_hints_are_ignored(self):
        ledger = HealthLedger(POLICY, [0, 1], speed_hints={0: 2.0, 9: 3.0})
        feed_rounds(ledger, {0: 2_000.0, 1: 1_000.0}, rounds=3)
        assert ledger.limplocked_keys() == []


class TestMixedSpeedRangeConvergence:
    """Throughput-weighted partitioning over a simulated mixed-speed cluster."""

    SPEEDS = {0: 40.0, 1: 1.0, 2: 1.0}  # one GPU-class worker, two CPU-class
    NUM_CELLS = 1000

    def test_partition_converges_to_speed_ratio_without_starvation(self):
        """Iterate report → re-partition: range sizes stabilise proportional
        to real throughput and every CPU worker keeps a working range."""
        ledger = HealthLedger(POLICY, [0, 1, 2], speed_hints=self.SPEEDS)
        sizes_per_round = []
        totals = {key: 0.0 for key in self.SPEEDS}
        for _ in range(6):
            # each worker's evaluation rate tracks its device speed,
            # independent of its range size (candidate sampling is
            # range-bound but fixed-cost per trial)
            for key, speed in self.SPEEDS.items():
                totals[key] += 1_000.0 * speed
                ledger.record_report(key, evaluations_total=int(totals[key]), elapsed=1.0)
            weights = ledger.throughput_weights(ledger.alive_keys())
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
        assert ledger.limplocked_keys() == []

    def test_even_extreme_skew_never_empties_a_range(self):
        ranges = partition_cells_weighted(100, [5_000.0, 1.0, 1.0])
        assert all(len(r.cells) >= 1 for r in ranges)
        assert sum(len(r.cells) for r in ranges) == 100


class TestParamsPlumbing:
    def test_hints_length_must_match_num_tsws(self):
        with pytest.raises(ParallelSearchError, match="one entry per TSW"):
            ParallelSearchParams(num_tsws=3, worker_speed_hints=(1.0, 2.0))

    def test_hints_must_be_positive_finite(self):
        for bad in (0.0, -2.0, float("inf"), float("nan")):
            with pytest.raises(ParallelSearchError, match="positive finite"):
                ParallelSearchParams(num_tsws=2, worker_speed_hints=(1.0, bad))

    def test_hints_are_normalised_to_floats(self):
        params = ParallelSearchParams(num_tsws=2, worker_speed_hints=(4, 1))
        assert params.worker_speed_hints == (4.0, 1.0)

    def test_hinted_fault_tolerant_run_completes_deterministically(self):
        """End-to-end wiring: the master builds its ledger from the params'
        hints; a hinted run on the simulated backend stays bit-deterministic
        and improves like an unhinted one."""
        problem = get_domain("qap").build_problem("rand32", reference_seed=0)

        def run(hints):
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
                    worker_speed_hints=hints,
                ),
                backend="simulated",
            )

        hinted = run((8.0, 1.0))
        again = run((8.0, 1.0))
        assert hinted.trace == again.trace
        assert hinted.best_cost == again.best_cost
        assert hinted.best_cost < hinted.initial_cost
        # hints only feed health accounting — with no faults injected the
        # search trajectory is identical to the unhinted run
        unhinted = run(None)
        assert hinted.trace == unhinted.trace
        assert np.array_equal(hinted.best_solution, unhinted.best_solution)
