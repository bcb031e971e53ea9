"""Master-side health ledger: strikes, throughput EWMA, limplock budgets."""

from __future__ import annotations

import pytest

from repro.parallel import FaultPolicy, HealthLedger


def make_ledger(**policy_overrides) -> HealthLedger:
    defaults = dict(
        round_deadline=10.0,
        clw_deadline=5.0,
        max_missed_deadlines=1,
        limplock_ratio=0.25,
        limplock_rounds=2,
        min_iteration_share=0.25,
        throughput_smoothing=0.5,
    )
    defaults.update(policy_overrides)
    return HealthLedger(FaultPolicy(**defaults), [0, 1, 2])


class TestLiveness:
    def test_strike_out_after_allowed_misses(self):
        ledger = make_ledger(max_missed_deadlines=1)
        assert not ledger.register_miss(0)  # first miss is forgiven
        assert ledger.register_miss(0)  # second one strikes out

    def test_report_clears_the_strike_counter(self):
        ledger = make_ledger(max_missed_deadlines=1)
        assert not ledger.register_miss(0)
        ledger.record_report(0, evaluations_total=100, elapsed=1.0)
        assert not ledger.register_miss(0)  # counter restarted

    def test_mark_dead_updates_key_sets(self):
        ledger = make_ledger()
        ledger.mark_dead(1)
        assert ledger.alive_keys() == [0, 2]
        assert ledger.dead_keys() == [1]
        assert not ledger.is_alive(1)


class TestThroughput:
    def test_rates_are_cumulative_count_differences(self):
        ledger = make_ledger()
        ledger.record_report(0, evaluations_total=100, elapsed=1.0)
        assert ledger.rate_of(0) == pytest.approx(100.0)
        # cumulative count: the second report adds 50 evals in 1 s
        ledger.record_report(0, evaluations_total=150, elapsed=1.0)
        assert ledger.rate_of(0) == pytest.approx(0.5 * 50 + 0.5 * 100)

    def test_weights_require_full_observations(self):
        ledger = make_ledger()
        ledger.record_report(0, evaluations_total=100, elapsed=1.0)
        assert ledger.throughput_weights([0, 1]) is None
        ledger.record_report(1, evaluations_total=300, elapsed=1.0)
        assert ledger.throughput_weights([0, 1]) == pytest.approx([100.0, 300.0])


class TestLimplock:
    def _feed_rounds(self, ledger, rounds, slow_key=2, slow_total=0):
        fast_total = {0: 0, 1: 0}
        for _ in range(rounds):
            for key in (0, 1):
                fast_total[key] += 1000
                ledger.record_report(key, evaluations_total=fast_total[key], elapsed=1.0)
            slow_total += 100
            ledger.record_report(slow_key, evaluations_total=slow_total, elapsed=1.0)
        return ledger

    def test_persistent_slowness_limplocks(self):
        ledger = self._feed_rounds(make_ledger(limplock_rounds=2), rounds=1)
        assert ledger.limplocked_keys() == []
        self._feed_rounds(ledger, rounds=1, slow_total=100)
        assert ledger.limplocked_keys() == [2]

    def test_limplocked_budget_shrinks_with_floor(self):
        ledger = self._feed_rounds(make_ledger(), rounds=3)
        assert ledger.iteration_budget(0, 100) == 100  # healthy: full budget
        budget = ledger.iteration_budget(2, 100)
        assert budget < 100
        assert budget >= 25  # min_iteration_share floor

    def test_dead_workers_never_report_limplocked(self):
        ledger = self._feed_rounds(make_ledger(), rounds=3)
        ledger.mark_dead(2)
        assert ledger.limplocked_keys() == []


class TestCheckpointing:
    def test_export_install_round_trip(self):
        ledger = make_ledger()
        ledger.record_report(0, evaluations_total=500, elapsed=1.0)
        ledger.register_miss(1)
        ledger.mark_dead(2)
        state = ledger.export_state()

        fresh = make_ledger()
        fresh.install_state(state, revive=False)
        assert fresh.rate_of(0) == pytest.approx(500.0)
        assert fresh.dead_keys() == [2]
        assert fresh.export_state() == state

    def test_revive_resets_liveness_but_keeps_history(self):
        ledger = make_ledger()
        ledger.record_report(0, evaluations_total=500, elapsed=1.0)
        ledger.mark_dead(2)
        fresh = make_ledger()
        fresh.install_state(ledger.export_state(), revive=True)
        assert fresh.alive_keys() == [0, 1, 2]
        assert fresh.rate_of(0) == pytest.approx(500.0)


class TestElasticity:
    def test_drained_is_not_dead(self):
        ledger = make_ledger()
        ledger.mark_drained(1)
        assert ledger.alive_keys() == [0, 2]
        assert ledger.dead_keys() == []
        assert ledger.drained_keys() == [1]

    def test_add_worker_registers_and_hints(self):
        ledger = make_ledger()
        ledger.add_worker(3, speed_hint=4.0)
        assert ledger.alive_keys() == [0, 1, 2, 3]
        assert ledger.export_hints() == {3: 4.0}
        # no-op on an already-tracked key, but the hint still lands
        ledger.record_report(0, evaluations_total=100, elapsed=1.0)
        ledger.add_worker(0, speed_hint=2.0)
        assert ledger.rate_of(0) == pytest.approx(100.0)
        assert ledger.export_hints() == {0: 2.0, 3: 4.0}

    def test_admitted_worker_blocks_weighted_split_until_observed(self):
        ledger = make_ledger()
        ledger.record_report(0, evaluations_total=100, elapsed=1.0)
        ledger.record_report(1, evaluations_total=100, elapsed=1.0)
        ledger.record_report(2, evaluations_total=100, elapsed=1.0)
        ledger.add_worker(3)
        assert ledger.throughput_weights([0, 1, 2, 3]) is None
        ledger.record_report(3, evaluations_total=50, elapsed=1.0)
        assert ledger.throughput_weights([0, 1, 2, 3]) is not None

    def test_revive_does_not_resurrect_drained_workers(self):
        ledger = make_ledger()
        ledger.mark_dead(0)
        ledger.mark_drained(1)
        fresh = make_ledger()
        fresh.install_state(ledger.export_state(), revive=True)
        assert fresh.alive_keys() == [0, 2]  # the dead worker revives...
        assert fresh.drained_keys() == [1]  # ...the drained one stays retired

    def test_drained_flag_round_trips(self):
        ledger = make_ledger()
        ledger.mark_drained(2)
        state = ledger.export_state()
        assert state[2][8] is True
        fresh = make_ledger()
        fresh.install_state(state, revive=False)
        assert fresh.drained_keys() == [2]
        assert fresh.export_state() == state
