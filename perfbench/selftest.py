"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

1. ``BENCHMARK.json`` and ``perfbench/METRICS.md`` match the tables in
   ``workloads.py``.
2. A tiny-budget run of every workload, untraced and traced, reports every
   metric with its unit and passes its correctness checks.
3. The correctness check rejects deliberately corrupted results: a shuffled
   best solution that keeps the old cost, a solution that puts two cells in
   one slot, and a seeded repeat whose best cost differs.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import numpy as np

import measure
import run
from workloads import END_TO_END, PER_LAYER, WORKLOADS, metrics_markdown, spec

SEED = 7


def check_spec() -> None:
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == spec(), "BENCHMARK.json is stale: run --write-spec"
    markdown = (run.ROOT / "perfbench" / "METRICS.md").read_text()
    assert markdown == metrics_markdown(), "METRICS.md is stale: run --write-spec"


def check_smoke_runs() -> None:
    for workload in WORKLOADS.values():
        tiny = workload.tiny()
        for trace, runner, specs in ((0, run.run_untraced, END_TO_END),
                                     (1, run.run_traced, PER_LAYER)):
            outcome = runner(tiny, SEED, 0.0, setup_args=(1, 0.0))
            result, failures = run.result_object(specs, outcome)
            assert not failures, (workload.name, trace, failures)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload.name, result)
            for metric in specs:
                entry = result["metrics"].get(metric.name)
                assert entry is not None, (workload.name, trace, metric.name)
                assert entry["unit"] == metric.unit, (workload.name, metric.name)
                assert isinstance(entry["value"], float), (workload.name, metric.name)
            print(f"  smoke {workload.name:16s} trace {trace}: "
                  f"{len(result['metrics'])} metrics, {result['attempted']} runs")


def check_rejects_corruption() -> None:
    prepared = measure.setup(WORKLOADS["c532-sim-hetero"].tiny(), SEED, 1, 0.0)
    result, *_ = measure.run_search(prepared)
    assert measure.check_result(prepared.problem, result) == []

    shuffled = copy.copy(result)
    shuffled.best_solution = np.random.default_rng(0).permutation(result.best_solution)
    assert measure.check_result(prepared.problem, shuffled), "shuffled solution accepted"

    doubled = copy.copy(result)
    doubled.best_solution = result.best_solution.copy()
    doubled.best_solution[1] = doubled.best_solution[0]
    assert measure.check_result(prepared.problem, doubled), "shared slot accepted"

    baseline = measure.serial_baseline(prepared)
    good = measure.sample_of(prepared, result, 1.0, 0.0, None, baseline.target_cost,
                            measure.calibration())
    drifted = replace(good, best_cost=good.best_cost * 1.01, violations=[])
    measure.mark_repeat_violations([good, drifted])
    assert drifted.violations, "a repeat with a different best cost was accepted"
    print("  corrupted results rejected: shuffled solution, shared slot, drifted repeat")


def main() -> int:
    check_spec()
    print("  spec files match workloads.py")
    check_rejects_corruption()
    check_smoke_runs()
    print("self-test passed")
    return 0
