#!/usr/bin/env python
"""Per-iteration cost of the tabu iteration driver on c532 and rand100 QAP.

PR 1 made trial evaluation cheap and PR 3 made commits/installs cheap, but a
serial tabu iteration still cost ~13-15 ms on c532 — the Python-object
driver *around* the kernels (2·m scalar RNG draws per step, per-swap
commit/record loops, dict-and-tuple tabu bookkeeping, rewind-and-recommit
accepts) had become the bottleneck every TSW/CLW inherits.  PR 5 vectorized
the driver end-to-end (array-backed tabu memory, bulk candidate sampling,
fused step-1 scoring, masked selection, end-state accepts); this benchmark
measures the result and guards it:

* **ms/iteration** — serial tabu iterations at the heavy reference workload
  (m = 256 candidate pairs per step, full depth d = 6, no early accept) for
  both the shipped driver and the reference (dict oracle) driver of
  ``tests/oracles/tabu.py`` (informational);
* **driver-overhead ratio** — iteration time divided by the pure
  batch-evaluation time of the same trial volume (d standalone 256-pair
  ``evaluate_swaps_batch`` calls).  A ratio near 1 means the driver adds
  almost nothing on top of the kernels it schedules;
* **rewind strategies** — snapshot restore versus reverse ``undo_swaps``
  for a compound-move-sized rewind (documents why the driver jumps through
  ``save_state``/``restore_state`` tokens).

Results land in ``BENCH_driver.json`` (override with ``BENCH_DRIVER_JSON``);
CI uploads the file per run.  Enforced bars (each overridable by env var,
retried once against runner noise):

* serial vectorized iteration on c532 <= 7 ms (``REPRO_DRIVER_SERIAL_BAR_MS``;
  the dev-environment target is <= 5 ms — CI runners get headroom);
* driver-overhead ratio <= 3x on both instances
  (``REPRO_DRIVER_OVERHEAD_RATIO``).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_iteration_driver.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import (
    ParallelSearchParams,
    TabuSearch,
    TabuSearchParams,
    TerminationCriteria,
    load_benchmark,
)
from repro.core import get_domain
from repro.parallel import build_problem

# The reference driver lives with the tests that pin the shipped one.
_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

from oracles.tabu import ReferenceTabuSearch  # noqa: E402

PAIRS_PER_STEP = 256
MOVE_DEPTH = 6
SEED = 2003
WARMUP_ITERATIONS = 15
MEASURED_ITERATIONS = 60
SERIAL_BAR_MS = float(os.environ.get("REPRO_DRIVER_SERIAL_BAR_MS", "7"))
OVERHEAD_RATIO_BAR = float(os.environ.get("REPRO_DRIVER_OVERHEAD_RATIO", "3"))
OUTPUT = Path(os.environ.get("BENCH_DRIVER_JSON", "BENCH_driver.json"))


def _tabu_params(iterations: int) -> TabuSearchParams:
    return TabuSearchParams(
        local_iterations=iterations,
        pairs_per_step=PAIRS_PER_STEP,
        move_depth=MOVE_DEPTH,
        early_accept=False,
    )


def _ms_per_iteration(problem, search_cls) -> float:
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    search = search_cls(
        evaluator,
        _tabu_params(WARMUP_ITERATIONS + MEASURED_ITERATIONS),
        seed=SEED,
    )
    search.run(TerminationCriteria(max_iterations=WARMUP_ITERATIONS), record_trace=False)
    start = time.perf_counter()
    search.run(
        TerminationCriteria(max_iterations=WARMUP_ITERATIONS + MEASURED_ITERATIONS),
        record_trace=False,
    )
    return (time.perf_counter() - start) / MEASURED_ITERATIONS * 1e3


def _batch_eval_ms(problem) -> float:
    """Pure kernel cost of one iteration's trial volume (d full batches)."""
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, evaluator.num_cells, size=(PAIRS_PER_STEP, 2))
    for _ in range(20):
        evaluator.evaluate_swaps_batch(pairs)
    repeats = 100
    start = time.perf_counter()
    for _ in range(repeats):
        evaluator.evaluate_swaps_batch(pairs)
    per_batch = (time.perf_counter() - start) / repeats * 1e3
    return per_batch * MOVE_DEPTH


def _rewind_ms(problem) -> dict:
    """Snapshot-restore versus reverse-apply rewind of a depth-6 move."""
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    rng = np.random.default_rng(8)
    pairs = rng.integers(0, evaluator.num_cells, size=(MOVE_DEPTH, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]

    def snapshot_rewind():
        state = evaluator.save_state()
        evaluator.apply_swaps(pairs)
        evaluator.restore_state(state)

    def undo_rewind():
        evaluator.apply_swaps(pairs)
        evaluator.undo_swaps(pairs)

    def timed(func, repeats=60, warmup=10):
        for _ in range(warmup):
            func()
        start = time.perf_counter()
        for _ in range(repeats):
            func()
        return (time.perf_counter() - start) / repeats * 1e3

    return {
        "snapshot_rewind_ms": timed(snapshot_rewind),
        "undo_swaps_rewind_ms": timed(undo_rewind),
    }


def measure_instance(name: str, problem) -> dict:
    vectorized_ms = _ms_per_iteration(problem, TabuSearch)
    reference_ms = _ms_per_iteration(problem, ReferenceTabuSearch)
    batch_ms = _batch_eval_ms(problem)
    result = {
        "instance": name,
        "pairs_per_step": PAIRS_PER_STEP,
        "move_depth": MOVE_DEPTH,
        "vectorized_ms_per_iter": vectorized_ms,
        "reference_ms_per_iter": reference_ms,
        "batch_eval_ms_per_iter": batch_ms,
        "driver_overhead_ratio": vectorized_ms / batch_ms,
    }
    result.update(_rewind_ms(problem))
    return result


def measure() -> dict:
    placement_problem = build_problem(load_benchmark("c532"), ParallelSearchParams())
    qap_problem = get_domain("qap").build_problem("rand100", reference_seed=0)
    return {
        "c532": measure_instance("c532", placement_problem),
        "rand100": measure_instance("rand100", qap_problem),
    }


def _passes(results: dict) -> bool:
    serial_ok = results["c532"]["vectorized_ms_per_iter"] <= SERIAL_BAR_MS
    ratio_ok = all(
        results[name]["driver_overhead_ratio"] <= OVERHEAD_RATIO_BAR
        for name in results
    )
    return serial_ok and ratio_ok


def main() -> int:
    attempts = []
    for _attempt in range(2):  # one retry against runner noise
        results = measure()
        attempts.append(results)
        if _passes(results):
            break

    # prefer an attempt that clears every bar; only fall back to the
    # fastest attempt when none passed (so the retry can actually rescue
    # a noisy first run)
    best = next(
        (r for r in attempts if _passes(r)),
        min(attempts, key=lambda r: r["c532"]["vectorized_ms_per_iter"]),
    )
    payload = {
        "bar": {
            "serial_ms_max_c532": SERIAL_BAR_MS,
            "driver_overhead_ratio_max": OVERHEAD_RATIO_BAR,
        },
        "results": best,
        "attempts": len(attempts),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2))

    for name, row in best.items():
        print(f"{name} (m={PAIRS_PER_STEP}, d={MOVE_DEPTH}, no early accept):")
        for key, value in row.items():
            if isinstance(value, float):
                print(f"  {key:>26}: {value:.3f}")
            else:
                print(f"  {key:>26}: {value}")
    print(f"Results written to {OUTPUT}")

    failed = False
    if best["c532"]["vectorized_ms_per_iter"] > SERIAL_BAR_MS:
        print(
            f"FAIL: c532 serial iteration "
            f"{best['c532']['vectorized_ms_per_iter']:.2f} ms > "
            f"{SERIAL_BAR_MS:.1f} ms bar",
            file=sys.stderr,
        )
        failed = True
    for name, row in best.items():
        if row["driver_overhead_ratio"] > OVERHEAD_RATIO_BAR:
            print(
                f"FAIL: {name} driver overhead "
                f"{row['driver_overhead_ratio']:.2f}x > "
                f"{OVERHEAD_RATIO_BAR:.1f}x batch-eval bar",
                file=sys.stderr,
            )
            failed = True
    if failed:
        return 1
    print(
        f"OK: c532 {best['c532']['vectorized_ms_per_iter']:.2f} ms/iter "
        f"(bar {SERIAL_BAR_MS:.1f}), overhead ratios "
        + ", ".join(
            f"{name} {row['driver_overhead_ratio']:.2f}x" for name, row in best.items()
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
