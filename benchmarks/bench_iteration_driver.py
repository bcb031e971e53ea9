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

Results land in ``BENCH_driver.json`` (override with ``BENCH_DRIVER_JSON``).
Enforced bars:

* serial vectorized iteration on c532 <= 7 ms (the dev-environment target
  is <= 5 ms — CI runners get headroom);
* driver-overhead ratio <= 3x on both instances.

Each round (``benchmarks/_timing.py``) runs a few iterations of each driver
and the same trial volume as standalone batches, so the overhead ratio is
the median of per-round ratios.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_iteration_driver.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

from repro import ParallelSearchParams, TabuSearch, TabuSearchParams, load_benchmark
from repro.core import get_domain
from repro.parallel import build_problem

from _timing import Bar, alternate, check, ratio, summary, timed

# The reference driver lives with the tests that pin the shipped one.
_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

from oracles.tabu import ReferenceTabuSearch  # noqa: E402

PAIRS_PER_STEP = 256
MOVE_DEPTH = 6
SEED = 2003
#: Each driver runs ITERATIONS_PER_ROUND iterations per round: WARMUP
#: rounds (15 iterations) untimed, then ROUNDS (60 iterations) timed.
ITERATIONS_PER_ROUND = 5
WARMUP = 3
ROUNDS = 12
REWIND_ROUNDS = 60
SERIAL_BAR_MS = 7.0
OVERHEAD_RATIO_BAR = 3.0
OUTPUT = Path(os.environ.get("BENCH_DRIVER_JSON", "BENCH_driver.json"))


def _iterations(problem, search_cls):
    """A side that runs ITERATIONS_PER_ROUND more iterations of one search."""
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    params = TabuSearchParams(
        pairs_per_step=PAIRS_PER_STEP, move_depth=MOVE_DEPTH, early_accept=False
    )
    return timed(search_cls(evaluator, params, seed=SEED).step, ITERATIONS_PER_ROUND)


def _batches(problem):
    """A side that evaluates one iteration's trial volume as d full batches."""
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    pairs = np.random.default_rng(7).integers(
        0, evaluator.num_cells, size=(PAIRS_PER_STEP, 2)
    )
    return timed(lambda: evaluator.evaluate_swaps_batch(pairs), MOVE_DEPTH)


def _rewinds(problem) -> dict:
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

    samples = alternate(
        {"snapshot": timed(snapshot_rewind), "undo": timed(undo_rewind)},
        REWIND_ROUNDS,
        warmup=10,
    )
    return {
        "snapshot_rewind_ms": summary(samples["snapshot"], 1e3),
        "undo_swaps_rewind_ms": summary(samples["undo"], 1e3),
    }


def measure_instance(problem) -> dict:
    samples = alternate(
        {
            "vectorized": _iterations(problem, TabuSearch),
            "reference": _iterations(problem, ReferenceTabuSearch),
            "batch": _batches(problem),
        },
        ROUNDS,
        WARMUP,
    )
    return {
        "vectorized_ms_per_iter": summary(samples["vectorized"], 1e3),
        "reference_ms_per_iter": summary(samples["reference"], 1e3),
        # the batch side's samples are per call; an iteration makes d calls
        "batch_eval_ms_per_iter": summary(samples["batch"], MOVE_DEPTH * 1e3),
        "driver_overhead_ratio": ratio(
            samples["vectorized"], [s * MOVE_DEPTH for s in samples["batch"]]
        ),
        **_rewinds(problem),
    }


def main() -> int:
    results = {
        "c532": measure_instance(
            build_problem(load_benchmark("c532"), ParallelSearchParams())
        ),
        "rand100": measure_instance(
            get_domain("qap").build_problem("rand100", reference_seed=0)
        ),
    }
    bars = [
        Bar(
            "c532 serial ms/iter",
            results["c532"]["vectorized_ms_per_iter"]["median"],
            SERIAL_BAR_MS,
        )
    ] + [
        Bar(f"{name} driver_overhead_ratio", row["driver_overhead_ratio"]["median"], OVERHEAD_RATIO_BAR)
        for name, row in results.items()
    ]
    workload = {"pairs_per_step": PAIRS_PER_STEP, "move_depth": MOVE_DEPTH}
    return check(bars, {"workload": workload, "results": results}, OUTPUT)


if __name__ == "__main__":
    sys.exit(main())
