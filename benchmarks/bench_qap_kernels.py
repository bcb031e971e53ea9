#!/usr/bin/env python
"""QAP kernel benchmark and smoke gate for the domain-agnostic core.

Measures the QAP evaluator's hot kernels on a 100-facility instance and
enforces the CI bar that justifies running QAP through the batched CLW path:

* **batch swap-delta >= 20x scalar** — one 256-pair ``evaluate_swaps_batch``
  call versus 256 scalar ``evaluate_swap`` calls (each scalar call is itself
  the O(n) delta, so the factor isolates the batching win, exactly like the
  placement micro-bench), the median of per-round ratios;
* informational latencies for ``commit_swap``, bulk ``apply_swaps`` delta
  adoption, full ``install_solution`` and the from-scratch O(n^2) cost.

Every side runs once per alternating round (``benchmarks/_timing.py``).
Results land in ``BENCH_qap.json`` (override with the ``BENCH_QAP_JSON``
env var).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_qap_kernels.py
"""

from __future__ import annotations

import itertools
import os
import sys
from pathlib import Path

import numpy as np

from repro.parallel.delta import swap_list_between
from repro.problems.qap import QAPProblem, generate_qap

from _timing import Bar, alternate, check, ratio, summary, timed

N_FACILITIES = 100
BATCH_SIZE = 256
ROUNDS = 30
BATCH_BAR = 20.0
OUTPUT = Path(os.environ.get("BENCH_QAP_JSON", "BENCH_qap.json"))


def main() -> int:
    problem = QAPProblem.from_instance(
        generate_qap(N_FACILITIES, seed=0), reference_seed=0
    )
    evaluator = problem.make_evaluator(problem.random_solution(seed=1))
    rng = np.random.default_rng(2)
    pairs = rng.integers(0, N_FACILITIES, size=(BATCH_SIZE, 2))

    def scalar_sweep():
        for cell_a, cell_b in pairs.tolist():
            evaluator.evaluate_swap(cell_a, cell_b)

    commit_pairs = itertools.cycle(rng.integers(0, N_FACILITIES, size=(512, 2)).tolist())

    def commit():
        evaluator.commit_swap(*next(commit_pairs))

    base = evaluator.snapshot()
    target = base.copy()
    for cell_a, cell_b in rng.integers(0, N_FACILITIES, size=(6, 2)).tolist():
        target[[cell_a, cell_b]] = target[[cell_b, cell_a]]
    delta = swap_list_between(base, target)

    def adopt():
        evaluator.apply_swaps(delta, exact_timing=True)
        evaluator.install_solution(base)

    samples = alternate(
        {
            "batch": timed(lambda: evaluator.evaluate_swaps_batch(pairs)),
            "scalar_sweep": timed(scalar_sweep),
            "commit": timed(commit, calls=20),
            "adopt": timed(adopt),
            "install": timed(lambda: evaluator.install_solution(base)),
            "scratch": timed(lambda: problem.instance.cost_of(base)),
        },
        ROUNDS,
        warmup=3,
    )
    results = {
        "n_facilities": N_FACILITIES,
        "batch_size": BATCH_SIZE,
        "batch_eval_us": summary(samples["batch"], 1e6),
        "scalar_eval_us": summary(samples["scalar_sweep"], 1e6 / BATCH_SIZE),
        "batch_speedup_vs_scalar": ratio(samples["scalar_sweep"], samples["batch"]),
        "commit_swap_us": summary(samples["commit"], 1e6),
        "delta_adopt_plus_install_us": summary(samples["adopt"], 1e6),
        "install_solution_us": summary(samples["install"], 1e6),
        "scratch_cost_us": summary(samples["scratch"], 1e6),
    }
    bar = Bar(
        "batch_speedup_vs_scalar",
        results["batch_speedup_vs_scalar"]["median"],
        BATCH_BAR,
        higher_is_better=True,
    )
    return check([bar], {"results": results}, OUTPUT)


if __name__ == "__main__":
    sys.exit(main())
