#!/usr/bin/env python
"""Dispatch-tax benchmark for the ``repro.accel`` kernels and the placement batch.

The hot kernels (QAP batched swap deltas, the placement dense/CSR batched
wirelength kernel) used to be direct NumPy code inside their evaluators;
they now live in :mod:`repro.accel` and the evaluators call into them.  The
placement batch (``CostEvaluator.evaluate_swaps_batch``) used to run each
objective and the fuzzy aggregation on its own inputs; it is now one pass
over one gathered pair context.  Every case holds one rule —

* **dispatch tax <= 1.1x** — the shipped code versus its frozen direct
  reference (``tests/oracles/kernels.py``): the wirelength kernel on c532
  (dense incidence) and big10k (CSR incidence), the QAP kernel on rand256,
  and the whole placement batch against ``batch_reference`` at 16, 64 and
  256 pairs on c532 and 256 on big10k.

The wirelength reference is also the kernel before the next-inner caches
(edge counts plus a segment-reduce fallback), so its two cases read well
under 1.0: they bound the dispatch tax and the algorithmic gain together.
The batch cases likewise read the one-pass gain (their acceptance aim is
0.85x on c532 and 1.0x on big10k).  The wirelength reference's caches are
derived from the placement once per case, outside the timed call, as the
state's were when the reference read them; likewise the QAP reference gets
its scratch buffers once, as the shipped kernel keeps its own.  The batch
reference reads the evaluator's live caches, as the shipped batch does.

Each case alternates one shipped and one reference call per round
(``benchmarks/_timing.py``); its tax is the median of the per-round
ratios.  Results land in ``BENCH_kernels.json`` (override with the
``BENCH_KERNELS_JSON`` env var).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

from repro.core import get_domain
from repro.placement import CostEvaluator, Layout, SwapBatch, load_benchmark, random_placement
from repro.placement.wirelength import WirelengthState

from _timing import Bar, alternate, check, ratio, summary, timed

# The frozen references live with the tests that pin the shipped kernels.
_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

from oracles.kernels import (  # noqa: E402
    batch_reference,
    qap_reference,
    reference_caches,
    wirelength_reference,
)

PAIRS_PER_STEP = 256
#: Batch sizes of the placement batch cases, per circuit.
BATCH_SIZES = {"c532": (16, 64, 256), "big10k": (256,)}
SEED = 2003
WARMUP = 5
ROUNDS = 30

DISPATCH_TAX_BAR = 1.1
OUTPUT = Path(os.environ.get("BENCH_KERNELS_JSON", "BENCH_kernels.json"))


def _pairs(num_cells: int, rng: np.random.Generator):
    a = rng.integers(0, num_cells, PAIRS_PER_STEP).astype(np.int64)
    b = rng.integers(0, num_cells, PAIRS_PER_STEP).astype(np.int64)
    return a, b


def _case(shipped, reference, batch_size: int = PAIRS_PER_STEP, **fields) -> dict:
    samples = alternate(
        {"shipped": timed(shipped), "reference": timed(reference)}, ROUNDS, WARMUP
    )
    return {
        **fields,
        "batch_size": batch_size,
        "shipped_us": summary(samples["shipped"], 1e6),
        "reference_us": summary(samples["reference"], 1e6),
        "dispatch_tax": ratio(samples["shipped"], samples["reference"]),
    }


def _wirelength_case(circuit: str) -> dict:
    placement = random_placement(Layout(load_benchmark(circuit)), seed=SEED)
    state = WirelengthState(placement)
    a, b = _pairs(placement.num_cells, np.random.default_rng(7))
    pairs = np.column_stack((a, b))
    caches = reference_caches(placement)
    return _case(
        lambda: state.deltas_for_swaps(SwapBatch(placement, pairs)),
        lambda: wirelength_reference(state, a, b, caches),
        num_cells=placement.num_cells,
        incidence_mode=state.incidence_mode,
    )


def _qap_case() -> dict:
    problem = get_domain("qap").build_problem("rand256", reference_seed=0)
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    a, b = _pairs(problem.instance.n, np.random.default_rng(11))
    # the shipped kernel reuses pooled scratch blocks, so the reference gets
    # its four buffers once too: allocated per call, their 2 MB cost page
    # faults or not depending on the allocator's history in this process
    scratch = tuple(np.empty((PAIRS_PER_STEP, problem.instance.n)) for _ in range(4))
    return _case(
        lambda: evaluator.deltas_for_swaps(a, b),
        lambda: qap_reference(evaluator, a, b, scratch),
        n_facilities=problem.instance.n,
    )


def _batch_case(evaluator: CostEvaluator, batch_size: int) -> dict:
    rng = np.random.default_rng(13)
    pairs = rng.integers(0, evaluator.num_cells, size=(batch_size, 2))
    return _case(
        lambda: evaluator.evaluate_swaps_batch(pairs),
        lambda: batch_reference(evaluator, pairs),
        batch_size=batch_size,
        num_cells=evaluator.num_cells,
        incidence_mode=evaluator._wirelength.incidence_mode,
    )


def main() -> int:
    cases = {
        "c532": _wirelength_case("c532"),
        "big10k": _wirelength_case("big10k"),
        "rand256": _qap_case(),
    }
    for circuit, sizes in BATCH_SIZES.items():
        placement = random_placement(Layout(load_benchmark(circuit)), seed=SEED)
        evaluator = CostEvaluator(placement)
        for size in sizes:
            cases[f"{circuit} batch{size}"] = _batch_case(evaluator, size)
    # the c532/big10k split must actually cover both incidence kernels
    for name, case in cases.items():
        if name.startswith(("c532", "big10k")):
            assert case["incidence_mode"] == ("dense" if name.startswith("c532") else "csr")
    bars = [
        Bar(f"{name} dispatch_tax", case["dispatch_tax"]["median"], DISPATCH_TAX_BAR)
        for name, case in cases.items()
    ]
    return check(bars, {"results": cases}, OUTPUT)


if __name__ == "__main__":
    sys.exit(main())
