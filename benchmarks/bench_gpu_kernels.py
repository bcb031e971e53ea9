#!/usr/bin/env python
"""Dispatch-tax benchmark for the ``repro.accel`` kernels.

The hot kernels (QAP batched swap deltas, the placement dense/CSR batched
wirelength kernel) used to be direct NumPy code inside their evaluators;
they now live in :mod:`repro.accel` and the evaluators call into them.  The
CI bar guards that calling through the kernel module is free —

* **dispatch tax <= 1.1x** — the shipped evaluator kernel versus the frozen
  direct reference (``tests/oracles/kernels.py``) on c532 (dense
  incidence), big10k (CSR incidence) and rand256 QAP; overridable with
  ``REPRO_GPU_DISPATCH_TAX``.

The wirelength reference is also the kernel before the next-inner caches
(edge counts plus a segment-reduce fallback), so its two cases read well
under 1.0: they bound the dispatch tax and the algorithmic gain together.
The reference's caches are derived from the placement once per case,
outside the timed call, as the state's were when the reference read them.

Each repeat times one shipped and one reference call back to back, after
warming both up, and each side reports its median call, so drift on a
shared host moves both sides of the ratio alike.  Results land in ``BENCH_gpu.json`` (override with the
``BENCH_GPU_JSON`` env var); the bar retries once against runner noise.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_gpu_kernels.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import get_domain
from repro.placement import Layout, load_benchmark, random_placement
from repro.placement.wirelength import WirelengthState

# The frozen references live with the tests that pin the shipped kernels.
_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

from oracles.kernels import (  # noqa: E402
    qap_reference,
    reference_caches,
    wirelength_reference,
)

PAIRS_PER_STEP = 256
SEED = 2003
WARMUP = 5
MEASURED = 30

DISPATCH_TAX_BAR = float(os.environ.get("REPRO_GPU_DISPATCH_TAX", "1.1"))
OUTPUT = Path(os.environ.get("BENCH_GPU_JSON", "BENCH_gpu.json"))


def _time_pair_us(shipped, reference, repeats: int = MEASURED, warmup: int = WARMUP):
    """Median microseconds per call of ``shipped`` and of ``reference``.

    After warming both up, each repeat times one call of each back to back,
    so a busy spell on a shared host slows both sides alike, and the median
    drops the calls it hit.
    """
    for _ in range(warmup):
        shipped()
        reference()
    samples = ([], [])
    for _ in range(repeats):
        for side, func in zip(samples, (shipped, reference)):
            start = time.perf_counter()
            func()
            side.append(time.perf_counter() - start)
    return tuple(float(np.median(side)) * 1e6 for side in samples)


def _pairs(num_cells: int, rng: np.random.Generator):
    a = rng.integers(0, num_cells, PAIRS_PER_STEP).astype(np.int64)
    b = rng.integers(0, num_cells, PAIRS_PER_STEP).astype(np.int64)
    return a, b


def _wirelength_case(circuit: str) -> dict:
    placement = random_placement(Layout(load_benchmark(circuit)), seed=SEED)
    state = WirelengthState(placement)
    a, b = _pairs(placement.num_cells, np.random.default_rng(7))
    caches = reference_caches(placement)

    shipped_us, reference_us = _time_pair_us(
        lambda: state.deltas_for_swaps(a, b),
        lambda: wirelength_reference(state, a, b, caches),
    )
    return {
        "circuit": circuit,
        "num_cells": placement.num_cells,
        "incidence_mode": state.incidence_mode,
        "batch_size": PAIRS_PER_STEP,
        "shipped_us": shipped_us,
        "reference_us": reference_us,
        "dispatch_tax": shipped_us / reference_us,
    }


def _qap_case() -> dict:
    problem = get_domain("qap").build_problem("rand256", reference_seed=0)
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    a, b = _pairs(problem.instance.n, np.random.default_rng(11))

    shipped_us, reference_us = _time_pair_us(
        lambda: evaluator.deltas_for_swaps(a, b), lambda: qap_reference(evaluator, a, b)
    )
    return {
        "instance": "rand256",
        "n_facilities": problem.instance.n,
        "batch_size": PAIRS_PER_STEP,
        "shipped_us": shipped_us,
        "reference_us": reference_us,
        "dispatch_tax": shipped_us / reference_us,
    }


def measure() -> dict:
    results = {
        "cpu": {
            "c532": _wirelength_case("c532"),
            "big10k": _wirelength_case("big10k"),
            "rand256": _qap_case(),
        }
    }
    # the c532/big10k split must actually cover both incidence kernels
    assert results["cpu"]["c532"]["incidence_mode"] == "dense"
    assert results["cpu"]["big10k"]["incidence_mode"] == "csr"
    return results


def _worst_tax(results: dict) -> float:
    return max(case["dispatch_tax"] for case in results["cpu"].values())


def main() -> int:
    attempts = []
    for attempt in range(2):  # one retry against runner noise
        results = measure()
        attempts.append(results)
        if _worst_tax(results) <= DISPATCH_TAX_BAR:
            break

    best = min(attempts, key=_worst_tax)
    worst_tax = _worst_tax(best)
    payload = {
        "bar": {"dispatch_tax_max": DISPATCH_TAX_BAR},
        "results": best,
        "attempts": len(attempts),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2))

    print(f"repro.accel kernels vs frozen references ({PAIRS_PER_STEP}-pair batches):")
    for name, case in best["cpu"].items():
        print(
            f"  {name:>8}: shipped {case['shipped_us']:8.1f} us  "
            f"reference {case['reference_us']:8.1f} us  "
            f"tax {case['dispatch_tax']:.3f}x"
        )
    print(f"Results written to {OUTPUT}")

    if worst_tax > DISPATCH_TAX_BAR:
        print(
            f"FAIL: worst dispatch tax {worst_tax:.3f}x > "
            f"{DISPATCH_TAX_BAR:.2f}x bar",
            file=sys.stderr,
        )
        return 1
    print(f"OK: worst dispatch tax {worst_tax:.3f}x <= {DISPATCH_TAX_BAR:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
