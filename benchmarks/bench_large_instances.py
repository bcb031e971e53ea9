#!/usr/bin/env python
"""Large-instance scaling benchmark: the 10k-cell tier and n=256 QAP.

The paper's circuits top out at 2243 cells; everything beyond that exercised
code paths that either silently fell back to slow kernels (the lexsort
shared-net detection) or blew past memory budgets (the dense incidence
matrix, the O(num_cells^2) tabu vector).  PR 6 added sparse/hashed variants
that engage automatically past the budgets; this benchmark proves the large
tier actually runs and guards its scaling properties:

* **ms/iteration** — serial vectorized tabu iterations (m = 256, d = 6, no
  early accept) on c532 (395 cells, dense paths), big2k (2000 cells) and
  big10k (10000 cells, sparse paths), plus n=256 QAP;
* **CSR kernel tax** — the batched wirelength kernel on c532 with the CSR
  shared-net path forced, relative to the dense path.  Small instances pay
  at most a modest tax for the path large instances need (<= 1.5x, the
  median ratio of 200 alternating rounds of one call each);
* **sublinear scaling** — per-iteration time must grow sublinearly in cell
  count: ``(t_10k / t_c532) / (10000 / 395)`` stays below 0.5 (at least
  2x better than linear extrapolation from the dense tier), the median of
  per-round ratios;
* **batch leverage at n=256** — the QAP batch kernel must keep a large
  advantage over scalar evaluation at the bigger size (>= 15x; lower than
  the 20x bar at n=100 because each scalar call's fixed Python overhead
  amortises against an O(n) kernel that is 2.56x larger here — the
  measured headroom is ~19x);
* **peak memory** — the whole benchmark (10k placement + n=256 QAP,
  serial + parallel) must finish under 1500 MB of peak RSS per
  ``resource.getrusage`` — the dense fallbacks it replaced could not;
* **end-to-end parallel** — a short 4-TSW ``processes``-backend run on both
  big10k and rand256 (informational timing: CI runners differ in core
  count; the point is that the full parallel stack works at scale).

The benchmark asserts it measures the paths it means to: big10k must select
the ``csr`` incidence mode and the hashed tabu layout, c532 the dense ones.

Every timed comparison alternates its sides round by round
(``benchmarks/_timing.py``).  Results land in ``BENCH_large.json``
(override with ``BENCH_LARGE_JSON``).

Run it directly (worker processes re-import it, hence the ``__main__``
guard)::

    PYTHONPATH=src python benchmarks/bench_large_instances.py
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np

from repro import (
    ParallelSearchParams,
    TabuSearch,
    TabuSearchParams,
    homogeneous_cluster,
    load_benchmark,
    run_parallel_search,
)
from repro.core import get_domain
from repro.parallel import build_problem
from repro.placement import Layout, SwapBatch, random_placement
from repro.placement.wirelength import WirelengthState
from repro.tabu.tabu_list import ARRAY_TABU_MAX_CELLS

from _timing import Bar, alternate, check, ratio, summary, timed

PAIRS_PER_STEP = 256
MOVE_DEPTH = 6
SEED = 2003
#: Each instance's search runs ITERATIONS_PER_ROUND iterations per round:
#: one warm-up round, then ROUNDS timed rounds (25 iterations).
ITERATIONS_PER_ROUND = 5
ROUNDS = 5
CSR_ROUNDS = 200
QAP_ROUNDS = 25

CSR_RATIO_BAR = 1.5
SUBLINEAR_BAR = 0.5
QAP_BATCH_BAR = 15.0
RSS_BAR_MB = 1500.0
OUTPUT = Path(os.environ.get("BENCH_LARGE_JSON", "BENCH_large.json"))

PLACEMENT_CIRCUITS = ("c532", "big2k", "big10k")


def _tabu_params(iterations: int) -> TabuSearchParams:
    return TabuSearchParams(
        local_iterations=iterations,
        pairs_per_step=PAIRS_PER_STEP,
        move_depth=MOVE_DEPTH,
        early_accept=False,
    )


def _iterations(problem):
    """A side that runs ITERATIONS_PER_ROUND more iterations of one search."""
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    search = TabuSearch(evaluator, _tabu_params(ITERATIONS_PER_ROUND), seed=SEED)
    return timed(search.step, ITERATIONS_PER_ROUND)


def _incidence_mode(problem) -> str:
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    return evaluator._wirelength.incidence_mode


def _csr_dense_kernel_ratio() -> dict:
    """Batched wirelength kernel on c532: its default dense path vs the CSR
    path, taken with the incidence budget patched to 0."""
    placement = random_placement(Layout(load_benchmark("c532")), seed=SEED)
    rng = np.random.default_rng(7)
    a = rng.integers(0, placement.num_cells, PAIRS_PER_STEP).astype(np.int64)
    b = rng.integers(0, placement.num_cells, PAIRS_PER_STEP).astype(np.int64)
    pairs = np.column_stack((a, b))
    dense = WirelengthState(placement)
    with patch.object(WirelengthState, "INCIDENCE_BUDGET", 0):
        csr = WirelengthState(placement)
    assert (dense.incidence_mode, csr.incidence_mode) == ("dense", "csr")
    samples = alternate(
        {
            "dense": timed(lambda: dense.deltas_for_swaps(SwapBatch(placement, pairs))),
            "csr": timed(lambda: csr.deltas_for_swaps(SwapBatch(placement, pairs))),
        },
        CSR_ROUNDS,
        warmup=20,
    )
    return {
        "dense_batch_ms": summary(samples["dense"], 1e3),
        "csr_batch_ms": summary(samples["csr"], 1e3),
        "csr_over_dense_ratio": ratio(samples["csr"], samples["dense"]),
    }


def _qap_batch_leverage(problem) -> dict:
    """Batch vs scalar swap evaluation on n=256 QAP (per-pair time ratio)."""
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    rng = np.random.default_rng(9)
    pairs = rng.integers(0, evaluator.num_cells, size=(PAIRS_PER_STEP, 2))
    scalar_pairs = pairs[:32].tolist()

    def scalar():
        for cell_a, cell_b in scalar_pairs:
            evaluator.evaluate_swap(cell_a, cell_b)

    samples = alternate(
        {
            "batch": timed(lambda: evaluator.evaluate_swaps_batch(pairs), calls=4),
            "scalar": timed(scalar),
        },
        QAP_ROUNDS,
        warmup=5,
    )
    batch = [s / len(pairs) for s in samples["batch"]]
    scalar_per_pair = [s / len(scalar_pairs) for s in samples["scalar"]]
    return {
        "batch_us_per_pair": summary(batch, 1e6),
        "scalar_us_per_pair": summary(scalar_per_pair, 1e6),
        "batch_speedup": ratio(scalar_per_pair, batch),
    }


def _parallel_run(problem, instance_name: str, num_tsws: int = 4) -> dict:
    """Short end-to-end processes-backend run (informational timing)."""
    global_iterations = 2
    local_iterations = 5
    params = ParallelSearchParams(
        num_tsws=num_tsws,
        clws_per_tsw=1,
        global_iterations=global_iterations,
        sync_mode="homogeneous",
        diversify=False,
        tabu=_tabu_params(local_iterations),
        seed=SEED,
    )
    iterations = global_iterations * local_iterations
    results = []
    seconds = timed(
        lambda: results.append(
            run_parallel_search(
                params=params,
                problem=problem,
                backend="processes",
                cluster=homogeneous_cluster(2 * num_tsws + 1),
                join_timeout=3600.0,
            )
        )
    )()
    result = results[0]
    assert result.best_cost <= result.initial_cost
    return {
        "instance": instance_name,
        "num_tsws": num_tsws,
        "iterations_per_path": iterations,
        "seconds": summary([seconds]),
        "best_cost": result.best_cost,
        "initial_cost": result.initial_cost,
        "informational": True,
    }


def measure() -> dict:
    results: dict = {"serial": {}}
    problems = {}
    for circuit in PLACEMENT_CIRCUITS:
        netlist = load_benchmark(circuit)
        problems[circuit] = build_problem(netlist, ParallelSearchParams())
        results["serial"][circuit] = {
            "num_cells": netlist.num_cells,
            "incidence_mode": _incidence_mode(problems[circuit]),
            "tabu_layout": (
                "dense" if netlist.num_cells <= ARRAY_TABU_MAX_CELLS else "hashed"
            ),
        }
    # the benchmark must provably measure the paths it claims to
    assert results["serial"]["c532"]["incidence_mode"] == "dense"
    assert results["serial"]["big10k"]["incidence_mode"] == "csr"
    assert results["serial"]["big10k"]["tabu_layout"] == "hashed"

    problems["rand256"] = get_domain("qap").build_problem("rand256", reference_seed=0)
    results["serial"]["rand256"] = {"num_cells": problems["rand256"].num_cells}
    samples = alternate(
        {name: _iterations(problem) for name, problem in problems.items()},
        ROUNDS,
    )
    for name, row in results["serial"].items():
        row["ms_per_iteration"] = summary(samples[name], 1e3)

    cells_ratio = (
        results["serial"]["big10k"]["num_cells"] / results["serial"]["c532"]["num_cells"]
    )
    results["scaling"] = {
        "cells_ratio": cells_ratio,
        "time_ratio": ratio(samples["big10k"], samples["c532"]),
        "sublinear_factor": ratio(
            samples["big10k"], [s * cells_ratio for s in samples["c532"]]
        ),
    }
    results["kernel"] = _csr_dense_kernel_ratio()
    results["qap"] = _qap_batch_leverage(problems["rand256"])
    results["parallel"] = [
        _parallel_run(problems["big10k"], "big10k"),
        _parallel_run(problems["rand256"], "rand256"),
    ]
    results["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return results


def main() -> int:
    results = measure()
    bars = [
        Bar("c532 csr_over_dense_ratio", results["kernel"]["csr_over_dense_ratio"]["median"], CSR_RATIO_BAR),
        Bar("sublinear_factor", results["scaling"]["sublinear_factor"]["median"], SUBLINEAR_BAR),
        Bar(
            "rand256 batch_speedup",
            results["qap"]["batch_speedup"]["median"],
            QAP_BATCH_BAR,
            higher_is_better=True,
        ),
        Bar("peak_rss_mb", results["peak_rss_mb"], RSS_BAR_MB),
    ]
    workload = {
        "pairs_per_step": PAIRS_PER_STEP,
        "move_depth": MOVE_DEPTH,
        "measured_iterations": ITERATIONS_PER_ROUND * ROUNDS,
    }
    return check(bars, {"workload": workload, "results": results}, OUTPUT)


if __name__ == "__main__":
    sys.exit(main())
