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
  at most a modest tax for the path large instances need
  (``REPRO_LARGE_CSR_RATIO``, default <= 1.5x).  Each of 200 repeats
  times one dense and one CSR call back to back, after warming both up,
  and each side reports its median call;
* **sublinear scaling** — per-iteration time must grow sublinearly in cell
  count: ``(t_10k / t_c532) / (10000 / 395)`` stays below
  ``REPRO_LARGE_SUBLINEAR`` (default 0.5 — i.e. at least 2x better than
  linear extrapolation from the dense tier);
* **batch leverage at n=256** — the QAP batch kernel must keep a large
  advantage over scalar evaluation at the bigger size
  (``REPRO_LARGE_QAP_BATCH``, default >= 15x; lower than the 20x bar at
  n=100 because each scalar call's fixed Python overhead amortises against
  an O(n) kernel that is 2.56x larger here — the measured headroom is
  ~19x);
* **peak memory** — the whole benchmark (10k placement + n=256 QAP,
  serial + parallel) must finish under ``REPRO_LARGE_RSS_MB`` (default
  1500 MB) of peak RSS per ``resource.getrusage`` — the dense fallbacks it
  replaced could not;
* **end-to-end parallel** — a short 4-TSW ``processes``-backend run on both
  big10k and rand256 (informational timing: CI runners differ in core
  count; the point is that the full parallel stack works at scale).

The benchmark asserts it measures the paths it means to: big10k must select
the ``csr`` incidence mode and the hashed tabu layout, c532 the dense ones.

Results land in ``BENCH_large.json`` (override with ``BENCH_LARGE_JSON``);
CI uploads the file per run.  Enforced bars are retried once against runner
noise.

Run it directly (worker processes re-import it, hence the ``__main__``
guard)::

    PYTHONPATH=src python benchmarks/bench_large_instances.py
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro import (
    ParallelSearchParams,
    TabuSearch,
    TabuSearchParams,
    TerminationCriteria,
    homogeneous_cluster,
    load_benchmark,
    run_parallel_search,
)
from repro.core import get_domain
from repro.parallel import build_problem
from repro.placement import Layout, random_placement
from repro.placement.wirelength import WirelengthState
from repro.tabu.tabu_list import ARRAY_TABU_MAX_CELLS

PAIRS_PER_STEP = 256
MOVE_DEPTH = 6
SEED = 2003
WARMUP_ITERATIONS = 5
MEASURED_ITERATIONS = 25

CSR_RATIO_BAR = float(os.environ.get("REPRO_LARGE_CSR_RATIO", "1.5"))
SUBLINEAR_BAR = float(os.environ.get("REPRO_LARGE_SUBLINEAR", "0.5"))
QAP_BATCH_BAR = float(os.environ.get("REPRO_LARGE_QAP_BATCH", "15"))
RSS_BAR_MB = float(os.environ.get("REPRO_LARGE_RSS_MB", "1500"))
OUTPUT = Path(os.environ.get("BENCH_LARGE_JSON", "BENCH_large.json"))

PLACEMENT_CIRCUITS = ("c532", "big2k", "big10k")


def _tabu_params(iterations: int) -> TabuSearchParams:
    return TabuSearchParams(
        local_iterations=iterations,
        pairs_per_step=PAIRS_PER_STEP,
        move_depth=MOVE_DEPTH,
        early_accept=False,
    )


def _ms_per_iteration(problem) -> float:
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    search = TabuSearch(
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


def _incidence_mode(problem) -> str:
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    return evaluator._wirelength.incidence_mode


def _csr_dense_kernel_ratio() -> dict:
    """Batched wirelength kernel on c532: forced CSR vs forced dense."""
    placement = random_placement(Layout(load_benchmark("c532")), seed=SEED)
    rng = np.random.default_rng(7)
    a = rng.integers(0, placement.num_cells, PAIRS_PER_STEP).astype(np.int64)
    b = rng.integers(0, placement.num_cells, PAIRS_PER_STEP).astype(np.int64)

    states = (
        WirelengthState(placement, incidence="dense"),
        WirelengthState(placement, incidence="csr"),
    )

    def timed(repeats=200, warmup=20):
        """Median milliseconds per call on each state.  Both are warmed up,
        then each repeat times one dense and one CSR call back to back, so
        a busy spell on a shared host slows both sides alike."""
        for _ in range(warmup):
            for state in states:
                state.deltas_for_swaps(a, b)
        samples = ([], [])
        for _ in range(repeats):
            for side, state in zip(samples, states):
                start = time.perf_counter()
                state.deltas_for_swaps(a, b)
                side.append(time.perf_counter() - start)
        return tuple(float(np.median(side)) * 1e3 for side in samples)

    dense_ms, csr_ms = timed()
    return {
        "dense_batch_ms": dense_ms,
        "csr_batch_ms": csr_ms,
        "csr_over_dense_ratio": csr_ms / dense_ms,
    }


def _qap_batch_leverage(problem) -> dict:
    """Batch vs scalar swap evaluation on n=256 QAP (per-pair time ratio)."""
    evaluator = problem.make_evaluator(problem.random_solution(SEED))
    rng = np.random.default_rng(9)
    pairs = rng.integers(0, evaluator.num_cells, size=(PAIRS_PER_STEP, 2))

    def timed_batch():
        for _ in range(20):
            evaluator.evaluate_swaps_batch(pairs)
        repeats = 100
        start = time.perf_counter()
        for _ in range(repeats):
            evaluator.evaluate_swaps_batch(pairs)
        return (time.perf_counter() - start) / (repeats * len(pairs)) * 1e6

    scalar_pairs = pairs[:32].tolist()

    def timed_scalar():
        for cell_a, cell_b in scalar_pairs[:8]:
            evaluator.evaluate_swap(cell_a, cell_b)
        repeats = 25
        start = time.perf_counter()
        for _ in range(repeats):
            for cell_a, cell_b in scalar_pairs:
                evaluator.evaluate_swap(cell_a, cell_b)
        return (time.perf_counter() - start) / (repeats * len(scalar_pairs)) * 1e6

    # best-of-3 each: single-shot timings on shared runners are noisy and a
    # transient stall must not masquerade as lost batch leverage
    batch_per_pair_us = min(timed_batch() for _ in range(3))
    scalar_per_pair_us = min(timed_scalar() for _ in range(3))

    return {
        "batch_us_per_pair": batch_per_pair_us,
        "scalar_us_per_pair": scalar_per_pair_us,
        "batch_speedup": scalar_per_pair_us / batch_per_pair_us,
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
    start = time.perf_counter()
    result = run_parallel_search(
        params=params,
        problem=problem,
        backend="processes",
        cluster=homogeneous_cluster(2 * num_tsws + 1),
        join_timeout=3600.0,
    )
    seconds = time.perf_counter() - start
    assert result.best_cost <= result.initial_cost
    return {
        "instance": instance_name,
        "num_tsws": num_tsws,
        "iterations_per_path": iterations,
        "seconds": seconds,
        "ms_per_iteration_per_path": seconds / iterations * 1e3,
        "best_cost": result.best_cost,
        "initial_cost": result.initial_cost,
        "informational": True,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure() -> dict:
    results: dict = {"serial": {}, "kernel": {}, "qap": {}, "parallel": []}

    placement_problems = {}
    for circuit in PLACEMENT_CIRCUITS:
        netlist = load_benchmark(circuit)
        problem = build_problem(netlist, ParallelSearchParams())
        placement_problems[circuit] = problem
        results["serial"][circuit] = {
            "num_cells": netlist.num_cells,
            "ms_per_iteration": _ms_per_iteration(problem),
            "incidence_mode": _incidence_mode(problem),
            "tabu_layout": (
                "dense" if netlist.num_cells <= ARRAY_TABU_MAX_CELLS else "hashed"
            ),
        }

    # the benchmark must provably measure the paths it claims to
    assert results["serial"]["c532"]["incidence_mode"] == "dense"
    assert results["serial"]["big10k"]["incidence_mode"] == "csr"
    assert results["serial"]["big10k"]["tabu_layout"] == "hashed"

    qap_problem = get_domain("qap").build_problem("rand256", reference_seed=0)
    results["serial"]["rand256"] = {
        "num_cells": qap_problem.num_cells,
        "ms_per_iteration": _ms_per_iteration(qap_problem),
    }

    results["kernel"] = _csr_dense_kernel_ratio()
    results["qap"] = _qap_batch_leverage(qap_problem)

    big_c532 = results["serial"]["c532"]
    big_10k = results["serial"]["big10k"]
    results["scaling"] = {
        "cells_ratio": big_10k["num_cells"] / big_c532["num_cells"],
        "time_ratio": big_10k["ms_per_iteration"] / big_c532["ms_per_iteration"],
        "sublinear_factor": (
            big_10k["ms_per_iteration"] / big_c532["ms_per_iteration"]
        )
        / (big_10k["num_cells"] / big_c532["num_cells"]),
    }

    results["parallel"].append(_parallel_run(placement_problems["big10k"], "big10k"))
    results["parallel"].append(_parallel_run(qap_problem, "rand256"))

    results["peak_rss_mb"] = _peak_rss_mb()
    return results


def _passes(results: dict) -> bool:
    return (
        results["kernel"]["csr_over_dense_ratio"] <= CSR_RATIO_BAR
        and results["scaling"]["sublinear_factor"] <= SUBLINEAR_BAR
        and results["qap"]["batch_speedup"] >= QAP_BATCH_BAR
        and results["peak_rss_mb"] <= RSS_BAR_MB
    )


def main() -> int:
    attempts = []
    for _attempt in range(2):  # one retry against runner noise
        results = measure()
        attempts.append(results)
        if _passes(results):
            break

    best = next(
        (r for r in attempts if _passes(r)),
        min(attempts, key=lambda r: r["scaling"]["sublinear_factor"]),
    )
    payload = {
        "bar": {
            "csr_over_dense_ratio_max": CSR_RATIO_BAR,
            "sublinear_factor_max": SUBLINEAR_BAR,
            "qap_batch_speedup_min": QAP_BATCH_BAR,
            "peak_rss_mb_max": RSS_BAR_MB,
        },
        "workload": {
            "pairs_per_step": PAIRS_PER_STEP,
            "move_depth": MOVE_DEPTH,
            "measured_iterations": MEASURED_ITERATIONS,
        },
        "results": best,
        "attempts": len(attempts),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2))

    print("serial ms/iteration (m=256, d=6, no early accept):")
    for name, row in best["serial"].items():
        mode = row.get("incidence_mode", "-")
        print(
            f"  {name:>8}: {row['ms_per_iteration']:7.2f} ms "
            f"({row['num_cells']} cells, incidence={mode})"
        )
    print(
        f"c532 CSR kernel tax: {best['kernel']['csr_over_dense_ratio']:.2f}x "
        f"(bar {CSR_RATIO_BAR:.1f}x)"
    )
    print(
        f"scaling: 10k/c532 time ratio {best['scaling']['time_ratio']:.1f}x over "
        f"{best['scaling']['cells_ratio']:.1f}x cells -> sublinear factor "
        f"{best['scaling']['sublinear_factor']:.3f} (bar {SUBLINEAR_BAR:.2f})"
    )
    print(
        f"rand256 batch speedup: {best['qap']['batch_speedup']:.1f}x "
        f"(bar {QAP_BATCH_BAR:.0f}x)"
    )
    for row in best["parallel"]:
        print(
            f"parallel {row['instance']}: {row['num_tsws']} TSWs x "
            f"{row['iterations_per_path']} iters in {row['seconds']:.2f} s "
            f"(informational)"
        )
    print(f"peak RSS: {best['peak_rss_mb']:.0f} MB (bar {RSS_BAR_MB:.0f} MB)")
    print(f"Results written to {OUTPUT}")

    failed = False
    if best["kernel"]["csr_over_dense_ratio"] > CSR_RATIO_BAR:
        print(
            f"FAIL: c532 CSR kernel tax "
            f"{best['kernel']['csr_over_dense_ratio']:.2f}x > {CSR_RATIO_BAR:.1f}x",
            file=sys.stderr,
        )
        failed = True
    if best["scaling"]["sublinear_factor"] > SUBLINEAR_BAR:
        print(
            f"FAIL: sublinear factor {best['scaling']['sublinear_factor']:.3f} > "
            f"{SUBLINEAR_BAR:.2f} (per-iteration time scaling too close to linear)",
            file=sys.stderr,
        )
        failed = True
    if best["qap"]["batch_speedup"] < QAP_BATCH_BAR:
        print(
            f"FAIL: rand256 batch speedup {best['qap']['batch_speedup']:.1f}x < "
            f"{QAP_BATCH_BAR:.0f}x",
            file=sys.stderr,
        )
        failed = True
    if best["peak_rss_mb"] > RSS_BAR_MB:
        print(
            f"FAIL: peak RSS {best['peak_rss_mb']:.0f} MB > {RSS_BAR_MB:.0f} MB",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("OK: all large-instance bars hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
