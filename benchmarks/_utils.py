"""Helpers shared by the benchmark scripts."""

from __future__ import annotations

import os
import pathlib
import statistics

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_once(benchmark, func, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result.

    A figure regeneration is itself a long, internally-repeating experiment,
    so repeating it for statistical timing would multiply the suite's runtime
    for no benefit — the interesting output is the figure data.
    """
    return benchmark.pedantic(func, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


def available_cpus() -> int:
    """CPUs actually available to this process (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def spread(values) -> dict:
    """Median and interquartile range of ``values``."""
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": quartiles[2] - quartiles[0]}


def report_figure(result) -> None:
    """Print a FigureResult and persist it under ``benchmarks/results/``."""
    text = result.format()
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.figure_id}.txt").write_text(text + "\n", encoding="utf-8")
