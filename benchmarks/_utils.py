"""Helpers shared by the benchmark scripts."""

from __future__ import annotations

import contextlib
import pathlib

from repro.parallel.coordinator import Coordinator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_once(benchmark, func, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result.

    A figure regeneration is itself a long, internally-repeating experiment,
    so repeating it for statistical timing would multiply the suite's runtime
    for no benefit — the interesting output is the figure data.
    """
    return benchmark.pedantic(func, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


@contextlib.contextmanager
def after_first_round(action):
    """Call ``action`` on the master's thread once it has collected its
    first round of reports (the workers' coordinators run in their own
    processes, which this patch does not reach).  A wall-clock timer would
    miss a run that finishes before it fires."""
    collect = Coordinator.collect
    pending = [action]

    def collect_then_act(self, *args, **kwargs):
        results = yield from collect(self, *args, **kwargs)
        while pending:
            pending.pop()()
        return results

    Coordinator.collect = collect_then_act
    try:
        yield
    finally:
        Coordinator.collect = collect


def report_figure(result) -> None:
    """Print a FigureResult and persist it under ``benchmarks/results/``."""
    text = result.format()
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.figure_id}.txt").write_text(text + "\n", encoding="utf-8")
