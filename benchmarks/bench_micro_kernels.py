"""Micro-benchmarks of the hot kernels underneath the experiments.

Unlike the figure benchmarks (one long run each), these use pytest-benchmark's
normal repeated timing, so regressions in the incremental cost evaluation, the
full-circuit evaluation or the discrete-event kernel show up directly.  Run
the file as a bar script::

    PYTHONPATH=src python benchmarks/bench_micro_kernels.py

It runs itself under pytest-benchmark and writes each test's timing as
``{median, iqr, n}`` in microseconds to ``BENCH_micro.json``, through
``_timing.check`` like every other bar script (it sets no bar).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.placement import CostEvaluator, Layout, load_benchmark, random_placement
from repro.placement.timing import TimingAnalyzer
from repro.placement.wirelength import full_hpwl
from repro.pvm import SimKernel, homogeneous_cluster

from _timing import check


@pytest.fixture(scope="module")
def c532_evaluator():
    layout = Layout(load_benchmark("c532"))
    return CostEvaluator(random_placement(layout, seed=1))


def test_bench_trial_swap_evaluation(benchmark, c532_evaluator):
    """Cost of one trial swap evaluation on c532 (the innermost CLW operation)."""
    rng = np.random.default_rng(0)
    n = c532_evaluator.placement.num_cells
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(256, 2))]
    state = {"i": 0}

    def trial():
        a, b = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        return c532_evaluator.evaluate_swap(a, b)

    benchmark(trial)


def test_bench_batch_swap_evaluation(benchmark, c532_evaluator):
    """One 256-pair batched evaluation on c532 (the CLW's step-level kernel).

    The acceptance bar for the batched engine is ≥ 5× over 256 scalar
    ``evaluate_swap`` calls; compare against ``test_bench_trial_swap_evaluation``
    (which times one scalar trial) — this whole 256-pair batch should cost
    well under 256 of those.
    """
    rng = np.random.default_rng(2)
    n = c532_evaluator.placement.num_cells
    pairs = rng.integers(0, n, size=(256, 2))

    result = benchmark(c532_evaluator.evaluate_swaps_batch, pairs)
    assert result.shape == (256,)


def test_bench_commit_swap(benchmark, c532_evaluator):
    """Cost of committing a swap (placement update + all incremental caches)."""
    rng = np.random.default_rng(1)
    n = c532_evaluator.placement.num_cells
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(256, 2))]
    state = {"i": 0}

    def commit():
        a, b = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        return c532_evaluator.commit_swap(a, b)

    benchmark(commit)


def test_bench_full_hpwl_c3540(benchmark):
    """Vectorised full-circuit HPWL on the largest paper circuit."""
    layout = Layout(load_benchmark("c3540"))
    placement = random_placement(layout, seed=2)
    benchmark(full_hpwl, placement)


def test_bench_exact_sta_c3540(benchmark):
    """Exact static timing analysis on the largest paper circuit."""
    netlist = load_benchmark("c3540")
    layout = Layout(netlist)
    placement = random_placement(layout, seed=3)
    analyzer = TimingAnalyzer(netlist)
    benchmark(analyzer.analyze, placement)


def test_bench_simkernel_message_round_trips(benchmark):
    """Throughput of the discrete-event kernel on a ping-pong workload."""

    def child(ctx):
        while True:
            message = yield ctx.recv()
            if message.tag == "stop":
                return None
            yield ctx.send(message.src, "pong", message.payload)

    def parent(ctx, rounds):
        child_pid = yield ctx.spawn(child, name="child")
        for index in range(rounds):
            yield ctx.send(child_pid, "ping", index)
            yield ctx.recv(tag="pong")
        yield ctx.send(child_pid, "stop")
        return rounds

    def run_kernel():
        kernel = SimKernel(homogeneous_cluster(2))
        pid = kernel.spawn(parent, 200, name="parent")
        kernel.run()
        return kernel.result_of(pid)

    assert benchmark(run_kernel) == 200


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "micro.json"
        returncode = int(
            pytest.main(
                [__file__, "-q", "-p", "no:cacheprovider", "--benchmark-only",
                 f"--benchmark-json={raw}"]
            )
        )
        if not raw.exists():
            return returncode or 1
        results = {
            bench["name"]: {
                "median": bench["stats"]["median"] * 1e6,
                "iqr": bench["stats"]["iqr"] * 1e6,
                "n": bench["stats"]["rounds"],
            }
            for bench in json.loads(raw.read_text())["benchmarks"]
        }
    return check([], {"unit": "us", "results": results}, Path("BENCH_micro.json")) or returncode


if __name__ == "__main__":
    sys.exit(main())
