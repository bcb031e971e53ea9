#!/usr/bin/env python
"""Real wall-clock speedup of the multiprocessing backend on c532.

This is the benchmark the whole repository builds toward: the paper's claim
is wall-clock speedup from parallel tabu search, and the ``processes``
backend is the first configuration that can demonstrate it on real hardware
(the simulator measures virtual time; the thread backend is GIL-bound).

Method
------
* **Serial baseline** — one :class:`~repro.tabu.search.TabuSearch` path of
  ``K`` iterations on c532 with a compute-heavy candidate configuration
  (``m = 256`` pairs per step, depth ``d = 6``, no early accept) so the
  batched numpy swap-evaluation kernel dominates per-iteration time.
* **Parallel runs** — ``run_parallel_search(..., backend="processes")`` with
  N TSWs × 1 CLW, homogeneous wait-for-all sync, no throttling
  (homogeneous cluster).  Every TSW performs the same ``K`` iterations
  (``global_iterations × local_iterations = K``), i.e. N serial-sized search
  paths run concurrently.
* **Speedup** — search-throughput speedup::

      speedup(N) = N * t_serial / t_parallel(N)

  — how much faster N concurrent paths finish than the same N paths run
  back-to-back on one core.  Wall times include process spawn/join overhead.
* **Repeats** — serial and parallel runs alternate
  (``benchmarks/_timing.py``): after one untimed warm-up of each, each of
  :data:`ROUNDS` rounds times one serial path and one parallel run per TSW
  count, starting from a different side each round, and pairs each
  parallel run with its round's serial one.  The reported (and enforced)
  speedup is the median of the per-round ratios, with its interquartile
  range, so a slow spell of the host moves one round, not every ratio.

Results are written to ``BENCH_wallclock.json`` (override with the
``BENCH_WALLCLOCK_JSON`` env var).  On a runner with at least four cores
the 4-TSW configuration must reach >= 3x (raised from 2x once the delta
protocol cut the per-iteration path overhead, and again from 2.5x when the
vectorized iteration driver cut the serial iteration itself); the 8-TSW
row is informational — it oversubscribes a 4-core runner by design.

Run it directly (worker processes re-import it, hence the ``__main__``
guard)::

    PYTHONPATH=src python benchmarks/bench_wallclock_parallel.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro import (
    ParallelSearchParams,
    TabuSearch,
    TabuSearchParams,
    TerminationCriteria,
    homogeneous_cluster,
    load_benchmark,
    run_parallel_search,
)
from repro.parallel import build_problem

from _timing import Bar, alternate, available_cpus, check, ratio, summary, timed

CIRCUIT = "c532"
SEED = 2003
TSW_COUNTS = (2, 4, 8)
#: Iterations per search path.
ITERATIONS = 600
#: Acceptance: >= 3x with 4 TSWs on a >= 4-core runner.
SPEEDUP_BAR = 3.0
#: Alternating rounds of one serial and one parallel run per TSW count.
ROUNDS = 3
OUTPUT = Path(os.environ.get("BENCH_WALLCLOCK_JSON", "BENCH_wallclock.json"))


def _tabu_params(iterations: int) -> TabuSearchParams:
    return TabuSearchParams(
        local_iterations=iterations,
        pairs_per_step=256,
        move_depth=6,
        early_accept=False,
    )


def run_benchmark():
    # Serial and parallel paths must run the *same* iteration count, so
    # round the requested budget down to a whole number of global rounds.
    global_iterations = 3
    local_iterations = max(1, ITERATIONS // global_iterations)
    iterations = global_iterations * local_iterations

    netlist = load_benchmark(CIRCUIT)
    reference_params = ParallelSearchParams(
        tabu=_tabu_params(iterations), seed=SEED, diversify=False
    )
    problem = build_problem(netlist, reference_params)
    results = {}

    def run_serial():
        """One search path of ``iterations`` iterations."""
        evaluator = problem.make_evaluator(problem.random_solution(SEED))
        search = TabuSearch(evaluator, _tabu_params(iterations), seed=SEED)
        results["serial"] = search.run(TerminationCriteria(max_iterations=iterations))

    def run_parallel(num_tsws):
        """N concurrent serial-sized paths."""
        params = ParallelSearchParams(
            num_tsws=num_tsws,
            clws_per_tsw=1,
            global_iterations=global_iterations,
            sync_mode="homogeneous",
            diversify=False,
            tabu=_tabu_params(local_iterations),
            seed=SEED,
        )
        result = run_parallel_search(
            netlist,
            params,
            backend="processes",
            cluster=homogeneous_cluster(2 * num_tsws + 1),
            problem=problem,
            join_timeout=3600.0,
        )
        assert result.best_cost < result.initial_cost
        results[num_tsws] = result

    sides = {"serial": timed(run_serial)}
    for num_tsws in TSW_COUNTS:
        sides[str(num_tsws)] = timed(lambda n=num_tsws: run_parallel(n))
    samples = alternate(sides, ROUNDS)

    parallel_rows = []
    for num_tsws in TSW_COUNTS:
        serial_paths = [num_tsws * s for s in samples["serial"]]
        speedup = ratio(serial_paths, samples[str(num_tsws)])
        parallel_rows.append(
            {
                "num_tsws": num_tsws,
                "iterations_per_path": iterations,
                "seconds": summary(samples[str(num_tsws)]),
                "speedup": speedup,
                "best_cost": results[num_tsws].best_cost,
                "initial_cost": results[num_tsws].initial_cost,
                # only the 4-TSW row is enforced; larger configurations
                # oversubscribe the CI runner and are tracked informationally
                "informational": num_tsws != 4,
            }
        )
        print(
            f"{num_tsws} TSWs    : speedup median {speedup['median']:4.2f}x "
            f"(IQR {speedup['iqr']:.2f}) over {ROUNDS} rounds"
        )

    return {
        "circuit": CIRCUIT,
        "backend": "processes",
        "speedup_definition": (
            "N * t_serial / t_parallel(N): N concurrent serial-sized tabu "
            "search paths vs the same N paths run back-to-back serially; the "
            "median over rounds that each time one serial and one parallel run"
        ),
        "serial": {
            "iterations": iterations,
            "seconds": summary(samples["serial"]),
            "best_cost": results["serial"].best_cost,
            "pairs_per_step": 256,
            "move_depth": 6,
        },
        "parallel": parallel_rows,
    }


def main() -> int:
    report = run_benchmark()
    four_tsw = next(row for row in report["parallel"] if row["num_tsws"] == 4)
    bar = Bar(
        "4-TSW speedup",
        four_tsw["speedup"]["median"],
        SPEEDUP_BAR,
        higher_is_better=True,
        enforced=available_cpus() >= 4,
    )
    return check([bar], report, OUTPUT)


if __name__ == "__main__":
    sys.exit(main())
