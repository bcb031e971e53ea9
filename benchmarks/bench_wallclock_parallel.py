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
* **Repeats** — serial and parallel runs alternate: each of
  :data:`REPEATS` rounds times one serial path, then one parallel run per
  TSW count, and pairs each parallel run with its round's serial one.  The
  reported (and enforced) speedup is the median over the rounds, with its
  interquartile range, so a slow spell of the host moves one round, not
  every ratio.

Results are written to ``BENCH_wallclock.json`` (override with the
``BENCH_WALLCLOCK_JSON`` env var); CI uploads the file per run to track the
wall-clock trajectory alongside ``BENCH_micro.json``.  On a runner with at
least four cores the 4-TSW configuration must reach >= 3x (raised from 2x
once the delta protocol cut the per-iteration path overhead, and again from
2.5x when the vectorized iteration driver cut the serial iteration itself);
the 8-TSW row is informational — it oversubscribes a 4-core runner by
design.

Environment knobs:

* ``REPRO_WALLCLOCK_TSWS``  — comma list of TSW counts (default ``2,4,8``)
* ``REPRO_WALLCLOCK_ITERS`` — iterations per search path (default ``600``)
* ``REPRO_WALLCLOCK_BAR``   — 4-TSW speedup bar (default ``3.0``)

Run it directly (worker processes re-import it, hence the ``__main__``
guard)::

    PYTHONPATH=src python benchmarks/bench_wallclock_parallel.py
"""

from __future__ import annotations

import json
import os
import sys
import time
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

from _utils import available_cpus, spread

CIRCUIT = "c532"
SEED = 2003
#: Acceptance: >= 3x with 4 TSWs on a >= 4-core runner (overridable for
#: slower/noisier environments).
SPEEDUP_BAR = float(os.environ.get("REPRO_WALLCLOCK_BAR", "3.0"))
#: Alternating rounds of one serial and one parallel run per TSW count.
REPEATS = 3


def _tabu_params(iterations: int) -> TabuSearchParams:
    return TabuSearchParams(
        local_iterations=iterations,
        pairs_per_step=256,
        move_depth=6,
        early_accept=False,
    )


def run_benchmark(tsw_counts, iterations):
    # Serial and parallel paths must run the *same* iteration count, so
    # round the requested budget down to a whole number of global rounds.
    global_iterations = 3
    local_iterations = max(1, iterations // global_iterations)
    iterations = global_iterations * local_iterations

    netlist = load_benchmark(CIRCUIT)
    reference_params = ParallelSearchParams(
        tabu=_tabu_params(iterations), seed=SEED, diversify=False
    )
    problem = build_problem(netlist, reference_params)

    def run_serial():
        """One search path of ``iterations`` iterations."""
        evaluator = problem.make_evaluator(problem.random_solution(SEED))
        search = TabuSearch(evaluator, _tabu_params(iterations), seed=SEED)
        start = time.perf_counter()
        result = search.run(TerminationCriteria(max_iterations=iterations))
        return time.perf_counter() - start, result

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
        start = time.perf_counter()
        result = run_parallel_search(
            netlist,
            params,
            backend="processes",
            cluster=homogeneous_cluster(2 * num_tsws + 1),
            problem=problem,
            join_timeout=3600.0,
        )
        return time.perf_counter() - start, result

    serial_seconds = []
    parallel = {num_tsws: {"seconds": [], "speedups": []} for num_tsws in tsw_counts}
    for repeat in range(REPEATS):
        seconds, serial_result = run_serial()
        serial_seconds.append(seconds)
        print(
            f"round {repeat}: serial {iterations} iters in {seconds:6.2f} s "
            f"({seconds / iterations * 1e3:.2f} ms/iter), best {serial_result.best_cost:.4f}"
        )
        for num_tsws in tsw_counts:
            parallel_seconds, result = run_parallel(num_tsws)
            assert result.best_cost < result.initial_cost
            row = parallel[num_tsws]
            row["seconds"].append(parallel_seconds)
            row["speedups"].append(num_tsws * seconds / parallel_seconds)
            row["result"] = result
            print(
                f"round {repeat}: {num_tsws} TSWs {iterations} iters/path in "
                f"{parallel_seconds:6.2f} s -> speedup {row['speedups'][-1]:4.2f}x, "
                f"best {result.best_cost:.4f}"
            )

    parallel_rows = []
    for num_tsws in tsw_counts:
        row = parallel[num_tsws]
        speedup = spread(row["speedups"])
        parallel_rows.append(
            {
                "num_tsws": num_tsws,
                "iterations_per_path": iterations,
                "seconds": spread(row["seconds"]),
                "speedup": speedup["median"],
                "speedup_iqr": speedup["iqr"],
                "speedups": row["speedups"],
                "best_cost": row["result"].best_cost,
                "initial_cost": row["result"].initial_cost,
                # only the 4-TSW row is enforced; larger configurations
                # oversubscribe the CI runner and are tracked informationally
                "informational": num_tsws != 4,
            }
        )
        print(
            f"{num_tsws} TSWs    : speedup median {speedup['median']:4.2f}x "
            f"(IQR {speedup['iqr']:.2f}) over {REPEATS} rounds"
        )

    return {
        "circuit": CIRCUIT,
        "backend": "processes",
        "cpu_count": available_cpus(),
        "repeats": REPEATS,
        "speedup_definition": (
            "N * t_serial / t_parallel(N): N concurrent serial-sized tabu "
            "search paths vs the same N paths run back-to-back serially; the "
            "median over rounds that each time one serial and one parallel run"
        ),
        "serial": {
            "iterations": iterations,
            "seconds": spread(serial_seconds),
            "best_cost": serial_result.best_cost,
            "pairs_per_step": 256,
            "move_depth": 6,
        },
        "parallel": parallel_rows,
    }


def main() -> int:
    tsw_counts = [
        int(part)
        for part in os.environ.get("REPRO_WALLCLOCK_TSWS", "2,4,8").split(",")
        if part.strip()
    ]
    iterations = int(os.environ.get("REPRO_WALLCLOCK_ITERS", "600"))
    report = run_benchmark(tsw_counts, iterations)

    out_path = Path(os.environ.get("BENCH_WALLCLOCK_JSON", "BENCH_wallclock.json"))
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    cpu_count = available_cpus()
    four_tsw = next((row for row in report["parallel"] if row["num_tsws"] == 4), None)
    if four_tsw is not None and cpu_count >= 4:
        if four_tsw["speedup"] < SPEEDUP_BAR:
            print(
                f"FAIL: 4-TSW median speedup {four_tsw['speedup']:.2f}x below the "
                f"{SPEEDUP_BAR}x bar on a {cpu_count}-core machine",
                file=sys.stderr,
            )
            return 1
        print(f"4-TSW speedup {four_tsw['speedup']:.2f}x >= {SPEEDUP_BAR}x bar")
        eight_tsw = next(
            (row for row in report["parallel"] if row["num_tsws"] == 8), None
        )
        if eight_tsw is not None:
            print(
                f"8-TSW speedup {eight_tsw['speedup']:.2f}x (informational: "
                f"8 TSWs oversubscribe a {cpu_count}-core runner)"
            )
    elif four_tsw is not None:
        print(
            f"note: only {cpu_count} core(s) available — the {SPEEDUP_BAR}x bar "
            "applies on >= 4 cores and was not enforced"
        )
    return 0


def test_wallclock_speedup():
    """Pytest entry point (not collected by default: bench_* naming)."""
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
