#!/usr/bin/env python
"""Running the master/TSW/CLW protocol on real OS processes.

The discrete-event cluster is the reference backend for the paper's
experiments (deterministic, virtual time, exact heterogeneity), and the
thread backend shows the protocol is kernel-agnostic — but only the
``processes`` backend executes the workers on separate cores, outside the
GIL, so its wall-clock times are real parallel speedups.  On a multi-core
machine the processes run should finish its (N times larger) total search
workload in far less than N times the simulated-equivalent serial time; see
``benchmarks/bench_wallclock_parallel.py`` for the measured speedup curve.

Every worker process, forked from the ``multiprocessing`` fork server or
spawned, re-imports this module, so everything must live under the
``__main__`` guard.

Run it with::

    python examples/real_processes.py
"""

from __future__ import annotations

import os
import time

from repro import (
    ParallelSearchParams,
    TabuSearchParams,
    homogeneous_cluster,
    load_benchmark,
    run_parallel_search,
)
from repro.metrics import format_table


def main() -> None:
    netlist = load_benchmark("c532")
    params = ParallelSearchParams(
        num_tsws=2,
        clws_per_tsw=1,
        global_iterations=2,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(
            local_iterations=40, pairs_per_step=128, move_depth=4, early_accept=False
        ),
        seed=7,
    )

    rows = []
    for backend in ("simulated", "processes"):
        start = time.perf_counter()
        result = run_parallel_search(
            netlist,
            params,
            backend=backend,  # type: ignore[arg-type]
            cluster=homogeneous_cluster(6),
        )
        wall = time.perf_counter() - start
        rows.append(
            (
                backend,
                result.best_cost,
                result.improvement,
                result.virtual_runtime if backend == "simulated" else float("nan"),
                wall,
            )
        )

    print(
        format_table(
            ["backend", "best cost", "improvement", "virtual runtime (s)", "wall clock (s)"],
            rows,
            title=(
                f"Same protocol, simulated vs real processes "
                f"({os.cpu_count()} cores; wall clock includes process spawn)"
            ),
        )
    )


if __name__ == "__main__":
    main()
