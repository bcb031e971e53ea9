#!/usr/bin/env python
"""Running the same master/TSW/CLW protocol on real OS threads.

Every experiment in this repository uses the deterministic discrete-event
cluster because (a) the paper's findings are about behaviour under machine
heterogeneity, which the simulator reproduces exactly, and (b) CPython's GIL
makes wall-clock speedups of a pure-Python thread pool meaningless.

This example demonstrates that the *process code itself* is backend-agnostic:
the identical generator-based master, TSW and CLW bodies run unchanged on the
:class:`~repro.pvm.ThreadKernel` — the processes kernel with every process
on a thread of this one, exchanging messages by reference through real
thread-safe inboxes.  Compare the solution quality (equivalent) and note
that the wall-clock times should *not* be interpreted as speedup.  For real
multi-core speedups see ``examples/real_processes.py`` and the
``processes`` backend.

Run it with::

    python examples/real_threads.py
"""

from __future__ import annotations

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
        clws_per_tsw=2,
        global_iterations=3,
        tabu=TabuSearchParams(local_iterations=6, pairs_per_step=5, move_depth=3),
        seed=7,
    )

    rows = []
    for backend in ("simulated", "threads"):
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
                "Same protocol, two kernels (wall-clock of the threads backend is "
                "GIL-bound and not a speedup measurement)"
            ),
        )
    )


if __name__ == "__main__":
    main()
