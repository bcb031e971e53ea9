#!/usr/bin/env python
"""Run every CI bar and write every ``BENCH_*.json`` at the repository root.

    python benchmarks/run_bars.py

Each bar script runs in a fresh interpreter, one after another, so no
script's caches, fork server or heap reach the next.  The last one,
``bench_micro_kernels.py``, runs itself under pytest-benchmark.  The exit
code is 1 when an enforced bar fails or a script fails its own checks.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BAR_SCRIPTS = (
    "bench_iteration_driver",
    "bench_protocol_overhead",
    "bench_qap_kernels",
    "bench_wallclock_parallel",
    "bench_session_lifecycle",
    "bench_large_instances",
    "bench_kernels",
    "bench_fault_recovery",
    "bench_elastic_scaling",
    "bench_micro_kernels",
)


def main() -> int:
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    failed = []
    for script in BAR_SCRIPTS:
        print(f"== {script}", flush=True)
        if subprocess.call([sys.executable, str(BENCH_DIR / f"{script}.py")], cwd=ROOT, env=env):
            failed.append(script)
    print("failed: " + ", ".join(failed) if failed else "every enforced bar holds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
