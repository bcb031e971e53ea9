#!/usr/bin/env python
"""Run every CI bar and write every ``BENCH_*.json`` at the repository root.

    python benchmarks/run_bars.py

Each bar script runs in a fresh interpreter, one after another, so no
script's caches, fork server or heap reach the next.  Then
``bench_micro_kernels.py`` runs under pytest-benchmark, and its per-test
timings are written to ``BENCH_micro.json`` in the bars' ``{median, iqr,
n}`` form.  The exit code is 1 when an enforced bar fails or a script
fails its own checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from _timing import check

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
)


def _micro(env: dict) -> int:
    """Run the micro-kernel benchmarks; write ``BENCH_micro.json``."""
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "micro.json"
        returncode = subprocess.call(
            [
                sys.executable, "-m", "pytest", str(BENCH_DIR / "bench_micro_kernels.py"),
                "-q", "-p", "no:cacheprovider", "--benchmark-only",
                f"--benchmark-json={raw}",
            ],
            cwd=ROOT,
            env=env,
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
    check([], {"unit": "us", "results": results}, ROOT / "BENCH_micro.json")
    return returncode


def main() -> int:
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    failed = []
    for script in BAR_SCRIPTS:
        print(f"== {script}", flush=True)
        if subprocess.call([sys.executable, str(BENCH_DIR / f"{script}.py")], cwd=ROOT, env=env):
            failed.append(script)
    print("== bench_micro_kernels", flush=True)
    if _micro(env):
        failed.append("bench_micro_kernels")
    print("failed: " + ", ".join(failed) if failed else "every enforced bar holds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
