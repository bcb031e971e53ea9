"""Shared infrastructure for the figure-reproduction benchmarks.

Every figure benchmark regenerates one figure of the paper on the simulated
twelve-machine cluster, prints the series the paper plots and writes it to
``benchmarks/results/<figure>.txt``, as the three ablations do their sweeps.  The
``bench_*.py`` files do not match pytest's default file pattern, so name them
explicitly, as CI does::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_fig0[5-9]*.py \
        benchmarks/bench_fig1[01]*.py benchmarks/bench_ablation_*.py --benchmark-only

CI uploads those files as the ``figure-results`` artifact.  The CI bars
(``BENCH_*.json``) are a separate run: ``python benchmarks/run_bars.py``.

The amount of work is controlled by the ``REPRO_EXPERIMENT_SCALE`` environment
variable (``quick`` — the default, a few minutes for the whole suite — or
``full``).  Because a figure run is itself a long, internally-repeating
experiment, every benchmark executes exactly one round
(``benchmark.pedantic`` with ``rounds=1``); the interesting output is the
figure data, the benchmark timing is simply the wall-clock cost of
regenerating it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make the sibling `_utils` module importable regardless of how pytest was
# invoked (repository root, benchmarks directory, ...).
_BENCH_DIR = str(Path(__file__).parent)
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

from _utils import report_figure  # noqa: E402


@pytest.fixture
def figure_reporter():
    """Callable that prints a FigureResult and saves it under results/."""
    return report_figure
