"""A process body that reports what a cold worker imports in its first task.

A worker imports this module (to unpickle the body) before the body starts,
so the module imports nothing but the standard library at its top: an
import here would be paid before the count begins and hide itself.
"""

from __future__ import annotations

import sys


def first_task_imports(ctx, tasks):
    """Do a CLW's first task for each ``(problem, solution)`` of ``tasks``
    and return the modules it imported, sorted."""
    before = set(sys.modules)
    import numpy as np

    from repro._rng import derive_seed, make_rng
    from repro.tabu import CompoundMoveBuilder, full_range

    for index, (problem, solution) in enumerate(tasks):
        rng = make_rng(derive_seed(11, "clw", index), ctx.name)
        evaluator = problem.make_evaluator(solution)
        builder = CompoundMoveBuilder(
            evaluator, full_range(evaluator.num_cells), pairs_per_step=16, depth=2
        )
        builder.step(rng)
        evaluator.apply_swaps(np.array([[0, 1], [2, 3]]), exact_timing=True)
    return sorted(set(sys.modules) - before)
    yield  # a generator: the kernel runs process bodies as generators
