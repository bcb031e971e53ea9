"""Committed checkpoint artifacts still load and resume to the same run.

Each fixture under ``fixtures/`` is the ``checkpoint().to_bytes()`` of a
session paused after ``step(1)`` on the simulator::

    SearchSession(problem=problem, params=PARAMS).step(1)

written by the commit that added it.  Loading it with this tree's code and
running it to the end must give the uninterrupted run's best cost, best
solution and trace costs: a refactor that changes what a checkpoint means
fails here, not in a user's resume.  The trace's times after the pause are
later than the uninterrupted run's, because the resumed kernel pays a fresh
spawn and state revive; the first round's points are identical.

``benchmarks/trajectory_digest.py`` prints a ``checkpoint-bytes`` digest of
the same two artifacts as this tree writes them, so a change that alters
the bytes shows up in the cross-commit comparison.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import get_domain
from repro.parallel import ParallelSearchParams
from repro.session import SearchSession, SessionState
from repro.tabu import TabuSearchParams

FIXTURES = Path(__file__).parent / "fixtures"

PARAMS = ParallelSearchParams(
    num_tsws=2,
    clws_per_tsw=1,
    global_iterations=4,
    sync_mode="homogeneous",
    tabu=TabuSearchParams(local_iterations=3, pairs_per_step=3, move_depth=2),
    seed=11,
)

#: artifact file → (domain, instance, reference seed)
ARTIFACTS = {
    "tiny16-step1.rtss": ("placement", "tiny16", 7),
    "rand32-step1.rtss": ("qap", "rand32", 0),
}


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_committed_checkpoint_resumes_to_the_uninterrupted_run(artifact):
    domain, instance, reference_seed = ARTIFACTS[artifact]
    problem = get_domain(domain).build_problem(instance, reference_seed=reference_seed)
    state = SessionState.load(FIXTURES / artifact)
    assert state.params == PARAMS
    assert state.rounds_done == 1 and not state.complete

    baseline = SearchSession(problem=problem, params=PARAMS).run()
    resumed = SearchSession.restore(state).run()

    assert resumed.complete
    assert resumed.best_cost == baseline.best_cost
    assert np.array_equal(resumed.best_solution, baseline.best_solution)
    assert [c for _, c in resumed.trace] == [c for _, c in baseline.trace]
    paused = len(state.run_state.master_trace) + len(state.run_state.worker_points)
    assert resumed.trace[:paused] == baseline.trace[:paused]
    assert [r.received_costs for r in resumed.global_records] == [
        r.received_costs for r in baseline.global_records
    ]
