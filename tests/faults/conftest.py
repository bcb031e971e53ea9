"""Shared fixtures for the fault-tolerance suite."""

from __future__ import annotations

import pytest

from repro.core.registry import get_domain
from repro.parallel.coordinator import Coordinator


@pytest.fixture(scope="session")
def problem():
    return get_domain("placement").build_problem("tiny16", reference_seed=7)


@pytest.fixture
def after_first_round(monkeypatch):
    """``after_first_round(action)`` calls ``action`` once the master has
    collected its first round of reports.

    Mid-run kills and admissions on the processes backend key on the run's
    own progress rather than on a wall-clock timer, which a short run can
    outpace.  The action runs on the master's thread, before the next
    global-iteration boundary.  On the processes backend the master is the
    only coordinator in the kernel process; the workers' coordinators run
    in their own OS processes, which this patch does not reach.
    """
    actions = []
    collect = Coordinator.collect

    def collect_then_act(self, *args, **kwargs):
        results = yield from collect(self, *args, **kwargs)
        while actions:
            actions.pop(0)()
        return results

    monkeypatch.setattr(Coordinator, "collect", collect_then_act)
    return actions.append
