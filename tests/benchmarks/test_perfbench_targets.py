"""Every name perfbench's layer tracer patches is still where it looks.

perfbench's traced replay (``perfbench/layers.py``) wraps each layer by
replacing an attribute on its owner, a class or a module, and restores the
original from ``owner.__dict__`` on exit.  A patched name that is removed,
renamed or moved to a base class would otherwise fail only in the
benchmark's traced replay; this test builds every target and installs and
removes the wrappers once.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))

import layers  # noqa: E402


def test_every_patch_target_is_defined_on_its_owner_and_restored():
    tracer = layers.Tracer()
    targets = layers._patch_targets(tracer)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _ in targets
        if attribute not in vars(owner)
    ]
    assert missing == []
    originals = [(owner, attribute, vars(owner)[attribute]) for owner, attribute, _ in targets]
    with layers.traced(tracer):
        assert all(vars(owner)[name] is not original for owner, name, original in originals)
    assert all(vars(owner)[name] is original for owner, name, original in originals)


def test_a_batch_records_one_batch_span_and_one_hpwl_kernel_call():
    """The HPWL kernel stays a layer of its own: a placement batch calls
    ``repro.accel.hpwl_batch_deltas`` through its module exactly once, so the
    traced replay's ``accel.hpwl_batch_*`` metrics see it (a kernel inlined
    into the batch would still pass the name check above, reading 0)."""
    import numpy as np

    from repro.placement import CostEvaluator, Layout, load_benchmark, random_placement

    evaluator = CostEvaluator(random_placement(Layout(load_benchmark("c532")), seed=1))
    pairs = np.random.default_rng(2).integers(0, evaluator.num_cells, size=(256, 2))
    tracer = layers.Tracer()
    with layers.traced(tracer):
        evaluator.evaluate_swaps_batch(pairs)
    assert tracer.calls["placement.batch_eval"] == 1
    assert tracer.counts["placement.batch_eval"] == 256
    assert tracer.calls["accel.hpwl_batch"] == 1
    assert tracer.counts["accel.hpwl_batch"] > 0
