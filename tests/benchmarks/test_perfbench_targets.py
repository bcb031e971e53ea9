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
