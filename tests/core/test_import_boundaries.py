"""Architectural boundary enforcement for the domain-agnostic core.

The engine layers — ``repro.tabu`` (serial search), ``repro.parallel``
(master/TSW/CLW protocol) and ``repro.session`` (resumable sessions, warm
pools, checkpoint state) — must be written against the :mod:`repro.core`
protocols only, never against a concrete problem domain.  This test parses
every module of those packages and fails on any import that resolves into
``repro.placement`` (or ``repro.problems.*``, which would be the same leak
through the new layering).

One sanctioned exception keeps a legacy import path alive:
``repro.parallel.__init__`` — a lazy ``__getattr__`` re-export of
``PlacementProblem`` from ``repro.problems.placement`` (``from
repro.parallel import PlacementProblem``), so the domain module is only
touched when the alias is actually used.

The accelerator dispatch layer (``repro.accel``) is engine code too — it
may not import problem domains (domain callables are passed *into* its
kernels) — and it is the **only** package in the whole tree allowed to
import ``cupy``: everything else goes through the ``ArrayBackend`` / probe
surface, which is what keeps the optional GPU dependency optional.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent.parent  # .../src
ENGINE_PACKAGES = ("repro/tabu", "repro/parallel", "repro/session", "repro/accel")
#: Module prefixes the engine must not import (domain implementations).
FORBIDDEN_PREFIXES = ("repro.placement", "repro.problems")
#: The compatibility shim keeps an old import path alive by design.
ALLOWED_SHIMS = {"repro/parallel/__init__.py"}


def engine_modules():
    for package in ENGINE_PACKAGES:
        for path in sorted((SRC_ROOT / package).glob("*.py")):
            yield path


def resolved_imports(path: Path):
    """Absolute module names imported by ``path`` (relative imports resolved)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    relative = path.relative_to(SRC_ROOT)
    package_parts = list(relative.parent.parts)  # e.g. ["repro", "tabu"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module or ""
                continue
            # level=1 is the containing package, each extra level goes up one
            base = package_parts[: len(package_parts) - (node.level - 1)]
            module = node.module.split(".") if node.module else []
            yield ".".join(base + module)


@pytest.mark.parametrize(
    "path", list(engine_modules()), ids=lambda p: str(p.relative_to(SRC_ROOT))
)
def test_engine_module_does_not_import_problem_domains(path):
    if str(path.relative_to(SRC_ROOT)) in ALLOWED_SHIMS:
        pytest.skip("sanctioned backwards-compatibility shim")
    offenders = [
        module
        for module in resolved_imports(path)
        if any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in FORBIDDEN_PREFIXES
        )
    ]
    assert not offenders, (
        f"{path.relative_to(SRC_ROOT)} imports problem-domain modules "
        f"{offenders}; engine code must depend on repro.core protocols only"
    )


def test_the_suite_actually_sees_the_engine_modules():
    """Guard against a silently-empty parametrisation (e.g. a moved tree)."""
    paths = list(engine_modules())
    names = {path.name for path in paths}
    assert {"search.py", "master.py", "tsw.py", "clw.py", "runner.py"} <= names
    # the session layer is part of the engine surface
    assert {"session.py", "state.py", "pool.py", "worker_loop.py"} <= names
    # the accelerator dispatch layer is engine code as well
    assert {"device.py", "backend.py", "kernels.py"} <= names
    assert len(paths) >= 22


def all_repro_modules():
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        yield path


@pytest.mark.parametrize(
    "path", list(all_repro_modules()), ids=lambda p: str(p.relative_to(SRC_ROOT))
)
def test_only_the_accel_layer_imports_cupy(path):
    """``cupy`` is quarantined behind :mod:`repro.accel`.

    Domain packages and engine layers reach the GPU only through the
    ``ArrayBackend`` surface; a direct ``import cupy`` anywhere else would
    make the optional dependency load-bearing (and unguarded — accel's own
    import sits in a try/except probe).
    """
    offenders = [
        module
        for module in resolved_imports(path)
        if module == "cupy" or module.startswith("cupy.")
    ]
    if str(path.relative_to(SRC_ROOT)).startswith("repro/accel/"):
        return  # the sanctioned (guarded) import site
    assert not offenders, (
        f"{path.relative_to(SRC_ROOT)} imports cupy directly {offenders}; "
        "only repro.accel may touch cupy — use an ArrayBackend"
    )


def test_cupy_quarantine_suite_sees_the_sanctioned_import():
    """The cupy scan must actually detect accel's guarded import site."""
    device = SRC_ROOT / "repro" / "accel" / "device.py"
    assert any(
        module == "cupy" or module.startswith("cupy.")
        for module in resolved_imports(device)
    )
