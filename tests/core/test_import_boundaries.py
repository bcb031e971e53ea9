"""Architectural boundary enforcement for the domain-agnostic core.

The engine layers — ``repro.tabu`` (serial search), ``repro.parallel``
(master/TSW/CLW protocol), ``repro.session`` (resumable sessions, warm
pools, checkpoint state) and ``repro.accel`` (the hot kernels) — must be
written against the :mod:`repro.core` protocols only, never against a
concrete problem domain.  This test parses every module of those packages
and fails on any import that resolves into ``repro.placement`` (or
``repro.problems.*``, which would be the same leak through the new
layering).  Domain callables the kernels need are passed *into* them.

A second scan covers every module of the package: each may import only the
standard library, ``repro`` itself and the runtime dependencies that
``pyproject.toml`` declares (numpy).  An import of anything else — an
optional accelerator library, say — would make an undeclared package
load-bearing for ``import repro``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent.parent  # .../src
ENGINE_PACKAGES = ("repro/tabu", "repro/parallel", "repro/session")
#: Engine code that is a single module rather than a package.
ENGINE_MODULES = ("repro/accel.py",)
#: Module prefixes the engine must not import (domain implementations).
FORBIDDEN_PREFIXES = ("repro.placement", "repro.problems")
#: Third-party packages the project declares at runtime (the
#: ``dependencies`` of ``pyproject.toml``).
RUNTIME_DEPENDENCIES = ("numpy",)


def engine_modules():
    for package in ENGINE_PACKAGES:
        for path in sorted((SRC_ROOT / package).glob("*.py")):
            yield path
    for module in ENGINE_MODULES:
        yield SRC_ROOT / module


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
    # the hot kernels are engine code as well
    assert "accel.py" in names
    assert len(paths) >= 22


def all_repro_modules():
    yield from sorted((SRC_ROOT / "repro").rglob("*.py"))


def undeclared_imports(path: Path):
    """Top-level packages ``path`` imports from outside the standard library,
    ``repro`` and the declared runtime dependencies."""
    allowed = set(sys.stdlib_module_names) | {"repro", *RUNTIME_DEPENDENCIES}
    for module in resolved_imports(path):
        top = module.split(".")[0]
        if top not in allowed:
            yield top


@pytest.mark.parametrize(
    "path", list(all_repro_modules()), ids=lambda p: str(p.relative_to(SRC_ROOT))
)
def test_module_imports_only_declared_dependencies(path):
    offenders = sorted(set(undeclared_imports(path)))
    assert not offenders, (
        f"{path.relative_to(SRC_ROOT)} imports {offenders}, which "
        "pyproject.toml does not declare as a runtime dependency"
    )


def test_dependency_scan_sees_the_declared_dependencies():
    """Guard against a vacuous scan: the declared set is pyproject's, the
    scan covers the whole package, and a third-party import is detected."""
    pyproject = (SRC_ROOT.parent / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject, re.M | re.S)
    assert block is not None
    declared = {
        re.split(r"[<>=!~\[; ]", requirement, maxsplit=1)[0]
        for requirement in re.findall(r'"([^"]+)"', block.group(1))
    }
    assert declared == set(RUNTIME_DEPENDENCIES)
    paths = list(all_repro_modules())
    assert {"accel.py", "cli.py", "registry.py", "evaluator.py"} <= {p.name for p in paths}
    assert len(paths) >= 70
    kernels = SRC_ROOT / "repro" / "accel.py"
    assert "numpy" in {module.split(".")[0] for module in resolved_imports(kernels)}
    assert "numpy" not in set(undeclared_imports(kernels))
