"""Problem-domain registry.

The CLI, the examples and the benchmarks select a problem domain by name
(``--problem qap``); this module maps those names to implementations without
the engine importing any domain at module-import time.  Built-in domains are
registered *lazily*: the registry knows the module path and imports it on
first :func:`get_domain`, and the module's import registers a
:class:`ProblemDomain` via :func:`register_domain`.  Third-party domains call
:func:`register_domain` directly.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from ..errors import ReproError

__all__ = [
    "ProblemDomain",
    "register_domain",
    "get_domain",
    "available_domains",
]


@dataclass(frozen=True)
class ProblemDomain:
    """Everything the generic tooling needs to drive one problem domain.

    Attributes
    ----------
    name:
        Registry key (``"placement"``, ``"qap"``).
    description:
        One-line human description (CLI listings).
    build_problem:
        ``(instance_name, *, cost_params=None, reference_seed=0) ->``
        :class:`~repro.core.protocols.SearchProblem`.  ``instance_name`` is a
        domain-interpreted string — a benchmark circuit, a QAPLIB file path,
        a synthetic-instance spec.
    default_instance:
        Instance used when the caller does not name one.
    list_instances:
        Names of the bundled instances (for ``repro problems``).
    """

    name: str
    description: str
    build_problem: Callable[..., Any]
    default_instance: str
    list_instances: Callable[[], List[str]]


#: Built-in domains, imported on first use.  The module import must call
#: :func:`register_domain`.
_BUILTIN_MODULES: Dict[str, str] = {
    "placement": "repro.problems.placement",
    "qap": "repro.problems.qap",
}

_REGISTRY: Dict[str, ProblemDomain] = {}


def register_domain(domain: ProblemDomain) -> ProblemDomain:
    """Register (or replace) a problem domain under ``domain.name``."""
    _REGISTRY[domain.name] = domain
    return domain


def get_domain(name: str) -> ProblemDomain:
    """Look a domain up by name, importing built-in modules lazily."""
    if name not in _REGISTRY:
        module = _BUILTIN_MODULES.get(name)
        if module is not None:
            importlib.import_module(module)
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(set(_REGISTRY) | set(_BUILTIN_MODULES)))
        raise ReproError(f"unknown problem domain {name!r}; known: {known}") from None


def available_domains() -> List[str]:
    """Names of every known domain (registered or built-in)."""
    return sorted(set(_REGISTRY) | set(_BUILTIN_MODULES))
