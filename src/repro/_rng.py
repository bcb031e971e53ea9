"""Deterministic random-number utilities shared across the library.

Every stochastic component of the reproduction (circuit generation, initial
placement, candidate-pair sampling, diversification, simulated machine load)
draws from a :class:`numpy.random.Generator` derived from an explicit seed so
that a whole parallel-tabu-search run is reproducible bit-for-bit.

The helpers here implement a tiny hierarchical-seeding scheme: a *root* seed
plus a tuple of labels (strings / integers) is hashed into a child seed.  This
allows e.g. each Candidate List Worker to own an independent stream that does
not depend on how many siblings exist or in which order they are spawned.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

__all__ = ["derive_seed", "make_rng"]

SeedLabel = Union[int, str]


def derive_seed(root_seed: int, *labels: SeedLabel) -> int:
    """Derive a child seed from ``root_seed`` and a sequence of labels.

    The derivation is stable across processes and Python versions (it uses
    SHA-256 rather than ``hash()``, which is salted per interpreter run).

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    labels:
        Any mixture of strings and integers identifying the consumer, e.g.
        ``("tsw", 3, "clw", 1)``.

    Returns
    -------
    int
        A non-negative 63-bit integer suitable for seeding NumPy generators.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    digest = hasher.digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def make_rng(root_seed: int, *labels: SeedLabel) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for ``(root_seed, *labels)``."""
    return np.random.default_rng(derive_seed(root_seed, *labels))
