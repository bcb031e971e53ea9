"""Candidate-list construction: cell ranges and candidate swap pairs.

The paper's probabilistic domain decomposition assigns every Candidate List
Worker (CLW) a *range* of cells.  A candidate move always picks its first cell
from the worker's range and the second cell from the whole cell space, so two
CLWs can only collide on a move with probability :math:`1/(n-1)^2`.

The same mechanism is reused one level up: every Tabu Search Worker (TSW)
diversifies with respect to its own range so the TSWs explore disjoint regions
of the search space.

This module provides the :class:`CellRange` value object, the partitioning
helpers that split a circuit's cells among workers, and the candidate-pair
sampler used to build the candidate list :math:`V^*(s)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import TabuSearchError

__all__ = [
    "CellRange",
    "partition_cells",
    "partition_cells_weighted",
    "full_range",
    "sample_candidate_pairs_array",
    "collision_probability",
]


@dataclass(frozen=True, slots=True)
class CellRange:
    """A subset of cell indices assigned to one worker.

    Attributes
    ----------
    cells:
        The cell indices in the range (non-empty, sorted, unique).
    label:
        Human-readable owner label, e.g. ``"tsw2/clw1"`` (used in traces).
    """

    cells: Tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.cells:
            raise TabuSearchError(f"cell range {self.label!r} is empty")
        ordered = tuple(sorted(set(int(c) for c in self.cells)))
        if ordered != tuple(self.cells):
            object.__setattr__(self, "cells", ordered)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: int) -> bool:
        return cell in set(self.cells)

    def as_array(self) -> np.ndarray:
        """Cells as a NumPy array (copy)."""
        return np.asarray(self.cells, dtype=np.int64)

    def sample(self, rng: np.random.Generator) -> int:
        """Uniformly pick one cell from the range."""
        return int(self.cells[rng.integers(0, len(self.cells))])


def full_range(num_cells: int, label: str = "all") -> CellRange:
    """A range covering every cell (used by serial search / single worker)."""
    if num_cells <= 0:
        raise TabuSearchError(f"num_cells must be positive, got {num_cells}")
    return CellRange(cells=tuple(range(num_cells)), label=label)


def partition_cells(
    num_cells: int,
    num_parts: int,
    *,
    scheme: str = "contiguous",
    label_prefix: str = "part",
) -> List[CellRange]:
    """Split ``num_cells`` cells into ``num_parts`` disjoint ranges.

    Parameters
    ----------
    scheme:
        ``"contiguous"`` — blocks of consecutive indices (the paper's wording
        "a range of cells"); ``"strided"`` — round-robin interleaving, which
        spreads every part across the whole index space.
    """
    if num_cells <= 0:
        raise TabuSearchError(f"num_cells must be positive, got {num_cells}")
    if num_parts <= 0:
        raise TabuSearchError(f"num_parts must be positive, got {num_parts}")
    if num_parts > num_cells:
        raise TabuSearchError(
            f"cannot split {num_cells} cells into {num_parts} non-empty ranges"
        )
    indices = np.arange(num_cells, dtype=np.int64)
    parts: List[CellRange] = []
    if scheme == "contiguous":
        chunks = np.array_split(indices, num_parts)
    elif scheme == "strided":
        chunks = [indices[k::num_parts] for k in range(num_parts)]
    else:
        raise TabuSearchError(f"unknown partition scheme {scheme!r}")
    for k, chunk in enumerate(chunks):
        parts.append(CellRange(cells=tuple(int(c) for c in chunk), label=f"{label_prefix}{k}"))
    return parts


def partition_cells_weighted(
    num_cells: int,
    weights: Sequence[float],
    *,
    scheme: str = "contiguous",
    label_prefix: str = "part",
) -> List[CellRange]:
    """Split cells into ranges sized proportionally to ``weights``.

    The elastic master uses this to re-partition a dead worker's range over
    survivors sized by *observed* throughput rather than declared speeds.
    Sizes come from largest-remainder apportionment (deterministic,
    index-order tie-breaking), with every part guaranteed at least one cell.
    """
    if num_cells <= 0:
        raise TabuSearchError(f"num_cells must be positive, got {num_cells}")
    num_parts = len(weights)
    if num_parts == 0:
        raise TabuSearchError("weights must be non-empty")
    if num_parts > num_cells:
        raise TabuSearchError(
            f"cannot split {num_cells} cells into {num_parts} non-empty ranges"
        )
    weights = [float(w) for w in weights]
    for w in weights:
        if not np.isfinite(w) or w <= 0:
            raise TabuSearchError(f"weights must be finite and positive, got {weights}")
    total = sum(weights)
    quotas = [w / total * num_cells for w in weights]
    counts = [int(q) for q in quotas]
    # hand the leftover cells to the largest fractional remainders
    remainders = sorted(
        range(num_parts), key=lambda k: (-(quotas[k] - counts[k]), k)
    )
    for k in remainders[: num_cells - sum(counts)]:
        counts[k] += 1
    # every part gets at least one cell, taken from the largest parts
    for k in range(num_parts):
        while counts[k] == 0:
            donor = max(range(num_parts), key=lambda j: (counts[j], -j))
            counts[donor] -= 1
            counts[k] += 1
    parts: List[CellRange] = []
    if scheme == "contiguous":
        offset = 0
        for k, count in enumerate(counts):
            cells = tuple(range(offset, offset + count))
            offset += count
            parts.append(CellRange(cells=cells, label=f"{label_prefix}{k}"))
    elif scheme == "strided":
        # deal indices round-robin, skipping parts that reached their quota
        buckets: List[List[int]] = [[] for _ in range(num_parts)]
        part = 0
        for cell in range(num_cells):
            while len(buckets[part]) >= counts[part]:
                part = (part + 1) % num_parts
            buckets[part].append(cell)
            part = (part + 1) % num_parts
        for k, bucket in enumerate(buckets):
            parts.append(CellRange(cells=tuple(bucket), label=f"{label_prefix}{k}"))
    else:
        raise TabuSearchError(f"unknown partition scheme {scheme!r}")
    return parts


def sample_candidate_pairs_array(
    range_cells: np.ndarray,
    num_cells: int,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``count`` candidate swap pairs: a ``(count, 2)`` int64 array.

    The first cell of each pair is uniform over the worker's range; the
    second is uniform over all *other* cells of the whole cell space,
    exactly as in Section 4.1 of the paper.  The whole batch is drawn with
    two generator calls: per-pair scalar draws would be the single largest
    cost of a tabu iteration.

    ``range_cells`` is the worker range as an array (precomputed once per
    search, not per step).

    Duplicate pairs within a batch are *not* deduplicated: the expected
    duplicate rate is :func:`collision_probability` per pair-of-pairs
    (~``1 / (n - 1)^2``), which at the 10k-cell scale with 256-pair batches
    works out to well under 0.1% of draws — a dedup pass would cost more
    than the duplicated evaluations it saves (measured; see
    ``tests/tabu/test_candidate_scale.py``).
    """
    if count <= 0:
        raise TabuSearchError(f"count must be positive, got {count}")
    if num_cells < 2:
        raise TabuSearchError("need at least two cells to form a swap pair")
    firsts = range_cells[rng.integers(0, range_cells.size, size=count)]
    seconds = rng.integers(0, num_cells - 1, size=count)
    seconds += seconds >= firsts  # skip `first` without rejection sampling
    pairs = np.empty((count, 2), dtype=np.int64)
    pairs[:, 0] = firsts
    pairs[:, 1] = seconds
    return pairs


def collision_probability(num_cells: int) -> float:
    """Probability that two CLWs propose the same swap: ``1 / (n - 1)^2``.

    This is the quantity the paper derives to argue that the probabilistic
    domain decomposition effectively avoids duplicated work.
    """
    if num_cells < 2:
        raise TabuSearchError("collision probability undefined for fewer than 2 cells")
    return 1.0 / float((num_cells - 1) ** 2)
