"""The reference tabu driver: the dictionary tabu list and the search on it.

:class:`TabuList` is the dictionary short-term memory the package shipped
before :class:`~repro.tabu.tabu_list.ArrayTabuList`: attributes are hashable
:class:`~repro.tabu.attributes.MoveAttribute` keys mapping to the iteration
at which their tabu status expires.  Expiry sweeping is amortised O(1) per
iteration via per-expiry buckets (at most ``tenure`` distinct expiry values
are ever live, so a sweep touches only the buckets that actually lapsed).

:class:`ReferenceTabuSearch` runs :class:`~repro.tabu.search.TabuSearch` on
that list and checks aspiration (a cost below the best so far) one cost at a
time.  A seeded run walks the shipped search's trajectory bit for bit
(``tests/tabu/test_driver_identity.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import TabuSearchError
from repro.tabu.attributes import MoveAttribute
from repro.tabu.search import TabuSearch

__all__ = ["TabuList", "ReferenceTabuSearch", "swap_attributes"]


def swap_attributes(cell_a: int, cell_b: int) -> Tuple[MoveAttribute, ...]:
    """Attributes contributed by swapping ``cell_a`` and ``cell_b``."""
    return (MoveAttribute.pair(cell_a, cell_b),)


class TabuList:
    """Attribute-based short-term memory with a fixed tenure (dict oracle).

    Parameters
    ----------
    tenure:
        Number of iterations an attribute stays tabu after being recorded.
    """

    def __init__(self, tenure: int) -> None:
        if tenure < 0:
            raise TabuSearchError(f"tabu tenure must be non-negative, got {tenure}")
        self._tenure = tenure
        self._expiry: Dict[MoveAttribute, int] = {}
        # expiry value -> attributes recorded with that expiry; an attribute
        # re-recorded later stays in its old bucket but the sweep checks the
        # dict before dropping it, so stale bucket entries are harmless.
        self._buckets: Dict[int, List[MoveAttribute]] = {}

    @property
    def tenure(self) -> int:
        """Configured tenure (iterations an attribute remains tabu)."""
        return self._tenure

    def __len__(self) -> int:
        return len(self._expiry)

    def __contains__(self, attribute: MoveAttribute) -> bool:
        return attribute in self._expiry

    def __iter__(self) -> Iterator[MoveAttribute]:
        return iter(self._expiry)

    def record(self, attributes: Iterable[MoveAttribute], iteration: int) -> None:
        """Mark ``attributes`` tabu until ``iteration + tenure``."""
        if self._tenure == 0:
            return
        expiry = iteration + self._tenure
        bucket = self._buckets.setdefault(expiry, [])
        for attr in attributes:
            self._expiry[attr] = expiry
            bucket.append(attr)

    def is_tabu(self, attributes: Iterable[MoveAttribute], iteration: int) -> bool:
        """Whether any attribute is still tabu at ``iteration``."""
        for attr in attributes:
            expiry = self._expiry.get(attr)
            if expiry is not None and iteration < expiry:
                return True
        return False

    # ------------------------------------------------------------------ #
    # pair-batch surface shared with ArrayTabuList
    # ------------------------------------------------------------------ #
    def record_pairs(self, pairs: np.ndarray, iteration: int) -> None:
        """Record every swap pair of an accepted move."""
        if self._tenure == 0:
            return
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        for cell_a, cell_b in arr.tolist():
            self.record(swap_attributes(cell_a, cell_b), iteration)

    def is_tabu_mask(self, pairs: np.ndarray, iteration: int) -> np.ndarray:
        """Per-pair tabu status of a candidate batch (reference loop)."""
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        mask = np.zeros(arr.shape[0], dtype=bool)
        for k, (cell_a, cell_b) in enumerate(arr.tolist()):
            mask[k] = self.is_tabu(swap_attributes(cell_a, cell_b), iteration)
        return mask

    def is_tabu_pairs(self, pairs: np.ndarray, iteration: int) -> bool:
        """Whether *any* pair of a move is tabu at ``iteration``."""
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        for cell_a, cell_b in arr.tolist():
            if self.is_tabu(swap_attributes(cell_a, cell_b), iteration):
                return True
        return False

    def expire(self, iteration: int) -> int:
        """Drop attributes whose tenure has elapsed; returns how many were dropped.

        Amortised O(dropped): only the expiry buckets that actually lapsed
        are visited (at most ``tenure + 1`` distinct expiry values can ever
        be pending), instead of rescanning every live attribute per call.
        """
        lapsed = [expiry for expiry in self._buckets if expiry <= iteration]
        removed = 0
        for expiry in lapsed:
            for attr in self._buckets.pop(expiry):
                if self._expiry.get(attr) == expiry:
                    del self._expiry[attr]
                    removed += 1
        return removed

    # ------------------------------------------------------------------ #
    # serialisation — the paper's master/TSW protocol ships the tabu list
    # together with the best solution.
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Tuple[Tuple[str, Tuple[int, ...], int], ...]:
        """Serialisable snapshot ``((kind, key, expiry), ...)``."""
        return tuple((attr.kind, attr.key, expiry) for attr, expiry in self._expiry.items())

    @classmethod
    def from_payload(
        cls, payload: Iterable[Tuple[str, Tuple[int, ...], int]], tenure: int
    ) -> "TabuList":
        """Rebuild a tabu list from :meth:`to_payload` output."""
        instance = cls(tenure)
        for kind, key, expiry in payload:
            attr = MoveAttribute(kind=kind, key=tuple(key))
            expiry = int(expiry)
            instance._expiry[attr] = expiry
            instance._buckets.setdefault(expiry, []).append(attr)
        return instance


class ReferenceTabuSearch(TabuSearch):
    """:class:`TabuSearch` on the dict :class:`TabuList`, with scalar
    aspiration checks."""

    def __init__(self, evaluator, params=None, **kwargs) -> None:
        super().__init__(evaluator, params, **kwargs)
        self._tabu = TabuList(self._params.tabu_tenure)

    def adopt_tabu_list(self, payload, tenure: Optional[int] = None):
        effective_tenure = self._params.tabu_tenure if tenure is None else tenure
        self._tabu = TabuList.from_payload(payload, effective_tenure)
        return self._tabu

    def _admissible_fn(self, iteration: int, best_cost: float):
        tabu = self._tabu

        def admissible(pairs: np.ndarray, costs: np.ndarray) -> Optional[np.ndarray]:
            mask = tabu.is_tabu_mask(pairs, iteration)
            if not mask.any():
                return None
            permitted = np.fromiter(
                (float(cost) < best_cost for cost in costs),
                dtype=bool,
                count=len(costs),
            )
            return ~mask | permitted

        return admissible
