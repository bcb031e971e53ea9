"""Short-term and long-term tabu memory.

:class:`ArrayTabuList` is the short-term memory of the paper's Figure 1 (a
move is *tabu* while any of its swapped pairs is still active): one int64
expiry store keyed by the dense pair index ``lo * num_cells + hi``.  Below
``ARRAY_TABU_MAX_CELLS`` the store is a dense vector; above it, an exact-key
open-addressed hash table with the same keys (O(live) memory for 10k+-cell
instances).  Either way ``is_tabu_mask`` answers a whole candidate batch
with one vectorised probe, ``record_pairs`` records a whole compound move in
one pass, and expiry is *lazy* — a stale entry simply compares as not-tabu.

The test suite keeps a dictionary oracle (``tests/oracles/tabu.py``) with
the same search-facing surface (``record_pairs`` / ``is_tabu_pairs`` /
``is_tabu_mask`` / ``expire`` / ``to_payload``), which is what lets the
trajectory-identity suite drive the two memories through identical search
runs.

:class:`FrequencyMemory` is the long-term memory used by diversification: it
counts how often every cell has been moved, so the diversification step can
push rarely moved cells to new locations (Kelly-style diversification).
``record_swaps`` commits a whole accepted compound move in one bulk update.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..errors import TabuSearchError
from .attributes import MoveAttribute, pair_attribute_indices

__all__ = ["ArrayTabuList", "FrequencyMemory"]

#: Largest instance for which the dense pair-expiry vector is allocated
#: (``num_cells**2`` int64 entries — 128 MiB at the cap).  Beyond it the
#: pair attributes live in :class:`_HashedPairTable`, an exact-key
#: open-addressed expiry table whose memory is O(live attributes) instead
#: of O(num_cells**2) — the search keeps its array memory at any instance
#: size.
ARRAY_TABU_MAX_CELLS = 4096


class _HashedPairTable:
    """Open-addressed exact-key expiry table for pair-attribute indices.

    The dense pair vector is O(num_cells**2) int64 — 800 GB at 10k cells —
    while a tabu list only ever holds O(tenure * move_depth) live entries.
    This table stores exactly the recorded ``lo * num_cells + hi`` keys
    (linear probing, multiply-shift hashing, power-of-two capacity), so
    lookups have **no false positives**: semantics match the dense vector
    and the dict oracle bit-for-bit, only the storage differs.

    The hot driver query (:meth:`ArrayTabuList.is_tabu_mask`) runs through
    :meth:`lookup`, a vectorised batch probe; inserts arrive in tiny batches
    (one accepted compound move ≤ ``move_depth`` pairs), so a scalar probe
    loop is fine there.  Stale entries are pruned when the occupancy crosses
    the load-factor bound — the rebuild keeps only entries still live at the
    caller-supplied ``floor`` iteration, growing only when live entries
    genuinely need the room.
    """

    _MULT = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, log2_capacity: int = 10) -> None:
        self._log2 = int(log2_capacity)
        size = 1 << self._log2
        self._keys = np.full(size, -1, dtype=np.int64)
        self._expiry = np.zeros(size, dtype=np.int64)
        self._used = 0  # occupied slots, live or stale

    @property
    def capacity(self) -> int:
        return self._keys.size

    def _slot_of(self, key: int) -> int:
        # multiply-shift on the high bits; identical to the vectorised hash
        return ((key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF) >> (64 - self._log2)

    def _probe_insert(self, key: int, expiry: int) -> None:
        keys = self._keys
        mask = self.capacity - 1
        pos = self._slot_of(key)
        while True:
            stored = int(keys[pos])
            if stored == key:
                self._expiry[pos] = expiry
                return
            if stored == -1:
                keys[pos] = key
                self._expiry[pos] = expiry
                self._used += 1
                return
            pos = (pos + 1) & mask

    def _rebuild(self, floor: int) -> None:
        """Re-hash live entries only, growing if they genuinely need room."""
        live = np.flatnonzero((self._keys != -1) & (self._expiry > floor))
        live_keys = self._keys[live].tolist()
        live_expiry = self._expiry[live].tolist()
        log2 = self._log2
        while 3 * (len(live_keys) + 1) >= 2 * (1 << log2):
            log2 += 1
        self._log2 = log2
        size = 1 << log2
        self._keys = np.full(size, -1, dtype=np.int64)
        self._expiry = np.zeros(size, dtype=np.int64)
        self._used = 0
        for key, expiry in zip(live_keys, live_expiry):
            self._probe_insert(key, expiry)

    def store(self, key: int, expiry: int, floor: int) -> None:
        """Insert/refresh one key; ``floor`` bounds the stale sweep."""
        if 3 * (self._used + 1) >= 2 * self.capacity:  # load factor 2/3
            self._rebuild(floor)
        self._probe_insert(int(key), int(expiry))

    def store_many(self, keys: np.ndarray, expiry: int, floor: int) -> None:
        for key in keys.tolist():
            self.store(key, expiry, floor)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Expiry of every query key (0 when absent) — vectorised batch probe.

        All queries probe in lock-step; a query retires when it hits its key
        or an empty slot.  With load factor ≤ 2/3 the expected probe count
        is a small constant, so the loop runs ~2-3 NumPy passes per batch.
        """
        keys = np.asarray(keys, dtype=np.int64)
        out = np.zeros(keys.size, dtype=np.int64)
        if keys.size == 0 or self._used == 0:
            return out
        shift = np.uint64(64 - self._log2)
        pos = ((keys.astype(np.uint64) * self._MULT) >> shift).astype(np.int64)
        mask = self.capacity - 1
        pending = np.arange(keys.size)
        table_keys = self._keys
        table_expiry = self._expiry
        while pending.size:
            slots = pos[pending]
            stored = table_keys[slots]
            hit = stored == keys[pending]
            if hit.any():
                matched = pending[hit]
                out[matched] = table_expiry[pos[matched]]
            pending = pending[~(hit | (stored == -1))]
            if pending.size:
                pos[pending] = (pos[pending] + 1) & mask
        return out

    def live_items(self, floor: int) -> Tuple[List[int], List[int]]:
        """Keys and expiries of entries live after ``floor``, key-sorted."""
        live = np.flatnonzero((self._keys != -1) & (self._expiry > floor))
        keys = self._keys[live]
        order = np.argsort(keys, kind="stable")
        return keys[order].tolist(), self._expiry[live][order].tolist()

    def count_live(self, floor: int) -> int:
        return int(np.count_nonzero((self._keys != -1) & (self._expiry > floor)))


class ArrayTabuList:
    """Array-backed short-term memory: one expiry store for swapped pairs.

    The tabu search's short-term memory.  Pair attributes live in a
    dense ``num_cells**2`` int64 vector indexed by
    :func:`~repro.tabu.attributes.pair_attribute_indices` while that vector
    is affordable (``num_cells <= ARRAY_TABU_MAX_CELLS``) and in an
    exact-key :class:`_HashedPairTable` beyond it — same keys, same expiry
    semantics, O(live entries) memory.  A pair is tabu at ``iteration``
    while ``expiry[index] > iteration`` — dense entries are never swept,
    they simply stop comparing as live (the hashed layout prunes stale
    entries opportunistically when it would otherwise rehash).  The store
    is allocated on the first record.
    """

    def __init__(self, tenure: int, num_cells: int) -> None:
        if tenure < 0:
            raise TabuSearchError(f"tabu tenure must be non-negative, got {tenure}")
        if num_cells <= 0:
            raise TabuSearchError(f"num_cells must be positive, got {num_cells}")
        self._tenure = tenure
        self._num_cells = num_cells
        #: dense pair vector below the cap, hashed table above it
        self._dense_pairs = num_cells <= ARRAY_TABU_MAX_CELLS
        self._pair: Optional[np.ndarray] = None  # (num_cells**2,) expiry
        self._pair_table: Optional[_HashedPairTable] = None
        # Every index ever recorded: keeps the live-set views (len/payload —
        # the TSW report path serialises per global iteration) O(recorded)
        # instead of scanning the num_cells**2 vector.
        self._pair_touched: set = set()
        # Latest iteration the search has shown us; defines which entries
        # count as live for len()/payload purposes (queries pass their own).
        self._last_iteration = 0

    # ------------------------------------------------------------------ #
    @property
    def tenure(self) -> int:
        """Configured tenure (iterations an attribute remains tabu)."""
        return self._tenure

    @property
    def num_cells(self) -> int:
        """Size of the attribute index space."""
        return self._num_cells

    def _pair_vector(self) -> np.ndarray:
        if self._pair is None:
            self._pair = np.zeros(self._num_cells * self._num_cells, dtype=np.int64)
        return self._pair

    def _pair_table_ref(self) -> _HashedPairTable:
        if self._pair_table is None:
            self._pair_table = _HashedPairTable()
        return self._pair_table

    def _store_pair_indices(self, indices: np.ndarray, expiry: int) -> None:
        """Record pair-attribute indices in whichever pair layout is active."""
        if self._dense_pairs:
            self._pair_vector()[indices] = expiry
            self._pair_touched.update(indices.tolist())
        else:
            self._pair_table_ref().store_many(
                np.atleast_1d(indices), expiry, self._last_iteration
            )

    def _note(self, iteration: int) -> None:
        if iteration > self._last_iteration:
            self._last_iteration = iteration

    # ------------------------------------------------------------------ #
    # pair-batch surface (the driver's hot path)
    # ------------------------------------------------------------------ #
    def record_pairs(self, pairs: np.ndarray, iteration: int) -> None:
        """Record every swap pair of an accepted move with one scatter."""
        self._note(iteration)
        if self._tenure == 0:
            return
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if arr.size == 0:
            return
        expiry = iteration + self._tenure
        self._store_pair_indices(pair_attribute_indices(arr, self._num_cells), expiry)

    def is_tabu_mask(self, pairs: np.ndarray, iteration: int) -> np.ndarray:
        """Per-pair tabu status of a candidate batch: one gather + compare."""
        self._note(iteration)
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if self._dense_pairs:
            if self._pair is None:
                return np.zeros(arr.shape[0], dtype=bool)
            return self._pair[pair_attribute_indices(arr, self._num_cells)] > iteration
        if self._pair_table is None:
            return np.zeros(arr.shape[0], dtype=bool)
        return (
            self._pair_table.lookup(pair_attribute_indices(arr, self._num_cells))
            > iteration
        )

    def is_tabu_pairs(self, pairs: np.ndarray, iteration: int) -> bool:
        """Whether *any* pair of a move is tabu at ``iteration``."""
        return bool(self.is_tabu_mask(pairs, iteration).any())

    def expire(self, iteration: int) -> int:
        """Lazy expiry: nothing to sweep — stale entries compare as not tabu."""
        self._note(iteration)
        return 0

    # ------------------------------------------------------------------ #
    # live-set views (tests / diagnostics / serialisation)
    # ------------------------------------------------------------------ #
    def _live_items(self) -> List[Tuple[MoveAttribute, int]]:
        items: List[Tuple[MoveAttribute, int]] = []
        n = self._num_cells
        if self._pair is not None:
            for index in sorted(self._pair_touched):
                expiry = int(self._pair[index])
                if expiry > self._last_iteration:
                    attr = MoveAttribute(kind="pair", key=(index // n, index % n))
                    items.append((attr, expiry))
                else:  # lapsed: prune, so live-set views stay O(live)
                    self._pair_touched.discard(index)
        if self._pair_table is not None:
            keys, expiries = self._pair_table.live_items(self._last_iteration)
            for index, expiry in zip(keys, expiries):
                attr = MoveAttribute(kind="pair", key=(index // n, index % n))
                items.append((attr, expiry))
        return items

    def __len__(self) -> int:
        live = 0
        if self._pair is not None:
            last = self._last_iteration
            live += sum(1 for index in self._pair_touched if int(self._pair[index]) > last)
        if self._pair_table is not None:
            live += self._pair_table.count_live(self._last_iteration)
        return live

    def to_payload(self) -> Tuple[Tuple[str, Tuple[int, ...], int], ...]:
        """Serialisable snapshot ``((kind, key, expiry), ...)`` of live entries.

        Entries come out in deterministic index order; receivers treat the
        payload as a set.
        """
        return tuple((attr.kind, attr.key, expiry) for attr, expiry in self._live_items())

    @classmethod
    def from_payload(
        cls,
        payload: Iterable[Tuple[str, Tuple[int, ...], int]],
        tenure: int,
        num_cells: int,
    ) -> "ArrayTabuList":
        """Rebuild an array tabu list from :meth:`to_payload` output.

        Payloads also arrive from checkpoints on disk, so an entry outside
        the attribute space — a kind other than ``"pair"``, or a key outside
        ``num_cells`` — raises :class:`TabuSearchError`.
        """
        instance = cls(tenure, num_cells)
        for kind, key, expiry in payload:
            index = instance._index_of(kind, tuple(key))
            instance._store_pair_indices(np.asarray([index], dtype=np.int64), int(expiry))
        return instance

    def _index_of(self, kind: str, key: Tuple[int, ...]) -> int:
        """Dense index of one payload entry, rejecting entries outside the space."""
        n = self._num_cells
        if kind == "pair" and len(key) == 2 and all(0 <= k < n for k in key):
            lo, hi = (key[0], key[1]) if key[0] <= key[1] else (key[1], key[0])
            return lo * n + hi
        raise TabuSearchError(
            f"tabu payload entry {kind!r} {key!r} is outside the {n}-cell attribute space"
        )


class FrequencyMemory:
    """Long-term memory: per-cell move counts used for diversification."""

    def __init__(self, num_cells: int) -> None:
        if num_cells <= 0:
            raise TabuSearchError(f"num_cells must be positive, got {num_cells}")
        self._counts = np.zeros(num_cells, dtype=np.int64)

    @property
    def counts(self) -> np.ndarray:
        """Per-cell move counts (read-only view)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def record_swap(self, cell_a: int, cell_b: int) -> None:
        """Record that both cells of a committed swap were moved."""
        self._counts[cell_a] += 1
        self._counts[cell_b] += 1

    def record_swaps(self, pairs) -> None:
        """Record a whole swap sequence (an accepted compound move) in bulk.

        One ``bincount`` accumulation instead of per-swap Python increments;
        a cell appearing in several swaps is counted once per appearance,
        exactly like repeated :meth:`record_swap` calls.
        """
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if arr.size == 0:
            return
        self._counts += np.bincount(arr.ravel(), minlength=self._counts.size)

    def least_moved(self, candidates: np.ndarray, rng: np.random.Generator) -> int:
        """Among ``candidates``, pick a least-frequently-moved cell (ties random)."""
        return least_moved_of(self._counts, candidates, rng)

    def reset(self) -> None:
        """Zero all counters."""
        self._counts[:] = 0

    def load_counts(self, counts) -> None:
        """Install a counts vector exported from another memory (checkpoint
        restore): copied in so the caller's array stays unshared."""
        arr = np.asarray(counts, dtype=np.int64)
        if arr.shape != self._counts.shape:
            raise TabuSearchError(
                f"frequency counts shape {arr.shape} does not match "
                f"memory shape {self._counts.shape}"
            )
        self._counts[:] = arr


def least_moved_of(
    counts: np.ndarray, candidates: np.ndarray, rng: np.random.Generator
) -> int:
    """Least-moved candidate under an explicit counts vector (ties random).

    One gather, one min-compare and one draw — shared by
    :meth:`FrequencyMemory.least_moved` and the diversification step's
    scratch-counts selection (which must not mutate the real memory until
    the whole perturbation is recorded in bulk).
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise TabuSearchError("least_moved called with no candidates")
    gathered = counts[candidates]
    pool = candidates[np.flatnonzero(gathered == gathered.min())]
    return int(pool[rng.integers(0, pool.size)])
