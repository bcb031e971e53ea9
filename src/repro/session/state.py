"""Serializable search-session state: the checkpoint artifact.

A :class:`SessionState` freezes everything a :class:`~repro.session.SearchSession`
needs to continue a run bit-identically — the problem object, the parameters,
and the harvested :class:`~repro.parallel.master.MasterRunState` of the whole
master/TSW/CLW tree (solutions, exact evaluator blobs, tabu lists, frequency
memories, RNG bit-generator states, delta-protocol residents, counters and
traces).

The on-disk codec is a 4-byte magic, a little-endian ``u32`` schema version,
and a protocol-4 pickle of the state.  The artifact is deliberately free of
timestamps or other ambient inputs so that checkpointing the same state twice
produces identical bytes (tested by
``tests/session/test_checkpoint_state.py``).

This module also exposes the *serial* state surface: helpers to export and
restore a plain :class:`~repro.tabu.search.TabuSearch` (with its evaluator)
outside the parallel stack.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from ..core.protocols import capture_evaluator, revive_evaluator
from ..errors import SessionError
from ..parallel.config import ParallelSearchParams
from ..parallel.master import MasterRunState
from ..tabu.search import TabuSearch, TabuSearchState

__all__ = [
    "MAGIC",
    "SCHEMA_VERSION",
    "SessionState",
    "SerialSearchState",
    "export_serial_state",
    "restore_serial_search",
]

#: First bytes of every checkpoint artifact ("Repro Tabu Session State").
MAGIC = b"RTSS"
#: Bumped whenever the pickled payload layout changes incompatibly: slotted
#: dataclasses such as ``ParallelSearchParams`` unpickle their fields by
#: position, so a removed field would silently shift the rest, and the
#: evaluator snapshots carry cache arrays by position too (version 4: the
#: wirelength cache's edge counts became next-inner coordinates, so an older
#: snapshot would resume with wrong trial deltas; version 5: a pickled
#: ``Netlist`` is its arrays, kind codes and fan-in CSR included, so an older
#: one would unpickle without them; version 6: ``TabuSearchParams`` lost its
#: aspiration and attribute-scheme fields, ``ParallelSearchParams`` its
#: worker speed hints and ``MasterRunState`` its hint map, so an older
#: artifact names a deleted enum class and would load shifted).
SCHEMA_VERSION = 6

_HEADER = struct.Struct("<4sI")


@dataclass
class SessionState:
    """Frozen run state of one search session (one checkpoint)."""

    #: The shared problem object.  Problems are immutable, so the checkpoint
    #: carries the object itself — a restore needs no side-channel files.
    problem: Any
    params: ParallelSearchParams
    backend: str
    #: ``None`` when checkpointed before the first epoch (a fresh session).
    run_state: Optional[MasterRunState]
    complete: bool = False
    #: Topology history of the session so far: the worker-admitted /
    #: worker-dead / worker-drained / worker-respawned
    #: :class:`~repro.metrics.trace.FaultEvent` tuples accumulated across
    #: epochs, so ``sessions inspect`` can report who joined and left (and
    #: when) from the artifact alone.
    topology_events: tuple = ()

    @property
    def rounds_done(self) -> int:
        """Global iterations already finished at checkpoint time."""
        if self.run_state is not None:
            return int(self.run_state.next_iteration)
        return int(self.params.global_iterations) if self.complete else 0

    @property
    def best_cost(self) -> Optional[float]:
        """Incumbent best cost at checkpoint time (``None`` before epoch 1)."""
        if self.run_state is None:
            return None
        return float(self.run_state.best_cost)

    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Encode as a byte-stable artifact (magic + version + pickle)."""
        payload = {
            "problem": self.problem,
            "params": self.params,
            "backend": self.backend,
            "run_state": self.run_state,
            "complete": self.complete,
            "topology_events": tuple(self.topology_events),
        }
        return _HEADER.pack(MAGIC, SCHEMA_VERSION) + pickle.dumps(payload, protocol=4)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SessionState":
        """Decode an artifact produced by :meth:`to_bytes`."""
        if len(blob) < _HEADER.size:
            raise SessionError("checkpoint artifact is truncated")
        magic, version = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            raise SessionError(
                f"not a session checkpoint (magic {magic!r}, expected {MAGIC!r})"
            )
        if version != SCHEMA_VERSION:
            raise SessionError(
                f"unsupported checkpoint schema version {version} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        try:
            payload = pickle.loads(blob[_HEADER.size :])
        except Exception as error:  # noqa: BLE001 - any decode failure is a bad artifact
            raise SessionError(
                f"checkpoint artifact is corrupt: {type(error).__name__}: {error}"
            ) from error
        return cls(
            problem=payload["problem"],
            params=payload["params"],
            backend=payload["backend"],
            run_state=payload["run_state"],
            complete=bool(payload["complete"]),
            topology_events=tuple(payload["topology_events"]),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the artifact to ``path`` and return it."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(self.to_bytes())
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SessionState":
        """Read an artifact written by :meth:`save`."""
        try:
            blob = Path(path).read_bytes()
        except OSError as error:
            raise SessionError(f"cannot read checkpoint {str(path)!r}: {error.strerror}") from error
        return cls.from_bytes(blob)


# --------------------------------------------------------------------------- #
# Serial state surface
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SerialSearchState:
    """Checkpointed state of a serial :class:`~repro.tabu.search.TabuSearch`."""

    assignment: np.ndarray
    evaluator_state: bytes
    evaluations: int
    search_state: TabuSearchState


def export_serial_state(search: TabuSearch) -> SerialSearchState:
    """Export a serial search (and its evaluator) for a later exact resume."""
    assignment, evaluator_state, evaluations = capture_evaluator(search.evaluator)
    return SerialSearchState(
        assignment=assignment,
        evaluator_state=evaluator_state,
        evaluations=evaluations,
        search_state=search.export_state(),
    )


def restore_serial_search(
    problem: Any,
    params: Any,
    state: SerialSearchState,
    *,
    cell_range: Any = None,
    seed: int = 0,
) -> TabuSearch:
    """Rebuild a serial search that continues ``state`` bit-identically.

    ``params``, ``cell_range`` and ``seed`` must match the original
    construction — they shape the search's configuration; the RNG stream
    position itself is overwritten by the installed state.
    """
    evaluator = revive_evaluator(
        problem, state.assignment, state.evaluator_state, state.evaluations
    )
    search = TabuSearch(evaluator, params, cell_range=cell_range, seed=seed)
    search.install_state(state.search_state)
    return search
