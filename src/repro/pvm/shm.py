"""Shared-memory shipment of large immutable objects to worker processes.

The problem description (e.g. the placement domain's
:class:`~repro.problems.placement.PlacementProblem`) is immutable and large:
netlist CSR structures, cell and net names, coordinate tables.  On the
processes backend it therefore never travels as a pickle:

* :class:`SharedArrayPack` copies a set of named NumPy arrays into one
  ``multiprocessing.shared_memory`` block (created by the kernel process,
  unlinked at kernel shutdown);
* :class:`SharedObjectRef` is the picklable stand-in that crosses the process
  boundary: the block name, the array directory, a small ``meta`` payload and
  a module-level ``restore`` function that rebuilds the object *around* the
  attached arrays (zero-copy: the rebuilt object's hot arrays are views into
  the shared block);
* :func:`dumps` is the transport pickler of the processes backend.  Every
  spawn call, message and exit outcome goes through it, and it writes each
  shared object as its ref, wherever the object sits in the payload;
* :func:`resolve_shared_ref` is what unpickling a ref calls.  It attaches
  the block and rebuilds the object once per process; later refs to the same
  block return the cached object, and :func:`release_shared` drops it.

Objects opt in by implementing ``__shm_export__() -> (arrays, meta,
restore)``.  The default pickler is not involved, so ``pickle.dumps`` of a
shared object (a session checkpoint, say) stays a full, self-contained
pickle.
"""

from __future__ import annotations

import importlib
import io
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "SharedArrayPack",
    "SharedObjectRef",
    "dumps",
    "export_shared",
    "release_shared",
    "resolve_shared_ref",
    "shared_ref_of",
]


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker ownership.

    The creator (kernel process) owns the block and unlinks it at shutdown;
    attaching workers must not register it with their own resource tracker or
    the tracker double-unlinks and warns at worker exit.  Python 3.13 grew a
    ``track`` parameter; earlier versions need the unregister workaround.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        # Pre-3.13: attaching registers the block with the resource tracker,
        # which would unlink it again (plus warn) when this worker exits.
        # Suppress the registration for the duration of the attach.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _no_register(name_: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - other resources
                original_register(name_, rtype)

        resource_tracker.register = _no_register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


@dataclass(frozen=True)
class _ArrayEntry:
    """Directory entry of one array inside a shared block."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


class SharedArrayPack:
    """A set of named immutable NumPy arrays in one shared-memory block."""

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        entries: List[_ArrayEntry] = []
        offset = 0
        prepared: List[Tuple[_ArrayEntry, np.ndarray]] = []
        for name, array in arrays.items():
            contiguous = np.ascontiguousarray(array)
            # 64-byte alignment keeps every view cacheline-aligned
            offset = (offset + 63) // 64 * 64
            entry = _ArrayEntry(
                name=name,
                dtype=contiguous.dtype.str,
                shape=tuple(contiguous.shape),
                offset=offset,
            )
            entries.append(entry)
            prepared.append((entry, contiguous))
            offset += contiguous.nbytes
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for entry, contiguous in prepared:
            target = np.ndarray(
                contiguous.shape,
                dtype=contiguous.dtype,
                buffer=self._shm.buf,
                offset=entry.offset,
            )
            target[...] = contiguous
        self._entries = tuple(entries)

    @property
    def block_name(self) -> str:
        """OS-level name of the shared block (the wire handle)."""
        return self._shm.name

    @property
    def total_bytes(self) -> int:
        """Size of the shared block in bytes (all arrays + alignment pad).

        The large-instance audit uses this to confirm big problems ship as
        one shared block instead of being pickled per worker.
        """
        return self._shm.size

    @property
    def entries(self) -> Tuple[_ArrayEntry, ...]:
        """Directory of the packed arrays."""
        return self._entries

    def close(self) -> None:
        """Drop this process's mapping (the block itself stays)."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the block (creator side, after all workers exited)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def attach_arrays(
    block_name: str, entries: Tuple[_ArrayEntry, ...]
) -> Tuple[Dict[str, np.ndarray], shared_memory.SharedMemory]:
    """Attach a block and materialise read-only views of its arrays.

    The returned :class:`SharedMemory` object must stay referenced, and
    open, as long as the views are in use: the views keep the ``mmap`` object
    alive but not the mapping, which closing the block (or collecting it)
    unmaps under them.
    """
    block = _attach_block(block_name)
    arrays: Dict[str, np.ndarray] = {}
    for entry in entries:
        view = np.ndarray(
            entry.shape, dtype=np.dtype(entry.dtype), buffer=block.buf, offset=entry.offset
        )
        view.flags.writeable = False
        arrays[entry.name] = view
    return arrays, block


@dataclass(frozen=True)
class SharedObjectRef:
    """Picklable stand-in for a shared-memory-backed object.

    ``restore`` names a module-level ``f(arrays, meta) -> object`` by
    ``"module:qualname"`` so the ref itself stays tiny and importable on the
    worker side.
    """

    block_name: str
    entries: Tuple[_ArrayEntry, ...]
    meta: Any
    restore: str


def export_shared(obj: Any) -> Optional[Tuple[SharedObjectRef, SharedArrayPack]]:
    """Export an object to shared memory if it opts in via ``__shm_export__``.

    Returns ``None`` for objects that do not participate.  The caller owns
    the returned pack (it must be unlinked when the workers are gone).
    """
    exporter = getattr(obj, "__shm_export__", None)
    if exporter is None:
        return None
    arrays, meta, restore = exporter()
    pack = SharedArrayPack(arrays)
    ref = SharedObjectRef(
        block_name=pack.block_name, entries=pack.entries, meta=meta, restore=restore
    )
    return ref, pack


# ------------------------------------------------------------------ #
# transport
# ------------------------------------------------------------------ #
class _SharingPickler(pickle.Pickler):
    """Pickler that writes every object ``share`` knows as its ref."""

    def __init__(self, file: io.BytesIO, share: Callable[[Any], Optional[SharedObjectRef]]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._share = share

    def reducer_override(self, obj: Any) -> Any:
        # never called for None, bools, exact ints, floats, strings, bytes
        # and containers, so plain data costs nothing extra
        ref = self._share(obj)
        if ref is None:
            return NotImplemented
        return resolve_shared_ref, (ref,)


def dumps(obj: Any, share: Optional[Callable[[Any], Optional[SharedObjectRef]]] = None) -> bytes:
    """Pickle ``obj`` for another process, shared objects as their refs.

    ``share(obj)`` returns the ref of a shared object, or ``None`` to pickle
    it normally; the default knows the objects this process resolved.
    Plain ``pickle.loads`` reads the result back.
    """
    buffer = io.BytesIO()
    _SharingPickler(buffer, share or shared_ref_of).dump(obj)
    return buffer.getvalue()


# ------------------------------------------------------------------ #
# receiving side
# ------------------------------------------------------------------ #
#: Per-process cache: block name → (restored object, attached block).  A TSW
#: worker resolving the problem and then spawning CLWs reuses one attachment,
#: and a warm worker loop attaches once for all the runs on one problem.
_RESOLVED: Dict[str, Tuple[Any, shared_memory.SharedMemory]] = {}
#: Reverse map: id(object) → its ref, so the object goes back on the wire as
#: the ref instead of a re-pickle.
_REVERSE: Dict[int, SharedObjectRef] = {}
#: Blocks of released objects.  Closing a block unmaps it even under live
#: NumPy views (a view keeps the ``mmap`` object, not the mapping), and views
#: of a released object may outlive it, so these stay open until exit.
_RELEASED: List[shared_memory.SharedMemory] = []


def _restore_callable(spec: str):
    module_name, _, qualname = spec.partition(":")
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def resolve_shared_ref(ref: SharedObjectRef) -> Any:
    """The object behind ``ref``: attached and rebuilt once per process."""
    cached = _RESOLVED.get(ref.block_name)
    if cached is None:
        arrays, block = attach_arrays(ref.block_name, ref.entries)
        obj = _restore_callable(ref.restore)(arrays, ref.meta)
        cached = _RESOLVED[ref.block_name] = (obj, block)
        _REVERSE[id(obj)] = ref
    return cached[0]


def shared_ref_of(obj: Any) -> Optional[SharedObjectRef]:
    """The ref ``obj`` was resolved from in this process, if any."""
    return _REVERSE.get(id(obj))


def release_shared(obj: Any) -> None:
    """Forget a resolved object; a no-op for anything else.

    The cache lets go of the object, so it is freed once its last user
    drops it, and the next ref to its block attaches and rebuilds afresh.
    The block itself stays attached until the process exits.
    """
    ref = _REVERSE.pop(id(obj), None)
    if ref is not None:
        _RELEASED.append(_RESOLVED.pop(ref.block_name)[1])


def close_attachments() -> None:
    """Close every block this process attached (worker exit)."""
    blocks = _RELEASED + [block for _obj, block in _RESOLVED.values()]
    _RESOLVED.clear()
    _REVERSE.clear()
    _RELEASED.clear()
    for block in blocks:
        try:
            block.close()
        except Exception:  # noqa: BLE001 - exit-path cleanup is best-effort
            pass
