"""Device probing and array-module selection (``xp`` = numpy | cupy).

`CuPy <https://cupy.dev>`__ is an **optional** dependency of the
accelerator layer — the base environment does not ship it and nothing here
may fail when it is absent.  Selection runs through three levels, most
specific first:

1. an explicit ``device=`` knob on an evaluator / backend constructor;
2. the ``REPRO_DEVICE`` environment variable (``auto`` | ``cpu`` | ``cuda``;
   ``cpu`` is the escape hatch, e.g. to rule the device out when bisecting);
3. a capability probe: ``cuda`` when cupy imports *and* at least one CUDA
   device answers, ``cpu`` otherwise.

Requesting ``cuda`` explicitly when the probe fails raises
:class:`~repro.errors.ReproError` with the probe's reason — an explicit
request must never silently degrade to the NumPy path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ReproError

__all__ = [
    "HAVE_CUPY",
    "DeviceProbe",
    "cuda_available",
    "cuda_unavailable_reason",
    "probe_cuda",
    "resolve_device",
    "array_module",
    "module_for",
    "device_report",
]

#: Recognised device names (``auto`` resolves through the probe).
_DEVICES = ("auto", "cpu", "cuda")

HAVE_CUPY = False
_cupy = None
try:  # pragma: no cover - exercised only where cupy is installed
    import cupy as _cupy  # type: ignore

    HAVE_CUPY = True
except ImportError:
    pass


@dataclass(frozen=True)
class DeviceProbe:
    """Outcome of the CUDA capability probe (see :func:`probe_cuda`)."""

    available: bool
    #: Why the probe failed ("" when ``available``).
    reason: str
    cupy_version: Optional[str] = None
    driver_version: Optional[str] = None
    runtime_version: Optional[str] = None
    device_count: int = 0
    device_name: Optional[str] = None


_PROBE_CACHE: Optional[DeviceProbe] = None


def probe_cuda(*, refresh: bool = False) -> DeviceProbe:
    """Probe for a usable CUDA device (cached; ``refresh=True`` re-runs it).

    "Usable" means cupy imports *and* the CUDA runtime reports at least one
    device — a cupy wheel installed on a machine without a driver imports
    fine and fails only when the runtime is touched, so the probe touches it
    here, once, instead of letting the first kernel call explode.
    """
    global _PROBE_CACHE
    if _PROBE_CACHE is not None and not refresh:
        return _PROBE_CACHE
    if not HAVE_CUPY:
        probe = DeviceProbe(available=False, reason="cupy is not installed")
    else:  # pragma: no cover - exercised only where cupy is installed
        try:
            count = int(_cupy.cuda.runtime.getDeviceCount())
            if count < 1:
                probe = DeviceProbe(
                    available=False,
                    reason="cupy imports but no CUDA device is visible",
                    cupy_version=_cupy.__version__,
                )
            else:
                try:
                    name = _cupy.cuda.runtime.getDeviceProperties(0)["name"]
                    if isinstance(name, bytes):
                        name = name.decode("utf-8", "replace")
                except Exception:
                    name = None
                probe = DeviceProbe(
                    available=True,
                    reason="",
                    cupy_version=_cupy.__version__,
                    driver_version=_version_or_none(
                        _cupy.cuda.runtime.driverGetVersion
                    ),
                    runtime_version=_version_or_none(
                        _cupy.cuda.runtime.runtimeGetVersion
                    ),
                    device_count=count,
                    device_name=name,
                )
        except Exception as error:  # CUDARuntimeError and friends
            probe = DeviceProbe(
                available=False,
                reason=f"cupy imports but the CUDA runtime failed: {error}",
                cupy_version=_cupy.__version__,
            )
    _PROBE_CACHE = probe
    return probe


def _version_or_none(getter) -> Optional[str]:  # pragma: no cover - cupy only
    try:
        return str(getter())
    except Exception:
        return None


def cuda_available() -> bool:
    """Whether the ``cuda`` device is usable in this process."""
    return probe_cuda().available


def cuda_unavailable_reason() -> str:
    """Human-readable reason the probe failed ("" when cuda is usable)."""
    return probe_cuda().reason


def _env_device() -> str:
    raw = os.environ.get("REPRO_DEVICE", "auto").strip().lower()
    if raw == "":
        return "auto"
    if raw not in _DEVICES:
        raise ReproError(
            f"REPRO_DEVICE must be one of {', '.join(_DEVICES)}, got {raw!r}"
        )
    return raw


def resolve_device(device: Optional[str] = None) -> str:
    """Resolve a device request to ``"cpu"`` or ``"cuda"``.

    ``device`` is the explicit knob (``None`` defers to ``REPRO_DEVICE``,
    which defaults to ``auto``).  An explicit ``cuda`` request — via the
    knob or the environment — raises when the probe fails; ``auto`` falls
    back to ``cpu`` silently (the probe's reason stays queryable through
    :func:`cuda_unavailable_reason`).
    """
    if device is None:
        requested = _env_device()
    else:
        requested = str(device).strip().lower()
        if requested not in _DEVICES:
            raise ReproError(
                f"device must be one of {', '.join(_DEVICES)}, got {device!r}"
            )
    if requested == "cpu":
        return "cpu"
    probe = probe_cuda()
    if probe.available:
        return "cuda"
    if requested == "cuda":
        raise ReproError(
            f"device 'cuda' requested but unavailable: {probe.reason} "
            "(install the gpu extra: pip install .[gpu])"
        )
    return "cpu"


def array_module(device: str):
    """The array module (``numpy`` or ``cupy``) implementing ``device``."""
    if device == "cpu":
        return np
    if device == "cuda":
        if not cuda_available():
            raise ReproError(
                f"device 'cuda' requested but unavailable: {cuda_unavailable_reason()}"
            )
        return _cupy
    raise ReproError(f"unknown device {device!r}; use 'cpu' or 'cuda'")


def module_for(array) -> object:
    """The array module that owns ``array`` (numpy for anything host-side).

    The driver's fused masked-argmin select runs on whatever module produced
    the candidate costs — this is how one shipped kernel serves both paths.
    """
    if HAVE_CUPY and isinstance(array, _cupy.ndarray):  # pragma: no cover - cupy
        return _cupy
    return np


def device_report(device: Optional[str] = None) -> List[Tuple[str, str]]:
    """Probe summary rows for the CLI ``devices`` subcommand (name, value)."""
    probe = probe_cuda()
    rows: List[Tuple[str, str]] = [
        ("numpy", np.__version__),
        ("cupy", probe.cupy_version or "not installed"),
    ]
    if probe.available:  # pragma: no cover - exercised only with a GPU
        rows.extend(
            [
                ("cuda driver", probe.driver_version or "unknown"),
                ("cuda runtime", probe.runtime_version or "unknown"),
                ("devices", str(probe.device_count)),
                ("device 0", probe.device_name or "unknown"),
            ]
        )
    else:
        rows.append(("cuda", f"unavailable ({probe.reason})"))
    rows.append(("REPRO_DEVICE", os.environ.get("REPRO_DEVICE", "<unset>")))
    try:
        selected = resolve_device(device)
        rows.append(("selected device", selected))
        if selected == "cpu" and not probe.available:
            rows.append(("fallback reason", probe.reason))
    except ReproError as error:
        rows.append(("selected device", f"error: {error}"))
    return rows
