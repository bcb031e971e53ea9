"""Array-module dispatch layer (``xp`` = numpy | cupy) for the hot kernels.

This package is the single place the reproduction touches an accelerator:
device probing and selection (:mod:`repro.accel.device`), counted
host↔device movement plus pooled scratch buffers
(:mod:`repro.accel.backend`), and the xp-generic hot kernels
(:mod:`repro.accel.kernels`).  Domain packages never import cupy directly —
the import-boundary suite enforces it — they hold an
:class:`ArrayBackend` and pass backend-space arrays into the kernels.

Gating: cupy is optional, ``REPRO_DEVICE=cpu`` is the escape hatch, an
unavailable ``cuda`` only fails when explicitly requested, and under NumPy the kernels run the identical shipped code the
CUDA path uses (parity is proven in CI without a GPU; only the glue is
device-conditional).
"""

from .backend import ArrayBackend
from .device import (
    HAVE_CUPY,
    DeviceProbe,
    array_module,
    cuda_available,
    cuda_unavailable_reason,
    device_report,
    module_for,
    probe_cuda,
    resolve_device,
)
from .kernels import (
    HpwlArrays,
    fuse_admissible,
    hpwl_batch_deltas,
    masked_argmin,
    qap_swap_deltas,
)

__all__ = [
    "ArrayBackend",
    "HAVE_CUPY",
    "DeviceProbe",
    "array_module",
    "cuda_available",
    "cuda_unavailable_reason",
    "device_report",
    "module_for",
    "probe_cuda",
    "resolve_device",
    "HpwlArrays",
    "fuse_admissible",
    "hpwl_batch_deltas",
    "masked_argmin",
    "qap_swap_deltas",
]
