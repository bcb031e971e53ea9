"""PVM-like substrate: heterogeneous cluster, message passing and two kernels.

The default kernel is the deterministic discrete-event simulator
(:class:`~repro.pvm.simulator.SimKernel`).  The real kernel
(:class:`~repro.pvm.process_backend.ProcessKernel`) runs the same process
code on OS processes for true multi-core wall-clock speedups; its
:class:`~repro.pvm.process_backend.ThreadKernel` mode runs every process on
a thread of the calling process instead (GIL-bound: no speedup, but one
address space and no serialisation).
"""

from .cluster import ClusterSpec, heterogeneous_cluster, homogeneous_cluster, paper_cluster
from .faults import (
    WORKER_ADMIT_TAG,
    WORKER_DOWN_TAG,
    WORKER_DRAIN_TAG,
    AdmitWorkers,
    DrainWorker,
    FaultPlan,
    KillWorker,
    MessageFaults,
    SpawnWorker,
    ThrottleMachine,
    WorkerDown,
)
from .machine import MachineSpec, SpeedClass
from .message import Message, estimate_payload_bytes
from .process import (
    Compute,
    GetTime,
    ProcessContext,
    ProcessFunction,
    Receive,
    Send,
    Sleep,
    Spawn,
    Syscall,
)
from .process_backend import ProcessKernel, ThreadKernel
from .simulator import ProcessInfo, ProcessState, SimKernel, SimStats

__all__ = [
    "ClusterSpec",
    "heterogeneous_cluster",
    "homogeneous_cluster",
    "paper_cluster",
    "MachineSpec",
    "SpeedClass",
    "Message",
    "estimate_payload_bytes",
    "Syscall",
    "Compute",
    "Send",
    "Receive",
    "Spawn",
    "GetTime",
    "Sleep",
    "ProcessContext",
    "ProcessFunction",
    "ProcessInfo",
    "ProcessState",
    "SimKernel",
    "SimStats",
    "ThreadKernel",
    "ProcessKernel",
    "WORKER_DOWN_TAG",
    "WORKER_ADMIT_TAG",
    "WORKER_DRAIN_TAG",
    "FaultPlan",
    "KillWorker",
    "SpawnWorker",
    "DrainWorker",
    "AdmitWorkers",
    "ThrottleMachine",
    "MessageFaults",
    "WorkerDown",
]
