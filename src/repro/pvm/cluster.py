"""Cluster specification: the parallel virtual machine.

A :class:`ClusterSpec` bundles the machines plus the communication and
work-to-time conversion parameters the discrete-event kernel needs.  Helper
constructors build the configurations used by the experiments:

* :func:`paper_cluster` — the testbed of Section 5.4: twelve machines, seven
  high-speed, three medium-speed, two low-speed, with a little per-machine
  background load;
* :func:`homogeneous_cluster` — ``n`` identical machines (the control
  configuration);
* :func:`heterogeneous_cluster` — arbitrary class mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .._rng import make_rng
from ..errors import ClusterError
from .machine import MachineSpec, SpeedClass

__all__ = [
    "ClusterSpec",
    "paper_cluster",
    "homogeneous_cluster",
    "heterogeneous_cluster",
]


@dataclass(frozen=True, slots=True)
class ClusterSpec:
    """The simulated parallel virtual machine.

    Attributes
    ----------
    machines:
        The workstations enrolled in the virtual machine.
    seconds_per_work_unit:
        Virtual seconds one *work unit* (one swap evaluation) takes on a
        reference machine with ``effective_rate == 1``.
    message_latency:
        Fixed per-message latency in virtual seconds (LAN round-trip half).
    bytes_per_second:
        Network bandwidth used to convert payload sizes to transfer time.
    spawn_overhead:
        Virtual seconds needed to start a child process (PVM ``pvm_spawn``).
    """

    machines: Tuple[MachineSpec, ...]
    seconds_per_work_unit: float = 2e-4
    message_latency: float = 2e-3
    bytes_per_second: float = 1.25e6  # ~10 Mbit/s LAN of the early 2000s
    spawn_overhead: float = 5e-2

    def __post_init__(self) -> None:
        if not self.machines:
            raise ClusterError("a cluster needs at least one machine")
        names = [m.name for m in self.machines]
        if len(set(names)) != len(names):
            raise ClusterError(f"duplicate machine names in cluster: {names}")
        for machine in self.machines:
            rate = machine.effective_rate
            if not math.isfinite(rate) or rate <= 0:
                # A zero/denormal rate would flow into work-unit sizing and
                # produce empty or inverted candidate ranges downstream.
                raise ClusterError(
                    f"machine {machine.name!r}: effective rate must be finite and "
                    f"positive, got {rate} (speed_factor={machine.speed_factor}, "
                    f"load={machine.load})"
                )
        if self.seconds_per_work_unit <= 0:
            raise ClusterError("seconds_per_work_unit must be positive")
        if self.message_latency < 0:
            raise ClusterError("message_latency must be non-negative")
        if self.bytes_per_second <= 0:
            raise ClusterError("bytes_per_second must be positive")
        if self.spawn_overhead < 0:
            raise ClusterError("spawn_overhead must be non-negative")

    @property
    def num_machines(self) -> int:
        """Number of enrolled machines."""
        return len(self.machines)

    def machine(self, index: int) -> MachineSpec:
        """Machine at ``index`` (wraps around, mirroring PVM's round-robin)."""
        return self.machines[index % len(self.machines)]

    def compute_seconds(self, machine_index: int, work_units: float) -> float:
        """Virtual seconds ``work_units`` of computation take on a machine."""
        machine = self.machine(machine_index)
        return work_units * self.seconds_per_work_unit / machine.effective_rate

    def transfer_seconds(self, payload_bytes: int) -> float:
        """Virtual seconds needed to move ``payload_bytes`` across the LAN."""
        return self.message_latency + payload_bytes / self.bytes_per_second

    def speed_summary(self) -> dict:
        """Counts of machines per speed class (for reports)."""
        summary = {cls.value: 0 for cls in SpeedClass}
        for machine in self.machines:
            summary[machine.speed_class.value] += 1
        return summary


def paper_cluster(*, seed: int = 2003, load_jitter: float = 0.15) -> ClusterSpec:
    """The twelve-machine testbed of the paper (7 high / 3 medium / 2 low).

    ``load_jitter`` adds a deterministic pseudo-random background load in
    ``[0, load_jitter]`` to every machine so that even machines of the same
    class differ slightly — the "load heterogeneity" of a real LAN.
    """
    return heterogeneous_cluster(
        num_high=7, num_medium=3, num_low=2, seed=seed, load_jitter=load_jitter
    )


def homogeneous_cluster(
    num_machines: int, *, speed_class: SpeedClass = SpeedClass.HIGH, load: float = 0.0
) -> ClusterSpec:
    """``num_machines`` identical machines (no speed or load heterogeneity)."""
    if num_machines < 1:
        raise ClusterError(f"num_machines must be >= 1, got {num_machines}")
    machines = tuple(
        MachineSpec.of_class(f"{speed_class.value}{i:02d}", speed_class, load=load)
        for i in range(num_machines)
    )
    return ClusterSpec(machines=machines)


def heterogeneous_cluster(
    *,
    num_high: int,
    num_medium: int,
    num_low: int,
    seed: int = 2003,
    load_jitter: float = 0.0,
) -> ClusterSpec:
    """A cluster with the given number of machines per speed class."""
    if num_high < 0 or num_medium < 0 or num_low < 0:
        raise ClusterError("machine counts must be non-negative")
    if num_high + num_medium + num_low < 1:
        raise ClusterError("cluster must contain at least one machine")
    rng = make_rng(seed, "cluster-load")
    machines = []
    for cls, count in (
        (SpeedClass.HIGH, num_high),
        (SpeedClass.MEDIUM, num_medium),
        (SpeedClass.LOW, num_low),
    ):
        for i in range(count):
            load = float(rng.uniform(0.0, load_jitter)) if load_jitter > 0 else 0.0
            machines.append(MachineSpec.of_class(f"{cls.value}{i:02d}", cls, load=load))
    return ClusterSpec(machines=tuple(machines))
