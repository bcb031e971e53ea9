"""VLSI cell placement as a registered :class:`SearchProblem` domain.

This is the paper's original workload, packaged behind the domain-agnostic
core contract (:mod:`repro.core`):

* the :class:`~repro.placement.cost.CostEvaluator` is the domain's
  :class:`~repro.core.protocols.SwapEvaluator` (batched trial evaluation,
  bulk delta application, snapshot rewinds, geometric diversification
  distances);
* :class:`PlacementProblem` is the immutable
  :class:`~repro.core.protocols.SearchProblem` every process of a parallel
  run shares: the netlist, the layout geometry, the cost-model parameters
  and the *reference* objective vector that anchors the fuzzy goals
  (computed once by the master from the initial solution so that costs are
  comparable across processes).

In the real PVM implementation this data would be shipped to every spawned
task; in the single-OS-process simulation it is simply shared (it is never
mutated), which also keeps simulated message sizes realistic — the messages
carry only solutions, exactly as the paper describes.  The multiprocessing
backend does ship it: once per kernel through shared memory
(``__shm_export__``), with workers rebuilding around the attached arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.registry import ProblemDomain, register_domain
from ..placement.cost import CostEvaluator, CostModelParams, ObjectiveVector
from ..placement.iscas import benchmark_names, load_benchmark
from ..placement.layout import Layout, LayoutSpec
from ..placement.netlist import Netlist
from ..placement.solution import Placement, random_placement

__all__ = ["PlacementProblem", "restore_shared_problem", "build_placement_problem"]


@dataclass(frozen=True, slots=True)
class PlacementProblem:
    """Immutable placement problem instance shared by all search processes."""

    netlist: Netlist
    layout: Layout
    cost_params: CostModelParams
    reference: ObjectiveVector

    @classmethod
    def from_netlist(
        cls,
        netlist: Netlist,
        *,
        cost_params: Optional[CostModelParams] = None,
        layout_spec: Optional[LayoutSpec] = None,
        reference_seed: int = 0,
    ) -> "PlacementProblem":
        """Build a problem instance, deriving the reference from a random placement."""
        cost_params = cost_params or CostModelParams()
        layout = Layout(netlist, layout_spec)
        reference_placement = random_placement(layout, seed=reference_seed)
        reference_eval = CostEvaluator(reference_placement, cost_params)
        return cls(
            netlist=netlist,
            layout=layout,
            cost_params=cost_params,
            reference=reference_eval.objectives(),
        )

    @property
    def name(self) -> str:
        """Name of the circuit being placed."""
        return self.netlist.name

    @property
    def num_cells(self) -> int:
        """Number of cells in the circuit."""
        return self.netlist.num_cells

    def make_evaluator(self, cell_to_slot: np.ndarray) -> CostEvaluator:
        """Build a private evaluator for a worker, bound to ``cell_to_slot``.

        Every run's master, each TSW and each CLW call this on first contact
        (five calls in a warm 2×1 run, three of them one after another on
        the run's critical path); afterwards new solutions are installed
        through :meth:`CostEvaluator.install_solution`.  The netlist's timing
        graph is built by the first call in a process and shared by the
        rest (:func:`repro.placement.timing.timing_graph`).
        """
        placement = Placement(self.layout, np.asarray(cell_to_slot, dtype=np.int64))
        return CostEvaluator(placement, self.cost_params, reference=self.reference)

    def random_solution(self, seed: int) -> np.ndarray:
        """A random initial assignment (used by the master)."""
        return random_placement(self.layout, seed=seed).to_array()

    def install_work_units(self) -> float:
        """Work units charged for unpacking and re-evaluating a received solution.

        Installing a solution rebuilds the wirelength/area caches and runs one
        exact timing analysis — roughly proportional to the number of nets.
        The constant keeps the simulated cost model consistent with the
        work-unit accounting of swap evaluations.
        """
        return max(2.0, self.netlist.num_nets / 50.0)

    def adopt_work_units(self, num_swaps: int) -> float:
        """Work units charged for applying a swap-list delta to the resident
        solution — proportional to the delta length, capped at a full
        install (beyond that the sender ships full anyway)."""
        return min(self.install_work_units(), max(1.0, float(2 * num_swaps)))

    # ------------------------------------------------------------------ #
    # shared-memory shipment (multiprocessing backend)
    # ------------------------------------------------------------------ #
    def __shm_export__(self):
        """Opt in to shared-memory spawn shipment (see :mod:`repro.pvm.shm`).

        All size-proportional state — the netlist arrays, cell and net
        names included, and the layout coordinate tables — goes into one
        shared block; the worker receives a handle plus the small parameter
        metadata and rebuilds the problem *around* the attached arrays with
        zero copies, building no per-cell Python object.
        """
        netlist_arrays, netlist_meta = self.netlist.export_arrays()
        layout_arrays, layout_meta = self.layout.export_arrays()
        arrays = {f"netlist.{key}": value for key, value in netlist_arrays.items()}
        arrays.update({f"layout.{key}": value for key, value in layout_arrays.items()})
        meta = {
            "netlist": netlist_meta,
            "layout": layout_meta,
            "cost_params": self.cost_params,
            "reference": self.reference,
        }
        return arrays, meta, f"{__name__}:restore_shared_problem"


def restore_shared_problem(arrays, meta) -> PlacementProblem:
    """Rebuild a :class:`PlacementProblem` from a shared-memory array pack."""
    netlist_arrays = {
        key.split(".", 1)[1]: value
        for key, value in arrays.items()
        if key.startswith("netlist.")
    }
    layout_arrays = {
        key.split(".", 1)[1]: value
        for key, value in arrays.items()
        if key.startswith("layout.")
    }
    netlist = Netlist.from_arrays(netlist_arrays, meta["netlist"])
    layout = Layout.from_arrays(netlist, layout_arrays, meta["layout"])
    return PlacementProblem(
        netlist=netlist,
        layout=layout,
        cost_params=meta["cost_params"],
        reference=meta["reference"],
    )


# ---------------------------------------------------------------------- #
# registry wiring
# ---------------------------------------------------------------------- #
def build_placement_problem(
    instance: str | Netlist,
    *,
    cost_params: Optional[CostModelParams] = None,
    reference_seed: int = 0,
) -> PlacementProblem:
    """Registry entry point: build a placement problem from a circuit name."""
    netlist = instance if isinstance(instance, Netlist) else load_benchmark(instance)
    return PlacementProblem.from_netlist(
        netlist, cost_params=cost_params, reference_seed=reference_seed
    )


def _list_instances() -> List[str]:
    return list(benchmark_names())


register_domain(
    ProblemDomain(
        name="placement",
        description="VLSI standard-cell placement, fuzzy multi-objective cost",
        build_problem=build_placement_problem,
        default_instance="c532",
        list_instances=_list_instances,
    )
)
