#!/usr/bin/env python
"""Serial tabu search on a single machine (Figure 1 of the paper).

This example uses only the placement substrate and the serial tabu-search
engine — no cluster, no worker processes — which makes it the easiest place
to see the algorithmic building blocks: the fuzzy multi-objective cost, the
candidate list, compound moves, the tabu list and the aspiration criterion.

Run it with::

    python examples/serial_tabu_search.py
"""

from __future__ import annotations

from repro import (
    CostEvaluator,
    Layout,
    TabuSearch,
    TabuSearchParams,
    TerminationCriteria,
    load_benchmark,
    random_placement,
)
from repro.metrics import format_series, format_table


def main() -> None:
    netlist = load_benchmark("highway")
    layout = Layout(netlist)
    placement = random_placement(layout, seed=7)
    evaluator = CostEvaluator(placement)

    print(f"Circuit {netlist.name}: {netlist.num_cells} cells, {netlist.num_nets} nets")
    print(f"Layout: {layout.num_rows} rows x {layout.slots_per_row} slots")
    print(f"Initial fuzzy cost: {evaluator.cost():.4f}")
    print(
        format_table(
            ["objective", "initial value", "membership"],
            [
                (name, getattr(evaluator.objectives(), name), membership)
                for name, membership in evaluator.memberships().items()
            ],
            title="\nInitial objectives",
        )
    )

    params = TabuSearchParams(
        tabu_tenure=7,
        pairs_per_step=6,
        move_depth=3,
    )
    search = TabuSearch(evaluator, params, seed=1)
    result = search.run(TerminationCriteria(max_iterations=60))

    print(f"\nAfter {result.iterations} iterations "
          f"({result.evaluations} swap evaluations):")
    print(f"  best cost  : {result.best_cost:.4f}")
    print(f"  tabu list  : {len(search.tabu_list)} active attributes")

    # print every 10th trace point: (iteration, evaluations, cost, best)
    sampled = result.trace[::10]
    print()
    print(
        format_series(
            [point[0] for point in sampled],
            [point[3] for point in sampled],
            x_label="iteration",
            y_label="best cost",
            title="Convergence (every 10th iteration)",
        )
    )

    print("\nFinal objectives:")
    final = evaluator.objectives()
    print(f"  wirelength = {final.wirelength:.1f}")
    print(f"  delay      = {final.delay:.2f}")
    print(f"  area       = {final.area:.1f}")


if __name__ == "__main__":
    main()
