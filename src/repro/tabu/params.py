"""Configuration of the (serial and parallel) tabu search."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import TabuSearchError

__all__ = ["TabuSearchParams"]


@dataclass(frozen=True, slots=True)
class TabuSearchParams:
    """Parameters of one tabu-search worker.

    These map directly onto the symbols of the paper:

    * ``pairs_per_step`` — ``m``, the number of cell pairs trial-swapped when
      looking for the next elementary move;
    * ``move_depth`` — ``d``, the depth of a compound move;
    * ``local_iterations`` — TS iterations a TSW performs per global
      iteration;
    * ``tabu_tenure`` — how long a move attribute stays tabu;
    * ``diversification_depth`` — number of range-restricted moves a TSW uses
      to diversify away from the common initial solution at the start of every
      global iteration.

    ``early_accept`` is not among the paper's symbols; it is exposed for
    ablations.
    """

    tabu_tenure: int = 7
    local_iterations: int = 10
    pairs_per_step: int = 5
    move_depth: int = 3
    diversification_depth: int = 6
    early_accept: bool = True

    def __post_init__(self) -> None:
        if self.tabu_tenure < 0:
            raise TabuSearchError(f"tabu_tenure must be >= 0, got {self.tabu_tenure}")
        if self.local_iterations < 1:
            raise TabuSearchError(f"local_iterations must be >= 1, got {self.local_iterations}")
        if self.pairs_per_step < 1:
            raise TabuSearchError(f"pairs_per_step must be >= 1, got {self.pairs_per_step}")
        if self.move_depth < 1:
            raise TabuSearchError(f"move_depth must be >= 1, got {self.move_depth}")
        if self.diversification_depth < 0:
            raise TabuSearchError(
                f"diversification_depth must be >= 0, got {self.diversification_depth}"
            )

    def with_(self, **changes) -> "TabuSearchParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def scaled_for_circuit(self, num_cells: int) -> "TabuSearchParams":
        """Heuristically scale size-dependent parameters to a circuit size.

        The tenure grows roughly with the square root of the number of cells,
        following common tabu-search practice, so that larger circuits do not
        cycle through the same handful of cells.
        """
        if num_cells <= 0:
            raise TabuSearchError(f"num_cells must be positive, got {num_cells}")
        tenure = max(self.tabu_tenure, int(round(num_cells ** 0.5 / 2)))
        return self.with_(tabu_tenure=tenure)
