"""Tabu-search core: memory structures, moves, diversification and the serial engine."""

from .attributes import (
    MoveAttribute,
    pair_attribute_indices,
)
from .candidate import (
    CellRange,
    collision_probability,
    full_range,
    partition_cells,
    partition_cells_weighted,
    sample_candidate_pairs_array,
)
from .diversification import DiversificationResult, diversify
from .moves import (
    CompoundMove,
    CompoundMoveBuilder,
    SwapMove,
)
from .params import TabuSearchParams
from .search import (
    SearchResult,
    StepResult,
    TabuSearch,
    TabuSearchState,
)
from .tabu_list import ArrayTabuList, FrequencyMemory
from .termination import TerminationCriteria

__all__ = [
    "MoveAttribute",
    "pair_attribute_indices",
    "CellRange",
    "collision_probability",
    "full_range",
    "partition_cells",
    "partition_cells_weighted",
    "sample_candidate_pairs_array",
    "DiversificationResult",
    "diversify",
    "CompoundMove",
    "CompoundMoveBuilder",
    "SwapMove",
    "TabuSearchParams",
    "SearchResult",
    "StepResult",
    "TabuSearch",
    "TabuSearchState",
    "FrequencyMemory",
    "ArrayTabuList",
    "TerminationCriteria",
]
