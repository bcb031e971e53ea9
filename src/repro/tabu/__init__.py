"""Tabu-search core: memory structures, moves, diversification and the serial engine."""

from .aspiration import (
    AspirationCriterion,
    BestCostAspiration,
    ImprovementAspiration,
    NoAspiration,
)
from .attributes import (
    AttributeScheme,
    MoveAttribute,
    pair_attribute_indices,
)
from .candidate import (
    CellRange,
    collision_probability,
    full_range,
    partition_cells,
    partition_cells_weighted,
    sample_candidate_pairs,
    sample_candidate_pairs_array,
)
from .diversification import DiversificationResult, diversify
from .moves import (
    CompoundMove,
    CompoundMoveBuilder,
    SwapMove,
    best_swap_of_candidates,
    build_compound_move,
)
from .params import TabuSearchParams
from .search import (
    SearchResult,
    StepResult,
    TabuSearch,
    TabuSearchState,
    make_aspiration,
)
from .tabu_list import ArrayTabuList, FrequencyMemory
from .termination import TerminationCriteria

__all__ = [
    "AspirationCriterion",
    "BestCostAspiration",
    "ImprovementAspiration",
    "NoAspiration",
    "AttributeScheme",
    "MoveAttribute",
    "pair_attribute_indices",
    "CellRange",
    "collision_probability",
    "full_range",
    "partition_cells",
    "partition_cells_weighted",
    "sample_candidate_pairs",
    "sample_candidate_pairs_array",
    "DiversificationResult",
    "diversify",
    "CompoundMove",
    "CompoundMoveBuilder",
    "SwapMove",
    "best_swap_of_candidates",
    "build_compound_move",
    "TabuSearchParams",
    "SearchResult",
    "StepResult",
    "TabuSearch",
    "TabuSearchState",
    "make_aspiration",
    "FrequencyMemory",
    "ArrayTabuList",
    "TerminationCriteria",
]
