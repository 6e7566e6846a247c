"""The paper's primary contribution: the BrePartition index and ABP."""

from .approximate import ApproximateBrePartitionIndex, BetaXYModel
from .config import BrePartitionConfig
from .index import BrePartitionIndex
from .results import BatchQueryStats, BatchSearchResult, QueryStats, SearchResult
from .snapshot import BaseState, DeltaBuffer, DeltaView, IndexSnapshot, MergeStats
from .transforms import (
    SearchBoundsBatch,
    SubspaceTransforms,
    determine_search_bounds_batch,
)

__all__ = [
    "BrePartitionIndex",
    "ApproximateBrePartitionIndex",
    "BetaXYModel",
    "BrePartitionConfig",
    "QueryStats",
    "SearchResult",
    "BatchQueryStats",
    "BatchSearchResult",
    "BaseState",
    "DeltaBuffer",
    "DeltaView",
    "IndexSnapshot",
    "MergeStats",
    "SubspaceTransforms",
    "SearchBoundsBatch",
    "determine_search_bounds_batch",
]
