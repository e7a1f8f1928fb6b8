"""Two-tier memory: per-task scratchpad and persistent episodic store."""

from .embedding import (
    EMBEDDING_DIM,
    HashedEmbedder,
    SparseVector,
    tokenize,
)
from .episodic import (
    BELIEVED_STATUSES,
    DEFAULT_SEARCH_K,
    DEFAULT_SIMILARITY_FLOOR,
    EpisodicRecord,
    EpisodicStore,
    PersistenceError,
)
from .scratchpad import Scratchpad

__all__ = [
    "BELIEVED_STATUSES",
    "DEFAULT_SEARCH_K",
    "DEFAULT_SIMILARITY_FLOOR",
    "EMBEDDING_DIM",
    "EpisodicRecord",
    "EpisodicStore",
    "HashedEmbedder",
    "PersistenceError",
    "Scratchpad",
    "SparseVector",
    "tokenize",
]
