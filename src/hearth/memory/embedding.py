"""Text embedders for the episodic store.

The embedder is a hashed bag-of-words: deterministic, offline, and cheap,
which keeps tests hermetic. A text fills only one bucket per distinct
token, about a dozen for a task description, so vectors are built and
kept sparse.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from operator import mul

EMBEDDING_DIM = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _stable_hash_64(token: str) -> int:
    # Python's builtin hash() is salted per process; use a keyed-less
    # blake2b digest so the bucket assignment survives restarts.
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True, slots=True)
class SparseVector:
    """A vector as its non-zero buckets in ascending order, and its norm.

    Every sum runs in bucket order, so norms and dot products equal those
    of the dense list bit for bit: the buckets left out hold +0.0, and
    adding a zero term leaves a sum unchanged.
    """

    buckets: tuple[int, ...]
    values: tuple[float, ...]
    norm: float

    def dense(self) -> list[float]:
        vector = [0.0] * EMBEDDING_DIM
        for bucket, value in zip(self.buckets, self.values):
            vector[bucket] = value
        return vector

    def dot(self, dense: list[float]) -> float:
        """Dot product with a dense vector of EMBEDDING_DIM buckets."""
        return sum(map(mul, map(dense.__getitem__, self.buckets), self.values))


class HashedEmbedder:
    """Deterministic bag-of-words embedder over hashed token buckets.

    Tokens are lowercased alphanumeric runs, each hashed to one of
    EMBEDDING_DIM buckets; bucket counts are L2-normalized. Text without a
    token maps to the first basis vector so every embedding has unit norm.
    """

    def embed_sparse(self, text: str) -> SparseVector:
        counts: dict[int, float] = {}
        for token in tokenize(text):
            bucket = _stable_hash_64(token) % EMBEDDING_DIM
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
        if not counts:
            return SparseVector((0,), (1.0,), 1.0)
        buckets = tuple(sorted(counts))
        norm = math.sqrt(sum(counts[b] * counts[b] for b in buckets))
        values = tuple(counts[b] / norm for b in buckets)
        return SparseVector(buckets, values, math.sqrt(sum(map(mul, values, values))))

    def embed(self, text: str) -> list[float]:
        return self.embed_sparse(text).dense()
