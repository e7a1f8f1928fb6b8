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


# The bucket of each token seen before, so a load, whose descriptions
# reuse a small vocabulary, digests each distinct token once. The RPC
# server embeds text clients send, so the memo is bounded in bytes as
# well as entries: a long token is never kept, and a full memo is cleared.
# Threads share it without a lock: an entry is a pure function of its
# token, so a race can only let the memo pass its cap by a few entries
# until the next miss clears it.
_MEMO: dict[str, int] = {}
_MEMO_CAP = 4096
_MEMO_TOKEN_MAX = 32


def _digest_bucket(token: str) -> int:
    """The bucket of a token the memo lacks, kept there if it is short."""
    bucket = _stable_hash_64(token) % EMBEDDING_DIM
    if len(token) <= _MEMO_TOKEN_MAX:
        if len(_MEMO) >= _MEMO_CAP:
            _MEMO.clear()
        _MEMO[token] = bucket
    return bucket


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
            bucket = _MEMO.get(token)
            if bucket is None:
                bucket = _digest_bucket(token)
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
        if not counts:
            return SparseVector((0,), (1.0,), 1.0)
        buckets = sorted(counts)
        tallies = list(map(counts.__getitem__, buckets))
        norm = math.sqrt(sum(map(mul, tallies, tallies)))
        values = tuple(map(norm.__rtruediv__, tallies))
        return SparseVector(
            tuple(buckets), values, math.sqrt(sum(map(mul, values, values)))
        )

    def embed(self, text: str) -> list[float]:
        return self.embed_sparse(text).dense()
