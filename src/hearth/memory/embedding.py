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
from operator import mul
from typing import NamedTuple

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


class SparseVector(NamedTuple):
    """A vector as its non-zero buckets in ascending order, and its norm.

    Every sum runs in bucket order, so norms and dot products equal those
    of the dense list bit for bit: the buckets left out hold +0.0, and
    adding a zero term leaves a sum unchanged. A named tuple, so it is
    immutable and a store load builds one cheaply per record.
    """

    buckets: tuple[int, ...]
    values: tuple[float, ...]
    norm: float

    def dense(self) -> list[float]:
        vector = [0.0] * EMBEDDING_DIM
        for bucket, value in zip(self.buckets, self.values):
            vector[bucket] = value
        return vector


# Builds a named tuple from a tuple of its fields, skipping the keyword
# handling of the class call, at half its cost.
_tuple_new = tuple.__new__

# The embedding of a text without a token.
_BASIS = SparseVector((0,), (1.0,), 1.0)

# The (values, norm) of each tally shape seen before: the tallies of a
# vector's buckets in bucket order, or, when every tally is 1, their
# count. Both are a pure function of the shape, and the benchmark's
# 1 000-record store has 150 shapes, so a load computes each once.
# Bounded and shared by threads as _MEMO is, since the shapes come from
# text clients send: a shape of more than _SHAPE_MAX buckets is never
# kept, and a full memo is cleared.
_SHAPES: dict[int | tuple[int, ...], tuple[tuple[float, ...], float]] = {}
_SHAPES_CAP = 1024
_SHAPE_MAX = 32


def _shape_values(shape: int | tuple[int, ...], count: int) -> tuple[tuple[float, ...], float]:
    """The values and norm of a shape the memo lacks, of `count`
    buckets; kept there if the shape is short."""
    if type(shape) is int:
        # Every tally is 1, so the sum of their squares is exactly the
        # count.
        values = (1.0 / math.sqrt(shape),) * shape
    else:
        # Whole counts, so int tallies give the floats that float tallies
        # would, and the sums keep bucket order.
        tally_norm = math.sqrt(sum(map(mul, shape, shape)))
        values = tuple(map(tally_norm.__rtruediv__, shape))
    entry = values, math.sqrt(sum(map(mul, values, values)))
    if count <= _SHAPE_MAX:
        if len(_SHAPES) >= _SHAPES_CAP:
            _SHAPES.clear()
        _SHAPES[shape] = entry
    return entry


def embed_sparse(text: str) -> SparseVector:
    """The embedding of `text`: lowercased alphanumeric runs, each hashed
    to one of EMBEDDING_DIM buckets, with the bucket tallies L2-normalized.
    Text without a token maps to the first basis vector, so every
    embedding has unit norm."""
    tokens = tokenize(text)
    if not tokens:
        return _BASIS
    # The memos are read here, not bound at import, so that a cleared or
    # replaced memo is the one used.
    buckets = list(map(_MEMO.get, tokens))
    if None in buckets:
        buckets = [
            _digest_bucket(token) if bucket is None else bucket
            for token, bucket in zip(tokens, buckets)
        ]
    distinct = tuple(sorted(set(buckets)))
    count = len(distinct)
    shape = count if count == len(buckets) else tuple(map(buckets.count, distinct))
    entry = _SHAPES.get(shape) or _shape_values(shape, count)
    return _tuple_new(SparseVector, (distinct, *entry))


class HashedEmbedder:
    """Deterministic bag-of-words embedder over hashed token buckets:
    `embed_sparse`, and the dense list of the same vector."""

    def embed_sparse(self, text: str) -> SparseVector:
        return embed_sparse(text)

    def embed(self, text: str) -> list[float]:
        return embed_sparse(text).dense()
