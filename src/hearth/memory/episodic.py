"""Episodic store: embedding-indexed task reports with JSONL persistence.

The store is a flat in-process index searched by exhaustive cosine scan,
so results are exact and there is nothing approximate to tune. Each
record keeps its embedding sparse, about a dozen non-zero buckets of 256,
with its norm computed once, so a scan costs about a microsecond per
record and a store of thousands of records is searched in milliseconds.
The similarities equal those of a dense cosine bit for bit. With a path
the store is durable: every record is flushed and fsynced before `add`
returns. The file keeps every embedding dense, one JSON line per record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any

from .embedding import EMBEDDING_DIM, HashedEmbedder, SparseVector

BELIEVED_STATUSES = ("succeeded", "failed")

DEFAULT_SEARCH_K = 3
DEFAULT_SIMILARITY_FLOOR = 0.2

_UNIT_NORM_TOL = 1e-9


class PersistenceError(RuntimeError):
    """Raised when the backing file cannot be read or written."""


@dataclass(frozen=True, slots=True)
class EpisodicRecord:
    id: str
    task_description: str
    believed_status: str
    action_summary: str
    vector: SparseVector
    created_at: int
    model_id: str

    @property
    def embedding(self) -> list[float]:
        """The dense embedding, built on each access."""
        return self.vector.dense()

    def without_embedding(self) -> dict[str, Any]:
        """Every field but the embedding, which is derived from
        `task_description`."""
        return {
            "id": self.id,
            "task_description": self.task_description,
            "believed_status": self.believed_status,
            "action_summary": self.action_summary,
            "created_at": self.created_at,
            "model_id": self.model_id,
        }

    def to_dict(self) -> dict[str, Any]:
        return {**self.without_embedding(), "embedding": self.embedding}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EpisodicRecord":
        return cls(
            id=data["id"],
            task_description=data["task_description"],
            believed_status=data["believed_status"],
            action_summary=data["action_summary"],
            vector=SparseVector.from_dense(data["embedding"]),
            created_at=int(data["created_at"]),
            model_id=data["model_id"],
        )


class EpisodicStore:
    """Long-term memory of task reports, searchable by text similarity."""

    def __init__(self, path: str | None = None) -> None:
        self.embedder = HashedEmbedder()
        self.path = path
        self._records: list[EpisodicRecord] = []
        self._ids: set[str] = set()
        self._next_seq = 1
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            with open(path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise PersistenceError(f"cannot read store '{path}': {exc}") from exc
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = EpisodicRecord.from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise PersistenceError(
                    f"corrupt record at {path}:{number}: {exc}"
                ) from exc
            self._validate_record(record, where=f"{path}:{number}")
            self._records.append(record)
            self._ids.add(record.id)
            self._next_seq = max(self._next_seq, record.created_at + 1)

    def _validate_record(self, record: EpisodicRecord, where: str) -> None:
        if record.believed_status not in BELIEVED_STATUSES:
            raise PersistenceError(
                f"corrupt record at {where}: bad believed_status "
                f"'{record.believed_status}'"
            )
        if record.vector.dimension != EMBEDDING_DIM:
            raise PersistenceError(
                f"corrupt record at {where}: embedding dimension "
                f"{record.vector.dimension} != {EMBEDDING_DIM}"
            )
        if abs(record.vector.norm - 1.0) > 1e-6:
            raise PersistenceError(
                f"corrupt record at {where}: embedding norm "
                f"{record.vector.norm} is not 1"
            )
        if record.id in self._ids:
            raise PersistenceError(f"corrupt record at {where}: duplicate id '{record.id}'")

    def add(
        self,
        task_description: str,
        believed_status: str,
        action_summary: str,
        model_id: str = "unknown",
    ) -> str:
        """Embed and append one report; persisted durably before returning."""
        if not task_description.strip():
            raise ValueError("task_description must be non-empty")
        if not action_summary.strip():
            raise ValueError("action_summary must be non-empty")
        if believed_status not in BELIEVED_STATUSES:
            raise ValueError(
                f"believed_status must be one of {BELIEVED_STATUSES}, "
                f"got '{believed_status}'"
            )
        seq = self._next_seq
        # Loaded ids may run ahead of created_at (an edited or merged
        # file); never mint an id the store already has.
        while (record_id := f"mem-{seq:06d}") in self._ids:
            seq += 1
        record = EpisodicRecord(
            id=record_id,
            task_description=task_description,
            believed_status=believed_status,
            action_summary=action_summary,
            vector=self.embedder.embed_sparse(task_description),
            created_at=seq,
            model_id=model_id,
        )
        if self.path is not None:
            self._persist(record)
        self._records.append(record)
        self._ids.add(record.id)
        self._next_seq = seq + 1
        return record.id

    def _persist(self, record: EpisodicRecord) -> None:
        assert self.path is not None
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise PersistenceError(f"cannot write store '{self.path}': {exc}") from exc

    def search(
        self,
        query: str,
        k: int = DEFAULT_SEARCH_K,
        floor: float = DEFAULT_SIMILARITY_FLOOR,
    ) -> list[tuple[EpisodicRecord, float]]:
        """Top-k records by cosine similarity, most recent first on ties."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not -1.0 <= floor <= 1.0:
            raise ValueError("floor must lie in [-1, 1]")
        query_vec = self.embedder.embed_sparse(query)
        dense = query_vec.dense()
        query_norm = query_vec.norm
        # No norm is zero: embeddings have unit norm and _load rejects
        # any other, so this is the dense cosine without its zero guard.
        scored = []
        for record in self._records:
            vector = record.vector
            similarity = vector.dot(dense) / (query_norm * vector.norm)
            if similarity >= floor:
                scored.append((record, similarity))
        scored.sort(key=lambda pair: (-pair[1], -pair[0].created_at))
        return scored[:k]

    def purge(self) -> None:
        """Drop every record, truncating the backing file if present."""
        self._records.clear()
        self._ids.clear()
        self._next_seq = 1
        if self.path is not None:
            try:
                with open(self.path, "w", encoding="utf-8"):
                    pass
            except OSError as exc:
                raise PersistenceError(
                    f"cannot truncate store '{self.path}': {exc}"
                ) from exc

    @property
    def records(self) -> list[EpisodicRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)
