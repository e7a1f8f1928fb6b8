"""Episodic store: embedding-indexed task reports with JSONL persistence.

The store is a flat in-process index searched by exhaustive cosine scan.
Sizes stay in the tens of records, so exactness is cheap and there is
nothing approximate to tune. With a path the store is durable: every
record is flushed and fsynced before `add` returns.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any

from .embedding import Embedder, HashedEmbedder, cosine

BELIEVED_STATUSES = ("succeeded", "failed")

DEFAULT_SEARCH_K = 3
DEFAULT_SIMILARITY_FLOOR = 0.2

_UNIT_NORM_TOL = 1e-9


class PersistenceError(RuntimeError):
    """Raised when the backing file cannot be read or written."""


@dataclass(frozen=True)
class EpisodicRecord:
    id: str
    task_description: str
    believed_status: str
    action_summary: str
    embedding: list[float]
    created_at: int
    model_id: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "task_description": self.task_description,
            "believed_status": self.believed_status,
            "action_summary": self.action_summary,
            "embedding": self.embedding,
            "created_at": self.created_at,
            "model_id": self.model_id,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EpisodicRecord":
        return cls(
            id=data["id"],
            task_description=data["task_description"],
            believed_status=data["believed_status"],
            action_summary=data["action_summary"],
            embedding=[float(v) for v in data["embedding"]],
            created_at=int(data["created_at"]),
            model_id=data["model_id"],
        )


class EpisodicStore:
    """Long-term memory of task reports, searchable by text similarity."""

    def __init__(self, embedder: Embedder | None = None, path: str | None = None) -> None:
        self.embedder = embedder if embedder is not None else HashedEmbedder()
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
        if len(record.embedding) != self.embedder.dimension:
            raise PersistenceError(
                f"corrupt record at {where}: embedding dimension "
                f"{len(record.embedding)} != {self.embedder.dimension}"
            )
        norm = math.sqrt(sum(v * v for v in record.embedding))
        if abs(norm - 1.0) > 1e-6:
            raise PersistenceError(
                f"corrupt record at {where}: embedding norm {norm} is not 1"
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
        record = EpisodicRecord(
            id=f"mem-{seq:06d}",
            task_description=task_description,
            believed_status=believed_status,
            action_summary=action_summary,
            embedding=self.embedder.embed(task_description),
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
        query_vec = self.embedder.embed(query)
        scored = [
            (record, cosine(query_vec, record.embedding)) for record in self._records
        ]
        scored = [(record, sim) for record, sim in scored if sim >= floor]
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
