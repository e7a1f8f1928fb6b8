"""Episodic store: embedding-indexed task reports with JSONL persistence.

The store is a flat in-process index searched by exhaustive cosine scan,
so results are exact and there is nothing approximate to tune. Each
record keeps its embedding sparse, about a dozen non-zero buckets of 256,
with its norm computed once, so a scan costs about a microsecond per
record and a store of thousands of records is searched in milliseconds.
The similarities equal those of a dense cosine bit for bit. With a path
the store is durable: every record is flushed and fsynced before `add`
returns. The file holds one JSON line of text fields per record; the
embedding is a pure function of `task_description`, so it is not stored
but rebuilt on load. An `embedding` in a line written by an older
version is ignored. A crash inside `add` can leave a torn last line, with
no line end and no whole JSON value; the load drops it with a warning
and truncates the file to the line before.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Any

from .embedding import HashedEmbedder, SparseVector

BELIEVED_STATUSES = ("succeeded", "failed")

DEFAULT_SEARCH_K = 3
DEFAULT_SIMILARITY_FLOOR = 0.2

# Fields a store line must hold as strings; the embedder reads one of them.
_TEXT_FIELDS = ("id", "task_description", "action_summary", "model_id")


class PersistenceError(RuntimeError):
    """Raised when the backing file cannot be read or written."""


def _is_torn(line: str) -> bool:
    """Whether a last line is what a crash inside `add` leaves behind: no
    line end, and not a whole JSON value."""
    if line.endswith(("\n", "\r")) or not line.strip():
        return False
    try:
        json.loads(line)
    except json.JSONDecodeError:
        return True
    return False


def _cut_torn_tail(path: str, tail: str, number: int) -> None:
    """Drop a torn last line, line `number`, with a warning; truncate the
    file to the line before, so the next `add` starts a line of its own."""
    print(f"warning: dropped torn last line at {path}:{number}", file=sys.stderr)
    try:
        os.truncate(path, os.path.getsize(path) - len(tail.encode("utf-8")))
    except OSError as exc:
        raise PersistenceError(f"cannot truncate store '{path}': {exc}") from exc


@dataclass(frozen=True, slots=True)
class EpisodicRecord:
    id: str
    task_description: str
    believed_status: str
    action_summary: str
    vector: SparseVector
    created_at: int
    model_id: str

    def to_dict(self) -> dict[str, Any]:
        """Every field but the vector, which is derived from
        `task_description`: a store line, or a transcript header memory."""
        return {
            "id": self.id,
            "task_description": self.task_description,
            "believed_status": self.believed_status,
            "action_summary": self.action_summary,
            "created_at": self.created_at,
            "model_id": self.model_id,
        }


class EpisodicStore:
    """Long-term memory of task reports, searchable by text similarity."""

    def __init__(self, path: str | None = None) -> None:
        self.embedder = HashedEmbedder()
        self.path = path
        self._records: list[EpisodicRecord] = []
        self._ids: set[str] = set()
        self._next_seq = 1
        self._unended = False
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            # newline="" keeps each line's bytes, so a torn tail's size is
            # the number of bytes to cut.
            with open(path, encoding="utf-8", newline="") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise PersistenceError(f"cannot read store '{path}': {exc}") from exc
        if lines and _is_torn(lines[-1]):
            _cut_torn_tail(path, lines.pop(), len(lines) + 1)
        # A whole last line without a line end (a hand edit, or a crash
        # right before it) is kept; the next add ends it first.
        self._unended = bool(lines) and not lines[-1].endswith(("\n", "\r"))
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = self._parse(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise PersistenceError(
                    f"corrupt record at {path}:{number}: {exc}"
                ) from exc
            self._records.append(record)
            self._ids.add(record.id)
            self._next_seq = max(self._next_seq, record.created_at + 1)

    def _parse(self, data: dict[str, Any]) -> EpisodicRecord:
        """The record a store line holds, re-embedded; raises ValueError
        (or KeyError, TypeError) for a line the store would not write."""
        for name in _TEXT_FIELDS:
            if not isinstance(data[name], str):
                kind = type(data[name]).__name__
                raise ValueError(f"{name} must be a string, not {kind}")
        created_at = data["created_at"]
        if type(created_at) is not int:
            raise ValueError(f"created_at must be an integer: {created_at!r}")
        if data["believed_status"] not in BELIEVED_STATUSES:
            raise ValueError(f"bad believed_status '{data['believed_status']}'")
        if data["id"] in self._ids:
            raise ValueError(f"duplicate id '{data['id']}'")
        return EpisodicRecord(
            id=data["id"],
            task_description=data["task_description"],
            believed_status=data["believed_status"],
            action_summary=data["action_summary"],
            vector=self.embedder.embed_sparse(data["task_description"]),
            created_at=created_at,
            model_id=data["model_id"],
        )

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
                line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
                handle.write("\n" + line if self._unended else line)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise PersistenceError(f"cannot write store '{self.path}': {exc}") from exc
        self._unended = False

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
        # No norm is zero: every vector, loaded ones too, comes from the
        # embedder, which gives unit norm; so this is the dense cosine
        # without its zero guard.
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
        self._unended = False
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
