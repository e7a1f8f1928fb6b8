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

A load costs about 9 us a record on a 2-vCPU host, half of it the
embedding and a sixth the json scanner. Each line is decoded on its own
by the scanner of `hearth.jsonio`, which refuses `NaN` and `Infinity`;
only a line the scanner cannot decode is handed to its `loads`, for the
text of its error. Its fields are then checked one at a time, each read
as it is checked, in the order `_parse` gives, so an error names the
first that is missing or wrong. Records and vectors are named tuples:
immutable, and cheap to build.
"""

from __future__ import annotations

import json
import os
import sys
from operator import mul
from typing import Any, Iterable, NamedTuple

from ..jsonio import loads, scan_once
from .embedding import SparseVector, _tuple_new, embed_sparse

BELIEVED_STATUSES = ("succeeded", "failed")

DEFAULT_SEARCH_K = 3
DEFAULT_SIMILARITY_FLOOR = 0.2


class PersistenceError(RuntimeError):
    """Raised when the backing file cannot be read or written."""


def _is_torn(line: str) -> bool:
    """Whether a last line is what a crash inside `add` leaves behind: no
    line end, and not a whole JSON value."""
    if line.endswith(("\n", "\r")) or not line.strip():
        return False
    try:
        loads(line)
    except json.JSONDecodeError:
        return True
    except ValueError:
        pass  # not JSON (NaN, or nested too deep): a corrupt record, kept
    return False


def _cut_torn_tail(path: str, tail: str, number: int) -> None:
    """Drop a torn last line, line `number`, with a warning; truncate the
    file to the line before, so the next `add` starts a line of its own."""
    print(f"warning: dropped torn last line at {path}:{number}", file=sys.stderr)
    try:
        os.truncate(path, os.path.getsize(path) - len(tail.encode("utf-8")))
    except OSError as exc:
        raise PersistenceError(f"cannot truncate store '{path}': {exc}") from exc


def _not_a_string(name: str, value: Any) -> ValueError:
    return ValueError(f"{name} must be a string, not {type(value).__name__}")


class EpisodicRecord(NamedTuple):
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
        data = self._asdict()
        del data["vector"]
        return data


class EpisodicStore:
    """Long-term memory of task reports, searchable by text similarity."""

    def __init__(self, path: str | None = None) -> None:
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
        parse, records, ids = self._parse, self._records, self._ids
        top = 0
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                # The scanner decodes a line that is one JSON value and
                # nothing else as `loads` would; a line it cannot start (a
                # byte-order mark), stops short in (extra data) or nests
                # too deep for goes to `loads` for its error text. Each
                # line is decoded on its own: lines joined into one
                # document could pair up a bad line's brackets with the
                # next line's.
                try:
                    data, end = scan_once(line, 0)
                except (StopIteration, RecursionError):
                    end = -1
                if end != len(line):
                    data = loads(line)
                record = parse(data)
            except (KeyError, TypeError, ValueError) as exc:
                raise PersistenceError(
                    f"corrupt record at {path}:{number}: {exc}"
                ) from exc
            records.append(record)
            ids.add(record.id)
            if record.created_at > top:
                top = record.created_at
        self._next_seq = top + 1

    @classmethod
    def from_dicts(
        cls, lines: Iterable[dict[str, Any]], next_seq: int | None = None
    ) -> "EpisodicStore":
        """An in-memory store of the records `lines` hold, as `to_dict`
        gives them, each checked as a store line is; the next `add` mints
        `next_seq`, or, when None, what it would after a load of them.
        Raises ValueError (or KeyError, TypeError) for a line the store
        would not write."""
        store = cls()
        for data in lines:
            record = store._parse(data)
            store._records.append(record)
            store._ids.add(record.id)
        if next_seq is None:
            next_seq = max([0, *(record.created_at for record in store._records)]) + 1
        store._next_seq = next_seq
        return store

    def _parse(self, data: dict[str, Any]) -> EpisodicRecord:
        """The record a store line holds, re-embedded; raises ValueError
        (or KeyError, TypeError) for a line the store would not write.
        Each field is read as it is checked, so a wrong field before a
        missing one is what the error names."""
        record_id = data["id"]
        if type(record_id) is not str:
            raise _not_a_string("id", record_id)
        description = data["task_description"]
        if type(description) is not str:
            raise _not_a_string("task_description", description)
        summary = data["action_summary"]
        if type(summary) is not str:
            raise _not_a_string("action_summary", summary)
        model_id = data["model_id"]
        if type(model_id) is not str:
            raise _not_a_string("model_id", model_id)
        created_at = data["created_at"]
        if type(created_at) is not int:
            raise ValueError(f"created_at must be an integer: {created_at!r}")
        status = data["believed_status"]
        if status not in BELIEVED_STATUSES:
            raise ValueError(f"bad believed_status '{status}'")
        if record_id in self._ids:
            raise ValueError(f"duplicate id '{record_id}'")
        return _tuple_new(EpisodicRecord, (
            record_id, description, status, summary,
            embed_sparse(description), created_at, model_id,
        ))

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
        seq = self.next_seq
        record = EpisodicRecord(
            id=f"mem-{seq:06d}",
            task_description=task_description,
            believed_status=believed_status,
            action_summary=action_summary,
            vector=embed_sparse(task_description),
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
        query_vec = embed_sparse(query)
        query_value = query_vec.dense().__getitem__
        query_norm = query_vec.norm
        # No norm is zero: every vector, loaded ones too, comes from the
        # embedder, which gives unit norm; so this is the dense cosine
        # without its zero guard. The dot product sums in bucket order.
        scored = []
        for record in self._records:
            buckets, values, norm = record.vector
            similarity = sum(map(mul, map(query_value, buckets), values)) / (
                query_norm * norm
            )
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
    def next_seq(self) -> int:
        """The sequence number the next `add` mints, in its id and as its
        `created_at`."""
        seq = self._next_seq
        # Loaded ids may run ahead of created_at (an edited or merged
        # file); never mint an id the store already has.
        while f"mem-{seq:06d}" in self._ids:
            seq += 1
        return seq

    @property
    def records(self) -> list[EpisodicRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)
