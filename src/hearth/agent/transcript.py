"""Transcript records: typed JSONL logs of agent runs.

A transcript is a header line (run metadata plus the full scenario and
the world state at task start, so a replay can rebuild the exact world,
and the memories the run's searches returned, so it can rebuild what
those searches saw), one line per context message, and a final line
carrying the termination verdict and the ground-truth snapshot, in that
order: a reader refuses a file whose first line is not its one header
or whose last line is not its one final line. Lines are plain data,
each field checked against its annotation on reading; replay builds the
header's world and store through their own readers, then compares the
run with the recording message by message.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from ..jsonio import dumps, from_json, loads, replace_file


class TranscriptError(ValueError):
    """Raised for malformed or incomplete transcript files."""


def _is_call(call: Any) -> bool:
    return (
        isinstance(call, dict)
        and isinstance(call.get("id"), str)
        and isinstance(call.get("name"), str)
        and isinstance(call.get("arguments"), dict)
    )


@dataclass
class TranscriptMessage:
    """One context message. Assistant messages may propose tool calls;
    tool messages link back to the call they answer."""

    index: int
    role: str
    content: str
    tool_calls: list[dict[str, Any]] | None = None
    tool_result: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "message",
            **{key: value for key, value in vars(self).items() if value is not None},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TranscriptMessage":
        """Parse a message line; raises ValueError (or KeyError) when
        replay could not re-emit or compare it."""
        calls = data.get("tool_calls")
        if calls is not None and not (
            isinstance(calls, list) and all(_is_call(call) for call in calls)
        ):
            raise ValueError(
                "tool_calls must be a list of objects with a string id, a "
                f"string name and object arguments: {calls!r}"
            )
        return from_json(cls, data)


@dataclass
class TranscriptHeader:
    scenario: dict[str, Any]
    scenario_hash: str
    prompt_version: str
    model_id: str
    task_id: str
    task_prompt: str
    # World state at task start. A task run from a baseline (t2 after t1)
    # does not begin at the scenario's seed placements, so replay needs
    # the actual starting world, not a fresh scenario load.
    initial_world: dict[str, Any]
    seed: int | None = None
    memory_enabled: bool = True
    # The store records, as `EpisodicRecord.to_dict` gives them and in
    # store order, that some search_memory call of the run returned; with
    # the store's size at task start and the sequence number its next add
    # would mint. Headers written before these two fields held the whole
    # store.
    initial_memories: list[dict[str, Any]] = field(default_factory=list)
    memory_count: int | None = None
    memory_next_seq: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"type": "header", **vars(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TranscriptHeader":
        """Parse a header line; replay checks its world and memories."""
        return from_json(cls, data)


@dataclass
class TranscriptFinal:
    termination: str
    tool_calls: int
    snapshot: dict[str, Any]
    believed_status: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"type": "final", **vars(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TranscriptFinal":
        """Parse a final line; raises ValueError (or KeyError) when a field
        replay compares has the wrong type."""
        return from_json(cls, data)


@dataclass
class Transcript:
    header: TranscriptHeader
    messages: list[TranscriptMessage]
    final: TranscriptFinal

    def write_jsonl(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        lines = [self.header, *self.messages, self.final]
        replace_file(path, "".join(
            dumps(line.to_dict()) + "\n" for line in lines
        ))

    @classmethod
    def read_jsonl(cls, path: str) -> "Transcript":
        header: TranscriptHeader | None = None
        final: TranscriptFinal | None = None
        messages: list[TranscriptMessage] = []
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = loads(line)
                except ValueError as exc:
                    raise TranscriptError(f"{path}:{number}: invalid JSON: {exc}") from exc
                if not isinstance(data, dict):
                    raise TranscriptError(f"{path}:{number}: not a JSON object")
                kind = data.get("type")
                if kind not in ("header", "message", "final"):
                    raise TranscriptError(f"{path}:{number}: unknown line type {kind!r}")
                if final is not None:
                    what = "a second final line" if kind == "final" else (
                        f"a {kind} line after the final line")
                    raise TranscriptError(f"{path}:{number}: {what}")
                if header is None and kind != "header":
                    raise TranscriptError(
                        f"{path}:{number}: missing header line: a {kind} line comes first"
                    )
                if header is not None and kind == "header":
                    raise TranscriptError(f"{path}:{number}: a second header line")
                try:
                    if kind == "header":
                        header = TranscriptHeader.from_dict(data)
                    elif kind == "message":
                        messages.append(TranscriptMessage.from_dict(data))
                    else:
                        final = TranscriptFinal.from_dict(data)
                except (KeyError, TypeError, ValueError) as exc:
                    raise TranscriptError(
                        f"{path}:{number}: malformed {kind} line: {exc}"
                    ) from exc
        if header is None:
            raise TranscriptError(f"{path}: missing header line")
        if final is None:
            raise TranscriptError(f"{path}: missing final line")
        return cls(header=header, messages=messages, final=final)
