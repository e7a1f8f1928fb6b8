"""Reasoning backends: the pluggable "what next?" oracle of the loop.

Three implementations ship: a scripted backend driven by a generator (the
hermetic stand-in for an LLM), a recorded-replay backend that re-emits a
saved transcript while asserting the world answers exactly as recorded,
and the HTTP chat backend in http_backend.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Protocol

from .context import AgentContext
from .transcript import Transcript, TranscriptMessage


class BackendError(RuntimeError):
    """Transport or protocol failure; the loop terminates with cause
    backend_error when one escapes."""


class ReplayDivergence(RuntimeError):
    """A replayed run stopped matching its recording."""

    def __init__(self, index: int, detail: str) -> None:
        super().__init__(f"replay divergence at message index {index}: {detail}")
        self.index = index
        self.detail = detail


@dataclass(frozen=True)
class ProposedCall:
    call_id: str
    name: str
    arguments: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {"id": self.call_id, "name": self.name, "arguments": self.arguments}


@dataclass
class BackendReply:
    """One backend turn: plain text, tool calls, or both."""

    text: str | None = None
    calls: list[ProposedCall] = field(default_factory=list)
    latency_s: float | None = None


class Backend(Protocol):
    def next_action(
        self, context: AgentContext, declarations: list[dict[str, Any]]
    ) -> BackendReply: ...


# Scripts are generators that yield ToolCall-shaped dicts or plain text
# and receive the tool's answer at the next yield.
ScriptItem = Any
Script = Generator[ScriptItem, str | None, None]
ScriptFactory = Callable[[], Script]


def _last_tool_message(context: AgentContext) -> str | None:
    for message in reversed(context.messages):
        if message.role == "tool":
            return message.content
    return None


class ScriptedBackend:
    """Replays a fixed decision sequence from a generator.

    The generator yields either a (name, arguments) tool call built with
    scripts.call() or a plain string; each yield receives the text of the
    previous tool result. An exhausted script keeps answering with a
    fixed no-action line, which the loop eventually counts as a refusal.
    """

    def __init__(self, factory: ScriptFactory) -> None:
        self._factory = factory
        self._generator: Script | None = None
        self._started = False
        self._exhausted = False
        self._counter = 0

    def next_action(
        self, context: AgentContext, declarations: list[dict[str, Any]]
    ) -> BackendReply:
        if self._exhausted:
            return BackendReply(text="I have nothing further to do.")
        if self._generator is None:
            self._generator = self._factory()
        try:
            if not self._started:
                self._started = True
                item = next(self._generator)
            else:
                item = self._generator.send(_last_tool_message(context))
        except StopIteration:
            self._exhausted = True
            return BackendReply(text="I have nothing further to do.")
        if isinstance(item, str):
            return BackendReply(text=item)
        name, arguments = item
        self._counter += 1
        return BackendReply(
            calls=[
                ProposedCall(
                    call_id=f"call-{self._counter:04d}",
                    name=name,
                    arguments=dict(arguments),
                )
            ]
        )


def _expect_match(got: TranscriptMessage, want: TranscriptMessage) -> None:
    if got.semantic_key() != want.semantic_key():
        raise ReplayDivergence(
            got.index,
            f"live message {got.to_dict()!r} != recorded {want.to_dict()!r}",
        )


class RecordedReplayBackend:
    """Re-emits the assistant turns of a saved transcript.

    Before each turn it asserts that the live context is an exact prefix
    of the recording, so any drift in tool results (a tampered file, a
    changed world, a changed message template) surfaces as
    ReplayDivergence at the first differing message.
    """

    def __init__(self, transcript: Transcript) -> None:
        self._recorded = transcript.messages
        # A run that ended in a backend error recorded the error as its
        # last assistant turn; replay raises it again at that turn.
        self._error_index = (
            len(self._recorded) - 1
            if transcript.final.termination == "backend_error"
            else None
        )

    def next_action(
        self, context: AgentContext, declarations: list[dict[str, Any]]
    ) -> BackendReply:
        live = context.messages
        if len(live) > len(self._recorded):
            raise ReplayDivergence(
                len(self._recorded),
                "live run is longer than the recording",
            )
        for got, want in zip(live, self._recorded):
            _expect_match(got, want)
        if len(live) == len(self._recorded):
            raise ReplayDivergence(
                len(live), "recording exhausted before the loop terminated"
            )
        upcoming = self._recorded[len(live)]
        if upcoming.role != "assistant":
            raise ReplayDivergence(
                upcoming.index,
                f"expected a recorded assistant turn, found role "
                f"'{upcoming.role}'",
            )
        if len(live) == self._error_index:
            raise BackendError(
                upcoming.content.removeprefix("[backend error: ").removesuffix("]")
            )
        calls = [
            ProposedCall(
                call_id=call["id"],
                name=call["name"],
                arguments=call["arguments"],
            )
            for call in (upcoming.tool_calls or [])
        ]
        text = upcoming.content or None
        return BackendReply(text=text, calls=calls)


def parse_arguments_json(raw: str, tool_name: str) -> dict[str, Any]:
    """Decode a tool-call arguments string from the wire."""
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BackendError(
            f"malformed tool-call arguments for '{tool_name}': {exc}"
        ) from exc
    if not isinstance(parsed, dict):
        raise BackendError(
            f"tool-call arguments for '{tool_name}' must decode to an object, "
            f"got {type(parsed).__name__}"
        )
    return parsed
