"""Reasoning backends: the pluggable "what next?" oracle of the loop.

Three implementations ship: a scripted backend driven by a generator (the
hermetic stand-in for an LLM), a recorded-replay backend that re-emits
the assistant turns of a saved transcript, and the HTTP chat backend in
http_backend.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from ..jsonio import loads
from ..tools.dispatch import ToolCall
from .context import AgentContext
from .scripts import Script
from .transcript import Transcript


class BackendError(RuntimeError):
    """Transport or protocol failure; the loop terminates with cause
    backend_error when one escapes."""


@dataclass
class BackendReply:
    """One backend turn: plain text, tool calls, or both."""

    text: str | None = None
    calls: list[ToolCall] = field(default_factory=list)
    latency_s: float | None = None


class Backend(Protocol):
    def next_action(
        self, context: AgentContext, declarations: list[dict[str, Any]]
    ) -> BackendReply: ...


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

    def __init__(self, factory: Callable[[], Script]) -> None:
        self._generator = factory()
        self._counter = 0

    def next_action(
        self, context: AgentContext, declarations: list[dict[str, Any]]
    ) -> BackendReply:
        # The first call sends None (no tool has answered yet), which
        # starts a fresh generator; a finished one raises StopIteration
        # on every later send.
        try:
            item = self._generator.send(_last_tool_message(context))
        except StopIteration:
            return BackendReply(text="I have nothing further to do.")
        if isinstance(item, str):
            return BackendReply(text=item)
        name, arguments = item
        self._counter += 1
        return BackendReply(
            calls=[ToolCall(name, dict(arguments), f"call-{self._counter:04d}")]
        )


class RecordedReplayBackend:
    """Re-emits the assistant turns of a saved transcript, in order.

    It reads nothing from the live context; the caller compares the
    finished run with the recording. Past its last turn it raises
    BackendError("recording exhausted").
    """

    def __init__(self, transcript: Transcript) -> None:
        turns = [m for m in transcript.messages if m.role == "assistant"]
        self._turns = iter(turns)
        # A run that ended in a backend error recorded the error as its
        # last message; replay raises it again at that turn. The literal is
        # agent.loop's TERMINATION_BACKEND_ERROR, which imports this module.
        self._error_turn = (
            transcript.messages[-1]
            if transcript.final.termination == "backend_error" and turns
            else None
        )

    def next_action(
        self, context: AgentContext, declarations: list[dict[str, Any]]
    ) -> BackendReply:
        turn = next(self._turns, None)
        if turn is None:
            raise BackendError("recording exhausted")
        if turn is self._error_turn:
            raise BackendError(
                turn.content.removeprefix("[backend error: ").removesuffix("]")
            )
        calls = [
            ToolCall(c["name"], c["arguments"], c["id"]) for c in turn.tool_calls or []
        ]
        return BackendReply(text=turn.content or None, calls=calls)


def parse_arguments_json(raw: str, tool_name: str) -> dict[str, Any]:
    """Decode a tool-call arguments string from the wire with
    `jsonio.loads`, so that NaN, infinities and nesting too deep are
    malformed arguments too, as is a number that reads as infinity, such
    as 1e999: the transcript could not record it as JSON."""
    if not isinstance(raw, str):
        raise BackendError(
            f"tool-call arguments for '{tool_name}' must be a JSON string, "
            f"got {type(raw).__name__}"
        )
    try:
        parsed = loads(raw)
        json.dumps(parsed, allow_nan=False)
    except ValueError as exc:
        raise BackendError(
            f"malformed tool-call arguments for '{tool_name}': {exc}"
        ) from exc
    if not isinstance(parsed, dict):
        raise BackendError(
            f"tool-call arguments for '{tool_name}' must decode to an object, "
            f"got {type(parsed).__name__}"
        )
    return parsed
