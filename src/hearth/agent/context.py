"""Agent context: the live message history sent to the reasoning backend.

The context is append-only for the lifetime of a task; trimming for long
runs happens only in the wire view (to_chat_messages), which drops the
oldest tool-call groups first and never the system or task prompt. The
full history always reaches the transcript.
"""

from __future__ import annotations

import json
from typing import Any

from ..tools.dispatch import TOOL_SCHEMAS, ToolCall, ToolResult
from .transcript import TranscriptMessage

PROMPT_VERSION = "v1"

# Most messages sent to the backend in one turn.
MESSAGE_BUDGET = 200


def build_system_prompt(memory_enabled: bool = True) -> str:
    """Assemble the system prompt; search_memory appears only if enabled."""
    lines = [
        "You are a household robot assistant controlling a mobile body in a",
        "simulated home. You interact with the world only through tool calls;",
        "every tool returns a short text report you must read before acting",
        "again.",
        "",
        "World model: rooms contain named locations connected on a map.",
        "Furniture at a location offers numbered slots (layers); each slot",
        "holds at most one object, and you can carry at most one object at a",
        "time. You can only reach things near your current location.",
        "",
        "Tools for acting: look_around (inspect your surroundings), move_to",
        "(walk to a named location), grab (pick up a nearby object), place",
        "(put the held object into a named slot).",
        "Tools for thinking: add_to_scratchpad (write a note to yourself),",
        "view_scratchpad (read your notes back).",
    ]
    if memory_enabled:
        lines += [
            "Tool for remembering: search_memory (retrieve reports of similar",
            "past tasks; consult it before exploring from scratch).",
        ]
    lines += [
        "",
        "Think step by step. Write your plan to the scratchpad before you",
        "act, and check it off as you go. Make exactly one tool call per",
        "turn. If a tool reports a failure, read the reason and adapt",
        "instead of repeating the same call.",
        "",
        "When the task is complete, or you are certain it cannot be",
        "completed, call end_task with your honest status and a summary of",
        "what you did. Do not stop calling tools until you have called",
        "end_task.",
        "",
        f"[prompt-version: {PROMPT_VERSION}]",
    ]
    return "\n".join(lines)


class AgentContext:
    """System prompt, task prompt, and the growing message history."""

    def __init__(self, system_prompt: str, task_prompt: str) -> None:
        self.messages: list[TranscriptMessage] = []
        self._append(role="system", content=system_prompt)
        self._append(role="user", content=task_prompt)

    def _append(self, **kwargs: Any) -> TranscriptMessage:
        message = TranscriptMessage(index=len(self.messages), **kwargs)
        self.messages.append(message)
        return message

    def append_assistant_text(self, text: str) -> TranscriptMessage:
        return self._append(role="assistant", content=text)

    def append_assistant_calls(
        self, calls: list[ToolCall], text: str | None = None
    ) -> TranscriptMessage:
        """Record an assistant turn proposing tool calls."""
        return self._append(
            role="assistant",
            content=text or "",
            tool_calls=[
                {"id": c.id, "name": c.name, "arguments": c.arguments} for c in calls
            ],
        )

    def append_tool_result(
        self, call: ToolCall, result: ToolResult
    ) -> TranscriptMessage:
        return self._append(
            role="tool",
            content=result.message,
            tool_result={"call_id": call.id, "name": call.name, **result.to_dict()},
        )

    def _window(self) -> list[TranscriptMessage]:
        """Messages to put on the wire: all of them, unless over budget.

        Over budget, whole tool-call groups (assistant turn plus its tool
        replies) are dropped oldest-first. Messages 0 and 1 are pinned.
        """
        if len(self.messages) <= MESSAGE_BUDGET:
            return list(self.messages)
        groups: list[list[TranscriptMessage]] = []
        for message in self.messages[2:]:
            if message.role == "tool" and groups and groups[-1][0].tool_calls:
                groups[-1].append(message)
            else:
                groups.append([message])
        total = len(self.messages)
        kept = groups
        while kept and total > MESSAGE_BUDGET:
            total -= len(kept[0])
            kept = kept[1:]
        window = self.messages[:2]
        for group in kept:
            window.extend(group)
        return window

    def to_chat_messages(self) -> list[dict[str, Any]]:
        """Serialize the (possibly trimmed) history in chat-completions form."""
        wire: list[dict[str, Any]] = []
        for message in self._window():
            if message.role == "tool":
                assert message.tool_result is not None
                wire.append(
                    {
                        "role": "tool",
                        "tool_call_id": message.tool_result["call_id"],
                        "content": message.content,
                    }
                )
            elif message.role == "assistant" and message.tool_calls:
                wire.append(
                    {
                        "role": "assistant",
                        "content": message.content or None,
                        "tool_calls": [
                            {
                                "id": call["id"],
                                "type": "function",
                                "function": {
                                    "name": call["name"],
                                    "arguments": json.dumps(call["arguments"]),
                                },
                            }
                            for call in message.tool_calls
                        ],
                    }
                )
            else:
                wire.append({"role": message.role, "content": message.content})
        return wire


def tool_declarations(memory_enabled: bool = True) -> list[dict[str, Any]]:
    """Function declarations offered to the backend, gated like the prompt;
    they are the shared TOOL_SCHEMAS entries, which no caller changes."""
    return [
        declaration
        for name, declaration in TOOL_SCHEMAS.items()
        if memory_enabled or name != "search_memory"
    ]


assert all(name in build_system_prompt() for name in TOOL_SCHEMAS)
