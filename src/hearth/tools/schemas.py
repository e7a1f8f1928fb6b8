"""Declarative schemas for the eight agent-facing tools.

Every tool the reasoning backend may call is declared here once, with
its parameter names; every parameter is a required string.  The
dispatcher validates arguments against these specs before any handler
runs, and the chat backends export the same specs as function
declarations so the model and the executor can never disagree about the
calling convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class ParamSpec:
    """One named tool parameter: a required string."""

    name: str
    description: str
    enum: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ToolSchema:
    """A tool's name, purpose, and parameter list."""

    name: str
    description: str
    params: tuple[ParamSpec, ...] = field(default_factory=tuple)

    def param_names(self) -> set[str]:
        return {p.name for p in self.params}


TOOL_SCHEMAS: dict[str, ToolSchema] = {
    schema.name: schema
    for schema in (
        ToolSchema(
            name="move_to",
            description=(
                "Walk to a named location on the map. The route is planned "
                "automatically; the result reports the path taken."
            ),
            params=(
                ParamSpec("location", "Identifier of the target location."),
            ),
        ),
        ToolSchema(
            name="grab",
            description=(
                "Pick up a nearby object. Fails if the object is missing, out "
                "of reach, not graspable, or your hand is already full."
            ),
            params=(
                ParamSpec("object", "Identifier of the object to pick up."),
            ),
        ),
        ToolSchema(
            name="place",
            description=(
                "Put the held object into a named furniture slot. Fails if "
                "you hold nothing or the slot is unknown, out of reach, or "
                "occupied."
            ),
            params=(
                ParamSpec("slot", "Name of the target slot."),
            ),
        ),
        ToolSchema(
            name="look_around",
            description=(
                "Describe your surroundings: current location, reachable "
                "neighbor locations, nearby objects, and what you hold."
            ),
        ),
        ToolSchema(
            name="add_to_scratchpad",
            description="Append a short note to your working scratchpad.",
            params=(
                ParamSpec("text", "Text of the note to record."),
            ),
        ),
        ToolSchema(
            name="view_scratchpad",
            description="Read back every note on your working scratchpad.",
        ),
        ToolSchema(
            name="search_memory",
            description=(
                "Search long-term memory for reports of past task executions "
                "similar to a query."
            ),
            params=(
                ParamSpec("query", "Free-text description to match."),
            ),
        ),
        ToolSchema(
            name="end_task",
            description=(
                "Finish the task and file a report. Call exactly once, when "
                "you believe the task is done or cannot be completed."
            ),
            params=(
                ParamSpec(
                    "task_description",
                    "Short restatement of the task you were given.",
                ),
                ParamSpec(
                    "status",
                    "Your own judgement of the outcome.",
                    enum=("succeeded", "failed"),
                ),
                ParamSpec(
                    "action_summary",
                    "One-paragraph report of what you did and what happened.",
                ),
            ),
        ),
    )
}


def function_declarations() -> list[dict[str, Any]]:
    """Export all tool schemas in chat-completions function format."""
    declarations: list[dict[str, Any]] = []
    for schema in TOOL_SCHEMAS.values():
        properties: dict[str, Any] = {}
        for param in schema.params:
            prop: dict[str, Any] = {
                "type": "string",
                "description": param.description,
            }
            if param.enum is not None:
                prop["enum"] = list(param.enum)
            properties[param.name] = prop
        declarations.append(
            {
                "type": "function",
                "function": {
                    "name": schema.name,
                    "description": schema.description,
                    "parameters": {
                        "type": "object",
                        "properties": properties,
                        "required": sorted(schema.param_names()),
                    },
                },
            }
        )
    return declarations
