"""Tool dispatch: validates calls, routes to handlers, templates messages.

This layer is the only interface between the reasoning backend and the
world/memory. It is total: any syntactically valid call produces a
ToolResult, never an exception, so the agent can always read its own
mistake. Messages are templated deterministically; every failure message
carries the violated-condition keyword in parentheses so transcripts are
greppable.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Container

from ..memory.episodic import BELIEVED_STATUSES, EpisodicStore
from ..memory.scratchpad import Scratchpad
from ..world.actions import (
    attach,
    detach_at,
    execute_move,
    objects_in_proximity,
)
from ..world.semantic_map import UnknownLocationError
from ..world.state import WorldState
from .schemas import TOOL_SCHEMAS, ToolSchema

STATUS_SUCCESS = "success"
STATUS_FAILURE = "failure"


@dataclass(frozen=True)
class ToolCall:
    """One proposed call, from the backend that proposes it to dispatch;
    `id` links the call to the tool message that answers it."""

    name: str
    arguments: dict[str, Any] = field(default_factory=dict)
    id: str = ""


@dataclass(frozen=True)
class ToolResult:
    status: str
    message: str
    machine_payload: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS

    def to_dict(self) -> dict[str, Any]:
        return dict(vars(self))


@dataclass
class MemoryHandles:
    """The memory surfaces a task borrows: scratchpad, store, identity."""

    scratchpad: Scratchpad
    store: EpisodicStore
    model_id: str = "unknown"


def success(message: str, **payload: Any) -> ToolResult:
    return ToolResult(STATUS_SUCCESS, message, payload)


def failure(action: str, cause: str, detail: str, **payload: Any) -> ToolResult:
    """A failed result whose message is `"{action} failed ({cause}): {detail}."`
    and whose payload carries the same `cause`."""
    payload["cause"] = cause
    return ToolResult(STATUS_FAILURE, f"{action} failed ({cause}): {detail}.", payload)


def _validate_arguments(schema: ToolSchema, arguments: Any) -> ToolResult | None:
    if not isinstance(arguments, dict):
        return failure(
            "Tool call", "invalid-arguments",
            f"arguments for '{schema.name}' must be an object",
        )
    for name in arguments:
        if name not in schema.param_names():
            return failure(
                "Tool call", "invalid-arguments",
                f"unexpected argument '{name}' for '{schema.name}'",
                argument=name,
            )
    for param in schema.params:
        if param.name not in arguments:
            return failure(
                "Tool call", "invalid-arguments",
                f"missing required argument '{param.name}' for '{schema.name}'",
                argument=param.name,
            )
        value = arguments[param.name]
        if not isinstance(value, str):
            return failure(
                "Tool call", "invalid-arguments",
                f"argument '{param.name}' for '{schema.name}' must be a string, "
                f"got {type(value).__name__}",
                argument=param.name,
            )
    return None


def dispatch(
    call: ToolCall,
    world: WorldState,
    mem: MemoryHandles,
    offered: Container[str] = TOOL_SCHEMAS,
) -> ToolResult:
    """Validate and execute one tool call against the given handles; a
    call to a tool not `offered` fails as a call to an unknown tool."""
    schema = TOOL_SCHEMAS.get(call.name) if call.name in offered else None
    if schema is None:
        return failure("Tool call", "unknown-tool", f"unknown tool '{call.name}'")
    problem = _validate_arguments(schema, call.arguments)
    if problem is not None:
        return problem
    return _HANDLERS[call.name](world, mem, **call.arguments)


def tool_look_around(world: WorldState, mem: MemoryHandles) -> ToolResult:
    loc = world.agent.location
    room = world.map.rooms[loc]
    neighbor_bits = [
        f"{node} (cost {cost:g})" for node, cost in world.map.neighbors(loc)
    ]
    parts = [f"You are at {loc} in room {room}."]
    if neighbor_bits:
        parts.append("Reachable locations: " + ", ".join(neighbor_bits) + ".")
    else:
        parts.append("No locations are reachable from here.")
    nearby = objects_in_proximity(world)
    if nearby:
        parts.append(
            "You can see: " + "; ".join(desc for _, desc in nearby) + "."
        )
    else:
        parts.append("No objects are nearby.")
    if world.agent.held is not None:
        parts.append(f"You are holding: {world.agent.held}.")
    else:
        parts.append("You are not holding anything.")
    return success(
        " ".join(parts),
        location=loc,
        room=room,
        nearby=[oid for oid, _ in nearby],
        held=world.agent.held,
    )


def tool_move_to(world: WorldState, mem: MemoryHandles, location: str) -> ToolResult:
    if location == world.agent.location:
        return success(f"Already at {location}.", location=location, hops=0)
    try:
        outcome = execute_move(world, location)
    except UnknownLocationError:
        return failure("Move", "unknown-location", f"unknown location '{location}'")
    if not outcome.ok:
        return failure(
            "Move", outcome.cause,
            f"no path available from '{world.agent.location}' to '{location}'",
        )
    assert outcome.path is not None
    route = " -> ".join(outcome.path)
    return success(
        f"Moved to {location} in {outcome.hops} hops via {route}.",
        location=location,
        hops=outcome.hops,
        path=outcome.path,
    )


_GRAB_MESSAGES = {
    "does-not-exist": "target object does not exist: '{obj}'",
    "out-of-reach": "'{obj}' is out of reach",
    "already-holding": "already holding '{held}'",
    "not-graspable": "'{obj}' cannot be grasped",
}


def tool_grab(world: WorldState, mem: MemoryHandles, object: str) -> ToolResult:
    held_before = world.agent.held
    outcome = attach(world, object)
    if outcome.ok:
        return success(f"Grabbed {object}.", object=object)
    detail = _GRAB_MESSAGES[outcome.cause].format(obj=object, held=held_before)
    return failure("Grab", outcome.cause, detail, object=object)


_PLACE_MESSAGES = {
    "not-holding": "not holding an object",
    "no-such-slot": "no slot named '{slot}'",
    "out-of-reach": "slot '{slot}' is out of reach",
    "occupied": "slot '{slot}' is already occupied",
}


def tool_place(world: WorldState, mem: MemoryHandles, slot: str) -> ToolResult:
    held_before = world.agent.held
    outcome = detach_at(world, slot)
    if outcome.ok:
        assert outcome.furniture_id is not None and outcome.slot_index is not None
        layer = outcome.slot_index + 1
        return success(
            f"Placed {held_before} on {outcome.furniture_id} layer {layer}.",
            object=held_before,
            slot=slot,
        )
    detail = _PLACE_MESSAGES[outcome.cause].format(slot=slot)
    return failure("Place", outcome.cause, detail, slot=slot)


def tool_add_to_scratchpad(
    world: WorldState, mem: MemoryHandles, text: str
) -> ToolResult:
    try:
        mem.scratchpad.append(text)
    except ValueError:
        return failure("Scratchpad write", "empty-note", "cannot add an empty note")
    return success(
        f"Noted. The scratchpad now has {len(mem.scratchpad)} entries.",
        entries=len(mem.scratchpad),
    )


def tool_view_scratchpad(world: WorldState, mem: MemoryHandles) -> ToolResult:
    if len(mem.scratchpad) == 0:
        return success("The scratchpad is empty.", entries=0)
    return success(mem.scratchpad.view(), entries=len(mem.scratchpad))


def tool_end_task(
    world: WorldState,
    mem: MemoryHandles,
    task_description: str,
    status: str,
    action_summary: str,
) -> ToolResult:
    if status not in BELIEVED_STATUSES:
        return failure(
            "End-task", "invalid-status",
            f"invalid status '{status}'; expected 'succeeded' or 'failed'",
        )
    for name, value in (
        ("task_description", task_description), ("action_summary", action_summary)
    ):
        if not value.strip():
            return failure(
                "End-task", "empty-field", f"{name} must be non-empty", argument=name
            )
    record_id = mem.store.add(
        task_description=task_description,
        believed_status=status,
        action_summary=action_summary,
        model_id=mem.model_id,
    )
    return success(
        f"Task report recorded (status: {status}). Ending task.",
        terminates=True,
        believed_status=status,
        record_id=record_id,
    )


def tool_search_memory(world: WorldState, mem: MemoryHandles, query: str) -> ToolResult:
    results = mem.store.search(query)
    if not results:
        return success("Found no relevant memories.", results=[])
    lines = [f"Found {len(results)} relevant memories:"]
    payload = []
    for rank, (record, similarity) in enumerate(results, start=1):
        lines.append(
            f"{rank}. (believed {record.believed_status}, similarity "
            f"{similarity:.2f}) {record.task_description} -- "
            f"{record.action_summary}"
        )
        payload.append({"id": record.id, "similarity": similarity})
    return success("\n".join(lines), results=payload)


_HANDLERS = {
    "look_around": tool_look_around,
    "move_to": tool_move_to,
    "grab": tool_grab,
    "place": tool_place,
    "add_to_scratchpad": tool_add_to_scratchpad,
    "view_scratchpad": tool_view_scratchpad,
    "end_task": tool_end_task,
    "search_memory": tool_search_memory,
}

# Dispatch passes a call's arguments as keywords after world and mem.
_TAKES = {name: list(inspect.signature(h).parameters)[2:] for name, h in _HANDLERS.items()}
if _TAKES != {name: [p.name for p in s.params] for name, s in TOOL_SCHEMAS.items()}:
    raise TypeError("each tool handler must take its schema's parameters, in order")
