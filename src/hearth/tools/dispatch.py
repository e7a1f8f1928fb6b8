"""Tool dispatch: validates calls, routes to handlers, templates messages.

This layer is the only interface between the reasoning backend and the
world/memory. It is total: any syntactically valid call produces a
ToolResult, never an exception, so the agent can always read its own
mistake. Messages are templated deterministically; every failure message
carries the violated-condition keyword in parentheses so transcripts are
greppable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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
    name: str
    arguments: dict[str, Any] = field(default_factory=dict)
    call_index: int = 0


@dataclass(frozen=True)
class ToolResult:
    status: str
    message: str
    machine_payload: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "message": self.message,
            "machine_payload": self.machine_payload,
        }


@dataclass
class MemoryHandles:
    """The memory surfaces a task borrows: scratchpad, store, identity."""

    scratchpad: Scratchpad
    store: EpisodicStore
    model_id: str = "unknown"


def success(message: str, **payload: Any) -> ToolResult:
    return ToolResult(STATUS_SUCCESS, message, payload)


def failure(message: str, cause: str, **payload: Any) -> ToolResult:
    payload["cause"] = cause
    return ToolResult(STATUS_FAILURE, message, payload)


def _validate_arguments(schema: ToolSchema, arguments: Any) -> ToolResult | None:
    if not isinstance(arguments, dict):
        return failure(
            f"Tool call failed (invalid-arguments): arguments for "
            f"'{schema.name}' must be an object.",
            cause="invalid-arguments",
        )
    for name in arguments:
        if name not in schema.param_names():
            return failure(
                f"Tool call failed (invalid-arguments): unexpected argument "
                f"'{name}' for '{schema.name}'.",
                cause="invalid-arguments",
                argument=name,
            )
    for param in schema.params:
        if param.name not in arguments:
            return failure(
                f"Tool call failed (invalid-arguments): missing required "
                f"argument '{param.name}' for '{schema.name}'.",
                cause="invalid-arguments",
                argument=param.name,
            )
        value = arguments[param.name]
        if not isinstance(value, str):
            return failure(
                f"Tool call failed (invalid-arguments): argument "
                f"'{param.name}' for '{schema.name}' must be a string, "
                f"got {type(value).__name__}.",
                cause="invalid-arguments",
                argument=param.name,
            )
    return None


def dispatch(call: ToolCall, world: WorldState, mem: MemoryHandles) -> ToolResult:
    """Validate and execute one tool call against the given handles."""
    schema = TOOL_SCHEMAS.get(call.name)
    if schema is None:
        return failure(
            f"Tool call failed (unknown-tool): unknown tool '{call.name}'.",
            cause="unknown-tool",
        )
    problem = _validate_arguments(schema, call.arguments)
    if problem is not None:
        return problem
    handler = _HANDLERS[call.name]
    return handler(call.arguments, world, mem)


def tool_look_around(world: WorldState) -> ToolResult:
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


def tool_move_to(world: WorldState, location: str) -> ToolResult:
    if location == world.agent.location:
        return success(f"Already at {location}.", location=location, hops=0)
    try:
        outcome = execute_move(world, location)
    except UnknownLocationError:
        return failure(
            f"Move failed (unknown-location): unknown location '{location}'.",
            cause="unknown-location",
        )
    if not outcome.ok:
        return failure(
            f"Move failed (no-path): no path available from "
            f"'{world.agent.location}' to '{location}'.",
            cause=outcome.cause or "no-path",
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


def tool_grab(world: WorldState, obj: str) -> ToolResult:
    held_before = world.agent.held
    outcome = attach(world, obj)
    if outcome.ok:
        return success(f"Grabbed {obj}.", object=obj)
    assert outcome.cause is not None
    detail = _GRAB_MESSAGES[outcome.cause].format(obj=obj, held=held_before)
    return failure(
        f"Grab failed ({outcome.cause}): {detail}.", cause=outcome.cause, object=obj
    )


_PLACE_MESSAGES = {
    "not-holding": "not holding an object",
    "no-such-slot": "no slot named '{slot}'",
    "out-of-reach": "slot '{slot}' is out of reach",
    "occupied": "slot '{slot}' is already occupied",
}


def tool_place(world: WorldState, slot: str) -> ToolResult:
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
    assert outcome.cause is not None
    detail = _PLACE_MESSAGES[outcome.cause].format(slot=slot)
    return failure(
        f"Place failed ({outcome.cause}): {detail}.", cause=outcome.cause, slot=slot
    )


def tool_add_to_scratchpad(mem: MemoryHandles, text: str) -> ToolResult:
    try:
        mem.scratchpad.append(text)
    except ValueError:
        return failure(
            "Scratchpad write failed (empty-note): cannot add an empty note.",
            cause="empty-note",
        )
    return success(
        f"Noted. The scratchpad now has {len(mem.scratchpad)} entries.",
        entries=len(mem.scratchpad),
    )


def tool_view_scratchpad(mem: MemoryHandles) -> ToolResult:
    if len(mem.scratchpad) == 0:
        return success("The scratchpad is empty.", entries=0)
    return success(mem.scratchpad.view(), entries=len(mem.scratchpad))


def tool_end_task(
    mem: MemoryHandles, task_description: str, status: str, action_summary: str
) -> ToolResult:
    if status not in BELIEVED_STATUSES:
        return failure(
            f"End-task failed (invalid-status): invalid status '{status}'; "
            f"expected 'succeeded' or 'failed'.",
            cause="invalid-status",
        )
    if not task_description.strip():
        return failure(
            "End-task failed (empty-field): task_description must be non-empty.",
            cause="empty-field",
            argument="task_description",
        )
    if not action_summary.strip():
        return failure(
            "End-task failed (empty-field): action_summary must be non-empty.",
            cause="empty-field",
            argument="action_summary",
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


def tool_search_memory(mem: MemoryHandles, query: str) -> ToolResult:
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
    "look_around": lambda args, world, mem: tool_look_around(world),
    "move_to": lambda args, world, mem: tool_move_to(world, args["location"]),
    "grab": lambda args, world, mem: tool_grab(world, args["object"]),
    "place": lambda args, world, mem: tool_place(world, args["slot"]),
    "add_to_scratchpad": lambda args, world, mem: tool_add_to_scratchpad(
        mem, args["text"]
    ),
    "view_scratchpad": lambda args, world, mem: tool_view_scratchpad(mem),
    "end_task": lambda args, world, mem: tool_end_task(
        mem, args["task_description"], args["status"], args["action_summary"]
    ),
    "search_memory": lambda args, world, mem: tool_search_memory(mem, args["query"]),
}

assert set(_HANDLERS) == set(TOOL_SCHEMAS)
