"""Tool dispatch: declares the tools, validates calls, and runs each tool.

This layer is the only interface between the reasoning backend and the
world/memory. Each tool is declared once, in the chat-completions form
the backend is sent, and an import-time check ties each declaration to
its handler's parameters, so the model and the executor cannot disagree
about how a tool is called. Dispatch is total: any syntactically valid
call produces a ToolResult, never an exception, so the agent can always
read its own mistake.

Each handler owns its tool's contract: it checks the preconditions in a
fixed order, words the first one violated as its failure, and changes
the world only after every check has passed, so a failed call leaves the
world untouched. Every failure message carries the violated-condition
keyword in parentheses so transcripts are greppable.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Container

from ..memory.episodic import BELIEVED_STATUSES, EpisodicStore
from ..memory.scratchpad import Scratchpad
from ..world.actions import execute_move, objects_in_proximity
from ..world.state import WorldState

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
    if location not in world.map.positions:
        return failure("Move", "unknown-location", f"unknown location '{location}'")
    path = execute_move(world, location)
    if path is None:
        return failure(
            "Move", "no-path",
            f"no path available from '{world.agent.location}' to '{location}'",
        )
    hops = len(path) - 1
    return success(
        f"Moved to {location} in {hops} hops via {' -> '.join(path)}.",
        location=location,
        hops=hops,
        path=path,
    )


def tool_grab(world: WorldState, mem: MemoryHandles, object: str) -> ToolResult:
    obj = world.objects.get(object)
    if obj is None:
        return failure(
            "Grab", "does-not-exist", f"target object does not exist: '{object}'",
            object=object,
        )
    if not world.within_reach(world.object_position(obj)):
        return failure("Grab", "out-of-reach", f"'{object}' is out of reach", object=object)
    if world.agent.held is not None:
        return failure(
            "Grab", "already-holding", f"already holding '{world.agent.held}'",
            object=object,
        )
    if not obj.graspable:
        return failure("Grab", "not-graspable", f"'{object}' cannot be grasped", object=object)
    c = obj.containment
    if c["kind"] == "slot":
        world.furniture[c["furniture"]].slots[c["slot"]] = None
    obj.containment = {"kind": "held"}
    world.agent.held = object
    return success(f"Grabbed {object}.", object=object)


def tool_place(world: WorldState, mem: MemoryHandles, slot: str) -> ToolResult:
    held = world.agent.held
    if held is None:
        return failure("Place", "not-holding", "not holding an object", slot=slot)
    found = world.find_slot(slot)
    if found is None:
        return failure("Place", "no-such-slot", f"no slot named '{slot}'", slot=slot)
    furn, index = found
    if not world.within_reach(world.map.positions[furn.location]):
        return failure("Place", "out-of-reach", f"slot '{slot}' is out of reach", slot=slot)
    if furn.slots[index] is not None:
        return failure("Place", "occupied", f"slot '{slot}' is already occupied", slot=slot)
    furn.slots[index] = held
    world.objects[held].containment = {"kind": "slot", "furniture": furn.id, "slot": index}
    world.agent.held = None
    return success(f"Placed {held} on {furn.id} layer {index + 1}.", object=held, slot=slot)


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


def _string(description: str, **extra: Any) -> dict[str, Any]:
    return {"type": "string", "description": description, **extra}


def _declare(name: str, description: str, **params: dict[str, Any]) -> dict[str, Any]:
    """A tool's chat-completions declaration; every parameter is required."""
    return {
        "type": "function",
        "function": {
            "name": name,
            "description": description,
            "parameters": {
                "type": "object",
                "properties": params,
                "required": sorted(params),
            },
        },
    }


# What the backend is offered, in this order: each tool's declaration,
# exactly as it goes on the wire.
TOOL_SCHEMAS: dict[str, dict[str, Any]] = {
    declaration["function"]["name"]: declaration
    for declaration in (
        _declare(
            "move_to",
            "Walk to a named location on the map. The route is planned "
            "automatically; the result reports the path taken.",
            location=_string("Identifier of the target location."),
        ),
        _declare(
            "grab",
            "Pick up a nearby object. Fails if the object is missing, out "
            "of reach, not graspable, or your hand is already full.",
            object=_string("Identifier of the object to pick up."),
        ),
        _declare(
            "place",
            "Put the held object into a named furniture slot. Fails if "
            "you hold nothing or the slot is unknown, out of reach, or "
            "occupied.",
            slot=_string("Name of the target slot."),
        ),
        _declare(
            "look_around",
            "Describe your surroundings: current location, reachable "
            "neighbor locations, nearby objects, and what you hold.",
        ),
        _declare(
            "add_to_scratchpad",
            "Append a short note to your working scratchpad.",
            text=_string("Text of the note to record."),
        ),
        _declare(
            "view_scratchpad",
            "Read back every note on your working scratchpad.",
        ),
        _declare(
            "search_memory",
            "Search long-term memory for reports of past task executions "
            "similar to a query.",
            query=_string("Free-text description to match."),
        ),
        _declare(
            "end_task",
            "Finish the task and file a report. Call exactly once, when "
            "you believe the task is done or cannot be completed.",
            task_description=_string("Short restatement of the task you were given."),
            status=_string(
                "Your own judgement of the outcome.", enum=list(BELIEVED_STATUSES)
            ),
            action_summary=_string(
                "One-paragraph report of what you did and what happened."
            ),
        ),
    )
}

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
if _TAKES != {
    name: list(d["function"]["parameters"]["properties"])
    for name, d in TOOL_SCHEMAS.items()
}:
    raise TypeError("each tool handler must take its declaration's parameters, in order")


def _validate_arguments(
    name: str, params: list[str], arguments: Any
) -> ToolResult | None:
    if not isinstance(arguments, dict):
        return failure(
            "Tool call", "invalid-arguments",
            f"arguments for '{name}' must be an object",
        )
    for arg in arguments:
        if arg not in params:
            return failure(
                "Tool call", "invalid-arguments",
                f"unexpected argument '{arg}' for '{name}'",
                argument=arg,
            )
    for param in params:
        if param not in arguments:
            return failure(
                "Tool call", "invalid-arguments",
                f"missing required argument '{param}' for '{name}'",
                argument=param,
            )
        value = arguments[param]
        if not isinstance(value, str):
            return failure(
                "Tool call", "invalid-arguments",
                f"argument '{param}' for '{name}' must be a string, "
                f"got {type(value).__name__}",
                argument=param,
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
    params = _TAKES.get(call.name) if call.name in offered else None
    if params is None:
        return failure("Tool call", "unknown-tool", f"unknown tool '{call.name}'")
    problem = _validate_arguments(call.name, params, call.arguments)
    if problem is not None:
        return problem
    return _HANDLERS[call.name](world, mem, **call.arguments)
