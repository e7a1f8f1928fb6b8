"""Kinematic world operations: navigation, proximity sensing, attach/detach.

Every failure is reported as an outcome value, never an exception, and a
failed operation leaves the state untouched (callers rely on failed
outcomes being pure).
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantic_map import shortest_path
from .state import WorldState

# Failure cause keywords. These exact strings appear in tool messages and
# are part of the test contract.
CAUSE_NO_PATH = "no-path"
CAUSE_DOES_NOT_EXIST = "does-not-exist"
CAUSE_OUT_OF_REACH = "out-of-reach"
CAUSE_ALREADY_HOLDING = "already-holding"
CAUSE_NOT_GRASPABLE = "not-graspable"
CAUSE_NOT_HOLDING = "not-holding"
CAUSE_NO_SUCH_SLOT = "no-such-slot"
CAUSE_OCCUPIED = "occupied"


@dataclass
class Outcome:
    """What a world operation did: `cause` names the violated condition
    of a failure and is None on success; a move fills `path`, a detach
    the slot it filled."""

    cause: str | None = None
    path: list[str] | None = None
    furniture_id: str | None = None
    slot_index: int | None = None

    @property
    def ok(self) -> bool:
        return self.cause is None

    @property
    def hops(self) -> int:
        return len(self.path) - 1 if self.path else 0


def execute_move(state: WorldState, goal: str) -> Outcome:
    """Navigate the agent to goal along the cheapest path.

    Advances step_counter by the number of hops. Raises
    UnknownLocationError for a goal that is not on the map; an unreachable
    goal is a plain failure outcome.
    """
    state.map.require(goal)
    path = shortest_path(state.map, state.agent.location, goal)
    if path is None:
        return Outcome(CAUSE_NO_PATH)
    state.agent.location = goal
    state.step_counter += len(path) - 1
    return Outcome(path=path)


def objects_in_proximity(state: WorldState) -> list[tuple[str, str]]:
    """Objects within the agent's reach radius, with placement descriptions.

    A held object sits at the agent's own position, so it is always listed.
    Sorted by object id for deterministic messages.
    """
    nearby = []
    for oid in sorted(state.objects):
        obj = state.objects[oid]
        if state.within_reach(state.object_position(obj)):
            nearby.append((oid, state.describe_placement(obj)))
    return nearby


def attach(state: WorldState, object_id: str) -> Outcome:
    """Attach an object to the agent (grasp by proximity).

    Checks run in a fixed order so the reported cause is deterministic:
    does-not-exist, out-of-reach, already-holding, not-graspable.
    """
    obj = state.objects.get(object_id)
    if obj is None:
        return Outcome(CAUSE_DOES_NOT_EXIST)
    if not state.within_reach(state.object_position(obj)):
        return Outcome(CAUSE_OUT_OF_REACH)
    if state.agent.held is not None:
        return Outcome(CAUSE_ALREADY_HOLDING)
    if not obj.graspable:
        return Outcome(CAUSE_NOT_GRASPABLE)

    c = obj.containment
    if c["kind"] == "slot":
        state.furniture[c["furniture"]].slots[c["slot"]] = None
    obj.containment = {"kind": "held"}
    state.agent.held = object_id
    return Outcome()


def detach_at(state: WorldState, slot_name: str) -> Outcome:
    """Release the held object into a named slot.

    Violations are reported in the fixed order: not-holding, no-such-slot,
    out-of-reach, occupied.
    """
    if state.agent.held is None:
        return Outcome(CAUSE_NOT_HOLDING)
    found = state.find_slot(slot_name)
    if found is None:
        return Outcome(CAUSE_NO_SUCH_SLOT)
    furn, index = found
    if not state.within_reach(state.map.positions[furn.location]):
        return Outcome(CAUSE_OUT_OF_REACH)
    if furn.slots[index] is not None:
        return Outcome(CAUSE_OCCUPIED)

    object_id = state.agent.held
    furn.slots[index] = object_id
    state.objects[object_id].containment = {"kind": "slot", "furniture": furn.id, "slot": index}
    state.agent.held = None
    return Outcome(furniture_id=furn.id, slot_index=index)
