"""World state: furniture with slots, objects, the agent body, snapshots.

The world is the single source of ground truth. Nothing here talks to the
agent; observation happens through the tool layer, and the evaluation
harness reads immutable snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

# canonical_json, the world's bit-exact serialization, is taken from here.
from ..jsonio import canonical_json, from_json, read_field, read_object
from .semantic_map import SemanticMap, finite

DEFAULT_REACH_RADIUS = 1.5


@dataclass
class Furniture:
    """A supporting surface at a map node, with single-occupancy slots."""

    id: str
    location: str
    slots: list[str | None]

    def slot_name(self, index: int) -> str:
        return slot_name(self.id, index)


def slot_name(furniture_id: str, index: int) -> str:
    """The name tools and scenarios give a furniture's slot `index`."""
    return f"{furniture_id}_layer_{index + 1}"


@dataclass
class SimObject:
    """A movable object. `containment` is its snapshot entry:
    `{"kind": "slot", "furniture": ID, "slot": INDEX}`, `{"kind": "held"}`
    or `{"kind": "loose", "location": NODE}`. An entry is never changed in
    place; a move assigns a fresh one."""

    id: str
    kind: str
    graspable: bool
    containment: dict[str, Any]


def _read_containment(entry: dict[str, Any]) -> dict[str, Any]:
    """A containment entry read from a world dict, with only its kind's
    keys; raises for an unknown kind or a key of the wrong type."""
    kind = entry["kind"]
    if kind == "slot":
        return {"kind": kind, "furniture": read_field(entry, "furniture", str),
                "slot": read_field(entry, "slot", int)}
    if kind == "held":
        return {"kind": kind}
    if kind == "loose":
        return {"kind": kind, "location": read_field(entry, "location", str)}
    raise ValueError(f"unknown containment kind '{kind}'")


@dataclass
class AgentBody:
    location: str
    held: str | None
    reach_radius: float


@dataclass
class WorldState:
    map: SemanticMap
    furniture: dict[str, Furniture] = field(default_factory=dict)
    objects: dict[str, SimObject] = field(default_factory=dict)
    agent: AgentBody = field(
        default_factory=lambda: AgentBody("", None, DEFAULT_REACH_RADIUS))
    step_counter: int = 0

    def find_slot(self, slot_name: str) -> tuple[Furniture, int] | None:
        for furn in self.furniture.values():
            for index in range(len(furn.slots)):
                if furn.slot_name(index) == slot_name:
                    return furn, index
        return None

    def agent_position(self) -> tuple[float, float]:
        return self.map.positions[self.agent.location]

    def object_position(self, obj: SimObject) -> tuple[float, float]:
        c = obj.containment
        if c["kind"] == "slot":
            return self.map.positions[self.furniture[c["furniture"]].location]
        if c["kind"] == "held":
            return self.agent_position()
        return self.map.positions[c["location"]]

    def within_reach(self, position: tuple[float, float]) -> bool:
        return math.dist(self.agent_position(), position) <= self.agent.reach_radius

    def describe_placement(self, obj: SimObject) -> str:
        """Human-readable placement, e.g. 'mug on shelf layer 2'."""
        c = obj.containment
        if c["kind"] == "slot":
            return f"{obj.id} on {c['furniture']} layer {c['slot'] + 1}"
        if c["kind"] == "held":
            return f"{obj.id} held by agent"
        return f"{obj.id} at {c['location']}"

    def to_dict(self) -> dict:
        return {
            "map": self.map.to_dict(),
            "furniture": [
                {"id": f.id, "location": f.location, "slots": list(f.slots)}
                for f in sorted(self.furniture.values(), key=lambda f: f.id)
            ],
            "objects": [
                {"id": o.id, "kind": o.kind, "graspable": o.graspable,
                 "containment": dict(o.containment)}
                for o in sorted(self.objects.values(), key=lambda o: o.id)
            ],
            "agent": {
                "location": self.agent.location,
                "held": self.agent.held,
                "reach_radius": self.agent.reach_radius,
            },
            "step_counter": self.step_counter,
        }

    @classmethod
    def from_dict(cls, data: dict) -> WorldState:
        """Rebuild a world from `to_dict()` output; raises ValueError when
        `data` is not a valid world, as in a hand-edited file, including a
        value of the wrong JSON type."""
        try:
            state = cls(map=SemanticMap.from_dict(read_object(data["map"], "map")))
            for f in data["furniture"]:
                furniture = from_json(Furniture, read_object(f, "furniture entry"))
                if furniture.id in state.furniture:
                    raise InvariantViolation(f"duplicate furniture id '{furniture.id}'")
                state.furniture[furniture.id] = furniture
            for o in data["objects"]:
                obj = from_json(SimObject, read_object(o, "object entry"))
                obj.containment = _read_containment(obj.containment)
                if obj.id in state.objects:
                    raise InvariantViolation(f"duplicate object id '{obj.id}'")
                state.objects[obj.id] = obj
            state.agent = from_json(AgentBody, read_object(data["agent"], "agent"))
            finite(state.agent.reach_radius, "reach_radius")
            state.step_counter = read_field(data, "step_counter", int)
            validate_state(state)
        except (
            LookupError, TypeError, ValueError, AttributeError, InvariantViolation
        ) as exc:
            raise ValueError(f"malformed world: {type(exc).__name__}: {exc}") from exc
        return state


def snapshot(state: WorldState) -> dict:
    """Ground-truth snapshot of containment facts and agent state.

    Consumed only by the evaluation harness; the agent never sees it.
    """
    return {
        "step_counter": state.step_counter,
        "agent": {"location": state.agent.location, "held": state.agent.held},
        "objects": {
            oid: dict(obj.containment)
            for oid, obj in sorted(state.objects.items())
        },
    }


class InvariantViolation(AssertionError):
    """The world state broke one of its structural invariants."""


def validate_state(state: WorldState) -> None:
    """Check all structural invariants; raises InvariantViolation."""
    def check(cond: bool, msg: str) -> None:
        if not cond:
            raise InvariantViolation(msg)

    smap = state.map
    check(state.step_counter >= 0, "negative step counter")
    check(state.agent.reach_radius > 0,
          f"reach_radius {state.agent.reach_radius!r} is not positive")
    check(state.agent.location in smap.positions,
          f"agent at unknown location '{state.agent.location}'")

    for furn in state.furniture.values():
        check(furn.location in smap.positions,
              f"furniture '{furn.id}' at unknown location '{furn.location}'")
        for index, occupant in enumerate(furn.slots):
            if occupant is None:
                continue
            obj = state.objects.get(occupant)
            check(obj is not None,
                  f"slot {furn.slot_name(index)} holds unknown object '{occupant}'")
            check(obj.containment == {"kind": "slot", "furniture": furn.id, "slot": index},
                  f"slot {furn.slot_name(index)} and object '{occupant}' disagree")

    held_objects = []
    for obj in state.objects.values():
        c = obj.containment
        if c["kind"] == "slot":
            furn = state.furniture.get(c["furniture"])
            check(furn is not None,
                  f"object '{obj.id}' references unknown furniture '{c['furniture']}'")
            check(0 <= c["slot"] < len(furn.slots),
                  f"object '{obj.id}' references slot index {c['slot']} out of range")
            check(furn.slots[c["slot"]] == obj.id,
                  f"object '{obj.id}' not registered in its slot")
        elif c["kind"] == "held":
            held_objects.append(obj.id)
        else:
            check(c["location"] in smap.positions,
                  f"object '{obj.id}' at unknown location '{c['location']}'")

    check(len(held_objects) <= 1, f"multiple held objects: {held_objects}")
    if held_objects:
        check(state.agent.held == held_objects[0],
              "held object does not match agent.held")
    else:
        check(state.agent.held is None,
              f"agent.held '{state.agent.held}' references no held object")
