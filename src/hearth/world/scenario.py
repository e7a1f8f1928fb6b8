"""Scenario files: schema validation, loading, and hashing.

A scenario is a plain JSON document that fully describes a world: the
semantic map, the furniture with their slot counts, the initial object
placements, and the agent's starting pose.  Loading is strict on
purpose; a malformed scenario should fail loudly at startup, not
surface later as a confusing runtime error.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from typing import TYPE_CHECKING, Any

from ..jsonio import read_json_object
from .semantic_map import SemanticMap
from .state import (
    DEFAULT_REACH_RADIUS,
    AgentBody,
    AtLocation,
    Furniture,
    InSlot,
    SimObject,
    WorldState,
    canonical_json,
    validate_state,
)

if TYPE_CHECKING:
    from jsonschema.exceptions import ValidationError
    from jsonschema.protocols import Validator

SCENARIO_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["nodes", "edges", "furniture", "objects", "agent"],
    "additionalProperties": False,
    "properties": {
        "nodes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "x", "y", "room"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "x": {"type": "number"},
                    "y": {"type": "number"},
                    "room": {"type": "string", "minLength": 1},
                },
            },
        },
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["a", "b"],
                "additionalProperties": False,
                "properties": {
                    "a": {"type": "string", "minLength": 1},
                    "b": {"type": "string", "minLength": 1},
                    "cost": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "furniture": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "location", "slot_count"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "location": {"type": "string", "minLength": 1},
                    "slot_count": {"type": "integer", "minimum": 1},
                },
            },
        },
        "objects": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "kind", "graspable", "placement"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "kind": {"type": "string", "minLength": 1},
                    "graspable": {"type": "boolean"},
                    "placement": {
                        "type": "object",
                        "minProperties": 1,
                        "maxProperties": 1,
                        "additionalProperties": False,
                        "properties": {
                            "slot": {"type": "string", "minLength": 1},
                            "location": {"type": "string", "minLength": 1},
                        },
                    },
                },
            },
        },
        "agent": {
            "type": "object",
            "required": ["location"],
            "additionalProperties": False,
            "properties": {
                "location": {"type": "string", "minLength": 1},
                "reach_radius": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}


@cache
def _validator() -> Validator:
    """The scenario schema's validator, compiled on first use: importing
    jsonschema costs about as much as the rest of hearth, and commands
    such as replay never validate a scenario. Compiled once, because
    jsonschema.validate re-checks the schema itself on every call."""
    from jsonschema.validators import validator_for

    return validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


class ScenarioError(ValueError):
    """Raised when a scenario document cannot be turned into a world."""


def _schema_path(error: ValidationError) -> str:
    parts = ["$"]
    for step in error.absolute_path:
        if isinstance(step, int):
            parts.append(f"[{step}]")
        else:
            parts.append(f".{step}")
    return "".join(parts)


def load_scenario(data: dict[str, Any]) -> WorldState:
    """Build a validated WorldState from a scenario document.

    Raises ScenarioError with the offending field named for any schema
    violation, duplicate id, dangling reference, or disconnected map.
    """
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(data))
    if error is not None:
        raise ScenarioError(
            f"schema violation at {_schema_path(error)}: {error.message}"
        ) from error

    smap = SemanticMap()
    for node in data["nodes"]:
        try:
            smap.add_node(node["id"], node["x"], node["y"], node["room"])
        except ValueError as exc:
            raise ScenarioError(f"node '{node['id']}': {exc}") from exc
    for edge in data["edges"]:
        try:
            smap.add_edge(edge["a"], edge["b"], edge.get("cost"))
        except KeyError as exc:
            raise ScenarioError(
                f"edge '{edge['a']}'-'{edge['b']}': unknown node {exc.args[0]!r}"
            ) from exc
        except ValueError as exc:
            raise ScenarioError(f"edge '{edge['a']}'-'{edge['b']}': {exc}") from exc
    if not smap.is_connected():
        raise ScenarioError("disconnected map: every node must be reachable")

    furniture: dict[str, Furniture] = {}
    for spec in data["furniture"]:
        fid = spec["id"]
        if fid in furniture:
            raise ScenarioError(f"duplicate furniture id '{fid}'")
        if spec["location"] not in smap.positions:
            raise ScenarioError(
                f"furniture '{fid}': unknown location '{spec['location']}'"
            )
        furniture[fid] = Furniture(
            id=fid, location=spec["location"], slots=[None] * spec["slot_count"]
        )

    slot_names: dict[str, tuple[str, int]] = {}
    for item in furniture.values():
        for index in range(len(item.slots)):
            slot_names[item.slot_name(index)] = (item.id, index)

    objects: dict[str, SimObject] = {}
    for spec in data["objects"]:
        oid = spec["id"]
        if oid in objects:
            raise ScenarioError(f"duplicate object id '{oid}'")
        if oid in furniture:
            raise ScenarioError(f"object id '{oid}' collides with a furniture id")
        placement = spec["placement"]
        if "slot" in placement:
            name = placement["slot"]
            if name not in slot_names:
                raise ScenarioError(
                    f"object '{oid}': dangling slot reference '{name}'"
                )
            fid, index = slot_names[name]
            if furniture[fid].slots[index] is not None:
                raise ScenarioError(
                    f"object '{oid}': slot '{name}' already holds "
                    f"'{furniture[fid].slots[index]}'"
                )
            furniture[fid].slots[index] = oid
            containment: InSlot | AtLocation = InSlot(fid, index)
        else:
            loc = placement["location"]
            if loc not in smap.positions:
                raise ScenarioError(f"object '{oid}': unknown location '{loc}'")
            containment = AtLocation(loc)
        objects[oid] = SimObject(
            id=oid,
            kind=spec["kind"],
            graspable=spec["graspable"],
            containment=containment,
        )

    agent_spec = data["agent"]
    if agent_spec["location"] not in smap.positions:
        raise ScenarioError(
            f"agent: unknown location '{agent_spec['location']}'"
        )
    agent = AgentBody(
        location=agent_spec["location"],
        held=None,
        reach_radius=agent_spec.get("reach_radius", DEFAULT_REACH_RADIUS),
    )

    state = WorldState(map=smap, furniture=furniture, objects=objects, agent=agent)
    validate_state(state)
    return state


def read_scenario(path: str | None) -> dict[str, Any]:
    """Read a scenario document from a file, or the bundled one for None."""
    if path is None:
        return default_scenario_data()
    return read_json_object(path, "scenario")


def default_scenario_data() -> dict[str, Any]:
    """Return a fresh copy of the bundled two-room household scenario."""
    # Imported here: commands that never read the bundled file (replay,
    # memory) skip the importlib.resources machinery at start-up.
    from importlib import resources

    text = resources.files("hearth.data").joinpath("default_scenario.json").read_text(
        encoding="utf-8"
    )
    return json.loads(text)


def default_scenario() -> WorldState:
    return load_scenario(default_scenario_data())


def scenario_hash(data: dict[str, Any]) -> str:
    """Stable content hash of a scenario document."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()
