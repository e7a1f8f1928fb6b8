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
from typing import TYPE_CHECKING, Any, Callable

from ..jsonio import read_json_object
from .state import DEFAULT_REACH_RADIUS, WorldState, canonical_json, slot_name

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


# The Python types of the JSON values each `type` takes, matched exactly:
# a bool is not a number, and an integral float such as 2.0 is not an
# integer here (jsonschema, which takes it, decides such a document).
_JSON_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "number": (int, float),
    "integer": (int,),
    "boolean": (bool,),
}

# The keywords `_conforms` knows: each takes the value, the keyword's
# argument and the schema it sits in, and answers True only where
# jsonschema passes the value on that keyword. A keyword met on a value
# of a type it does not apply to answers False.
_KEYWORDS: dict[str, Callable[[Any, Any, dict[str, Any]], bool]] = {
    "type": lambda value, name, _: type(value) in _JSON_TYPES.get(name, ()),
    "required": lambda value, keys, _: (
        type(value) is dict and all(key in value for key in keys)
    ),
    "properties": lambda value, subs, _: type(value) is dict and all(
        key not in value or _conforms(value[key], sub) for key, sub in subs.items()
    ),
    "additionalProperties": lambda value, allowed, schema: (
        allowed is False
        and type(value) is dict
        and value.keys() <= schema.get("properties", {}).keys()
    ),
    "items": lambda value, sub, _: (
        type(value) is list and type(sub) is dict
        and all(_conforms(item, sub) for item in value)
    ),
    "minItems": lambda value, low, _: type(value) is list and len(value) >= low,
    "minLength": lambda value, low, _: type(value) is str and len(value) >= low,
    "minimum": lambda value, low, _: type(value) in (int, float) and value >= low,
    "exclusiveMinimum": lambda value, low, _: type(value) in (int, float) and value > low,
    "minProperties": lambda value, low, _: type(value) is dict and len(value) >= low,
    "maxProperties": lambda value, high, _: type(value) is dict and len(value) <= high,
}


def _conforms(value: Any, schema: dict[str, Any]) -> bool:
    """Whether `value` passes `schema`, told without jsonschema. One-sided:
    True only where jsonschema passes it too; False for a keyword not in
    `_KEYWORDS`, and for whatever the check leaves to jsonschema."""
    for keyword, argument in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is None or not check(value, argument, schema):
            return False
    return True


def _schema_error(data: Any) -> ValidationError | None:
    """The error jsonschema's `best_match` picks for `data` against
    SCENARIO_SCHEMA, or None where `data` passes. jsonschema is imported
    only for a document `_conforms` refuses: it then names the error or
    passes the document."""
    if _conforms(data, SCENARIO_SCHEMA):
        return None
    from jsonschema.exceptions import best_match

    return best_match(_validator().iter_errors(data))


@cache
def _validator() -> Validator:
    """The scenario schema's validator, compiled on first use: importing
    jsonschema costs about as much as the rest of hearth, and a document
    that `_conforms` passes never needs it. Compiled once, because
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
    """Build a validated WorldState from a scenario document, rewritten
    into the world form `WorldState.to_dict` writes and read by
    `WorldState.from_dict`. Only what that form cannot express is checked
    here: a dangling or doubly seeded slot, an object id that is a
    furniture id, and a disconnected map.

    The document is checked against SCENARIO_SCHEMA by `_conforms`;
    jsonschema is imported only to name the error in a document that
    check refuses, or to pass one it cannot tell.

    Raises ScenarioError naming the offending field or id.
    """
    error = _schema_error(data)
    if error is not None:
        raise ScenarioError(
            f"schema violation at {_schema_path(error)}: {error.message}"
        ) from error

    # A repeated furniture id is from_dict's to name; objects are seeded
    # into the slots of its first entry.
    slots: dict[str, list[str | None]] = {}
    for spec in data["furniture"]:
        slots.setdefault(spec["id"], [None] * int(spec["slot_count"]))
    slot_names = {
        slot_name(fid, index): (fid, index)
        for fid, held in slots.items()
        for index in range(len(held))
    }
    objects = []
    for spec in data["objects"]:
        oid = spec["id"]
        if oid in slots:
            raise ScenarioError(f"object id '{oid}' collides with a furniture id")
        placement = spec["placement"]
        if "slot" in placement:
            name = placement["slot"]
            if name not in slot_names:
                raise ScenarioError(
                    f"object '{oid}': dangling slot reference '{name}'"
                )
            fid, index = slot_names[name]
            if slots[fid][index] is not None:
                raise ScenarioError(
                    f"object '{oid}': slot '{name}' already holds "
                    f"'{slots[fid][index]}'"
                )
            slots[fid][index] = oid
            containment = {"kind": "slot", "furniture": fid, "slot": index}
        else:
            containment = {"kind": "loose", "location": placement["location"]}
        objects.append({**spec, "containment": containment})

    try:
        state = WorldState.from_dict({
            "map": {"nodes": data["nodes"], "edges": data["edges"]},
            "furniture": [
                {**spec, "slots": slots[spec["id"]]} for spec in data["furniture"]
            ],
            "objects": objects,
            "agent": {"held": None, "reach_radius": DEFAULT_REACH_RADIUS, **data["agent"]},
            "step_counter": 0,
        })
    except ValueError as exc:
        # The check's own text, without the `malformed world: KIND:` prefix.
        raise ScenarioError(str(exc.__cause__)) from exc.__cause__
    if not state.map.is_connected():
        raise ScenarioError("disconnected map: every node must be reachable")
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
