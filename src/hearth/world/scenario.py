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
from typing import Any, Callable

from ..jsonio import read_json_object
from .state import DEFAULT_REACH_RADIUS, WorldState, canonical_json, slot_name

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
                    "slot_count": {"type": "integer", "minimum": 1, "maximum": 1000},
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


# Whether a value is of each JSON type, told by the Python types that
# `json.loads` gives: a bool is not a number. `integer` also takes an
# integral float such as 2.0, as jsonschema does; an int is never made a
# float, which would overflow for one above about 1e308.
_JSON_TYPES: dict[str, Callable[[Any], bool]] = {
    "object": lambda v: type(v) is dict,
    "array": lambda v: type(v) is list,
    "string": lambda v: type(v) is str,
    "number": lambda v: type(v) in (int, float),
    "integer": lambda v: type(v) is int or (type(v) is float and v.is_integer()),
    "boolean": lambda v: type(v) is bool,
}

# The bound keywords: the type of value each applies to, whether a value
# breaks the bound `n`, and jsonschema's words after the value's repr.
_BOUNDS: dict[str, tuple[str, Callable[[Any, Any], bool], Callable[[Any], str]]] = {
    "minItems": ("array", lambda v, n: len(v) < n,
                 lambda n: "should be non-empty" if n == 1 else "is too short"),
    "minLength": ("string", lambda v, n: len(v) < n,
                  lambda n: "should be non-empty" if n == 1 else "is too short"),
    "minProperties": ("object", lambda v, n: len(v) < n, lambda n: (
        "should be non-empty" if n == 1 else "does not have enough properties")),
    "maxProperties": ("object", lambda v, n: len(v) > n, lambda n: (
        "is expected to be empty" if n == 0 else "has too many properties")),
    "minimum": ("number", lambda v, n: v < n,
                lambda n: f"is less than the minimum of {n!r}"),
    "maximum": ("number", lambda v, n: v > n,
                lambda n: f"is greater than the maximum of {n!r}"),
    "exclusiveMinimum": ("number", lambda v, n: v <= n,
                         lambda n: f"is less than or equal to the minimum of {n!r}"),
}


def _violations(
    value: Any, schema: dict[str, Any], path: tuple[Any, ...],
    found: list[tuple[tuple[Any, ...], str]],
) -> None:
    """Append (path, message) to `found` for each keyword of `schema` that
    `value` breaks, in the order jsonschema's `iter_errors` yields them
    and worded as it words them. Raises, rather than guess, on a keyword
    or a form of one that SCENARIO_SCHEMA does not use. A list, not a
    generator: the walk visits every value of a scenario, and a generator
    per value would cost more than the checks."""
    for keyword, argument in schema.items():
        if keyword == "type":
            if not _JSON_TYPES[argument](value):
                found.append((path, f"{value!r} is not of type {argument!r}"))
        elif keyword == "properties":
            if type(value) is dict:
                for key, sub in argument.items():
                    if key in value:
                        _violations(value[key], sub, path + (key,), found)
        elif keyword == "items":
            if type(value) is list:
                for index, item in enumerate(value):
                    _violations(item, argument, path + (index,), found)
        elif keyword == "required":
            if type(value) is dict:
                for key in argument:
                    if key not in value:
                        found.append((path, f"{key!r} is a required property"))
        elif keyword == "additionalProperties" and argument is False:
            known = schema.get("properties", {}).keys()
            if type(value) is dict and not value.keys() <= known:
                extras = sorted(value.keys() - known)
                verb = "was" if len(extras) == 1 else "were"
                found.append((path, f"Additional properties are not allowed "
                              f"({', '.join(map(repr, extras))} {verb} unexpected)"))
        else:
            kind, breaks, words = _BOUNDS[keyword]
            if _JSON_TYPES[kind](value) and breaks(value, argument):
                found.append((path, f"{value!r} {words(argument)}"))


def _schema_error(data: Any) -> str | None:
    """The error text `jsonschema.validate` gives for `data` against
    SCENARIO_SCHEMA, or None where `data` passes. The violation chosen is
    the one jsonschema's `best_match` chooses: the shortest path, then the
    greatest, then the first found. The rest of its `relevance` key ties
    here: the errors at one path are one value's against one subschema."""
    found: list[tuple[tuple[Any, ...], str]] = []
    _violations(data, SCENARIO_SCHEMA, (), found)
    if not found:
        return None
    path, message = max(found, key=lambda error: (-len(error[0]), error[0]))
    steps = "".join(f"[{step}]" if type(step) is int else f".{step}" for step in path)
    return f"schema violation at ${steps}: {message}"


class ScenarioError(ValueError):
    """Raised when a scenario document cannot be turned into a world."""


def load_scenario(data: dict[str, Any]) -> WorldState:
    """Build a validated WorldState from a scenario document, rewritten
    into the world form `WorldState.to_dict` writes and read by
    `WorldState.from_dict`. Only what that form cannot express is checked
    here: a dangling or doubly seeded slot, an object id that is a
    furniture id, and a disconnected map.

    The document is checked against SCENARIO_SCHEMA by `_schema_error`,
    an in-tree walk of the keywords the schema uses, which words the
    error as jsonschema would.

    Raises ScenarioError naming the offending field or id.
    """
    error = _schema_error(data)
    if error is not None:
        raise ScenarioError(error)

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
