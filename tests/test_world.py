"""World layer: scenario loading, state invariants, kinematic actions."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hearth.world.actions import (
    CAUSE_ALREADY_HOLDING,
    CAUSE_DOES_NOT_EXIST,
    CAUSE_NO_PATH,
    CAUSE_NO_SUCH_SLOT,
    CAUSE_NOT_GRASPABLE,
    CAUSE_NOT_HOLDING,
    CAUSE_OCCUPIED,
    CAUSE_OUT_OF_REACH,
    attach,
    detach_at,
    execute_move,
    objects_in_proximity,
)
from hearth.world.scenario import (
    SCENARIO_SCHEMA,
    ScenarioError,
    _schema_error,
    _violations,
    default_scenario,
    default_scenario_data,
    load_scenario,
    scenario_hash,
)
from hearth.world.semantic_map import SemanticMap, shortest_path
from hearth.world.state import (
    InvariantViolation,
    WorldState,
    canonical_json,
    snapshot,
    validate_state,
)

from .oracles import hand_built_load_scenario, validate_error


def tiny_scenario(**overrides):
    """A minimal valid scenario document, tweakable per test."""
    data = {
        "nodes": [
            {"id": "a", "x": 0.0, "y": 0.0, "room": "left"},
            {"id": "b", "x": 2.0, "y": 0.0, "room": "right"},
        ],
        "edges": [{"a": "a", "b": "b"}],
        "furniture": [{"id": "table", "location": "b", "slot_count": 2}],
        "objects": [
            {
                "id": "ball",
                "kind": "toy",
                "graspable": True,
                "placement": {"slot": "table_layer_1"},
            }
        ],
        "agent": {"location": "a", "reach_radius": 1.5},
    }
    data.update(overrides)
    return data


class TestScenarioLoading:
    def test_default_scenario_loads_and_validates(self):
        world = default_scenario()
        validate_state(world)
        assert set(world.objects) == {"mug", "box", "cube", "tv"}
        assert set(world.furniture) == {"shelf", "kitchen_table", "living_room_table"}
        assert world.agent.location == "hallway"
        assert world.agent.held is None

    def test_default_scenario_seed_placements(self):
        world = default_scenario()
        assert snapshot(world)["objects"] == {
            "mug": {"kind": "slot", "furniture": "kitchen_table", "slot": 0},
            "box": {"kind": "slot", "furniture": "kitchen_table", "slot": 1},
            "cube": {"kind": "slot", "furniture": "living_room_table", "slot": 1},
            "tv": {"kind": "slot", "furniture": "living_room_table", "slot": 0},
        }
        assert not world.objects["tv"].graspable

    def test_scenario_hash_is_stable_and_sensitive(self):
        data = default_scenario_data()
        assert scenario_hash(data) == scenario_hash(default_scenario_data())
        mutated = default_scenario_data()
        mutated["agent"]["location"] = "kitchen_center"
        assert scenario_hash(mutated) != scenario_hash(data)

    def test_schema_violation_names_offending_field(self):
        data = tiny_scenario()
        data["nodes"][0].pop("room")
        with pytest.raises(ScenarioError, match=r"schema violation at \$\.nodes\[0\]"):
            load_scenario(data)

    def test_schema_rejects_unknown_keys(self):
        data = tiny_scenario()
        data["agent"]["hat"] = "fedora"
        with pytest.raises(ScenarioError, match="schema violation"):
            load_scenario(data)

    def test_placement_must_be_slot_or_location_not_both(self):
        data = tiny_scenario()
        data["objects"][0]["placement"] = {"slot": "table_layer_1", "location": "a"}
        with pytest.raises(ScenarioError, match="schema violation"):
            load_scenario(data)

    def test_duplicate_node_rejected(self):
        data = tiny_scenario()
        data["nodes"].append({"id": "a", "x": 5.0, "y": 5.0, "room": "left"})
        with pytest.raises(ScenarioError, match="duplicate node id 'a'"):
            load_scenario(data)

    def test_edge_with_unknown_endpoint_rejected(self):
        data = tiny_scenario()
        data["edges"].append({"a": "a", "b": "ghost"})
        with pytest.raises(ScenarioError, match="unknown location 'ghost'"):
            load_scenario(data)

    def test_edge_cost_below_euclidean_rejected(self):
        data = tiny_scenario()
        data["edges"][0]["cost"] = 0.5
        with pytest.raises(ScenarioError, match="below the Euclidean"):
            load_scenario(data)

    def test_disconnected_map_rejected(self):
        data = tiny_scenario()
        data["nodes"].append({"id": "island", "x": 90.0, "y": 90.0, "room": "void"})
        with pytest.raises(ScenarioError, match="disconnected map"):
            load_scenario(data)

    def test_dangling_slot_reference_rejected(self):
        data = tiny_scenario()
        data["objects"][0]["placement"] = {"slot": "table_layer_9"}
        with pytest.raises(ScenarioError, match="dangling slot reference"):
            load_scenario(data)

    def test_doubly_seeded_slot_rejected(self):
        data = tiny_scenario()
        data["objects"].append(
            {
                "id": "ball2",
                "kind": "toy",
                "graspable": True,
                "placement": {"slot": "table_layer_1"},
            }
        )
        with pytest.raises(ScenarioError, match="already holds 'ball'"):
            load_scenario(data)

    def test_duplicate_object_id_rejected(self):
        data = tiny_scenario()
        data["objects"].append(copy.deepcopy(data["objects"][0]))
        data["objects"][1]["placement"] = {"location": "a"}
        with pytest.raises(ScenarioError, match="duplicate object id 'ball'"):
            load_scenario(data)

    def test_agent_at_unknown_location_rejected(self):
        data = tiny_scenario()
        data["agent"]["location"] = "nowhere"
        with pytest.raises(ScenarioError, match="agent at unknown location 'nowhere'"):
            load_scenario(data)

    def test_integral_float_slot_count_loads_as_its_integer(self):
        """The schema's `integer` takes 2.0, so the loader must too."""
        data = tiny_scenario()
        data["furniture"][0]["slot_count"] = 2.0
        assert canonical_json(load_scenario(data).to_dict()) == canonical_json(
            load_scenario(tiny_scenario()).to_dict()
        )

    def test_loose_object_placement(self):
        data = tiny_scenario()
        data["objects"][0]["placement"] = {"location": "a"}
        world = load_scenario(data)
        assert world.objects["ball"].containment == {"kind": "loose", "location": "a"}


_DELETE = object()


def mutated(path, value):
    """tiny_scenario with the value at `path` replaced (or deleted)."""
    data = tiny_scenario()
    *parents, last = path
    owner = data
    for step in parents:
        owner = owner[step]
    if value is _DELETE:
        del owner[last]
    else:
        owner[last] = value
    return data


# (keyword the error comes from, document). Every keyword the schema uses
# appears at least once; the rows without a keyword break several rules
# at once, so the error chosen among them is compared too.
SCHEMA_CASES = [
    ("type", mutated(("nodes",), "x")),
    ("type", mutated(("nodes", 0, "x"), "0")),
    ("type", mutated(("objects", 0, "graspable"), 1)),
    ("type", mutated(("furniture", 0, "slot_count"), 1.5)),
    ("type", []),
    ("required", mutated(("agent", "location"), _DELETE)),
    ("required", mutated(("edges",), _DELETE)),
    ("additionalProperties", mutated(("agent", "hat"), "fedora")),
    ("additionalProperties", mutated(("extra",), 1)),
    ("minItems", mutated(("nodes",), [])),
    ("minLength", mutated(("nodes", 0, "id"), "")),
    ("minLength", mutated(("objects", 0, "placement", "slot"), "")),
    ("exclusiveMinimum", mutated(("edges", 0, "cost"), 0)),
    ("exclusiveMinimum", mutated(("agent", "reach_radius"), -1)),
    ("minimum", mutated(("furniture", 0, "slot_count"), 0)),
    ("minProperties", mutated(("objects", 0, "placement"), {})),
    (
        "maxProperties",
        mutated(("objects", 0, "placement"), {"slot": "table_layer_1", "location": "a"}),
    ),
    (None, {}),
    (None, {**mutated(("nodes",), []), "agent": {"hat": 1}}),
    (None, {**mutated(("edges", 0, "cost"), 0), "furniture": [{"id": ""}]}),
    ("maximum", mutated(("furniture", 0, "slot_count"), 1001)),
    ("maximum", mutated(("furniture", 0, "slot_count"), 10**400)),
    ("type", mutated(("furniture", 0, "slot_count"), 0.5)),
    (None, mutated(("agent",), {"location": "", "reach_radius": -1})),
]


def subschemas(schema):
    """A schema and every schema under its `properties` and `items`."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


def schema_keywords(schema):
    """Every validation keyword used anywhere in a schema."""
    return {key for sub in subschemas(schema) for key in sub} - {"properties", "items"}


def walk(value, schema):
    """The violations `_violations` finds for `value` against `schema`."""
    found = []
    _violations(value, schema, (), found)
    return found


def jsonschema_violations(value, schema):
    """What `walk` should give for `value`: every error of jsonschema's
    `iter_errors`, in its order, as (path, message)."""
    from jsonschema.validators import validator_for

    return [
        (tuple(error.absolute_path), error.message)
        for error in validator_for(schema)(schema).iter_errors(value)
    ]


class TestSchemaValidator:
    def test_schema_passes_its_metaschema(self):
        from jsonschema.validators import validator_for

        validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)

    def test_cases_cover_every_schema_keyword(self):
        covered = {keyword for keyword, _ in SCHEMA_CASES if keyword is not None}
        assert covered == schema_keywords(SCENARIO_SCHEMA)

    @pytest.mark.parametrize("keyword, data", SCHEMA_CASES)
    def test_error_text_equals_jsonschema_validate(self, keyword, data):
        expected = validate_error(data)
        assert expected is not None
        if keyword is not None:
            assert expected[0] == keyword
        with pytest.raises(ScenarioError) as info:
            load_scenario(data)
        assert str(info.value) == expected[1]


class TestInTreeCheck:
    """`_violations` finds jsonschema's errors for the keywords the
    scenario schema uses, and `_schema_error` picks the one `best_match`
    picks, so that jsonschema is needed only by the tests."""

    def test_every_schema_keyword_is_known(self):
        """On a value of no JSON type the walk meets every keyword of a
        schema and descends into none."""
        for sub in subschemas(SCENARIO_SCHEMA):
            walk(None, sub)

    @pytest.mark.parametrize(
        "keyword, argument",
        [("pattern", "^a"), ("enum", ["a"]), ("maxLength", 0),
         ("additionalProperties", {"type": "integer"})],
    )
    def test_an_unknown_keyword_refuses(self, keyword, argument):
        """Whether jsonschema would pass the document (`pattern`, `enum`,
        a schema-valued `additionalProperties`) or not (`maxLength`), the
        walk raises rather than guess."""
        schema = {"type": "object", "properties": {"id": {"type": "string"}}}
        assert walk({"id": "a"}, schema) == []
        schema["properties"]["id"][keyword] = argument
        with pytest.raises(KeyError, match=keyword):
            walk({"id": "a"}, schema)

    @pytest.mark.parametrize(
        "value, schema",
        [(True, {"type": "number"}), (True, {"type": "integer"}), (1, {"type": "boolean"}),
         (2.0, {"type": "integer"}), (2.0, {"type": "integer", "minimum": 1}),
         (math.nan, {"type": "number", "exclusiveMinimum": 0}),
         ({"a": 1, "b": 2}, {"additionalProperties": False, "properties": {"b": {}}}),
         pytest.param(10**400, {"type": "integer", "minimum": 1, "maximum": 1000},
                      id="400-digits-maximum"),
         pytest.param(-(10**400), {"type": "number", "exclusiveMinimum": 0},
                      id="400-digits-exclusiveMinimum"),
         (0.5, {"type": "integer", "minimum": 1}), (math.inf, {"type": "integer"}),
         ({"e": 1, "d": 2, "c": 3, "b": 4, "a": 5},
          {"additionalProperties": False, "minProperties": 6}),
         (0.5, {"minimum": 1, "type": "integer"}),
         ([], {"minItems": 2}), ("", {"minLength": 2}), ({}, {"maxProperties": 0}),
         ({"a": {}}, {"maxProperties": 0})],
    )
    def test_what_the_check_refuses(self, value, schema):
        """A bool is not a number, nor 1 a bool; an integral float is an
        integer, and NaN breaks no bound; an int of 400 digits is an
        integer and is compared as an int. Every error jsonschema gives,
        in its order and its words."""
        assert walk(value, schema) == jsonschema_violations(value, schema)

    def test_the_bundled_scenario_conforms(self):
        assert _schema_error(default_scenario_data()) is None

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_passed_document_passes_jsonschema(self, drawn):
        """A mutated scenario passes exactly when jsonschema passes it,
        and a refused one reads as jsonschema's error."""
        data = drawn.draw(valid_scenarios())
        assert _schema_error(data) is None
        for _ in range(drawn.draw(st.integers(1, 3))):
            mutate(data, drawn.draw)
        expected = validate_error(data)
        assert _schema_error(data) == (expected and expected[1])


def json_places(value):
    """Every (container, key) place that holds a value in a JSON document."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return []
    places = []
    for key, item in items:
        places.append((value, key))
        places += json_places(item)
    return places


# Values a mutation puts in place of a document's value: every JSON type,
# bools where numbers go, integral floats, infinities, empty strings.
_REPLACEMENTS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from(["", "a", "zz"]),
    st.sampled_from([0.0, 2.0, -0.5, 1.5, math.inf, -math.inf, math.nan]),
    st.just([]), st.just({}), st.just([{}]),
)


# The numbers the schema bounds from below.
_BOUNDED = {"cost", "slot_count", "reach_radius"}


def mutate(data, pick):
    """Drop or retype one value of a scenario document, put a bound or an
    integral float in place of one of its numbers, or add a key to one
    of its objects."""
    places = json_places(data)
    kind = pick(st.sampled_from(["drop", "replace", "number", "extra"]))
    numbers = [
        (owner, key) for owner, key in places
        if key in _BOUNDED and type(owner[key]) in (int, float)
    ]
    if kind == "extra":
        objects = [value for value, _ in places if isinstance(value, dict)]
        owner = pick(st.sampled_from([data, *objects]))
        owner[pick(st.sampled_from(["extra", "x", "slot", "cost"]))] = pick(_REPLACEMENTS)
        return
    if kind == "number" and numbers:
        owner, key = pick(st.sampled_from(numbers))
        owner[key] = pick(st.sampled_from([0, 0.0, 1.0, 1000, 1001.0, float(owner[key])]))
        return
    owner, key = pick(st.sampled_from(places))
    if kind == "drop":
        del owner[key]
    else:
        owner[key] = pick(_REPLACEMENTS)


_IDS = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)
_COORDS = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def valid_scenarios(draw):
    """Connected maps with furniture, objects in slots or loose, an agent."""
    names = draw(st.lists(_IDS, min_size=1, max_size=6, unique=True))
    nodes = [
        {"id": name, "x": draw(_COORDS), "y": draw(_COORDS),
         "room": draw(st.sampled_from(["kitchen", "hall"]))}
        for name in names
    ]
    positions = {node["id"]: (node["x"], node["y"]) for node in nodes}
    pairs = [(names[i], draw(st.sampled_from(names[:i]))) for i in range(1, len(names))]
    pairs += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                           max_size=4))
    edges = []
    for a, b in pairs:
        if a == b:
            continue
        edge = {"a": a, "b": b}
        if draw(st.booleans()):
            straight = math.dist(positions[a], positions[b])
            edge["cost"] = straight * draw(st.floats(1.0, 2.0)) + draw(st.sampled_from([0.5, 1]))
        edges.append(edge)
    furniture_ids = draw(st.lists(_IDS.map("f".__add__), max_size=3, unique=True))
    furniture = [
        {"id": fid, "location": draw(st.sampled_from(names)),
         "slot_count": draw(st.integers(1, 3))}
        for fid in furniture_ids
    ]
    free = [f"{f['id']}_layer_{i + 1}" for f in furniture for i in range(f["slot_count"])]
    objects = []
    for oid in draw(st.lists(_IDS.map("o".__add__), max_size=4, unique=True)):
        if free and draw(st.booleans()):
            placement = {"slot": free.pop(draw(st.integers(0, len(free) - 1)))}
        else:
            placement = {"location": draw(st.sampled_from(names))}
        objects.append({"id": oid, "kind": draw(_IDS), "graspable": draw(st.booleans()),
                        "placement": placement})
    agent = {"location": draw(st.sampled_from(names))}
    if draw(st.booleans()):
        agent["reach_radius"] = draw(st.sampled_from([2, 0.5, 3.25]))
    return {"nodes": nodes, "edges": edges, "furniture": furniture,
            "objects": objects, "agent": agent}


class TestWorldTemplate:
    @given(valid_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_copy_of_loaded_world_equals_a_fresh_load(self, data):
        loaded = load_scenario(data)
        copied = WorldState.from_dict(load_scenario(data).to_dict())
        assert canonical_json(copied.to_dict()) == canonical_json(loaded.to_dict())
        assert canonical_json(snapshot(copied)) == canonical_json(snapshot(loaded))
        start = loaded.agent.location
        for node in sorted(loaded.map.positions):
            assert shortest_path(copied.map, start, node) == shortest_path(
                loaded.map, start, node
            )


# Single faults for the loader differential test. Each edits a valid
# scenario so that exactly one check fails, and returns the id the error
# must name and the loader's text, or None where the text is the
# reference loader's own. "zz" and ids holding "z" are outside `_IDS`.
def _first_node(data):
    return data["nodes"][0]["id"]


def _object(oid, placement):
    return {"id": oid, "kind": "toy", "graspable": True, "placement": placement}


def _furniture(data, pick):
    """A furniture entry of the scenario, adding one when it has none."""
    if not data["furniture"]:
        data["furniture"].append(
            {"id": "fzz", "location": _first_node(data), "slot_count": 1}
        )
    return pick(st.sampled_from(data["furniture"]))


def _slotted_object(data, pick):
    """An object of the scenario in a slot, adding one when none is."""
    slotted = [o for o in data["objects"] if "slot" in o["placement"]]
    if not slotted:
        fid = _furniture(data, pick)["id"]
        slotted = [_object("oza", {"slot": f"{fid}_layer_1"})]
        data["objects"] += slotted
    return pick(st.sampled_from(slotted))


def fault_duplicate_node(data, pick):
    node = pick(st.sampled_from(data["nodes"]))
    data["nodes"].append({**node, "x": node["x"] + 1})
    return node["id"], f"duplicate node id '{node['id']}'"


def fault_unknown_endpoint(data, pick):
    data["edges"].append({"a": pick(st.sampled_from(data["nodes"]))["id"], "b": "zz"})
    return "zz", "unknown location 'zz'"


def fault_self_loop(data, pick):
    node = pick(st.sampled_from(data["nodes"]))["id"]
    data["edges"].append({"a": node, "b": node})
    return node, f"self-loop on '{node}' not allowed"


def fault_cost_below_euclidean(data, pick):
    node = pick(st.sampled_from(data["nodes"]))
    data["nodes"].append({"id": "zz", "x": node["x"] + 3, "y": node["y"] + 4, "room": "hall"})
    data["edges"].append({"a": node["id"], "b": "zz", "cost": 1})
    return "zz", (f"edge cost 1.0 on ({node['id']}, zz) is below the Euclidean "
                  "distance 5.000000")


def fault_furniture_location(data, pick):
    data["furniture"].append({"id": "fzz", "location": "zz", "slot_count": 1})
    return "fzz", "furniture 'fzz' at unknown location 'zz'"


def fault_object_location(data, pick):
    data["objects"].append(_object("ozz", {"location": "zz"}))
    return "ozz", "object 'ozz' at unknown location 'zz'"


def fault_agent_location(data, pick):
    data["agent"]["location"] = "zz"
    return "zz", "agent at unknown location 'zz'"


def fault_duplicate_furniture(data, pick):
    """The repeat has one slot and the first entry's last slot is filled,
    so a loader that seeds the repeat's slots finds a dangling slot."""
    spec = _furniture(data, pick)
    last = f"{spec['id']}_layer_{spec['slot_count']}"
    if all(o["placement"].get("slot") != last for o in data["objects"]):
        data["objects"].append(_object("ozz", {"slot": last}))
    data["furniture"].append({**spec, "slot_count": 1})
    return spec["id"], f"duplicate furniture id '{spec['id']}'"


def fault_duplicate_object(data, pick):
    if not data["objects"]:
        data["objects"].append(_object("ozz", {"location": _first_node(data)}))
    spec = pick(st.sampled_from(data["objects"]))
    data["objects"].append({**spec, "placement": {"location": _first_node(data)}})
    return spec["id"], f"duplicate object id '{spec['id']}'"


def fault_dangling_slot(data, pick):
    fid = pick(st.sampled_from([f["id"] for f in data["furniture"]] + ["fzz"]))
    data["objects"].append(_object("ozz", {"slot": f"{fid}_layer_4"}))
    return "ozz", None


def fault_slot_seeded_twice(data, pick):
    spec = _slotted_object(data, pick)
    data["objects"].append(_object("ozz", dict(spec["placement"])))
    return "ozz", None


def fault_disconnected_map(data, pick):
    data["nodes"].append({"id": "zz", "x": 90.0, "y": 90.0, "room": "void"})
    return "disconnected", None


def fault_id_collision(data, pick):
    fid = _furniture(data, pick)["id"]
    data["objects"].append(_object(fid, {"location": _first_node(data)}))
    return fid, None


SINGLE_FAULTS = [
    fault_duplicate_node, fault_unknown_endpoint, fault_self_loop,
    fault_cost_below_euclidean, fault_furniture_location, fault_object_location,
    fault_agent_location, fault_duplicate_furniture, fault_duplicate_object,
    fault_dangling_slot, fault_slot_seeded_twice, fault_disconnected_map,
    fault_id_collision,
]


def built_layout(world):
    """A world's `to_dict` bytes and the order it holds furniture, objects
    and edges in, which is the order tools list them."""
    return (
        canonical_json(world.to_dict()),
        list(world.furniture),
        list(world.objects),
        [(node, list(nbrs.items())) for node, nbrs in world.map.adjacency.items()],
    )


class TestOneReader:
    """`load_scenario` against the loader that built the world piece by
    piece before it went through `WorldState.from_dict`."""

    @given(valid_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_valid_scenarios_build_the_reference_world(self, data):
        document = copy.deepcopy(data)
        assert built_layout(load_scenario(data)) == built_layout(
            hand_built_load_scenario(data)
        )
        assert data == document

    @given(valid_scenarios(), st.sampled_from(SINGLE_FAULTS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_single_faults_fail_in_both_naming_the_same_id(self, data, fault, drawn):
        name, text = fault(data, drawn.draw)
        with pytest.raises(ScenarioError) as reference:
            hand_built_load_scenario(data)
        with pytest.raises(ScenarioError) as info:
            load_scenario(data)
        assert name in str(reference.value)
        assert str(info.value) == (str(reference.value) if text is None else text)


class TestStateInvariants:
    def test_snapshot_shape(self, world):
        snap = snapshot(world)
        assert snap["agent"] == {"location": "hallway", "held": None}
        assert snap["objects"]["mug"] == {
            "kind": "slot",
            "furniture": "kitchen_table",
            "slot": 0,
        }
        assert snap["step_counter"] == 0

    def test_roundtrip_through_dict(self, world):
        execute_move(world, "kitchen_table")
        attach(world, "mug")
        restored = WorldState.from_dict(world.to_dict())
        assert canonical_json(restored.to_dict()) == canonical_json(world.to_dict())
        assert restored.agent.held == "mug"

    def test_slot_object_disagreement_detected(self, world):
        world.furniture["shelf"].slots[0] = "mug"
        with pytest.raises(InvariantViolation, match="disagree"):
            validate_state(world)

    def test_phantom_held_detected(self, world):
        world.agent.held = "mug"
        with pytest.raises(InvariantViolation, match="references no held object"):
            validate_state(world)

    def test_multiple_held_detected(self, world):
        for oid in ("mug", "cube"):
            obj = world.objects[oid]
            furn = world.furniture[obj.containment["furniture"]]
            furn.slots[obj.containment["slot"]] = None
            obj.containment = {"kind": "held"}
        world.agent.held = "mug"
        with pytest.raises(InvariantViolation, match="multiple held objects"):
            validate_state(world)

    def test_slot_names_are_one_indexed(self, world):
        shelf = world.furniture["shelf"]
        assert [shelf.slot_name(i) for i in range(3)] == [
            "shelf_layer_1",
            "shelf_layer_2",
            "shelf_layer_3",
        ]
        assert world.find_slot("shelf_layer_2") == (shelf, 1)
        assert world.find_slot("shelf_layer_0") is None


class TestMoveAction:
    def test_move_advances_step_counter_by_hops(self, world):
        outcome = execute_move(world, "kitchen_shelf")
        assert outcome.ok
        assert outcome.path == ["hallway", "kitchen_center", "kitchen_shelf"]
        assert outcome.hops == 2
        assert world.step_counter == 2
        assert world.agent.location == "kitchen_shelf"

    def test_move_to_current_location_is_zero_hops(self, world):
        outcome = execute_move(world, "hallway")
        assert outcome.ok
        assert outcome.path == ["hallway"]
        assert world.step_counter == 0

    def test_move_carries_held_object(self, world):
        execute_move(world, "kitchen_table")
        attach(world, "mug")
        execute_move(world, "living_room_table")
        assert world.agent.held == "mug"
        assert world.object_position(world.objects["mug"]) == world.agent_position()

    def test_no_path_leaves_state_untouched(self):
        smap = SemanticMap()
        smap.add_node("a", 0.0, 0.0, "left")
        smap.add_node("b", 100.0, 0.0, "right")
        world = WorldState(map=smap)
        world.agent.location = "a"
        before = canonical_json(world.to_dict())
        outcome = execute_move(world, "b")
        assert not outcome.ok
        assert outcome.cause == CAUSE_NO_PATH
        assert canonical_json(world.to_dict()) == before


class TestAttachDetach:
    def test_grab_cause_order_and_purity(self, world):
        before = canonical_json(world.to_dict())
        assert attach(world, "unicorn").cause == CAUSE_DOES_NOT_EXIST
        assert attach(world, "mug").cause == CAUSE_OUT_OF_REACH
        assert canonical_json(world.to_dict()) == before

        execute_move(world, "living_room_table")
        assert attach(world, "tv").cause == CAUSE_NOT_GRASPABLE
        assert attach(world, "cube").ok
        assert attach(world, "tv").cause == CAUSE_ALREADY_HOLDING
        validate_state(world)

    def test_grab_vacates_source_slot(self, world):
        execute_move(world, "kitchen_table")
        assert attach(world, "mug").ok
        assert world.furniture["kitchen_table"].slots[0] is None
        assert world.objects["mug"].containment == {"kind": "held"}
        assert world.agent.held == "mug"

    def test_place_cause_order_and_purity(self, world):
        assert detach_at(world, "shelf_layer_1").cause == CAUSE_NOT_HOLDING

        execute_move(world, "kitchen_table")
        attach(world, "mug")
        before = canonical_json(world.to_dict())
        assert detach_at(world, "bathtub_layer_1").cause == CAUSE_NO_SUCH_SLOT
        assert detach_at(world, "shelf_layer_1").cause == CAUSE_OUT_OF_REACH
        assert detach_at(world, "kitchen_table_layer_2").cause == CAUSE_OCCUPIED
        assert canonical_json(world.to_dict()) == before

    def test_place_fills_slot_and_empties_hand(self, world):
        execute_move(world, "kitchen_table")
        attach(world, "mug")
        execute_move(world, "kitchen_shelf")
        outcome = detach_at(world, "shelf_layer_2")
        assert outcome.ok
        assert (outcome.furniture_id, outcome.slot_index) == ("shelf", 1)
        assert world.furniture["shelf"].slots[1] == "mug"
        assert world.objects["mug"].containment == {"kind": "slot", "furniture": "shelf", "slot": 1}
        assert world.agent.held is None
        validate_state(world)

    def test_grab_then_place_roundtrip_restores_slot(self, world):
        execute_move(world, "kitchen_table")
        before = snapshot(world)
        attach(world, "mug")
        detach_at(world, "kitchen_table_layer_1")
        after = snapshot(world)
        assert before["objects"] == after["objects"]


class TestProximity:
    def test_nothing_nearby_at_hallway(self, world):
        assert objects_in_proximity(world) == []

    def test_nearby_sorted_by_id(self, world):
        execute_move(world, "kitchen_table")
        nearby = objects_in_proximity(world)
        assert [oid for oid, _ in nearby] == ["box", "mug"]
        assert nearby[1][1] == "mug on kitchen_table layer 1"

    def test_held_object_is_always_nearby(self, world):
        execute_move(world, "kitchen_table")
        attach(world, "mug")
        execute_move(world, "hallway")
        nearby = objects_in_proximity(world)
        assert nearby == [("mug", "mug held by agent")]

    def test_reach_radius_is_a_hard_boundary(self, world):
        execute_move(world, "kitchen_center")
        shelf_pos = world.map.positions["kitchen_shelf"]
        distance = math.dist(world.agent_position(), shelf_pos)
        assert distance > world.agent.reach_radius
        assert attach(world, "mug").cause == CAUSE_OUT_OF_REACH
