"""World layer: scenario loading, state invariants, kinematic actions."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

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
    default_scenario,
    default_scenario_data,
    load_scenario,
    scenario_hash,
)
from hearth.world.semantic_map import SemanticMap, shortest_path
from hearth.world.state import (
    AtLocation,
    Held,
    InSlot,
    InvariantViolation,
    WorldState,
    canonical_json,
    snapshot,
    validate_state,
)

from .oracles import validate_error


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
        assert world.objects["mug"].containment == InSlot("kitchen_table", 0)
        assert world.objects["box"].containment == InSlot("kitchen_table", 1)
        assert world.objects["cube"].containment == InSlot("living_room_table", 1)
        assert world.objects["tv"].containment == InSlot("living_room_table", 0)
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
        with pytest.raises(ScenarioError, match="unknown node 'ghost'"):
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
        with pytest.raises(ScenarioError, match="agent: unknown location"):
            load_scenario(data)

    def test_loose_object_placement(self):
        data = tiny_scenario()
        data["objects"][0]["placement"] = {"location": "a"}
        world = load_scenario(data)
        assert world.objects["ball"].containment == AtLocation("a")


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
# appears at least once; the last rows break several rules at once, so
# the error chosen among them is compared too.
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
]


def schema_keywords(schema):
    """Every validation keyword used anywhere in a schema."""
    found = set(schema) - {"properties", "items"}
    for sub in schema.get("properties", {}).values():
        found |= schema_keywords(sub)
    if "items" in schema:
        found |= schema_keywords(schema["items"])
    return found


class TestSchemaValidator:
    def test_schema_passes_its_metaschema(self):
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
            furn = world.furniture[obj.containment.furniture_id]
            furn.slots[obj.containment.slot_index] = None
            obj.containment = Held()
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
        assert world.objects["mug"].containment == Held()
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
        assert world.objects["mug"].containment == InSlot("shelf", 1)
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
