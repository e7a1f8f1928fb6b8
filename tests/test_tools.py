"""Tool layer: message contracts, argument validation, world purity."""

import pytest

from hearth.memory.episodic import EpisodicStore
from hearth.memory.scratchpad import Scratchpad
from hearth.tools.dispatch import TOOL_SCHEMAS, MemoryHandles, ToolCall, dispatch
from hearth.world.actions import execute_move
from hearth.world.state import canonical_json

EXPECTED_TOOLS = {
    "look_around",
    "move_to",
    "grab",
    "place",
    "add_to_scratchpad",
    "view_scratchpad",
    "end_task",
    "search_memory",
}


class TestSchemas:
    def test_exactly_the_eight_tools(self):
        assert set(TOOL_SCHEMAS) == EXPECTED_TOOLS

    def test_end_task_takes_three_model_provided_fields(self):
        params = TOOL_SCHEMAS["end_task"]["function"]["parameters"]
        assert list(params["properties"]) == [
            "task_description",
            "status",
            "action_summary",
        ]
        assert params["properties"]["status"]["enum"] == ["succeeded", "failed"]

    def test_declarations_are_openai_function_format(self):
        decls = list(TOOL_SCHEMAS.values())
        assert len(decls) == len(EXPECTED_TOOLS)
        by_name = {d["function"]["name"]: d for d in decls}
        assert by_name == TOOL_SCHEMAS
        for decl in decls:
            assert decl["type"] == "function"
            params = decl["function"]["parameters"]
            assert params["type"] == "object"
            assert set(params["required"]) <= set(params["properties"])
        grab = by_name["grab"]["function"]["parameters"]
        assert grab["properties"]["object"]["type"] == "string"
        assert grab["required"] == ["object"]
        end = by_name["end_task"]["function"]["parameters"]
        assert end["properties"]["status"]["enum"] == ["succeeded", "failed"]
        assert end["required"] == ["action_summary", "status", "task_description"]


class TestDispatchValidation:
    def test_unknown_tool(self, call_tool):
        result = call_tool("teleport", {"to": "moon"})
        assert not result.ok
        assert result.machine_payload["cause"] == "unknown-tool"
        assert result.message == (
            "Tool call failed (unknown-tool): unknown tool 'teleport'."
        )

    def test_missing_required_argument(self, call_tool):
        result = call_tool("grab", {})
        assert not result.ok
        assert "missing required argument 'object' for 'grab'" in result.message
        assert result.machine_payload["cause"] == "invalid-arguments"

    def test_unexpected_argument(self, call_tool):
        result = call_tool("look_around", {"direction": "north"})
        assert not result.ok
        assert "unexpected argument 'direction'" in result.message

    def test_wrong_argument_type(self, call_tool):
        result = call_tool("move_to", {"location": 7})
        assert not result.ok
        assert "must be a string, got int" in result.message

    def test_bool_is_not_accepted_where_string_expected(self, call_tool):
        result = call_tool("grab", {"object": True})
        assert not result.ok
        assert "got bool" in result.message

    def test_non_dict_arguments(self, world, handles):
        result = dispatch(ToolCall("grab", ["mug"]), world, handles)
        assert not result.ok
        assert "arguments for 'grab' must be an object" in result.message

    def test_validation_failures_do_not_touch_world(self, world, handles):
        before = canonical_json(world.to_dict())
        dispatch(ToolCall("grab", {"object": 3}), world, handles)
        dispatch(ToolCall("warp", {}), world, handles)
        assert canonical_json(world.to_dict()) == before


class TestMoveTo:
    def test_successful_move_message(self, call_tool, world):
        result = call_tool("move_to", {"location": "kitchen_shelf"})
        assert result.ok
        assert result.message == (
            "Moved to kitchen_shelf in 2 hops via "
            "hallway -> kitchen_center -> kitchen_shelf."
        )
        assert result.machine_payload["hops"] == 2
        assert world.step_counter == 2

    def test_already_at_location(self, call_tool, world):
        result = call_tool("move_to", {"location": "hallway"})
        assert result.ok
        assert result.message == "Already at hallway."
        assert world.step_counter == 0

    def test_unknown_location(self, call_tool):
        result = call_tool("move_to", {"location": "attic"})
        assert not result.ok
        assert result.message == (
            "Move failed (unknown-location): unknown location 'attic'."
        )
        assert result.machine_payload["cause"] == "unknown-location"


class TestGrab:
    def test_grab_success(self, call_tool, world):
        call_tool("move_to", {"location": "kitchen_table"})
        result = call_tool("grab", {"object": "mug"})
        assert result.ok
        assert result.message == "Grabbed mug."
        assert world.agent.held == "mug"

    def test_does_not_exist_keyword(self, call_tool):
        result = call_tool("grab", {"object": "unicorn"})
        assert result.message == (
            "Grab failed (does-not-exist): target object does not exist: "
            "'unicorn'."
        )
        assert result.machine_payload["cause"] == "does-not-exist"

    def test_out_of_reach_keyword(self, call_tool):
        result = call_tool("grab", {"object": "mug"})
        assert result.message == "Grab failed (out-of-reach): 'mug' is out of reach."

    def test_already_holding_keyword(self, call_tool):
        call_tool("move_to", {"location": "kitchen_table"})
        call_tool("grab", {"object": "mug"})
        result = call_tool("grab", {"object": "box"})
        assert result.message == (
            "Grab failed (already-holding): already holding 'mug'."
        )

    def test_not_graspable_keyword(self, call_tool):
        call_tool("move_to", {"location": "living_room_table"})
        result = call_tool("grab", {"object": "tv"})
        assert result.message == "Grab failed (not-graspable): 'tv' cannot be grasped."

    def test_failed_grab_is_pure(self, call_tool, world):
        before = canonical_json(world.to_dict())
        call_tool("grab", {"object": "mug"})
        call_tool("grab", {"object": "unicorn"})
        assert canonical_json(world.to_dict()) == before


class TestPlace:
    def test_place_success_message(self, call_tool, world):
        call_tool("move_to", {"location": "kitchen_table"})
        call_tool("grab", {"object": "mug"})
        call_tool("move_to", {"location": "kitchen_shelf"})
        result = call_tool("place", {"slot": "shelf_layer_2"})
        assert result.ok
        assert result.message == "Placed mug on shelf layer 2."
        assert world.agent.held is None

    def test_not_holding_keyword(self, call_tool):
        result = call_tool("place", {"slot": "shelf_layer_1"})
        assert result.message == (
            "Place failed (not-holding): not holding an object."
        )

    def test_no_such_slot_keyword(self, call_tool):
        call_tool("move_to", {"location": "kitchen_table"})
        call_tool("grab", {"object": "mug"})
        result = call_tool("place", {"slot": "bed_layer_1"})
        assert result.message == (
            "Place failed (no-such-slot): no slot named 'bed_layer_1'."
        )

    def test_out_of_reach_keyword(self, call_tool):
        call_tool("move_to", {"location": "kitchen_table"})
        call_tool("grab", {"object": "mug"})
        result = call_tool("place", {"slot": "shelf_layer_1"})
        assert result.message == (
            "Place failed (out-of-reach): slot 'shelf_layer_1' is out of reach."
        )

    def test_occupied_keyword(self, call_tool):
        call_tool("move_to", {"location": "kitchen_table"})
        call_tool("grab", {"object": "mug"})
        result = call_tool("place", {"slot": "kitchen_table_layer_2"})
        assert result.message == (
            "Place failed (occupied): slot 'kitchen_table_layer_2' is "
            "already occupied."
        )

    def test_failed_place_is_pure(self, call_tool, world):
        call_tool("move_to", {"location": "kitchen_table"})
        call_tool("grab", {"object": "mug"})
        before = canonical_json(world.to_dict())
        for slot in ("bed_layer_1", "shelf_layer_1", "kitchen_table_layer_2"):
            call_tool("place", {"slot": slot})
        assert canonical_json(world.to_dict()) == before


class TestLookAround:
    def test_start_of_default_scenario(self, call_tool):
        result = call_tool("look_around", {})
        assert result.ok
        assert result.message == (
            "You are at hallway in room hallway. "
            "Reachable locations: kitchen_center (cost 3), "
            "living_room_center (cost 3). "
            "No objects are nearby. "
            "You are not holding anything."
        )
        assert result.machine_payload["nearby"] == []

    def test_sees_nearby_objects_and_held(self, call_tool, world):
        call_tool("move_to", {"location": "kitchen_table"})
        call_tool("grab", {"object": "mug"})
        result = call_tool("look_around", {})
        assert "You can see: box on kitchen_table layer 2; mug held by agent." in (
            result.message
        )
        assert "You are holding: mug." in result.message
        assert result.machine_payload["held"] == "mug"
        assert result.machine_payload["nearby"] == ["box", "mug"]

    def test_deterministic_for_same_state(self, world, handles):
        execute_move(world, "kitchen_table")
        first = dispatch(ToolCall("look_around", {}), world, handles)
        second = dispatch(ToolCall("look_around", {}), world, handles)
        assert first.message == second.message
        assert first.to_dict() == second.to_dict()

    def test_look_does_not_mutate_world(self, call_tool, world):
        before = canonical_json(world.to_dict())
        call_tool("look_around", {})
        assert canonical_json(world.to_dict()) == before


class TestScratchpadTools:
    def test_add_and_view(self, call_tool):
        result = call_tool("add_to_scratchpad", {"text": "mug is on the table"})
        assert result.ok
        assert result.message == "Noted. The scratchpad now has 1 entries."
        call_tool("add_to_scratchpad", {"text": "shelf has three layers"})
        view = call_tool("view_scratchpad", {})
        assert view.ok
        assert view.message == "mug is on the table\n\nshelf has three layers"

    def test_view_empty(self, call_tool):
        result = call_tool("view_scratchpad", {})
        assert result.ok
        assert result.message == "The scratchpad is empty."

    def test_empty_note_rejected(self, call_tool):
        result = call_tool("add_to_scratchpad", {"text": "   "})
        assert not result.ok
        assert result.message == (
            "Scratchpad write failed (empty-note): cannot add an empty note."
        )


class TestEndTask:
    def test_records_report_and_terminates(self, call_tool, handles):
        result = call_tool(
            "end_task",
            {
                "task_description": "put the mug away",
                "status": "succeeded",
                "action_summary": "moved the mug to the shelf",
            },
        )
        assert result.ok
        assert result.message == (
            "Task report recorded (status: succeeded). Ending task."
        )
        assert result.machine_payload["terminates"] is True
        assert result.machine_payload["believed_status"] == "succeeded"
        assert len(handles.store) == 1
        record = handles.store.records[0]
        assert record.task_description == "put the mug away"
        assert record.believed_status == "succeeded"

    def test_invalid_status_rejected(self, call_tool, handles):
        result = call_tool(
            "end_task",
            {"task_description": "x", "status": "done", "action_summary": "y"},
        )
        assert not result.ok
        assert result.message == (
            "End-task failed (invalid-status): invalid status 'done'; "
            "expected 'succeeded' or 'failed'."
        )
        assert len(handles.store) == 0

    def test_empty_fields_rejected(self, call_tool, handles):
        result = call_tool(
            "end_task",
            {"task_description": " ", "status": "failed", "action_summary": "y"},
        )
        assert "task_description must be non-empty" in result.message
        result = call_tool(
            "end_task",
            {"task_description": "x", "status": "failed", "action_summary": ""},
        )
        assert "action_summary must be non-empty" in result.message
        assert len(handles.store) == 0


class TestSearchMemory:
    def test_empty_store(self, call_tool):
        result = call_tool("search_memory", {"query": "mug"})
        assert result.ok
        assert result.message == "Found no relevant memories."

    def test_ranked_listing(self, world):
        store = EpisodicStore()
        store.add("put the mug on the shelf", "succeeded", "carried mug", "m")
        store.add("water the plants", "failed", "could not find a can", "m")
        handles = MemoryHandles(Scratchpad(), store, "m")
        result = dispatch(
            ToolCall("search_memory", {"query": "put the mug on the shelf"}),
            world,
            handles,
        )
        assert result.ok
        lines = result.message.splitlines()
        assert lines[0].startswith("Found ")
        assert "relevant memories:" in lines[0]
        assert lines[1].startswith("1. (believed succeeded, similarity 1.00)")
        assert "put the mug on the shelf -- carried mug" in lines[1]
        ids = [r["id"] for r in result.machine_payload["results"]]
        assert ids[0] == store.records[0].id
