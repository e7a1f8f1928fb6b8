"""Model-based test of the world and tool contract.

A state machine draws a world, either a scenario from `valid_scenarios()`
or a split map (which the scenario loader refuses, so it is the only
place `no-path` can occur), then issues valid and invalid calls of all
eight tools and unknown ones. After every call the world must hold its
invariants, a failure must leave it unchanged and name one documented
cause in the failure shape, and `ToolContractModel` must have predicted
the outcome and, for `look_around`, the objects in reach. At the end, the same calls over an `RpcConnection` must give
byte-equal results, and the run recorded as a transcript must replay ok.
"""

from __future__ import annotations

import json
import os
import re
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from hearth.agent.backends import ScriptedBackend
from hearth.agent.context import PROMPT_VERSION
from hearth.agent.transcript import Transcript, TranscriptHeader
from hearth.harness.runner import execute_task, replay_transcript
from hearth.memory.episodic import EpisodicStore
from hearth.memory.scratchpad import Scratchpad
from hearth.rpc.server import METHOD_NOT_FOUND, RpcConnection
from hearth.tools.dispatch import MemoryHandles, ToolCall, dispatch
from hearth.world.scenario import load_scenario, scenario_hash
from hearth.world.semantic_map import SemanticMap
from hearth.world.state import (
    Furniture,
    SimObject,
    WorldState,
    canonical_json,
    snapshot,
    validate_state,
)

from .oracles import DOCUMENTED_CAUSES, TOOL_PARAMS, ToolContractModel
from .test_world import valid_scenarios

MODEL_ID = "rpc-client"
FAILURE_SHAPE = re.compile(r"[A-Z][A-Za-z -]* failed \(([a-z-]+)\): .*\.")
TEXTS = ["put the mug away", "mug", " ", ""]
NOT_STRINGS = [5, None, ["mug"], True]


def split_world() -> WorldState:
    """Two islands of nodes 2 apart, with a reach radius of 2, so every
    neighbour is exactly at the edge of reach."""
    smap = SemanticMap()
    for index in range(3):
        smap.add_node(f"w{index}", 2.0 * index, 0.0, "west")
    for index in range(2):
        smap.add_node(f"e{index}", 2.0 * index, 50.0, "east")
    smap.add_edge("w0", "w1")
    smap.add_edge("w1", "w2")
    smap.add_edge("e0", "e1")
    world = WorldState(map=smap)
    world.furniture["fw"] = Furniture("fw", "w1", ["oa", None])
    world.furniture["fe"] = Furniture("fe", "e0", ["od"])
    for oid, kind, graspable, containment in [
        ("oa", "mug", True, {"kind": "slot", "furniture": "fw", "slot": 0}),
        ("ob", "cube", True, {"kind": "loose", "location": "w0"}),
        ("oc", "tv", False, {"kind": "loose", "location": "w2"}),
        ("od", "box", True, {"kind": "slot", "furniture": "fe", "slot": 0}),
    ]:
        world.objects[oid] = SimObject(oid, kind, graspable, containment)
    world.agent.location = "w0"
    world.agent.reach_radius = 2.0
    validate_state(world)
    return world


class ToolContract(RuleBasedStateMachine):
    @initialize(data=st.data())
    def draw_world(self, data):
        if data.draw(st.booleans(), label="split map"):
            world = split_world()
            self.scenario = world.map.to_dict()
        else:
            self.scenario = data.draw(valid_scenarios(), label="scenario")
            world = load_scenario(self.scenario)
        self.initial = world.to_dict()
        self.world = world
        self.model = ToolContractModel(self.initial)
        self.handles = MemoryHandles(Scratchpad(), EpisodicStore(), MODEL_ID)
        self.calls = []
        nodes = sorted(world.map.positions)
        slots = sorted(
            furn.slot_name(index)
            for furn in world.furniture.values()
            for index in range(len(furn.slots))
        )
        self.values = {
            "location": st.sampled_from(nodes + ["nowhere"]),
            "object": st.sampled_from(sorted(world.objects) + ["ghost"]),
            "slot": st.sampled_from(slots + ["nowhere_layer_1"]),
            "status": st.sampled_from(["succeeded", "failed", "unsure"]),
        }

    def arguments(self, data, name):
        return {
            param: data.draw(self.values.get(param, st.sampled_from(TEXTS)), label=param)
            for param in TOOL_PARAMS[name]
        }

    def issue(self, name, arguments):
        before = canonical_json(self.world.to_dict())
        expected = self.model.expect(name, arguments)
        result = dispatch(ToolCall(name, arguments), self.world, self.handles)
        self.calls.append((name, arguments, result))
        if result.ok:
            assert expected is None, (name, arguments, result.message)
            if name == "look_around":
                assert result.machine_payload["nearby"] == self.model.nearby()
        else:
            cause = result.machine_payload["cause"]
            assert cause == expected, (name, arguments, result.message)
            assert cause in DOCUMENTED_CAUSES
            shape = FAILURE_SHAPE.fullmatch(result.message)
            assert shape is not None and shape.group(1) == cause, result.message
            assert result.message.count(f"({cause})") == 1, result.message
            assert canonical_json(self.world.to_dict()) == before, (name, arguments)
        live = snapshot(self.world)
        del live["step_counter"]
        assert live == self.model.snapshot(), (name, arguments)

    @rule(data=st.data())
    def move_to(self, data):
        self.issue("move_to", self.arguments(data, "move_to"))

    @rule(data=st.data())
    def grab(self, data):
        self.issue("grab", self.arguments(data, "grab"))

    @rule(data=st.data())
    def place(self, data):
        self.issue("place", self.arguments(data, "place"))

    @rule(data=st.data())
    def call_a_tool(self, data):
        name = data.draw(st.sampled_from(sorted(TOOL_PARAMS)), label="tool")
        self.issue(name, self.arguments(data, name))

    @rule(data=st.data())
    def call_with_bad_arguments(self, data):
        name = data.draw(st.sampled_from(sorted(TOOL_PARAMS)), label="tool")
        arguments = self.arguments(data, name)
        if arguments and data.draw(st.booleans(), label="drop one"):
            del arguments[data.draw(st.sampled_from(sorted(arguments)))]
        elif arguments and data.draw(st.booleans(), label="not a string"):
            key = data.draw(st.sampled_from(sorted(arguments)))
            arguments[key] = data.draw(st.sampled_from(NOT_STRINGS))
        else:
            arguments["extra"] = "mug"
        self.issue(name, arguments)

    @rule(name=st.sampled_from(["teleport", "", "Look_around", "grab "]))
    def call_an_unknown_tool(self, name):
        self.issue(name, {})

    @invariant()
    def world_holds_its_invariants(self):
        validate_state(self.world)

    def teardown(self):
        if not hasattr(self, "world"):
            return
        self.check_rpc()
        self.check_replay()

    def check_rpc(self):
        connection = RpcConnection(self.initial, expose_ground_truth=False)
        connection.handle_line(json.dumps({
            "jsonrpc": "2.0", "id": 0, "method": "session.create",
            "params": {"model_id": MODEL_ID},
        }))
        for number, (name, arguments, result) in enumerate(self.calls, start=1):
            frame = connection.handle_line(json.dumps({
                "jsonrpc": "2.0", "id": number, "method": f"tool.{name}",
                "params": arguments,
            }))
            if name in TOOL_PARAMS:
                assert frame == json.dumps(
                    {"jsonrpc": "2.0", "id": number, "result": result.to_dict()},
                    sort_keys=True,
                )
            else:
                assert json.loads(frame)["error"]["code"] == METHOD_NOT_FOUND

    def check_replay(self):
        # The loop stops at the first end_task that succeeds.
        calls = []
        for name, arguments, result in self.calls:
            calls.append((name, arguments, result))
            if result.ok and name == "end_task":
                break

        def script():
            for name, arguments, _ in calls:
                yield name, arguments

        header = TranscriptHeader(
            scenario=self.scenario,
            scenario_hash=scenario_hash(self.scenario),
            prompt_version=PROMPT_VERSION,
            model_id=MODEL_ID,
            task_id="contract",
            task_prompt="Exercise the tools.",
            initial_world=self.initial,
        )
        handles = MemoryHandles(Scratchpad(), EpisodicStore(), MODEL_ID)
        _, transcript = execute_task(
            WorldState.from_dict(self.initial), handles, ScriptedBackend(script),
            header, max(len(calls), 1),
        )
        results = [m.tool_result for m in transcript.messages if m.role == "tool"]
        assert [
            {key: value for key, value in r.items() if key not in ("call_id", "name")}
            for r in results
        ] == [result.to_dict() for _, _, result in calls]
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "contract.jsonl")
            transcript.write_jsonl(path)
            report = replay_transcript(Transcript.read_jsonl(path))
        assert report.divergence is None, report.divergence


ToolContract.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None, derandomize=True
)
TestToolContract = ToolContract.TestCase
