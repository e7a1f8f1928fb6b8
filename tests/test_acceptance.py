"""Acceptance gate: the ten headline behaviors, one visible verdict each.

Each test prints one PASS line (outside capture) when its criterion holds;
a failed criterion shows up as an ordinary pytest failure.
"""

import json
import os
import random
import threading
import time

import pytest

from hearth.agent.backends import ScriptedBackend
from hearth.agent.loop import (
    DEFAULT_MAX_TOOL_CALLS,
    TERMINATION_END_TASK,
    TERMINATION_REFUSAL,
    run_task,
)
from hearth.agent.scripts import SCRIPTS, T1_DESCRIPTION, call
from hearth.agent.transcript import Transcript
from hearth.cli import main
from hearth.harness.metrics import compute_metrics
from hearth.harness.runner import (
    BackendSetup,
    ExperimentPlan,
    ScenarioTemplate,
    TrialRecord,
    run_trial,
    run_trials,
)
from hearth.harness.tasks import check_t1
from hearth.memory.embedding import HashedEmbedder
from hearth.memory.episodic import EpisodicStore
from hearth.memory.scratchpad import Scratchpad
from hearth.rpc.client import RpcClient
from hearth.rpc.server import ToolRpcServer
from hearth.tools.dispatch import MemoryHandles, ToolCall, dispatch
from hearth.world.scenario import default_scenario, default_scenario_data, load_scenario
from hearth.world.semantic_map import SemanticMap, shortest_path
from hearth.world.state import WorldState, canonical_json

from .oracles import brute_force_search, dijkstra_cost, path_cost, random_connected_map
from .test_rpc import T1_WIRE_SEQUENCE, random_arguments


@pytest.fixture
def announce(capsys):
    def _announce(number, text):
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} PASS: {text}")

    return _announce


def test_criterion_01_scripted_optimal_end_to_end(tmp_path, announce):
    started = time.perf_counter()
    plan = ExperimentPlan.from_dict(
        {
            "name": "acc1",
            "tasks": ["t1", "t2"],
            "backend": "scripted:optimal",
            "trials": 20,
            "output_dir": str(tmp_path / "acc1"),
        }
    )
    records = run_trials(plan)
    elapsed = time.perf_counter() - started

    assert len(records) == 40
    for record in records:
        assert record.termination == TERMINATION_END_TASK
        assert record.actual == "succeeded"

    # Every T2 run must stash one item at a temporary, non-final slot.
    t2_records = [r for r in records if r.task_id == "t2"]
    assert len(t2_records) == 20
    for record in t2_records:
        transcript = Transcript.read_jsonl(record.transcript_path)
        temporary_places = [
            tool_call
            for message in transcript.messages
            if message.tool_calls
            for tool_call in message.tool_calls
            if tool_call["name"] == "place"
            and not tool_call["arguments"]["slot"].startswith("shelf_")
        ]
        assert temporary_places, "t2 used no temporary storing location"

    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    announce(1, f"20/20 T1+T2 trials succeeded via end_task in {elapsed:.2f}s")


def test_criterion_02_hallucination_accounting(announce):
    plan = ExperimentPlan.from_dict(
        {
            "name": "acc2",
            "tasks": ["t1"],
            "backend": "scripted:hallucinator",
            "trials": 10,
        }
    )
    records = run_trials(plan)
    group = compute_metrics(records).group("t1", "scripted:hallucinator")
    assert group.confusion == [[0, 10], [0, 0]]
    announce(2, "hallucinator confusion matrix is exactly [[0, 10], [0, 0]]")


def test_criterion_03_refusal_after_exactly_ten(announce):
    # A backend that never acts is cut off at exactly the 10th invocation.
    world = default_scenario()
    handles = MemoryHandles(Scratchpad(), EpisodicStore(), "test")
    run = run_task(
        world, handles, ScriptedBackend(SCRIPTS["refuser"]["t1"]), T1_DESCRIPTION
    )
    assert run.termination == TERMINATION_REFUSAL
    no_action_turns = [m for m in run.messages[2:] if m.role == "assistant"]
    assert len(no_action_turns) == 10

    # Nine refusals followed by an action must not trip the rule.
    def nine_then_act():
        for _ in range(9):
            yield "let me think"
        yield call(
            "end_task",
            task_description="stress the refusal rule",
            status="failed",
            action_summary="acted on the tenth turn",
        )

    world2 = default_scenario()
    run2 = run_task(
        world2,
        MemoryHandles(Scratchpad(), EpisodicStore(), "test"),
        ScriptedBackend(nine_then_act),
        T1_DESCRIPTION,
    )
    assert run2.termination == TERMINATION_END_TASK
    announce(3, "refusal fires after exactly 10 no-action turns, never 9")


def test_criterion_04_astar_matches_dijkstra_oracle(announce):
    rng = random.Random(99)
    for trial in range(100):
        smap = random_connected_map(rng)
        nodes = sorted(smap.positions)
        start, goal = rng.choice(nodes), rng.choice(nodes)
        path = shortest_path(smap, start, goal)
        assert path is not None
        assert path[0] == start and path[-1] == goal
        for a, b in zip(path, path[1:]):
            assert b in smap.adjacency[a]
        expected = dijkstra_cost(smap, start, goal)
        assert abs(path_cost(smap, path) - expected) < 1e-9, f"trial {trial}"

    smap = default_scenario().map
    kitchen = [n for n in sorted(smap.positions) if smap.rooms[n] == "kitchen"]
    living = [n for n in sorted(smap.positions) if smap.rooms[n] == "living_room"]
    for a in kitchen:
        for b in living:
            assert "hallway" in shortest_path(smap, a, b)
    announce(4, "A* equals Dijkstra on 100 random graphs; hallway bridges rooms")


def test_criterion_05_tool_failure_contract(announce):
    world = default_scenario()
    handles = MemoryHandles(Scratchpad(), EpisodicStore(), "test")

    def run_tool(name, arguments, expect_keyword):
        before = canonical_json(world.to_dict())
        result = dispatch(ToolCall(name, arguments), world, handles)
        assert not result.ok
        assert f"({expect_keyword})" in result.message
        assert result.machine_payload["cause"] == expect_keyword
        assert canonical_json(world.to_dict()) == before

    run_tool("grab", {"object": "unicorn"}, "does-not-exist")
    run_tool("grab", {"object": "mug"}, "out-of-reach")
    run_tool("place", {"slot": "shelf_layer_1"}, "not-holding")

    dispatch(ToolCall("move_to", {"location": "kitchen_table"}), world, handles)
    dispatch(ToolCall("grab", {"object": "mug"}), world, handles)
    run_tool("grab", {"object": "box"}, "already-holding")
    run_tool("place", {"slot": "kitchen_table_layer_2"}, "occupied")
    run_tool("place", {"slot": "shelf_layer_1"}, "out-of-reach")

    # no-path needs a split map, which the scenario loader refuses to
    # build, so assemble the world directly.
    smap = SemanticMap()
    smap.add_node("a", 0.0, 0.0, "west")
    smap.add_node("b", 50.0, 0.0, "east")
    island_world = WorldState(map=smap)
    island_world.agent.location = "a"
    before = canonical_json(island_world.to_dict())
    result = dispatch(ToolCall("move_to", {"location": "b"}), island_world, handles)
    assert not result.ok
    assert "(no-path)" in result.message
    assert canonical_json(island_world.to_dict()) == before
    announce(5, "all seven failure keywords exact; failures left worlds untouched")


def test_criterion_06_memory_search_oracle(tmp_path, announce):
    vocab = [
        "mug", "cube", "box", "shelf", "table", "kitchen", "swap", "move",
        "grab", "place", "clean", "stack", "fetch", "away",
    ]
    rng = random.Random(606)
    for trial in range(50):
        store = EpisodicStore()
        descriptions = []
        for _ in range(rng.randint(1, 20)):
            text = " ".join(rng.choices(vocab, k=rng.randint(2, 7)))
            store.add(text, rng.choice(["succeeded", "failed"]), "s")
            descriptions.append(text)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        k = rng.randint(1, 6)
        got = store.search(query, k=k)
        want = brute_force_search(store.records, HashedEmbedder().embed(query), k=k)
        assert [r.id for r, _ in got] == [rid for rid, _ in want], f"trial {trial}"

        # An exact-description query must rank its record first at 1.0.
        target = rng.choice(descriptions)
        top_record, top_similarity = store.search(target, k=1)[0]
        assert top_record.task_description == target
        assert abs(top_similarity - 1.0) <= 1e-9

    # Reload from disk and require identical rankings.
    path = str(tmp_path / "store.jsonl")
    durable = EpisodicStore(path=path)
    texts = ["put the mug away", "swap the mug and cube", "stack the boxes",
             "fetch the cube", "clean the kitchen table"]
    for text in texts:
        durable.add(text, "succeeded", "s")
    reloaded = EpisodicStore(path=path)
    for query in texts + ["mug shelf", "cube swap kitchen"]:
        before = [(r.id, sim) for r, sim in durable.search(query, k=5)]
        after = [(r.id, sim) for r, sim in reloaded.search(query, k=5)]
        assert before == after
    announce(6, "search equals brute-force scan on 50 stores; reload stable")


def test_criterion_07_memory_protocol_reduces_tool_calls(announce):
    plan = ExperimentPlan.from_dict(
        {
            "name": "acc7",
            "tasks": ["t1"],
            "backend": "scripted:memory_hinted",
            "trials": 3,
            "memory_sizes": [0, 1, 2, 3],
        }
    )
    records = run_trials(plan)
    for record in records:
        assert record.memory_size_before in (0, 1, 2, 3)
    stats = (
        compute_metrics(records)
        .group("t1", "scripted:memory_hinted")
        .by_memory_size
    )
    assert set(stats) == {0, 1, 2, 3}
    assert all(stats[m]["trials"] == 3 for m in stats)
    baseline_calls = stats[0]["mean_tool_calls"]
    for size in (1, 2, 3):
        assert stats[size]["mean_tool_calls"] < baseline_calls
    announce(
        7,
        f"memory protocol grouped by size; mean calls {baseline_calls:.0f} at "
        f"m=0 vs {stats[1]['mean_tool_calls']:.0f} at m>=1",
    )


def test_criterion_08_replay_determinism(tmp_path, announce):
    out = tmp_path / "rec"
    assert main(
        ["run", "--task", "t1", "--backend", "scripted:optimal",
         "--output-dir", str(out)]
    ) == 0
    transcript_path = str(out / "run_t1.jsonl")
    assert main(["replay", transcript_path]) == 0

    with open(transcript_path) as handle:
        lines = handle.read().splitlines()
    for index, line in enumerate(lines):
        data = json.loads(line)
        if data.get("type") == "message" and data["role"] == "tool":
            data["content"] = "tampered observation"
            lines[index] = json.dumps(data)
            break
    with open(transcript_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    assert main(["replay", transcript_path]) == 1
    announce(8, "recorded run replays clean (exit 0); tampering fails (exit 1)")


def test_criterion_09_wire_conformance(announce):
    server = ToolRpcServer(
        ("127.0.0.1", 0), default_scenario_data(), expose_ground_truth=True
    )
    # shutdown() waits up to one poll; serve_forever's default is 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        with RpcClient("127.0.0.1", server.port) as client:
            client.create_session()
            for name, arguments in T1_WIRE_SEQUENCE:
                result = client.tool(name, **arguments)
                assert result["status"] == "success", result["message"]
            client.tool(
                "end_task",
                task_description="t1 over the wire",
                status="succeeded",
                action_summary="completed remotely",
            )
            assert check_t1(client.snapshot())

        rng = random.Random(909)
        mirror_world = load_scenario(default_scenario_data())
        mirror_handles = MemoryHandles(Scratchpad(), EpisodicStore(), "rpc-client")
        with RpcClient("127.0.0.1", server.port) as client:
            client.create_session()
            names = sorted(
                ["look_around", "move_to", "grab", "place", "add_to_scratchpad",
                 "view_scratchpad", "end_task", "search_memory"]
            )
            for index in range(500):
                name = rng.choice(names)
                arguments = random_arguments(rng, name)
                wire = client.tool(name, **arguments)
                local = dispatch(
                    ToolCall(name, dict(arguments)),
                    mirror_world,
                    mirror_handles,
                )
                assert canonical_json(wire) == canonical_json(local.to_dict()), (
                    f"call {index}: {name} {arguments}"
                )
    finally:
        server.shutdown()
        server.server_close()
    announce(9, "T1 passed over TCP; 500 randomized calls byte-equal to local")


def test_criterion_10_live_smoke(tmp_path, announce):
    config_path = os.environ.get("HEARTH_LIVE_BACKEND_CONFIG")
    if not config_path:
        pytest.skip(
            "live smoke not configured; set HEARTH_LIVE_BACKEND_CONFIG to an "
            "http backend config JSON to enable"
        )
    setup = BackendSetup.from_spec(f"http:{config_path}")
    outcome = run_trial(
        ScenarioTemplate.load(),
        ("t1",),
        setup,
        EpisodicStore(),
        DEFAULT_MAX_TOOL_CALLS,
        trial_id="live-000",
        transcript_dir=str(tmp_path),
    )
    assert len(outcome.records) == 1
    record = outcome.records[0]
    assert isinstance(record, TrialRecord)
    assert record.task_id == "t1"
    assert record.believed in ("succeeded", "failed")
    assert record.actual in ("succeeded", "failed")
    assert record.tool_calls >= 0
    assert os.path.exists(record.transcript_path)
    announce(
        10,
        f"live trial completed: believed={record.believed} "
        f"actual={record.actual} (task success not asserted)",
    )
