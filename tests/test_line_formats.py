"""Line formats: each record's dataclass writes what the hand-written
serializers in oracles.py wrote, byte for byte, and reads it back."""

import json
import os

import pytest

from hearth.agent.context import AgentContext
from hearth.agent.loop import DEFAULT_MAX_TOOL_CALLS
from hearth.agent.transcript import (
    TranscriptFinal,
    TranscriptHeader,
    TranscriptMessage,
)
from hearth.harness.metrics import compute_metrics, emit_report
from hearth.harness.runner import (
    ExperimentPlan,
    ScenarioTemplate,
    execute_task,
    run_trials,
    seed_store,
    task_header,
)
from hearth.harness.tasks import TASKS
from hearth.memory.scratchpad import Scratchpad
from hearth.tools.dispatch import MemoryHandles, ToolCall, ToolResult
from hearth.world.state import WorldState

from .oracles import (
    call_dict,
    final_dict,
    header_dict,
    message_dict,
    metrics_json,
    result_dict,
    tool_result_entry,
    trials_jsonl,
)
from .test_agent_loop import Exploding, ParallelThenEnd

PLANS = {
    "optimal": {"tasks": ["t1", "t2"], "backend": "scripted:optimal", "trials": 2,
                "seed": 5},
    "hallucinator": {"tasks": ["t1"], "backend": "scripted:hallucinator"},
    "refuser": {"tasks": ["t1"], "backend": "scripted:refuser"},
    "memory-hinted": {"tasks": ["t1"], "backend": "scripted:memory_hinted",
                      "trials": 2, "memory_sizes": [0, 1, 2, 3], "parallelism": 2},
}

ORACLES = {
    "header": (TranscriptHeader, header_dict),
    "message": (TranscriptMessage, message_dict),
    "final": (TranscriptFinal, final_dict),
}


def run_plan(tmp_path, name):
    """Run PLANS[name] into its own directory; return that directory
    and the plan's records."""
    out = tmp_path / name
    plan = ExperimentPlan.from_dict(
        {"name": name, "output_dir": str(out), **PLANS[name]}
    )
    return out, run_trials(plan)


def run_backend(tmp_path, name, backend):
    """Run t1 with a hand-built test backend; return its transcript's path."""
    scenario = ScenarioTemplate.load()
    world = WorldState.from_dict(scenario.initial_world)
    store = seed_store([{"task_description": "put the mug away",
                         "believed_status": "failed", "action_summary": "dropped it"}])
    handles = MemoryHandles(Scratchpad(), store, "m")
    header = task_header(scenario, TASKS["t1"], "m", 9, True, handles.store, world)
    _, transcript = execute_task(
        world, handles, backend, header, DEFAULT_MAX_TOOL_CALLS
    )
    path = str(tmp_path / f"{name}.jsonl")
    transcript.write_jsonl(path)
    return path


@pytest.fixture(scope="module")
def plan_runs(tmp_path_factory):
    """Each of PLANS run once: name -> (output directory, records)."""
    tmp_path = tmp_path_factory.mktemp("lines")
    return {name: run_plan(tmp_path, name) for name in PLANS}


@pytest.fixture(scope="module")
def transcript_paths(tmp_path_factory, plan_runs):
    tmp_path = tmp_path_factory.mktemp("backends")
    paths = []
    for out, _ in plan_runs.values():
        directory = out / "transcripts"
        paths += [str(directory / entry) for entry in sorted(os.listdir(directory))]
    paths.append(run_backend(tmp_path, "backend-error", Exploding()))
    paths.append(run_backend(tmp_path, "parallel-calls", ParallelThenEnd()))
    return paths


def written_lines(paths):
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            yield from handle


def test_runs_cover_every_line_shape(transcript_paths):
    terminations = set()
    causes = set()
    seeded_headers = 0
    for line in written_lines(transcript_paths):
        data = json.loads(line)
        if data["type"] == "final":
            terminations.add(data["termination"])
        if data.get("tool_result"):
            causes.add(data["tool_result"]["machine_payload"].get("cause"))
        if data["type"] == "header" and data["initial_memories"]:
            seeded_headers += 1
    assert terminations == {"end_task", "refusal", "backend_error"}
    assert "parallel-calls" in causes
    assert seeded_headers > 0


def test_every_line_equals_the_oracle_and_round_trips(transcript_paths):
    for line in written_lines(transcript_paths):
        data = json.loads(line)
        cls, oracle = ORACLES[data["type"]]
        record = cls.from_dict(data)
        assert json.dumps(oracle(record), sort_keys=True) + "\n" == line
        assert cls.from_dict(record.to_dict()) == record


def test_trials_jsonl_equals_the_oracle(plan_runs):
    for out, records in plan_runs.values():
        assert (out / "trials.jsonl").read_text(encoding="utf-8") == trials_jsonl(records)


def test_calls_and_results_equal_the_oracle(transcript_paths):
    """The dicts a context builds for a call and its result name the same
    keys in the same order as the oracle: replay's divergence text shows
    them as Python reprs."""
    context = AgentContext("sys", "task")
    checked = 0
    for line in written_lines(transcript_paths):
        data = json.loads(line)
        if data["type"] != "message":
            continue
        for raw in data.get("tool_calls") or []:
            call = ToolCall(raw["name"], raw["arguments"], raw["id"])
            message = context.append_assistant_calls([call])
            assert repr(message.tool_calls) == repr([call_dict(call)])
            checked += 1
        if data.get("tool_result"):
            raw = data["tool_result"]
            call = ToolCall(raw["name"], {}, raw["call_id"])
            result = ToolResult(raw["status"], raw["message"], raw["machine_payload"])
            assert repr(result.to_dict()) == repr(result_dict(result))
            message = context.append_tool_result(call, result)
            assert repr(message.tool_result) == repr(tool_result_entry(call, result))
            assert message.tool_result == raw
            checked += 1
    assert checked > 100


def test_memory_protocol_metrics_json_equals_the_oracle(tmp_path):
    out, records = run_plan(tmp_path, "memory-hinted")
    report = compute_metrics(records)
    assert sorted(report.groups[0].by_memory_size) == [0, 1, 2, 3]
    emit_report(report, str(out))
    assert (out / "metrics.json").read_text() == metrics_json(report)



def test_left_out_optional_fields_take_their_defaults(transcript_paths):
    """A line may leave out a field with a default, and may carry keys
    that name no field."""
    with open(transcript_paths[0], encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    header, final = lines[0], lines[-1]
    for key in ("seed", "memory_enabled", "initial_memories", "memory_count",
                "memory_next_seq"):
        del header[key]
    del final["believed_status"]
    header["comment"] = final["comment"] = "hand-edited"
    loaded = TranscriptHeader.from_dict(header)
    assert (loaded.seed, loaded.memory_enabled, loaded.initial_memories,
            loaded.memory_count, loaded.memory_next_seq) == (None, True, [], None, None)
    assert TranscriptFinal.from_dict(final).believed_status is None
    del final["snapshot"]
    with pytest.raises(KeyError, match="snapshot"):
        TranscriptFinal.from_dict(final)
