"""Replay as a library: verdicts, unreplayable recordings, recorded batches."""

import copy
import os

import pytest

from hearth.agent.backends import BackendError, ScriptedBackend
from hearth.agent.loop import DEFAULT_MAX_TOOL_CALLS
from hearth.agent.scripts import call
from hearth.agent.transcript import Transcript, TranscriptError
from hearth.cli import main
from hearth.harness.runner import (
    BackendSetup,
    ExperimentPlan,
    ReplayReport,
    ScenarioTemplate,
    execute_task,
    replay_transcript,
    run_trials,
    task_header,
)
from hearth.harness.tasks import TASKS
from hearth.memory.episodic import EpisodicStore
from hearth.memory.scratchpad import Scratchpad
from hearth.tools.dispatch import MemoryHandles
from hearth.world.scenario import scenario_hash
from hearth.world.state import WorldState


def record(tmp_path, backend):
    """Run t1 from the bundled scenario; return its transcript's path."""
    scenario = ScenarioTemplate.load()
    world = WorldState.from_dict(scenario.initial_world)
    store = EpisodicStore()
    header = task_header(scenario, TASKS["t1"], "m", None, True, store, world)
    handles = MemoryHandles(Scratchpad(), store, "m")
    _, transcript = execute_task(
        world, handles, backend, header, DEFAULT_MAX_TOOL_CALLS
    )
    path = str(tmp_path / "run_t1.jsonl")
    transcript.write_jsonl(path)
    return path


@pytest.fixture
def recording(tmp_path):
    """An optimal t1 transcript, as read back from its file."""
    backend = BackendSetup.from_spec("scripted:optimal").make("t1")
    return Transcript.read_jsonl(record(tmp_path, backend))


def tamper_tool_message(transcript):
    tool = next(m for m in transcript.messages if m.role == "tool")
    tool.content = "Grabbed sandwich."


def add_message(transcript):
    transcript.messages.append(copy.deepcopy(transcript.messages[-1]))


def drop_message(transcript):
    transcript.messages.pop()


def change_termination(transcript):
    transcript.final.termination = "refusal"


def move_agent(transcript):
    transcript.final.snapshot["agent"]["location"] = "living_room_center"


def claim_more_tool_calls(transcript):
    transcript.final.tool_calls = 99


def claim_failure(transcript):
    transcript.final.believed_status = "failed"


@pytest.mark.parametrize(
    "edit, divergence",
    [
        (lambda transcript: None, None),
        (tamper_tool_message, "replay divergence at message index 3: live message"),
        (add_message, "live run has 30 messages, recording has 31"),
        (drop_message, "live run has 30 messages, recording has 29"),
        (change_termination, "termination 'end_task' != recorded 'refusal'"),
        (move_agent, "final snapshot differs from the recording"),
        (claim_more_tool_calls, "final tool_calls 14 != recorded 99"),
        (claim_failure, "final believed_status 'succeeded' != recorded 'failed'"),
    ],
    ids=["clean", "message", "extra-message", "missing-message", "termination",
         "snapshot", "final-tool-calls", "final-believed-status"],
)
def test_verdict(recording, edit, divergence):
    edit(recording)
    report = replay_transcript(recording)
    if divergence is None:
        assert report == ReplayReport(30, 14, "end_task")
    else:
        assert report.divergence is not None
        assert report.divergence.startswith(divergence)


def test_edited_final_line_fails_replay(tmp_path, capsys):
    """A final line claiming another count and belief is a divergence
    (exit 1), not a clean replay."""
    path = record(tmp_path, BackendSetup.from_spec("scripted:optimal").make("t1"))
    transcript = Transcript.read_jsonl(path)
    transcript.final.tool_calls = 99
    transcript.final.believed_status = "failed"
    transcript.write_jsonl(path)
    assert main(["replay", path]) == 1
    assert capsys.readouterr().err == (
        "replay diverged: final tool_calls 14 != recorded 99\n"
    )


def test_prompt_version_mismatch(recording):
    recording.header.prompt_version = "v0"
    with pytest.raises(TranscriptError) as info:
        replay_transcript(recording)
    assert str(info.value) == (
        "transcript prompt version 'v0' does not match current 'v1'"
    )


def test_scenario_hash_mismatch(recording):
    header = recording.header
    header.scenario["agent"]["location"] = "kitchen_center"
    with pytest.raises(TranscriptError) as info:
        replay_transcript(recording)
    assert str(info.value) == (
        f"scenario hash mismatch: header says {header.scenario_hash}, "
        f"scenario hashes to {scenario_hash(header.scenario)}"
    )


def three_calls_then_backend_error():
    yield call("look_around")
    yield call("move_to", location="kitchen_table")
    yield call("grab", object="mug")
    raise BackendError("connection reset by peer")


def two_calls_then_text():
    yield call("look_around")
    yield call("move_to", location="kitchen_table")


@pytest.mark.parametrize(
    "script, expected",
    [
        (three_calls_then_backend_error,
         "replay ok: 9 messages, 3 tool calls, termination backend_error\n"),
        (two_calls_then_text,
         "replay ok: 16 messages, 2 tool calls, termination refusal\n"),
    ],
    ids=["backend_error", "refusal"],
)
def test_run_that_ended_after_its_last_tool_call_replays(
    tmp_path, capsys, script, expected
):
    """Replay reaches the turn a run ended on after its last tool call:
    the recorded backend error is raised again, and a refusal is not cut
    short by the tool-call cap."""
    path = record(tmp_path, ScriptedBackend(script))
    assert main(["replay", path]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "plan",
    [
        {"tasks": ["t1", "t2"], "backend": "scripted:optimal", "trials": 2},
        {"tasks": ["t1"], "backend": "scripted:hallucinator", "trials": 2},
        {"tasks": ["t1"], "backend": "scripted:memory_hinted", "trials": 2,
         "memory_sizes": [0, 1, 2, 3]},
    ],
    ids=["optimal", "hallucinator", "memory-protocol"],
)
def test_every_recorded_trial_replays(tmp_path, plan):
    plan = ExperimentPlan.from_dict(
        {"name": "sweep", "output_dir": str(tmp_path), "seed": 5, **plan}
    )
    records = run_trials(plan)
    directory = tmp_path / "transcripts"
    reports = {
        name: replay_transcript(Transcript.read_jsonl(str(directory / name)))
        for name in os.listdir(directory)
    }
    assert len(reports) == len(records)
    for trial in records:
        report = reports[os.path.basename(trial.transcript_path)]
        assert report == ReplayReport(
            report.messages, trial.tool_calls, trial.termination
        )
