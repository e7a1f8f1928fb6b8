"""Replay as a library: verdicts, unreplayable recordings, recorded batches."""

import copy
import json
import os
import re
import tempfile
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hearth.agent.backends import BackendError, RecordedReplayBackend, ScriptedBackend
from hearth.agent.loop import DEFAULT_MAX_TOOL_CALLS
from hearth.agent.scripts import call
from hearth.agent.transcript import Transcript, TranscriptError, TranscriptMessage
from hearth.cli import main
from hearth.harness.runner import (
    BackendSetup,
    ExperimentPlan,
    ReplayReport,
    ScenarioTemplate,
    execute_task,
    replay_transcript,
    run_trial,
    run_trials,
    task_header,
)
from hearth.harness.tasks import TASKS
from hearth.memory.episodic import BELIEVED_STATUSES, EpisodicStore
from hearth.memory.scratchpad import Scratchpad
from hearth.tools.dispatch import MemoryHandles
from hearth.world.scenario import scenario_hash
from hearth.world.state import WorldState

from .oracles import prefix_checking_replay


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


def change_call_arguments(transcript):
    """The first move_to goes elsewhere, so its live tool result differs."""
    turn = next(
        m for m in transcript.messages
        if m.tool_calls and m.tool_calls[0]["name"] == "move_to"
    )
    turn.tool_calls[0]["arguments"] = {"location": "living_room_table"}


def drop_last_turn(transcript):
    del transcript.messages[-2:]


def retemplate_tool_messages(transcript):
    for message in transcript.messages:
        if message.role == "tool":
            message.content = f"Result: {message.content}"


def tamper_and_drop_last_turn(transcript):
    """A differing message in a recording that is also too short: the
    message, not the length, is named."""
    tamper_tool_message(transcript)
    drop_last_turn(transcript)


@pytest.mark.parametrize(
    "edit",
    [
        lambda transcript: None,
        tamper_tool_message,
        add_message,
        drop_message,
        change_termination,
        move_agent,
        claim_more_tool_calls,
        claim_failure,
        change_call_arguments,
        drop_last_turn,
        retemplate_tool_messages,
        tamper_and_drop_last_turn,
    ],
    ids=["clean", "message", "extra-message", "missing-message", "termination",
         "snapshot", "final-tool-calls", "final-believed-status",
         "call-arguments", "last-turn-dropped", "tool-messages-retemplated",
         "message-and-last-turn"],
)
def test_verdict_equals_prefix_checking_oracle(tmp_path, capsys, recording, edit):
    """Comparing once, after the run, gives the verdict and exit code of
    checking the live prefix before every turn, and names the same first
    differing message."""
    edit(recording)
    path = str(tmp_path / "edited.jsonl")
    recording.write_jsonl(path)
    expected = prefix_checking_replay(Transcript.read_jsonl(path))
    divergence = replay_transcript(Transcript.read_jsonl(path)).divergence
    assert (divergence is None) == (expected is None)
    assert main(["replay", path]) == (0 if expected is None else 1)
    capsys.readouterr()
    named = re.match(r"replay divergence at message index (\d+): live message ", expected or "")
    if named:
        assert divergence.startswith(named.group(0))
        assert " != recorded " in divergence


def test_clean_replay_compares_each_message_once(recording, monkeypatch):
    """A clean optimal t1 replay compares each live message with its
    recording once, and no more."""
    calls = []
    equal = TranscriptMessage.__eq__

    def counting(message, other):
        calls.append(message.index)
        return equal(message, other)

    monkeypatch.setattr(TranscriptMessage, "__eq__", counting)
    assert replay_transcript(recording) == ReplayReport(30, 14, "end_task")
    assert calls == list(range(30))


def rename_tool(transcript):
    tool = next(m for m in transcript.messages if m.role == "tool")
    tool.tool_result["name"] = "grab"


def forge_payload(transcript):
    tool = next(m for m in transcript.messages if m.role == "tool")
    tool.tool_result["machine_payload"]["room"] = "garage"


@pytest.mark.parametrize("edit", [rename_tool, forge_payload],
                         ids=["tool-name", "machine-payload"])
def test_tampered_tool_result_field_exits_1(tmp_path, capsys, recording, edit):
    """Replay compares every field of a message, so a tool result whose
    name or machine payload was edited diverges at its message."""
    edit(recording)
    path = str(tmp_path / "edited.jsonl")
    recording.write_jsonl(path)
    assert main(["replay", path]) == 1
    assert capsys.readouterr().err.startswith(
        "replay diverged: replay divergence at message index 3: live message "
    )


def test_read_and_replay_build_the_starting_world_once(tmp_path, monkeypatch):
    """Reading a header builds no world; each replay builds its starting
    world once, and a second replay of the same transcript reports the
    same."""
    path = record(tmp_path, BackendSetup.from_spec("scripted:optimal").make("t1"))
    build = WorldState.from_dict.__func__
    builds = []

    def counting(cls, data):
        builds.append(data)
        return build(cls, data)

    monkeypatch.setattr(WorldState, "from_dict", classmethod(counting))
    transcript = Transcript.read_jsonl(path)
    assert builds == []
    first = replay_transcript(transcript)
    assert len(builds) == 1
    assert replay_transcript(transcript) == first == ReplayReport(30, 14, "end_task")
    assert len(builds) == 2


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


# Every description and query is drawn from these words, so searches hit,
# tie and miss in many orders.
WORDS = ("put", "the", "mug", "box", "away", "shelf", "water", "plants")
SENTENCES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)


@st.composite
def store_lines(draw):
    """Store lines with gaps in their ids, ids and created_at values out of
    file order, repeated created_at values and repeated descriptions."""
    numbers = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8, unique=True))
    descriptions = draw(st.lists(SENTENCES, min_size=1, max_size=4))
    return [
        {"id": f"mem-{number:06d}", "created_at": draw(st.integers(1, 12)),
         "task_description": draw(st.sampled_from(descriptions)),
         "believed_status": draw(st.sampled_from(BELIEVED_STATUSES)),
         "action_summary": "did it", "model_id": "m"}
        for number in numbers
    ]


class Searcher:
    """A backend setup whose agent searches memory once per query, then
    files its report."""

    model_id = "searcher"

    def __init__(self, queries):
        self.queries = queries

    def make(self, task_id):
        def script():
            for query in self.queries:
                yield call("search_memory", query=query)
            yield call("end_task", task_description="put the mug away",
                       status="succeeded", action_summary="searched first")

        return ScriptedBackend(script)


@cache
def bundled_scenario():
    return ScenarioTemplate.load()


def live_replay(transcript):
    """The transcript a replay of `transcript` runs, before comparing."""
    header = transcript.header
    store = EpisodicStore.from_dicts(header.initial_memories, header.memory_next_seq)
    handles = MemoryHandles(Scratchpad(), store, header.model_id)
    backend = RecordedReplayBackend(transcript)
    max_tool_calls = transcript.final.tool_calls + 1
    world = WorldState.from_dict(header.initial_world)
    return execute_task(world, handles, backend, header, max_tool_calls)[1]


@settings(max_examples=150, deadline=None)
@given(lines=store_lines(), queries=st.lists(SENTENCES, max_size=4),
       memory_enabled=st.booleans())
def test_pruned_header_replays_as_the_whole_store_does(lines, queries, memory_enabled):
    """A header keeps the records the run's searches returned, in store
    order. Replaying it runs the messages and final line that replaying
    the same run with the whole store in the header and neither
    memory_count nor memory_next_seq, as headers were once written, runs:
    the recorded ones. A run with memory disabled keeps none: its agent's
    searches fail as calls to an unknown tool."""
    with tempfile.TemporaryDirectory() as directory:
        store_path = os.path.join(directory, "store.jsonl")
        with open(store_path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(line) + "\n" for line in lines)
        store = EpisodicStore(path=store_path)
        run_trial(bundled_scenario(), ("t1",), Searcher(queries), store,
                  DEFAULT_MAX_TOOL_CALLS, "diff", directory, memory_enabled=memory_enabled)
        pruned = Transcript.read_jsonl(os.path.join(directory, "diff_t1.jsonl"))
        whole = copy.deepcopy(pruned)
        whole.header.initial_memories = lines
        whole.header.memory_count = whole.header.memory_next_seq = None
        whole_path = os.path.join(directory, "whole.jsonl")
        whole.write_jsonl(whole_path)
        whole = Transcript.read_jsonl(whole_path)
    header = pruned.header
    returned = {
        hit["id"]
        for message in pruned.messages
        if message.tool_result and message.tool_result["name"] == "search_memory"
        for hit in message.tool_result["machine_payload"].get("results", ())
    }
    assert memory_enabled or not returned
    assert header.initial_memories == [line for line in lines if line["id"] in returned]
    added = store.records[-1]
    assert header.memory_count == len(lines)
    assert (added.id, added.created_at) == (
        f"mem-{header.memory_next_seq:06d}", header.memory_next_seq)
    pruned_live, whole_live = live_replay(pruned), live_replay(whole)
    assert pruned_live.messages == whole_live.messages == pruned.messages
    assert pruned_live.final == whole_live.final
    assert replay_transcript(pruned).divergence is None
    assert replay_transcript(whole).divergence is None


# The frozen corpus: transcripts recorded by an earlier hearth, each with
# the `hearth run` arguments that recorded it. A change that alters what a
# run writes shows up here as a diff to a committed file.
CORPUS = os.path.join(os.path.dirname(__file__), "data", "replay")
CORPUS_RUNS = {
    "optimal_t1.jsonl": ["--task", "t1", "--backend", "scripted:optimal"],
    "optimal_t2.jsonl": ["--task", "t2", "--backend", "scripted:optimal",
                         "--baseline", os.path.join(CORPUS, "baseline.json")],
    "hallucinator_t1.jsonl": ["--task", "t1", "--backend", "scripted:hallucinator"],
    # In this order: the miss leaves the one record that the hit finds.
    "memory_hinted_t1_miss.jsonl": ["--task", "t1", "--backend", "scripted:memory_hinted"],
    "memory_hinted_t1_hit.jsonl": ["--task", "t1", "--backend", "scripted:memory_hinted"],
}


@pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
def test_corpus_transcript_replays(name, capsys):
    assert main(["replay", os.path.join(CORPUS, name)]) == 0
    assert capsys.readouterr().out.startswith("replay ok:")


def test_corpus_rerecords_byte_for_byte(tmp_path):
    for name, args in CORPUS_RUNS.items():
        out = tmp_path / name
        if name.startswith("memory_"):
            args = [*args, "--memory", str(tmp_path / "store.jsonl")]
        main(["run", *args, "--output-dir", str(out)])
        written = {"t1": "run_t1.jsonl", "t2": "run_t2.jsonl"}[args[1]]
        with open(os.path.join(CORPUS, name), "rb") as committed:
            assert (out / written).read_bytes() == committed.read(), name
    with open(os.path.join(CORPUS, "baseline.json"), "rb") as committed:
        assert (tmp_path / "optimal_t1.jsonl" / "baseline.json").read_bytes() == committed.read()
