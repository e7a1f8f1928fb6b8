"""Agent core: prompt assembly, context window, loop terminations, scripts."""

import json
import os

import pytest

from hearth.agent.backends import (
    BackendError,
    BackendReply,
    ScriptedBackend,
)
from hearth.agent.context import (
    MESSAGE_BUDGET,
    PROMPT_VERSION,
    AgentContext,
    build_system_prompt,
    tool_declarations,
)
from hearth.agent.loop import (
    PARALLEL_CALLS_MESSAGE,
    TERMINATION_BACKEND_ERROR,
    TERMINATION_END_TASK,
    TERMINATION_REFUSAL,
    TERMINATION_STEP_LIMIT,
    run_task,
)
from hearth.agent.scripts import (
    SCRIPT_CALL_COUNTS,
    SCRIPTS,
    T1_DESCRIPTION,
    T2_DESCRIPTION,
    call,
    hallucinator_t1,
    optimal_t1,
    optimal_t2,
)
from hearth.agent.transcript import (
    Transcript,
    TranscriptError,
    TranscriptFinal,
    TranscriptHeader,
)
from hearth.harness.tasks import check_t1, check_t2
from hearth.tools.dispatch import TOOL_SCHEMAS, ToolCall
from hearth.world.scenario import default_scenario_data, scenario_hash
from hearth.world.state import canonical_json, snapshot

from .oracles import SHIPPED_SCRIPT_CALLS

TOOL_NAMES = set(TOOL_SCHEMAS)


def tool_messages(run):
    return [m for m in run.messages if m.role == "tool"]


class TestSystemPrompt:
    def test_mentions_every_tool(self):
        prompt = build_system_prompt()
        for name in TOOL_NAMES:
            assert name in prompt, name

    def test_version_stamp_is_last_line(self):
        prompt = build_system_prompt()
        assert prompt.splitlines()[-1] == f"[prompt-version: {PROMPT_VERSION}]"

    def test_memory_disabled_hides_search_memory(self):
        prompt = build_system_prompt(memory_enabled=False)
        assert "search_memory" not in prompt
        for name in TOOL_NAMES - {"search_memory"}:
            assert name in prompt

    def test_deterministic(self):
        assert build_system_prompt() == build_system_prompt()


class TestToolDeclarations:
    def test_full_set_when_memory_enabled(self):
        names = {d["function"]["name"] for d in tool_declarations()}
        assert names == TOOL_NAMES

    def test_search_memory_dropped_when_disabled(self):
        declarations = tool_declarations(memory_enabled=False)
        names = {d["function"]["name"] for d in declarations}
        assert names == TOOL_NAMES - {"search_memory"}


class TestAgentContext:
    def make(self):
        return AgentContext(system_prompt="sys", task_prompt="task")

    def test_first_two_messages_are_pinned_roles(self):
        context = self.make()
        assert context.messages[0].role == "system"
        assert context.messages[1].role == "user"
        assert context.messages[0].content == "sys"
        assert context.messages[1].content == "task"

    def test_wire_format_for_tool_calls(self):
        context = self.make()
        context.append_assistant_calls(
            [ToolCall("grab", {"object": "mug"}, "call-1")], "grabbing now"
        )
        wire = context.to_chat_messages()
        last = wire[-1]
        assert last["role"] == "assistant"
        assert last["content"] == "grabbing now"
        func = last["tool_calls"][0]
        assert func["id"] == "call-1"
        assert func["function"]["name"] == "grab"
        assert json.loads(func["function"]["arguments"]) == {"object": "mug"}

    def test_truncation_drops_oldest_groups_keeps_history(self):
        context = self.make()
        from hearth.tools.dispatch import success

        for i in range(110):
            look = ToolCall("look_around", {}, f"call-{i}")
            context.append_assistant_calls([look])
            context.append_tool_result(look, success(f"obs {i}"))
        assert len(context.messages) == 222 > MESSAGE_BUDGET == 200

        window = context.to_chat_messages()
        assert len(window) <= MESSAGE_BUDGET
        assert window[0]["content"] == "sys"
        assert window[1]["content"] == "task"
        # The survivors are the most recent call groups, in order.
        assert window[-1]["content"] == "obs 109"
        assert window[-2]["tool_calls"][0]["id"] == "call-109"

    def test_under_budget_sends_everything(self):
        context = self.make()
        context.append_assistant_text("thinking")
        assert len(context.to_chat_messages()) == 3


LOOK = call("look_around")
END = call(
    "end_task",
    task_description="stress the refusal rule",
    status="failed",
    action_summary="acted after the texts",
)


def run_turns(world, handles, turns):
    """Run a script that yields `turns` (texts and calls) in order."""

    def script():
        for turn in turns:
            yield turn

    return run_task(world, handles, ScriptedBackend(script), "inspect the house")


def assistant_turns(run):
    return [m for m in run.messages if m.role == "assistant"]


class TestDetectRefusal:
    """The refusal rule: REFUSAL_THRESHOLD replies in a row without a
    tool call end the run; any reply with a call resets the count."""

    def test_below_threshold(self, world, handles):
        run = run_turns(world, handles, ["hmm"] * 9 + [END])
        assert run.termination == TERMINATION_END_TASK
        assert run.tool_calls == 1

    def test_at_threshold(self, world, handles):
        run = run_turns(world, handles, ["hmm"] * 10 + [END])
        assert run.termination == TERMINATION_REFUSAL
        assert run.tool_calls == 0
        assert len(assistant_turns(run)) == 10

    def test_action_resets_the_streak(self, world, handles):
        run = run_turns(world, handles, ["hmm"] * 9 + [LOOK] + ["hmm"] * 9 + [END])
        assert run.termination == TERMINATION_END_TASK
        assert run.tool_calls == 2

        run = run_turns(world, handles, ["hmm"] * 9 + [LOOK] + ["hmm"] * 10 + [END])
        assert run.termination == TERMINATION_REFUSAL
        assert run.tool_calls == 1
        assert len(assistant_turns(run)) == 20

    def test_parallel_calls_reset_the_streak(self, world, handles):
        class ParallelMidway:
            turn = 0

            def next_action(self, context, declarations):
                self.turn += 1
                if self.turn == 10:
                    return BackendReply(
                        calls=[
                            ToolCall("look_around", {}, "call-a"),
                            ToolCall("look_around", {}, "call-b"),
                        ]
                    )
                return BackendReply(text="hmm")

        run = run_task(world, handles, ParallelMidway(), "inspect the house")
        assert run.termination == TERMINATION_REFUSAL
        assert run.tool_calls == 0
        assert len(assistant_turns(run)) == 20

    def test_only_the_trailing_run_counts(self, world, handles):
        # The rule fires on the tenth text in a row; the action after
        # the twentieth is never reached.
        run = run_turns(world, handles, ["hmm"] * 20 + [LOOK])
        assert run.termination == TERMINATION_REFUSAL
        assert run.tool_calls == 0
        assert len(assistant_turns(run)) == 10


def run_script(world, handles, script, **kwargs):
    backend = ScriptedBackend(script)
    prompt = T2_DESCRIPTION if script is optimal_t2 else T1_DESCRIPTION
    return run_task(world, handles, backend, prompt, **kwargs)


def script_calls(factory, first_result):
    """What a script yields when its first call gets `first_result` back
    and every later call gets "ok"."""
    script, calls, result = factory(), [], None
    while True:
        try:
            calls.append(script.send(result))
        except StopIteration:
            return calls
        result = first_result if len(calls) == 1 else "ok"


@pytest.mark.parametrize("key", list(SHIPPED_SCRIPT_CALLS), ids=repr)
def test_shipped_scripts_yield_the_reference_calls(key):
    name, task_id, first_result = key
    want = SHIPPED_SCRIPT_CALLS[key]
    assert script_calls(SCRIPTS[name][task_id], first_result) == want
    counts = SCRIPT_CALL_COUNTS[(name, task_id)]
    if name == "memory_hinted":
        counts = counts[first_result.startswith("Found 1")]
    assert len(want) == counts


class TestScriptedRuns:
    def test_optimal_t1(self, world, handles):
        run = run_script(world, handles, optimal_t1)
        assert run.termination == TERMINATION_END_TASK
        assert run.believed_status == "succeeded"
        assert run.tool_calls == 14
        assert check_t1(snapshot(world))
        assert len(run.messages) == 2 + 2 * 14

    def test_optimal_t2_after_t1(self, world, handles):
        run_script(world, handles, optimal_t1)
        baseline = snapshot(world)
        run = run_script(world, handles, optimal_t2)
        assert run.termination == TERMINATION_END_TASK
        assert run.believed_status == "succeeded"
        assert run.tool_calls == 13
        assert check_t2(snapshot(world), baseline)

    def test_hallucinator_believes_but_fails(self, world, handles):
        run = run_script(world, handles, hallucinator_t1)
        assert run.termination == TERMINATION_END_TASK
        assert run.believed_status == "succeeded"
        assert run.tool_calls == 9
        assert not check_t1(snapshot(world))

    def test_refuser_trips_the_refusal_detector(self, world, handles):
        run = run_script(world, handles, SCRIPTS["refuser"]["t1"])
        assert run.termination == TERMINATION_REFUSAL
        assert run.believed_status is None
        assert run.tool_calls == 0
        texts = [m for m in run.messages if m.role == "assistant"]
        assert len(texts) == 10

    def test_tool_call_count_matches_tool_messages(self, world, handles):
        run = run_script(world, handles, optimal_t1)
        assert len(tool_messages(run)) == run.tool_calls

    def test_end_task_files_a_report(self, world, handles):
        run_script(world, handles, optimal_t1)
        assert len(handles.store) == 1
        record = handles.store.records[0]
        assert record.believed_status == "succeeded"
        assert record.task_description == T1_DESCRIPTION


class TestTerminations:
    def test_step_limit_cuts_off_exactly_at_budget(self, world, handles):
        run = run_script(world, handles, optimal_t1, max_tool_calls=5)
        assert run.termination == TERMINATION_STEP_LIMIT
        assert run.tool_calls == 5
        assert run.believed_status is None

    def test_budget_equal_to_script_length_still_finishes(self, world, handles):
        run = run_script(world, handles, optimal_t1, max_tool_calls=14)
        assert run.termination == TERMINATION_END_TASK
        assert run.tool_calls == 14

    def test_budget_one_short_hits_the_limit(self, world, handles):
        run = run_script(world, handles, optimal_t1, max_tool_calls=13)
        assert run.termination == TERMINATION_STEP_LIMIT
        assert run.tool_calls == 13

    def test_nine_refusals_then_action_does_not_refuse(self, world, handles):
        def waffler():
            for _ in range(9):
                yield "thinking..."
            yield call("look_around")
            for _ in range(9):
                yield "still thinking..."
            yield call(
                "end_task",
                task_description="looked around",
                status="failed",
                action_summary="nothing to do",
            )

        run = run_task(world, handles, ScriptedBackend(waffler), "inspect the house")
        assert run.termination == TERMINATION_END_TASK
        assert run.tool_calls == 2

    def test_backend_error_terminates_the_run(self, world, handles):
        run = run_task(world, handles, Exploding(), "do anything")
        assert run.termination == TERMINATION_BACKEND_ERROR
        assert run.error == "socket burned down"
        assert run.believed_status is None
        assert run.messages[-1].content == "[backend error: socket burned down]"
        assert run.tool_calls == 0


class Exploding:
    """Backend whose transport fails on the first turn."""

    def next_action(self, context, declarations):
        raise BackendError("socket burned down")


class ParallelThenEnd:
    """Backend that proposes two calls at once, then ends properly."""

    def __init__(self):
        self.turn = 0

    def next_action(self, context, declarations):
        self.turn += 1
        if self.turn == 1:
            return BackendReply(
                text="doing two things at once",
                calls=[
                    ToolCall("grab", {"object": "mug"}, "call-a"),
                    ToolCall("look_around", {}, "call-b"),
                ],
            )
        return BackendReply(
            text=None,
            calls=[
                ToolCall(
                    "end_task",
                    {
                        "task_description": "exercise parallel rejection",
                        "status": "failed",
                        "action_summary": "calls were rejected",
                    },
                    "call-c",
                )
            ],
        )


class TestParallelCalls:
    def test_rejected_with_corrective_messages_and_not_counted(self, world, handles):
        before = canonical_json(world.to_dict())
        run = run_task(world, handles, ParallelThenEnd(), "try parallel calls")
        assert run.termination == TERMINATION_END_TASK
        assert run.tool_calls == 1

        rejections = [
            m
            for m in run.messages
            if m.role == "tool"
            and m.tool_result["machine_payload"].get("cause") == "parallel-calls"
        ]
        assert len(rejections) == 2
        assert {m.tool_result["call_id"] for m in rejections} == {"call-a", "call-b"}
        for message in rejections:
            assert message.content == PARALLEL_CALLS_MESSAGE

        # The grab proposed in the parallel turn never executed.
        restored = json.loads(before)
        assert world.agent.held is None
        assert canonical_json(world.to_dict()).count('"held":null') == (
            canonical_json(restored).count('"held":null')
        )


class TestScratchpadLifecycle:
    def test_cleared_at_task_start(self, world, handles):
        handles.scratchpad.append("stale note from a previous task")

        def peeker():
            yield call("view_scratchpad")
            yield call(
                "end_task",
                task_description="check the pad",
                status="succeeded",
                action_summary="looked at notes",
            )

        run = run_task(world, handles, ScriptedBackend(peeker), "check the pad")
        view = tool_messages(run)[0]
        assert view.content == "The scratchpad is empty."


class TestTranscriptRoundtrip:
    def build(self, world, handles):
        initial_world = world.to_dict()
        run = run_script(world, handles, optimal_t1)
        data = default_scenario_data()
        header = TranscriptHeader(
            scenario=data,
            scenario_hash=scenario_hash(data),
            prompt_version=PROMPT_VERSION,
            model_id="scripted:optimal",
            task_id="t1",
            task_prompt=T1_DESCRIPTION,
            initial_world=initial_world,
            seed=7,
        )
        final = TranscriptFinal(
            termination=run.termination,
            believed_status=run.believed_status,
            tool_calls=run.tool_calls,
            snapshot=snapshot(world),
        )
        return Transcript(header, run.messages, final)

    def test_write_read_preserves_everything(self, tmp_path, world, handles):
        transcript = self.build(world, handles)
        path = str(tmp_path / "run.jsonl")
        transcript.write_jsonl(path)

        loaded = Transcript.read_jsonl(path)
        assert loaded.header.to_dict() == transcript.header.to_dict()
        assert loaded.final.to_dict() == transcript.final.to_dict()
        assert loaded.messages == transcript.messages

    def test_failed_write_leaves_the_old_file(self, tmp_path, world, handles, monkeypatch):
        """A write that fails partway, here in encoding the final line,
        leaves the file it would replace intact and no file beside it."""
        transcript = self.build(world, handles)
        path = tmp_path / "run.jsonl"
        transcript.write_jsonl(str(path))
        before = path.read_bytes()
        transcript.final.tool_calls += 1
        dumps = json.dumps

        def failing_dumps(obj, **kwargs):
            if obj.get("type") == "final":
                raise RuntimeError("encoder failed")
            return dumps(obj, **kwargs)

        monkeypatch.setattr("hearth.agent.transcript.json.dumps", failing_dumps)
        with pytest.raises(RuntimeError, match="encoder failed"):
            transcript.write_jsonl(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["run.jsonl"]

    def test_missing_final_line_rejected(self, tmp_path, world, handles):
        transcript = self.build(world, handles)
        path = str(tmp_path / "run.jsonl")
        transcript.write_jsonl(path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TranscriptError, match="missing final"):
            Transcript.read_jsonl(path)

    def test_missing_header_rejected(self, tmp_path, world, handles):
        transcript = self.build(world, handles)
        path = str(tmp_path / "run.jsonl")
        transcript.write_jsonl(path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[1:]) + "\n")
        with pytest.raises(TranscriptError, match="missing header"):
            Transcript.read_jsonl(path)
