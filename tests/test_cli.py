"""Command line: exit codes, baseline flow, replay verification, reports."""

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

from hearth.agent.scripts import T1_DESCRIPTION
from hearth.agent.transcript import Transcript, TranscriptError
from hearth import cli
from hearth.cli import COMMANDS, main
from hearth.harness import runner
from hearth.memory.episodic import EpisodicStore
from hearth.world.scenario import default_scenario_data

from .oracles import dense_embed, whole_cli_parser

RUN_T1 = ["run", "--task", "t1", "--backend", "scripted:optimal"]
MISSING = object()


def read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def no_turn_replayed(*args):
    raise AssertionError("a turn ran")


@pytest.fixture
def t1_output(tmp_path):
    """A completed t1 run: transcript plus baseline in one directory."""
    out = tmp_path / "t1"
    code = main(RUN_T1 + ["--output-dir", str(out)])
    assert code == 0
    return out


class TestRunExitCodes:
    def test_optimal_t1_succeeds(self, capsys):
        assert main(RUN_T1) == 0
        out = capsys.readouterr().out
        assert "task: t1" in out
        assert "believed: succeeded" in out
        assert "actual: succeeded" in out
        assert "tool calls: 14" in out
        assert "termination: end_task" in out

    def test_hallucinator_reports_disagreement(self, capsys):
        code = main(["run", "--task", "t1", "--backend", "scripted:hallucinator"])
        assert code == 1
        out = capsys.readouterr().out
        assert "believed: succeeded" in out
        assert "actual: failed" in out

    def test_refuser_fails(self, capsys):
        code = main(["run", "--task", "t1", "--backend", "scripted:refuser"])
        assert code == 1
        out = capsys.readouterr().out
        assert "termination: refusal" in out
        assert "tool calls: 0" in out

    def test_step_limit_fails(self, capsys):
        code = main(RUN_T1 + ["--max-tool-calls", "5"])
        assert code == 1
        assert "termination: step_limit" in capsys.readouterr().out

    def test_unknown_backend_spec(self, capsys):
        code = main(["run", "--task", "t1", "--backend", "psychic:crystal"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_scenario_file(self, tmp_path, capsys):
        bad = tmp_path / "scenario.json"
        bad.write_text("{broken")
        code = main(RUN_T1 + ["--scenario", str(bad)])
        assert code == 2

    def test_non_object_scenario_file(self, tmp_path, capsys):
        bad = tmp_path / "scenario.json"
        bad.write_text("[1, 2]")
        assert main(RUN_T1 + ["--scenario", str(bad)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "slot_count, code", [(1e300, 2), (10**20, 2), (1001, 2), (1000, 0)],
        ids=["float-1e300", "int-10**20", "1001", "1000"],
    )
    def test_slot_count_is_bounded(self, tmp_path, capsys, slot_count, code):
        """Neither an overflowing `int()` nor a list of 10**20 slots: a
        slot count above 1000 is a schema violation."""
        data = default_scenario_data()
        data["furniture"][0]["slot_count"] = slot_count
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(RUN_T1 + ["--scenario", str(path)]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else (
            f"error: schema violation at $.furniture[0].slot_count: "
            f"{slot_count!r} is greater than the maximum of 1000\n"
        ))

    def test_scenario_file_validated_once(self, tmp_path, scenario_validations, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(default_scenario_data()))
        assert main(RUN_T1 + ["--scenario", str(path)]) == 0
        assert scenario_validations.calls == 1

    def test_zero_tool_call_budget_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(RUN_T1 + ["--max-tool-calls", "0", "--output-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: max_tool_calls must be >= 1\n"
        assert not out.exists()

    def test_argparse_failures_exit_2(self):
        assert main(["run", "--backend", "scripted:optimal"]) == 2
        assert main(["run", "--task", "t9", "--backend", "scripted:optimal"]) == 2
        assert main([]) == 2


class TestBaselineFlow:
    def test_t1_writes_transcript_and_baseline(self, t1_output, capsys):
        transcript = t1_output / "run_t1.jsonl"
        baseline = t1_output / "baseline.json"
        assert transcript.exists()
        assert baseline.exists()
        data = json.loads(baseline.read_text())
        assert set(data) == {"scenario", "scenario_hash", "world", "snapshot"}

    def test_t2_runs_from_baseline_file(self, t1_output, capsys):
        code = main(
            [
                "run", "--task", "t2", "--backend", "scripted:optimal",
                "--baseline", str(t1_output / "baseline.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "task: t2" in out
        assert "actual: succeeded" in out
        assert "tool calls: 13" in out

    def test_t2_validates_its_scenario_once(self, t1_output, scenario_validations):
        code = main(
            [
                "run", "--task", "t2", "--backend", "scripted:optimal",
                "--baseline", str(t1_output),
            ]
        )
        assert code == 0
        assert scenario_validations.calls == 1

    def test_t2_accepts_baseline_directory(self, t1_output):
        code = main(
            [
                "run", "--task", "t2", "--backend", "scripted:optimal",
                "--baseline", str(t1_output),
            ]
        )
        assert code == 0

    def test_t2_without_baseline_is_a_config_error(self, capsys):
        code = main(["run", "--task", "t2", "--backend", "scripted:optimal"])
        assert code == 2
        assert "requires a baseline" in capsys.readouterr().err

    def test_t1_with_baseline_is_a_config_error(self, t1_output, capsys):
        code = main(RUN_T1 + ["--baseline", str(t1_output)])
        assert code == 2
        assert "--baseline only applies" in capsys.readouterr().err

    def test_t2_with_scenario_is_a_config_error(self, t1_output, capsys):
        """A baseline carries its own scenario, so a --scenario beside it
        is refused, not ignored."""
        code = main(
            [
                "run", "--task", "t2", "--backend", "scripted:optimal",
                "--baseline", str(t1_output), "--scenario", "/nonexistent.json",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --scenario only applies to tasks without a prerequisite\n"
        )

    def test_corrupt_baseline_rejected(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"scenario": {}}))
        code = main(
            ["run", "--task", "t2", "--backend", "scripted:optimal",
             "--baseline", str(bad)]
        )
        assert code == 2

    def test_malformed_baseline_world_is_a_config_error(self, t1_output, capsys):
        path = t1_output / "baseline.json"
        baseline = json.loads(path.read_text())
        baseline["world"] = {}
        path.write_text(json.dumps(baseline))
        code = main(
            ["run", "--task", "t2", "--backend", "scripted:optimal",
             "--baseline", str(path)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: baseline file '{path}': malformed world: KeyError: 'map'\n"
        )

    def test_baseline_slot_without_furniture_is_a_config_error(
        self, t1_output, capsys
    ):
        path = t1_output / "baseline.json"
        original = json.loads(path.read_text())
        for entry, error in [
            ({"kind": "slot"}, "object 'mug' is in a slot without 'furniture'"),
            (5, "object 'mug' is not an object"),
        ]:
            baseline = json.loads(json.dumps(original))
            baseline["snapshot"]["objects"]["mug"] = entry
            path.write_text(json.dumps(baseline))
            code = main(
                ["run", "--task", "t2", "--backend", "scripted:optimal",
                 "--baseline", str(path)]
            )
            assert code == 2
            assert capsys.readouterr().err == f"error: malformed snapshot: {error}\n"

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda b: b["snapshot"].update(agent=5), "'agent' is not an object"),
            (lambda b: b.update(snapshot=[]), "not an object"),
        ],
        ids=["agent-not-an-object", "snapshot-not-an-object"],
    )
    def test_non_object_baseline_snapshot_is_a_config_error(
        self, t1_output, capsys, edit, error
    ):
        path = t1_output / "baseline.json"
        baseline = json.loads(path.read_text())
        edit(baseline)
        path.write_text(json.dumps(baseline))
        code = main(
            ["run", "--task", "t2", "--backend", "scripted:optimal",
             "--baseline", str(path)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: malformed snapshot: {error}\n"

    def test_unswapped_baseline_state_rejected(self, tmp_path, capsys):
        # A baseline whose snapshot does not satisfy t1 must be refused.
        out = tmp_path / "hall"
        main(["run", "--task", "t1", "--backend", "scripted:hallucinator",
              "--output-dir", str(out)])
        assert not (out / "baseline.json").exists()


class TestMemoryFlag:
    def test_run_persists_reports(self, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert main(RUN_T1 + ["--memory", str(store_path)]) == 0
        store = EpisodicStore(path=str(store_path))
        assert len(store) == 1
        assert store.records[0].believed_status == "succeeded"

    def test_no_memory_flag_still_completes(self, capsys):
        assert main(RUN_T1 + ["--no-memory"]) == 0

    def test_memory_off_run_cannot_search_its_store(self, tmp_path, capsys):
        """With memory disabled, search_memory is not offered, and a call to
        it fails as a call to a tool that does not exist: the run reads
        nothing from the store, so its header lists no memory, the hinted
        agent explores as on a miss, and the run replays."""
        store_path = str(tmp_path / "store.jsonl")
        store = EpisodicStore(path=store_path)
        store.add("wash dishes", "succeeded", "rinsed them", "m")
        store.add(T1_DESCRIPTION, "succeeded", "carried all three", "m")
        out = tmp_path / "off"
        assert main(
            ["run", "--task", "t1", "--backend", "scripted:memory_hinted",
             "--memory", store_path, "--no-memory", "--output-dir", str(out)]
        ) == 0
        path = str(out / "run_t1.jsonl")
        lines = [json.loads(line) for line in read_lines(path)]
        assert lines[4]["tool_result"]["machine_payload"] == {"cause": "unknown-tool"}
        assert lines[4]["content"] == (
            "Tool call failed (unknown-tool): unknown tool 'search_memory'."
        )
        assert lines[0]["initial_memories"] == []
        capsys.readouterr()
        assert main(["replay", path]) == 0
        assert capsys.readouterr().out == (
            "replay ok: 40 messages, 19 tool calls, termination end_task\n"
        )


class TestReplay:
    def transcript_path(self, t1_output):
        return str(t1_output / "run_t1.jsonl")

    def test_faithful_replay(self, t1_output, capsys):
        assert main(["replay", self.transcript_path(t1_output)]) == 0
        out = capsys.readouterr().out
        assert "replay ok: 30 messages, 14 tool calls, termination end_task" in out

    def test_t2_replay_starts_from_baseline_world(self, t1_output, capsys):
        """A t2 run begins in the post-t1 world, not at the scenario's seed
        placements; its transcript must replay from that world."""
        code = main(
            ["run", "--task", "t2", "--backend", "scripted:optimal",
             "--baseline", str(t1_output), "--output-dir", str(t1_output)]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["replay", str(t1_output / "run_t2.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "replay ok:" in out
        assert "13 tool calls" in out

    def test_missing_file(self, capsys):
        assert main(["replay", "/nonexistent/run.jsonl"]) == 2

    def test_header_memories_without_embeddings_and_old_headers_replay(
        self, tmp_path, capsys
    ):
        """A header lists the store records the run's searches returned, in
        store order and without embeddings, with the store's size and the
        sequence number its next add would mint. Headers written before
        those two fields still replay: the whole store, with embeddings or
        without."""
        store_path = str(tmp_path / "store.jsonl")
        store = EpisodicStore(path=store_path)
        store.add("water the garden plants", "failed", "no hose", "m2")
        store.add("wash dishes", "succeeded", "rinsed them", "m3")
        store.add(T1_DESCRIPTION, "succeeded", "carried both objects", "m1")
        water, _, shelved = store.records
        out = tmp_path / "mem"
        assert main(
            ["run", "--task", "t1", "--backend", "scripted:memory_hinted",
             "--memory", store_path, "--output-dir", str(out)]
        ) == 0
        path = str(out / "run_t1.jsonl")
        lines = read_lines(path)
        header = json.loads(lines[0])
        assert header["initial_memories"] == [water.to_dict(), shelved.to_dict()]
        assert (header["memory_count"], header["memory_next_seq"]) == (3, 4)
        assert main(["replay", path]) == 0
        del header["memory_count"], header["memory_next_seq"]
        old_forms = (
            lambda record: {**record.to_dict(),
                            "embedding": dense_embed(record.task_description)},
            lambda record: record.to_dict(),
        )
        for old_form in old_forms:
            header["initial_memories"] = [old_form(record) for record in store.records]
            lines[0] = json.dumps(header, sort_keys=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            assert main(["replay", path]) == 0
        assert capsys.readouterr().out.count("replay ok:") == 3

    def test_store_with_gapped_ids_replays(self, tmp_path, capsys):
        """Replay keeps the ids and created_at values the header recorded,
        so a run against a store whose ids are not 1..n replays."""
        store_path = tmp_path / "store.jsonl"
        store_path.write_text("".join(
            json.dumps({"id": f"mem-{seq:06d}", "created_at": seq,
                        "task_description": description,
                        "believed_status": "succeeded", "action_summary": "done",
                        "model_id": "m"}) + "\n"
            for seq, description in ((5, T1_DESCRIPTION),
                                     (9, "put the plants away on the shelf"))
        ))
        out = tmp_path / "gapped"
        assert main(
            ["run", "--task", "t1", "--backend", "scripted:memory_hinted",
             "--memory", str(store_path), "--output-dir", str(out)]
        ) == 0
        capsys.readouterr()
        path = str(out / "run_t1.jsonl")
        final_call = json.loads(read_lines(path)[-2])
        assert final_call["tool_result"]["machine_payload"]["record_id"] == "mem-000010"
        assert main(["replay", path]) == 0
        assert capsys.readouterr().out == (
            "replay ok: 30 messages, 14 tool calls, termination end_task\n"
        )

    @pytest.mark.parametrize(
        "memories, error",
        [
            ([{"id": "mem-000001"}, {"id": "mem-000001"}],
             "bad initial memory: duplicate id 'mem-000001'"),
            ([{"believed_status": "maybe"}], "bad initial memory: bad believed_status 'maybe'"),
            ([{"created_at": "1"}], "bad initial memory: created_at must be an integer: '1'"),
            ([{"model_id": None}], "bad initial memory: model_id must be a string, not NoneType"),
            ([{"model_id": MISSING}], "initial memory lacks 'model_id'"),
            # What a fresh add needs, and nothing else: never written by
            # hearth, so refused like any line the store would not hold.
            ([{"id": MISSING, "created_at": MISSING, "model_id": MISSING}],
             "initial memory lacks 'id'"),
        ],
        ids=["repeated", "status", "created_at", "model_id", "no-model_id",
             "three-fields"],
    )
    def test_memory_the_store_would_not_hold_is_a_config_error(
        self, t1_output, capsys, monkeypatch, memories, error
    ):
        path = self.transcript_path(t1_output)
        lines = read_lines(path)
        header = json.loads(lines[0])
        memory = {"id": "mem-000002", "created_at": 2, "task_description": "mop",
                  "believed_status": "failed", "action_summary": "wet", "model_id": "m"}
        header["initial_memories"] = [
            {key: value for key, value in {**memory, **edit}.items() if value is not MISSING}
            for edit in memories
        ]
        lines[0] = json.dumps(header)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        monkeypatch.setattr(runner, "execute_task", no_turn_replayed)
        assert main(["replay", path]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("initial_world", {"map": {}},
             "bad initial world: malformed world: KeyError: 'nodes'"),
            (
                "initial_memories",
                [{"believed_status": "succeeded", "action_summary": "shelved"}],
                "initial memory lacks 'id'",
            ),
            ("initial_world", [], "PATH:1: malformed header line: "
             "initial_world must be an object: []"),
            ("initial_memories", [5], "PATH:1: malformed header line: "
             "initial_memories must be a list of objects: [5]"),
        ],
        ids=["initial_world", "initial_memories", "initial_world-list",
             "initial_memories-item"],
    )
    def test_malformed_header_is_a_config_error(
        self, t1_output, capsys, monkeypatch, field, value, error
    ):
        """A header is read as plain data, each field checked against its
        annotation; its world and memories are checked when replay builds
        them, before any turn runs."""
        path = self.transcript_path(t1_output)
        lines = read_lines(path)
        header = json.loads(lines[0])
        header[field] = value
        lines[0] = json.dumps(header)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        error = error.replace("PATH", path)
        monkeypatch.setattr(runner, "execute_task", no_turn_replayed)
        if not error.startswith(path):
            with pytest.raises(TranscriptError) as info:
                runner.replay_transcript(Transcript.read_jsonl(path))
            assert str(info.value) == error
        assert main(["replay", path]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_tampered_message_diverges(self, t1_output, capsys):
        path = self.transcript_path(t1_output)
        lines = read_lines(path)
        for index, line in enumerate(lines):
            data = json.loads(line)
            if data.get("type") == "message" and data["role"] == "tool":
                data["content"] = "Grabbed sandwich."
                lines[index] = json.dumps(data)
                break
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["replay", path]) == 1
        assert "replay diverged" in capsys.readouterr().err

    def test_tampered_snapshot_diverges(self, t1_output, capsys):
        path = self.transcript_path(t1_output)
        lines = read_lines(path)
        final = json.loads(lines[-1])
        final["snapshot"]["agent"]["location"] = "living_room_center"
        lines[-1] = json.dumps(final)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["replay", path]) == 1
        assert "snapshot differs" in capsys.readouterr().err

    def test_scenario_hash_mismatch(self, t1_output, capsys):
        path = self.transcript_path(t1_output)
        lines = read_lines(path)
        header = json.loads(lines[0])
        header["scenario"]["agent"]["location"] = "kitchen_center"
        lines[0] = json.dumps(header)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["replay", path]) == 2
        assert "hash mismatch" in capsys.readouterr().err

    def test_prompt_version_mismatch(self, t1_output, capsys):
        path = self.transcript_path(t1_output)
        lines = read_lines(path)
        header = json.loads(lines[0])
        header["prompt_version"] = "v0"
        lines[0] = json.dumps(header)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["replay", path]) == 2
        assert "prompt version" in capsys.readouterr().err


class TestMemoryCommand:
    def seeded_store(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        store.add("put the mug away on the shelf", "succeeded", "carried it", "m")
        store.add("swap the mug and the cube", "failed", "ran out of budget", "m")
        return str(path)

    def test_missing_store_file(self, capsys):
        assert main(["memory", "list", "--store", "/nonexistent.jsonl"]) == 2

    def test_list(self, tmp_path, capsys):
        path = self.seeded_store(tmp_path)
        assert main(["memory", "list", "--store", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("2 records")
        assert "mem-000001 [succeeded] (m) put the mug away on the shelf" in out

    def test_run_after_a_last_line_without_line_end(self, tmp_path, capsys):
        """`hearth run` appends its report after a whole last line that
        lacks its line end, and the store still lists both records."""
        path = self.seeded_store(tmp_path)
        first = read_lines(path)[0]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(first)
        assert main(RUN_T1 + ["--memory", path]) == 0
        capsys.readouterr()
        assert main(["memory", "list", "--store", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("2 records")
        assert "mem-000001 [succeeded] (m) put the mug away on the shelf" in out
        assert read_lines(path)[0] == first

    @pytest.mark.parametrize("created_at", ["7", 7.9, True])
    def test_created_at_not_an_integer_exits_2(self, tmp_path, capsys, created_at):
        path = self.seeded_store(tmp_path)
        lines = read_lines(path)
        lines[1] = json.dumps({**json.loads(lines[1]), "created_at": created_at})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["memory", "list", "--store", path]) == 2
        assert capsys.readouterr().err == (
            f"error: corrupt record at {path}:2: created_at must be an integer: "
            f"{created_at!r}\n"
        )

    def test_search(self, tmp_path, capsys):
        path = self.seeded_store(tmp_path)
        code = main(["memory", "search", "--store", path, "--query", "swap the cube"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("1. mem-000002")

    def test_search_requires_query(self, tmp_path, capsys):
        path = self.seeded_store(tmp_path)
        assert main(["memory", "search", "--store", path]) == 2
        assert "requires --query" in capsys.readouterr().err

    def test_search_no_hits(self, tmp_path, capsys):
        path = self.seeded_store(tmp_path)
        code = main(
            ["memory", "search", "--store", path, "--query", "zebra quantum"]
        )
        assert code == 0
        assert "no relevant memories" in capsys.readouterr().out

    def test_purge_needs_confirmation(self, tmp_path, capsys):
        path = self.seeded_store(tmp_path)
        assert main(["memory", "purge", "--store", path]) == 2
        assert "refusing to purge" in capsys.readouterr().err
        assert len(EpisodicStore(path=path)) == 2

    def test_purge_with_yes(self, tmp_path, capsys):
        path = self.seeded_store(tmp_path)
        assert main(["memory", "purge", "--store", path, "--yes"]) == 0
        assert "purged 2 records" in capsys.readouterr().out
        assert os.path.getsize(path) == 0


class TestExperimentCommand:
    def write_plan(self, tmp_path, **overrides):
        data = {
            "name": "cliexp",
            "tasks": ["t1"],
            "backend": "scripted:optimal",
            "trials": 2,
        }
        data.update(overrides)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_writes_reports_to_report_dir(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        report_dir = tmp_path / "report"
        assert main(["experiment", plan, "--report-dir", str(report_dir)]) == 0
        out = capsys.readouterr().out
        assert (report_dir / "metrics.json").exists()
        assert (report_dir / "metrics.csv").exists()
        assert (report_dir / "metrics.md").exists()
        assert "t1 scripted:optimal: success rate 100.0% over 2 trials" in out

    def test_plan_output_dir_gets_everything(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        plan = self.write_plan(tmp_path, output_dir=str(out_dir))
        assert main(["experiment", plan]) == 0
        assert (out_dir / "metrics.json").exists()
        assert (out_dir / "trials.jsonl").exists()
        assert (out_dir / "transcripts").is_dir()

    def test_report_dir_wins_over_plan_output_dir(self, tmp_path, capsys):
        out_dir, report_dir = tmp_path / "out", tmp_path / "report"
        plan = self.write_plan(tmp_path, output_dir=str(out_dir))
        assert main(["experiment", plan, "--report-dir", str(report_dir)]) == 0
        metrics = {"metrics.json", "metrics.csv", "metrics.md"}
        assert {path.name for path in report_dir.iterdir()} == metrics
        assert {path.name for path in out_dir.iterdir()} == {"trials.jsonl", "transcripts"}

    def test_prints_json_without_output_dir(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path, trials=1)
        assert main(["experiment", plan]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        assert report["groups"][0]["task_id"] == "t1"

    def test_memory_protocol_plan(self, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path,
            backend="scripted:memory_hinted",
            trials=1,
            memory_sizes=[0, 1],
        )
        report_dir = tmp_path / "report"
        assert main(["experiment", plan, "--report-dir", str(report_dir)]) == 0
        report = json.loads((report_dir / "metrics.json").read_text())
        sizes = report["groups"][0]["by_memory_size"]
        assert sizes["0"]["mean_tool_calls"] == 19.0
        assert sizes["1"]["mean_tool_calls"] == 14.0

    def test_invalid_plan_is_config_error(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path, tasks=["t2"])
        assert main(["experiment", plan]) == 2

    @pytest.mark.parametrize("text", ["{broken", "[1, 2]"])
    def test_unreadable_plan_scenario_is_config_error(self, tmp_path, capsys, text):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        plan = self.write_plan(tmp_path, scenario_path=str(scenario))
        assert main(["experiment", plan]) == 2

    def test_scenario_validated_once_per_batch(self, tmp_path, scenario_validations, capsys):
        plan = self.write_plan(tmp_path, tasks=["t1", "t2"], trials=3)
        assert main(["experiment", plan, "--report-dir", str(tmp_path / "r")]) == 0
        assert scenario_validations.calls == 1


class TestServe:
    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_out_of_range_exits_2_before_binding(self, monkeypatch, capsys, port):
        def bind(*args, **kwargs):
            pytest.fail("a server was started")

        monkeypatch.setattr("hearth.rpc.server.ToolRpcServer", bind)
        assert main(["serve", "--port", port]) == 2
        assert capsys.readouterr() == ("", f"error: port must be 0-65535: {port}\n")


class TestServeStdio:
    @pytest.mark.parametrize("text", ["{broken", "[1, 2]", '{"nodes": []}'])
    def test_bad_scenario_exits_2_before_serving(self, tmp_path, capsys, text):
        bad = tmp_path / "scenario.json"
        bad.write_text(text)
        assert main(["serve", "--stdio", "--scenario", str(bad)]) == 2
        assert capsys.readouterr().out == ""

    def test_subprocess_round_trip(self):
        frames = [
            {"jsonrpc": "2.0", "id": 1, "method": "session.create", "params": {}},
            {"jsonrpc": "2.0", "id": 2, "method": "tool.look_around", "params": {}},
        ]
        stdin = "\n".join(json.dumps(f) for f in frames) + "\n"
        result = subprocess.run(
            [sys.executable, "-m", "hearth", "serve", "--stdio"],
            input=stdin,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        responses = [json.loads(line) for line in result.stdout.splitlines()]
        assert responses[0]["result"]["tools"][0] == "add_to_scratchpad"
        assert responses[1]["result"]["status"] == "success"

    def test_frame_nested_too_deep_is_a_parse_error_and_serving_goes_on(self):
        frame = {"jsonrpc": "2.0", "id": 1, "method": "session.create"}
        result = subprocess.run(
            [sys.executable, "-m", "hearth", "serve", "--stdio"],
            input=DEEP + "\n" + json.dumps(frame) + "\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, "")
        parse_error, created = map(json.loads, result.stdout.splitlines())
        assert parse_error == {
            "jsonrpc": "2.0",
            "id": None,
            "error": {"code": -32700, "message": "parse error: nesting too deep"},
        }
        assert created["id"] == 1 and "result" in created


def dumps_overflowing(data):
    """`data` as JSON text, with each infinite float written as a number
    too large for a float: JSON has no infinity, but Python reads such a
    number as one."""
    return json.dumps(data).replace("Infinity", "1e999")


def edited_json(path, edit):
    """Rewrite the JSON file at `path` with `edit` applied to its value."""
    data = json.loads(path.read_text())
    data = edit(data) or data
    path.write_text(dumps_overflowing(data))


def bad_baseline(edit):
    def argv(t1_output, tmp_path):
        edited_json(t1_output / "baseline.json", edit)
        return ["run", "--task", "t2", "--backend", "scripted:optimal",
                "--baseline", str(t1_output)]
    return argv


def bad_transcript_line(number, edit):
    """Replay t1's transcript with its line `number` (1-based) edited."""
    def argv(t1_output, tmp_path):
        path = t1_output / "run_t1.jsonl"
        lines = read_lines(path)
        data = json.loads(lines[number - 1])
        lines[number - 1] = dumps_overflowing(edit(data) or data)
        path.write_text("\n".join(lines) + "\n")
        return ["replay", str(path)]
    return argv


def set_first_call(**fields):
    """Edit the first proposed tool call of an assistant line."""
    return lambda data: data["tool_calls"][0].update(fields)


def bad_plan(**fields):
    def argv(t1_output, tmp_path):
        plan = {"name": "p", "tasks": ["t1"], "backend": "scripted:optimal",
                "output_dir": str(tmp_path / "out"), **fields}
        path = tmp_path / "plan.json"
        path.write_text(dumps_overflowing(plan))
        return ["experiment", str(path)]
    return argv


def http_config_5(command):
    def argv(t1_output, tmp_path):
        config = tmp_path / "http.json"
        config.write_text("5")
        if command == "run":
            return RUN_T1[:3] + ["--backend", f"http:{config}",
                                 "--output-dir", str(tmp_path / "out")]
        return bad_plan(backend=f"http:{config}")(t1_output, tmp_path)
    return argv


def bad_http_config(command, **fields):
    """An `http:` config file for `hearth run`, or a plan's backend
    object, with `fields` set."""
    def argv(t1_output, tmp_path):
        config = {"base_url": "http://127.0.0.1:9", "model": "m", **fields}
        if command == "experiment":
            return bad_plan(backend={"kind": "http", **config})(t1_output, tmp_path)
        path = tmp_path / "http.json"
        path.write_text(dumps_overflowing(config))
        return RUN_T1[:3] + ["--backend", f"http:{path}",
                             "--output-dir", str(tmp_path / "out")]
    return argv


# A line of JSON nested deeper than the decoder goes, on every Python:
# the json scanner's limit moved from 1 000 levels (3.11) to 5 000 (3.12)
# and higher still on 3.13.
DEEP = "[" * 100_000 + "]" * 100_000


def input_file(command, text):
    """`command` reading a file of `text`: a store for `memory`, a
    transcript for `replay`, a plan for `experiment`, a scenario for
    `scenario`."""
    def argv(t1_output, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(text + "\n")
        return {
            "memory": RUN_T1 + ["--memory", str(path)],
            "replay": ["replay", str(path)],
            "experiment": ["experiment", str(path)],
            "scenario": RUN_T1 + ["--scenario", str(path)],
        }[command]
    return argv


def infinite_scenario():
    """The bundled scenario with a node at x = Infinity, which is not JSON."""
    data = default_scenario_data()
    next(n for n in data["nodes"] if n["id"] == "kitchen_center")["x"] = math.inf
    return json.dumps(data)


def repeat_first(key):
    """Repeat the first entry of a world's `key` list."""
    return lambda world: world[key].append(world[key][0])


# Each value paired with the error an `http:` config or a plan's backend
# object holding it gives.
BAD_HTTP_FIELDS = {
    "max-retries-string": ({"max_retries": "3"}, "max_retries must be an integer: '3'"),
    "base-url-5": ({"base_url": 5}, "base_url must be a string: 5"),
    "extra-headers-5": (
        {"extra_headers": 5}, "extra_headers must be an object of strings: 5"),
    "extra-header-5": (
        {"extra_headers": {"X": 5}},
        "extra_headers must be an object of strings: {'X': 5}"),
    "model-list": ({"model": ["m"]}, "model must be a string: ['m']"),
    "timeout-bool": ({"timeout_s": True}, "timeout_s must be a number: True"),
    "max-retries-negative": ({"max_retries": -1}, "max_retries must be >= 0: -1"),
    "timeout-negative": ({"timeout_s": -1}, "timeout_s must be > 0: -1"),
    "timeout-zero": ({"timeout_s": 0.0}, "timeout_s must be > 0: 0.0"),
    "retry-base-negative": ({"retry_base_s": -0.5}, "retry_base_s must be >= 0: -0.5"),
    "timeout-infinite": ({"timeout_s": math.inf}, "timeout_s must be finite: inf"),
    "retry-base-infinite": (
        {"retry_base_s": math.inf}, "retry_base_s must be finite: inf"),
    "temperature-infinite": (
        {"temperature": -math.inf}, "temperature must be finite: -inf"),
}


def baseline_world_from_before_t1(t1_output, tmp_path):
    """A t1 baseline whose world is the one t1 started from, where nothing
    is shelved, but whose snapshot is still t1's."""
    header = json.loads(read_lines(t1_output / "run_t1.jsonl")[0])
    return bad_baseline(lambda b: b.update(world=header["initial_world"]))(
        t1_output, tmp_path)


def in_slot(world):
    """The first object of a world that sits in a slot."""
    return next(o for o in world["objects"] if o["containment"]["kind"] == "slot")


# Each edit of a world, paired with the error a transcript header or a
# baseline holding the edited world gives.
BAD_WORLD_FIELDS = {
    "reach-radius-string": (
        lambda w: w["agent"].update(reach_radius="x"),
        "FieldError: reach_radius must be a number: 'x'"),
    "reach-radius-zero": (
        lambda w: w["agent"].update(reach_radius=0),
        "InvariantViolation: reach_radius 0 is not positive"),
    "graspable-string": (
        lambda w: w["objects"][0].update(graspable="no"),
        "FieldError: graspable must be a boolean: 'no'"),
    "object-kind-5": (
        lambda w: w["objects"][0].update(kind=5), "FieldError: kind must be a string: 5"),
    "object-id-5": (
        lambda w: w["objects"][0].update(id=5), "FieldError: id must be a string: 5"),
    "furniture-id-5": (
        lambda w: w["furniture"][0].update(id=5), "FieldError: id must be a string: 5"),
    "node-id-5": (
        lambda w: w["map"]["nodes"][0].update(id=5), "FieldError: id must be a string: 5"),
    "node-room-5": (
        lambda w: w["map"]["nodes"][0].update(room=5),
        "FieldError: room must be a string: 5"),
    "coordinate-string": (
        lambda w: w["map"]["nodes"][0].update(x="1.5"),
        "FieldError: x must be a number: '1.5'"),
    "coordinate-bool": (
        lambda w: w["map"]["nodes"][0].update(y=True),
        "FieldError: y must be a number: True"),
    "cost-string": (
        lambda w: w["map"]["edges"][0].update(cost="9"),
        "FieldError: cost must be a number: '9'"),
    "cost-bool": (
        lambda w: w["map"]["edges"][0].update(cost=True),
        "FieldError: cost must be a number: True"),
    "coordinate-infinite": (
        lambda w: w["map"]["nodes"][0].update(x=math.inf),
        "ValueError: x of node 'hallway' must be a finite number: inf"),
    "coordinate-too-large-an-int": (
        lambda w: w["map"]["nodes"][0].update(y=-10**400),
        f"ValueError: y of node 'hallway' must be a finite number: {-10**400}"),
    "cost-infinite": (
        lambda w: w["map"]["edges"][0].update(cost=math.inf),
        "ValueError: cost of edge (hallway, kitchen_center) must be a finite number: inf"),
    "reach-radius-infinite": (
        lambda w: w["agent"].update(reach_radius=math.inf),
        "ValueError: reach_radius must be a finite number: inf"),
    "step-counter-float": (
        lambda w: w.update(step_counter=0.0),
        "FieldError: step_counter must be an integer: 0.0"),
    "slot-index-bool": (
        lambda w: in_slot(w)["containment"].update(slot=True),
        "FieldError: slot must be an integer: True"),
    "map-list": (
        lambda w: w.update(map=[]), "FieldError: map must be an object: []"),
    "node-entry-number": (
        lambda w: w["map"]["nodes"].append(7),
        "FieldError: node entry must be an object: 7"),
    "edge-entry-list": (
        lambda w: w["map"]["edges"].append(["hallway", "kitchen_center"]),
        "FieldError: edge entry must be an object: ['hallway', 'kitchen_center']"),
    "furniture-entry-list": (
        lambda w: w["furniture"].append([1]),
        "FieldError: furniture entry must be an object: [1]"),
    "object-entry-string": (
        lambda w: w["objects"].append("mug"),
        "FieldError: object entry must be an object: 'mug'"),
    "agent-number": (
        lambda w: w.update(agent=5), "FieldError: agent must be an object: 5"),
}

# Line 4 of t1's transcript is its first assistant turn with a tool call;
# line 32 is its final line.
MALFORMED_INPUTS = {
    "baseline-not-an-object": (
        bad_baseline(lambda b: 5), "must be a JSON object"),
    "baseline-scenario-not-a-scenario": (
        bad_baseline(lambda b: b.update(scenario=5)), "schema violation"),
    "baseline-scenario-hash-mismatch": (
        bad_baseline(lambda b: b.update(scenario_hash="0" * 64)),
        "scenario hash mismatch"),
    "header-without-initial-world": (
        bad_transcript_line(
            1, lambda d: {k: v for k, v in d.items() if k != "initial_world"}
        ),
        ":1: malformed header line: 'initial_world'"),
    "message-role-not-a-string": (
        bad_transcript_line(4, lambda d: d.update(role=5)),
        ":4: malformed message line: role must be a string: 5"),
    "message-content-not-a-string": (
        bad_transcript_line(4, lambda d: d.update(content=None)),
        ":4: malformed message line: content must be a string: None"),
    "tool-calls-not-a-list": (
        bad_transcript_line(4, lambda d: d.update(tool_calls=5)),
        ":4: malformed message line: tool_calls"),
    "tool-call-not-an-object": (
        bad_transcript_line(4, lambda d: d.update(tool_calls=[5])),
        ":4: malformed message line: tool_calls"),
    "tool-call-without-id": (
        bad_transcript_line(
            4, lambda d: d.update(tool_calls=[{"name": "look_around", "arguments": {}}])
        ),
        ":4: malformed message line: tool_calls"),
    "tool-call-name-not-a-string": (
        bad_transcript_line(4, set_first_call(name=["move_to"])),
        ":4: malformed message line: tool_calls"),
    "tool-call-arguments-not-an-object": (
        bad_transcript_line(4, set_first_call(arguments="{}")),
        ":4: malformed message line: tool_calls"),
    "tool-result-not-an-object": (
        bad_transcript_line(5, lambda d: d.update(tool_result=5)),
        ":5: malformed message line: tool_result"),
    "message-index-float": (
        bad_transcript_line(3, lambda d: d.update(index=2.9)),
        ":3: malformed message line: index must be an integer: 2.9"),
    "message-index-bool": (
        bad_transcript_line(3, lambda d: d.update(index=True)),
        ":3: malformed message line: index must be an integer: True"),
    "final-tool-calls-float": (
        bad_transcript_line(32, lambda d: d.update(tool_calls=14.9)),
        ":32: malformed final line: tool_calls must be an integer: 14.9"),
    "final-tool-calls-bool": (
        bad_transcript_line(32, lambda d: d.update(tool_calls=True)),
        ":32: malformed final line: tool_calls must be an integer: True"),
    "final-termination-5": (
        bad_transcript_line(32, lambda d: d.update(termination=5)),
        ":32: malformed final line: termination must be a string: 5"),
    "final-believed-status-5": (
        bad_transcript_line(32, lambda d: d.update(believed_status=5)),
        ":32: malformed final line: believed_status must be a string or null: 5"),
    "final-snapshot-5": (
        bad_transcript_line(32, lambda d: d.update(snapshot=5)),
        ":32: malformed final line: snapshot must be an object: 5"),
    "plan-tasks-5": (bad_plan(tasks=5), "plan field 'tasks'"),
    "plan-task-not-a-string": (
        bad_plan(tasks=[["t1"]]), "plan field 'tasks' has the wrong type: [['t1']]"),
    "plan-trials-null": (bad_plan(trials=None), "plan field 'trials'"),
    "plan-memory-sizes-5": (bad_plan(memory_sizes=5), "plan field 'memory_sizes'"),
    "plan-memory-size-null": (
        bad_plan(memory_sizes=[None]), "plan field 'memory_sizes'"),
    "plan-parallelism-list": (bad_plan(parallelism=[2]), "plan field 'parallelism'"),
    "plan-max-tool-calls-object": (
        bad_plan(max_tool_calls={}), "plan field 'max_tool_calls'"),
    "plan-output-dir-5": (bad_plan(output_dir=5), "plan field 'output_dir'"),
    "plan-scenario-path-list": (
        bad_plan(scenario_path=["x"]), "plan field 'scenario_path'"),
    "plan-name-5": (bad_plan(name=5), "plan field 'name'"),
    "plan-seed-string": (bad_plan(seed="7"), "plan field 'seed'"),
    "plan-seed-bool": (bad_plan(seed=True), "plan field 'seed'"),
    "plan-exclude-backend-errors-string": (
        bad_plan(exclude_backend_errors="false"),
        "plan field 'exclude_backend_errors'"),
    "plan-memory-enabled-string": (
        bad_plan(memory_enabled="false"), "plan field 'memory_enabled'"),
    "plan-trials-float": (
        bad_plan(trials=2.9), "plan field 'trials' has the wrong type: 2.9"),
    "plan-trials-bool": (
        bad_plan(trials=True), "plan field 'trials' has the wrong type: True"),
    "plan-tasks-string": (
        bad_plan(tasks="t1"), "plan field 'tasks' has the wrong type: 't1'"),
    "plan-memory-sizes-string": (
        bad_plan(memory_sizes="01"),
        "plan field 'memory_sizes' has the wrong type: '01'"),
    "plan-memory-size-float": (
        bad_plan(memory_sizes=[1.0]),
        "plan field 'memory_sizes' has the wrong type: [1.0]"),
    "plan-memory-size-bool": (
        bad_plan(memory_sizes=[False]),
        "plan field 'memory_sizes' has the wrong type: [False]"),
    "plan-parallelism-float": (
        bad_plan(parallelism=2.5), "plan field 'parallelism' has the wrong type: 2.5"),
    "plan-max-tool-calls-bool": (
        bad_plan(max_tool_calls=True),
        "plan field 'max_tool_calls' has the wrong type: True"),
    "header-task-prompt-5": (
        bad_transcript_line(1, lambda d: d.update(task_prompt=5)),
        ":1: malformed header line: task_prompt must be a string: 5"),
    "header-model-id-5": (
        bad_transcript_line(1, lambda d: d.update(model_id=5)),
        ":1: malformed header line: model_id must be a string: 5"),
    "header-task-id-list": (
        bad_transcript_line(1, lambda d: d.update(task_id=["t1"])),
        ":1: malformed header line: task_id must be a string: ['t1']"),
    "header-scenario-hash-null": (
        bad_transcript_line(1, lambda d: d.update(scenario_hash=None)),
        ":1: malformed header line: scenario_hash must be a string: None"),
    "header-prompt-version-5": (
        bad_transcript_line(1, lambda d: d.update(prompt_version=5)),
        ":1: malformed header line: prompt_version must be a string: 5"),
    "header-scenario-5": (
        bad_transcript_line(1, lambda d: d.update(scenario=5)),
        ":1: malformed header line: scenario must be an object: 5"),
    "header-seed-string": (
        bad_transcript_line(1, lambda d: d.update(seed="x")),
        ":1: malformed header line: seed must be an integer or null: 'x'"),
    "header-seed-bool": (
        bad_transcript_line(1, lambda d: d.update(seed=True)),
        ":1: malformed header line: seed must be an integer or null: True"),
    "header-memory-enabled-string": (
        bad_transcript_line(1, lambda d: d.update(memory_enabled="false")),
        ":1: malformed header line: memory_enabled must be a boolean: 'false'"),
    "run-http-config-5": (
        http_config_5("run"), "backend config must be a JSON object"),
    "plan-http-config-5": (
        http_config_5("experiment"), "backend config must be a JSON object"),
    **{
        f"{command}-http-{name}": (
            bad_http_config(command, **fields), f"error: backend config: {error}")
        for name, (fields, error) in BAD_HTTP_FIELDS.items()
        for command in ("run", "experiment")
    },
    "header-world-repeats-object": (
        bad_transcript_line(1, lambda d: repeat_first("objects")(d["initial_world"])),
        "error: bad initial world: malformed world: "),
    "header-world-repeats-furniture": (
        bad_transcript_line(
            1, lambda d: repeat_first("furniture")(d["initial_world"])),
        "error: bad initial world: malformed world: "),
    "baseline-world-repeats-object": (
        bad_baseline(lambda b: repeat_first("objects")(b["world"])),
        "malformed world: "),
    "transcript-line-not-an-object": (
        bad_transcript_line(3, lambda d: [1, 2]), ":3: not a JSON object"),
    **{
        f"header-world-{name}": (
            bad_transcript_line(1, lambda d, edit=edit: edit(d["initial_world"])),
            f"error: bad initial world: malformed world: {error}")
        for name, (edit, error) in BAD_WORLD_FIELDS.items()
    },
    **{
        f"baseline-world-{name}": (
            bad_baseline(lambda b, edit=edit: edit(b["world"])),
            f"malformed world: {error}")
        for name, (edit, error) in BAD_WORLD_FIELDS.items()
    },
    "baseline-world-from-before-t1": (
        baseline_world_from_before_t1, "snapshot does not match the baseline's world"),
    "store-nested-too-deep": (
        input_file("memory", DEEP), "input.json:1: nesting too deep"),
    "transcript-nested-too-deep": (
        input_file("replay", DEEP), "input.json:1: invalid JSON: nesting too deep"),
    "plan-nested-too-deep": (
        input_file("experiment", DEEP), "input.json': nesting too deep"),
    "scenario-nested-too-deep": (
        input_file("scenario", DEEP), "input.json': nesting too deep"),
    "scenario-infinite-coordinate": (
        input_file("scenario", infinite_scenario()), "Infinity is not a JSON value"),
    "scenario-overflowing-coordinate": (
        input_file("scenario", infinite_scenario().replace("Infinity", "1e999")),
        "error: x of node 'kitchen_center' must be a finite number: inf"),
}


@pytest.mark.parametrize(
    "argv, error", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys()
)
def test_malformed_input_exits_2(t1_output, tmp_path, capsys, argv, error):
    """A malformed baseline, transcript line, plan or backend config is a
    configuration error: exit 2, one `error: ` line, nothing written."""
    args = argv(t1_output, tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert error in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# argv cases for the parser: help, every kind of argparse error, and
# parses that succeed. Expected output comes from the whole-CLI oracle,
# since argparse's wording changes between Python versions.
ARGV_CASES = {
    "no-argument": [],
    "help": ["-h"],
    "long-help": ["--help"],
    "unknown-command": ["bogus"],
    "unknown-option": ["--bogus"],
    "help-before-command": ["-h", "replay"],
    **{f"{name}-help": [name, "-h"] for name in COMMANDS},
    "run-help-after-options": RUN_T1 + ["--help"],
    "run-without-options": ["run"],
    "run-missing-backend": ["run", "--task", "t1"],
    "experiment-missing-plan": ["experiment"],
    "memory-missing-store": ["memory", "list"],
    "replay-missing-transcript": ["replay"],
    "bad-task": ["run", "--task", "t3", "--backend", "scripted:optimal"],
    "bad-memory-action": ["memory", "frob", "--store", "s.jsonl"],
    "bad-max-tool-calls": RUN_T1 + ["--max-tool-calls", "x"],
    "bad-port": ["serve", "--port", "x"],
    "replay-extra": ["replay", "a", "b"],
    "run-extra": RUN_T1 + ["extra"],
    "replay-unknown-option": ["replay", "--bogus", "t.jsonl"],
    "ambiguous-abbreviation": RUN_T1 + ["--s", "x"],
    "abbreviated-option": ["run", "--ta", "t1", "--backend", "scripted:optimal"],
    "run": RUN_T1 + ["--seed", "4", "--max-tool-calls", "9", "--no-memory",
                     "--memory", "s.jsonl", "--output-dir", "out"],
    "experiment": ["experiment", "plan.json", "--report-dir", "reports"],
    "memory-search": ["memory", "search", "--store", "s.jsonl", "--query", "mug",
                      "--k", "2"],
    "memory-purge": ["memory", "purge", "--store", "s.jsonl", "--yes"],
    "serve": ["serve", "--stdio", "--port", "9", "--expose-ground-truth"],
    "replay": ["replay", "t.jsonl"],
}


def oracle_parse(argv):
    """Exit code and namespace of the whole-CLI parser (None on exit)."""
    try:
        return 0, whole_cli_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, None


def count_parsers(monkeypatch, argv):
    """main's exit code for argv and how many ArgumentParsers it built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code = main(argv)
    monkeypatch.undo()
    return code, len(built)


class TestParser:
    @pytest.mark.parametrize("argv", ARGV_CASES.values(), ids=ARGV_CASES.keys())
    def test_parses_as_the_whole_cli_parser(self, monkeypatch, capsys, argv):
        """Same exit code, stdout and stderr as the parser that built every
        command, and the same namespace for a parse that succeeds."""
        monkeypatch.setenv("COLUMNS", "80")
        handled = []
        for name in COMMANDS:
            monkeypatch.setattr(cli, f"cmd_{name}", lambda args: handled.append(args) or 0)
        code = main(list(argv))
        got = capsys.readouterr()
        want_code, want_args = oracle_parse(list(argv))
        want = capsys.readouterr()
        assert (code, got.out, got.err) == (want_code, want.out, want.err)
        if want_args is None:
            assert handled == []
        else:
            assert [vars(args) for args in handled] == [vars(want_args)]

    def test_a_command_builds_only_its_own_parser(self, t1_output, monkeypatch, capsys):
        path = str(t1_output / "run_t1.jsonl")
        assert count_parsers(monkeypatch, ["replay", path]) == (0, 2)

    def test_help_builds_every_parser(self, monkeypatch, capsys):
        assert count_parsers(monkeypatch, ["-h"]) == (0, 1 + len(COMMANDS))

    def test_replay_calls_the_handler_set_on_the_module(
        self, t1_output, monkeypatch, capsys
    ):
        """A handler replaced on hearth.cli after import, as a tracer
        wraps one, is the one a command runs."""
        calls = []
        original = cli.cmd_replay

        def wrapper(args):
            calls.append(args.transcript)
            return original(args)

        monkeypatch.setattr(cli, "cmd_replay", wrapper)
        path = str(t1_output / "run_t1.jsonl")
        assert main(["replay", path]) == 0
        assert calls == [path]
