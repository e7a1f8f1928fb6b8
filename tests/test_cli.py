"""Command line: exit codes, baseline flow, replay verification, reports."""

import json
import os
import subprocess
import sys

import pytest

from hearth.agent.scripts import T1_DESCRIPTION
from hearth.cli import main
from hearth.memory.episodic import EpisodicStore
from hearth.world.scenario import default_scenario_data

from .oracles import dense_embed

RUN_T1 = ["run", "--task", "t1", "--backend", "scripted:optimal"]


def read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


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
        """Headers list memories without embeddings; a header recorded with
        them, as older versions wrote it, still replays."""
        store_path = str(tmp_path / "store.jsonl")
        store = EpisodicStore(path=store_path)
        store.add(T1_DESCRIPTION, "succeeded", "carried both objects", "m1")
        store.add("water the garden plants", "failed", "no hose", "m2")
        out = tmp_path / "mem"
        assert main(
            ["run", "--task", "t1", "--backend", "scripted:memory_hinted",
             "--memory", store_path, "--output-dir", str(out)]
        ) == 0
        path = str(out / "run_t1.jsonl")
        lines = read_lines(path)
        header = json.loads(lines[0])
        assert header["initial_memories"] == [record.to_dict() for record in store.records]
        assert main(["replay", path]) == 0
        for memory in header["initial_memories"]:
            memory["embedding"] = dense_embed(memory["task_description"])
        lines[0] = json.dumps(header, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["replay", path]) == 0
        assert "replay ok:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("initial_world", {"map": {}}, "malformed world: KeyError: 'nodes'"),
            (
                "initial_memories",
                [{"believed_status": "succeeded", "action_summary": "shelved"}],
                "initial memory lacks 'task_description'",
            ),
        ],
        ids=["initial_world", "initial_memories"],
    )
    def test_malformed_header_is_a_config_error(
        self, t1_output, capsys, field, value, error
    ):
        path = self.transcript_path(t1_output)
        lines = read_lines(path)
        header = json.loads(lines[0])
        header[field] = value
        lines[0] = json.dumps(header)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["replay", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: malformed header line: {error}")

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
