"""Harness: checkers, trial batches, memory protocol, metrics rendering."""

import itertools
import json
import os
import threading

import pytest

from hearth.agent.http_backend import HttpBackendConfig
from hearth.agent.transcript import Transcript
from hearth.cli import main
from hearth.harness import runner
from hearth.harness.metrics import (
    REFERENCE_SUCCESS_RATES,
    compute_metrics,
    emit_report,
    render_csv,
    render_json,
    render_markdown,
)
from hearth.harness.runner import BackendSetup, ExperimentPlan, TrialRecord, run_trials
from hearth.harness.tasks import TASKS, EvaluationError, check_t1, check_t2
from hearth.memory.episodic import EpisodicStore
from hearth.world.state import snapshot

from .oracles import per_trial_load_trials


def read_tree(root):
    """Every file under root, by relative path, as bytes."""
    found = {}
    for folder, _, files in os.walk(root):
        for file in files:
            with open(os.path.join(folder, file), "rb") as handle:
                found[os.path.join(folder, file)] = handle.read()
    return found


def slot(furniture, index):
    return {"kind": "slot", "furniture": furniture, "slot": index}


def snap(objects, held=None):
    return {
        "step_counter": 0,
        "agent": {"location": "kitchen_shelf", "held": held},
        "objects": objects,
    }


def t1_done():
    return snap(
        {
            "mug": slot("shelf", 0),
            "box": slot("shelf", 1),
            "cube": slot("shelf", 2),
            "tv": slot("living_room_table", 0),
        }
    )


class TestCheckT1:
    def test_accepts_all_three_on_distinct_shelf_slots(self):
        assert check_t1(t1_done())

    def test_rejects_item_left_elsewhere(self):
        state = t1_done()
        state["objects"]["box"] = slot("kitchen_table", 0)
        assert not check_t1(state)

    def test_rejects_loose_item(self):
        state = t1_done()
        state["objects"]["cube"] = {"kind": "loose", "location": "hallway"}
        assert not check_t1(state)

    def test_rejects_shared_slot_claim(self):
        state = t1_done()
        state["objects"]["box"] = slot("shelf", 0)
        assert not check_t1(state)

    def test_rejects_item_still_in_hand(self):
        state = t1_done()
        state["objects"]["cube"] = {"kind": "held"}
        state["agent"]["held"] = "cube"
        assert not check_t1(state)

    def test_rejects_nonempty_hand_even_with_shelf_full(self):
        state = t1_done()
        state["agent"]["held"] = "tv"
        assert not check_t1(state)

    def test_missing_object_is_a_scenario_mismatch(self):
        state = t1_done()
        del state["objects"]["mug"]
        with pytest.raises(EvaluationError, match="scenario mismatch"):
            check_t1(state)


class TestCheckT2:
    def baseline(self):
        return t1_done()

    def swapped(self):
        state = t1_done()
        state["objects"]["mug"] = slot("shelf", 2)
        state["objects"]["cube"] = slot("shelf", 0)
        return state

    def test_accepts_exact_swap(self):
        assert check_t2(self.swapped(), self.baseline())

    def test_rejects_unswapped_state(self):
        assert not check_t2(t1_done(), self.baseline())

    def test_rejects_half_swap(self):
        state = t1_done()
        state["objects"]["mug"] = slot("shelf", 2)
        state["objects"]["cube"] = slot("kitchen_table", 0)
        assert not check_t2(state, self.baseline())

    def test_rejects_box_disturbed(self):
        state = self.swapped()
        state["objects"]["box"] = slot("kitchen_table", 1)
        assert not check_t2(state, self.baseline())

    def test_rejects_held_object(self):
        state = self.swapped()
        state["agent"]["held"] = "box"
        assert not check_t2(state, self.baseline())

    def test_requires_baseline(self):
        with pytest.raises(EvaluationError, match="baseline"):
            check_t2(self.swapped(), None)

    def test_requires_baseline_with_slotted_mug_and_cube(self):
        bad = self.baseline()
        bad["objects"]["mug"] = {"kind": "loose", "location": "hallway"}
        with pytest.raises(EvaluationError, match="baseline"):
            check_t2(self.swapped(), bad)


class TestTaskDefs:
    def test_task_prompts(self):
        assert TASKS["t1"].prompt == (
            "Put the mug, the box, and the cube away on the shelf."
        )
        assert TASKS["t2"].prompt == "Swap the mug and the cube on the shelf."

    def test_t2_requires_t1(self):
        assert TASKS["t1"].prerequisite is None
        assert TASKS["t2"].prerequisite == "t1"


class TestExperimentPlan:
    def base(self, **overrides):
        data = {"name": "exp", "tasks": ["t1"], "backend": "scripted:optimal"}
        data.update(overrides)
        return data

    def test_minimal_plan(self):
        plan = ExperimentPlan.from_dict(self.base())
        assert plan.trials == 1
        assert plan.tasks == ("t1",)
        assert plan.memory_enabled

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown plan fields"):
            ExperimentPlan.from_dict(self.base(colour="red"))

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="missing required field 'backend'"):
            ExperimentPlan.from_dict({"name": "exp", "tasks": ["t1"]})

    def test_t2_without_earlier_t1_rejected(self):
        with pytest.raises(ValueError, match="requires 't1' earlier"):
            ExperimentPlan.from_dict(self.base(tasks=["t2"]))
        with pytest.raises(ValueError, match="requires 't1' earlier"):
            ExperimentPlan.from_dict(self.base(tasks=["t2", "t1"]))

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task 't9'"):
            ExperimentPlan.from_dict(self.base(tasks=["t9"]))

    def test_memory_sizes_bounded(self):
        plan = ExperimentPlan.from_dict(self.base(memory_sizes=[0, 1, 2, 3]))
        assert plan.memory_sizes == (0, 1, 2, 3)
        with pytest.raises(ValueError, match="memory_sizes"):
            ExperimentPlan.from_dict(self.base(memory_sizes=[0, 4]))
        # Two batches of one size would share trial ids and transcripts.
        with pytest.raises(ValueError, match=r"memory_sizes lists \[0\] more than once"):
            ExperimentPlan.from_dict(self.base(memory_sizes=[0, 1, 0]))

    def test_positive_counts_required(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentPlan.from_dict(self.base(trials=0))
        with pytest.raises(ValueError, match="parallelism"):
            ExperimentPlan.from_dict(self.base(parallelism=0))
        with pytest.raises(ValueError, match="max_tool_calls must be >= 1"):
            ExperimentPlan.from_dict(self.base(max_tool_calls=0))

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.base(trials=3)))
        assert ExperimentPlan.from_file(str(path)).trials == 3


class TestBackendSetup:
    def test_scripted_spec(self):
        setup = BackendSetup.from_spec("scripted:optimal")
        assert setup.model_id == "scripted:optimal"
        backend = setup.make("t1")
        assert backend is not setup.make("t1")

    def test_unknown_script_rejected(self):
        with pytest.raises(ValueError, match="unknown script 'genius'"):
            BackendSetup.from_spec("scripted:genius")

    def test_script_without_task_behavior(self):
        setup = BackendSetup.from_spec("scripted:hallucinator")
        with pytest.raises(EvaluationError, match="no behavior for task 't2'"):
            setup.make("t2")

    def test_dict_http_spec(self):
        setup = BackendSetup.from_spec(
            {"kind": "http", "base_url": "http://x", "model": "m-1"}
        )
        assert setup.http_config == HttpBackendConfig(base_url="http://x", model="m-1")
        assert setup.model_id == "m-1"

    @pytest.mark.parametrize("kind, fields", [
        ("scripted", {"script": "optimal"}),
        ("scripted", {"script": "genius"}),
        ("http", {"base_url": "http://x", "model": "m-1", "max_retries": 1}),
    ], ids=["scripted", "unknown-script", "http"])
    def test_string_and_object_specs_agree(self, tmp_path, kind, fields):
        """`scripted:NAME` and `http:PATH` build what their object forms
        build, and both forms refuse an unknown script alike."""
        if kind == "http":
            path = tmp_path / "backend.json"
            path.write_text(json.dumps(fields))
            string = f"http:{path}"
        else:
            string = f"scripted:{fields['script']}"
        specs = (string, {"kind": kind, **fields})
        if fields.get("script") == "genius":
            for spec in specs:
                with pytest.raises(ValueError, match="unknown script 'genius'"):
                    BackendSetup.from_spec(spec)
        else:
            assert BackendSetup.from_spec(specs[0]) == BackendSetup.from_spec(specs[1])

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            BackendSetup.from_spec("telepathy:direct")
        with pytest.raises(ValueError):
            BackendSetup.from_spec({"kind": "psychic"})
        with pytest.raises(ValueError, match=r"unknown scripted backend fields: \['x'\]"):
            BackendSetup.from_spec({"kind": "scripted", "script": "optimal", "x": 1})
        with pytest.raises(ValueError):
            BackendSetup.from_spec(42)


class TestRunTrials:
    def test_a_baseline_stands_in_for_t1(self):
        """t2 runs without t1 only from a baseline, which it is judged
        against; the outcome holds its run and the world it left."""
        setup = BackendSetup.from_spec("scripted:optimal")

        def trial(scenario, task_id, baseline=None):
            return runner.run_trial(
                scenario, (task_id,), setup, EpisodicStore(), 50, "x", baseline=baseline
            )

        scenario = runner.ScenarioTemplate.load()
        assert trial(scenario, "t2").records == []
        t1_world = trial(scenario, "t1").world
        baseline = snapshot(t1_world)
        after_t1 = runner.ScenarioTemplate(
            scenario.data, scenario.digest, t1_world.to_dict()
        )
        outcome = trial(after_t1, "t2", baseline)
        (record,), (run,) = outcome.records, outcome.runs
        assert (record.task_id, record.actual, run.tool_calls) == ("t2", "succeeded", 13)
        assert check_t2(snapshot(outcome.world), baseline)

    def test_optimal_t1_t2_batch(self, tmp_path):
        plan = ExperimentPlan.from_dict(
            {
                "name": "opt",
                "tasks": ["t1", "t2"],
                "backend": "scripted:optimal",
                "trials": 2,
                "output_dir": str(tmp_path / "out"),
            }
        )
        records = run_trials(plan)
        assert len(records) == 4
        assert all(r.actual == "succeeded" for r in records)
        assert all(r.believed == "succeeded" for r in records)
        assert {(r.trial_id, r.task_id) for r in records} == {
            ("opt-000", "t1"),
            ("opt-000", "t2"),
            ("opt-001", "t1"),
            ("opt-001", "t2"),
        }
        by_task = {r.task_id: r for r in records if r.trial_id == "opt-000"}
        assert by_task["t1"].tool_calls == 14
        assert by_task["t2"].tool_calls == 13
        # t2 starts with the t1 report already in the trial's store.
        assert by_task["t1"].memory_size_before == 0
        assert by_task["t2"].memory_size_before == 1

        for record in records:
            assert record.transcript_path is not None
            assert os.path.exists(record.transcript_path)
        trials_file = tmp_path / "out" / "trials.jsonl"
        assert len(trials_file.read_text().splitlines()) == 4

        # The t2 header must capture the post-t1 world it actually started
        # from, while t1 starts at the scenario's seed state.
        t1_header = Transcript.read_jsonl(by_task["t1"].transcript_path).header
        t2_header = Transcript.read_jsonl(by_task["t2"].transcript_path).header
        assert t1_header.initial_world is not None
        assert t2_header.initial_world is not None
        t1_start = t1_header.initial_world["agent"]["location"]
        t2_start = t2_header.initial_world["agent"]["location"]
        assert t1_start == t1_header.scenario["agent"]["location"]
        assert t2_start != t2_header.scenario["agent"]["location"]

    def test_hallucinator_believes_wrongly(self):
        plan = ExperimentPlan.from_dict(
            {
                "name": "hall",
                "tasks": ["t1"],
                "backend": "scripted:hallucinator",
                "trials": 3,
            }
        )
        records = run_trials(plan)
        assert [r.believed for r in records] == ["succeeded"] * 3
        assert [r.actual for r in records] == ["failed"] * 3

    def test_t2_skipped_when_t1_actually_failed(self):
        plan = ExperimentPlan.from_dict(
            {
                "name": "skip",
                "tasks": ["t1", "t2"],
                "backend": "scripted:hallucinator",
                "trials": 2,
            }
        )
        records = run_trials(plan)
        assert [r.task_id for r in records] == ["t1", "t1"]

    def test_parallel_trials_match_serial(self, tmp_path):
        def run_with(parallelism):
            plan = ExperimentPlan.from_dict(
                {
                    "name": "par",
                    "tasks": ["t1"],
                    "backend": "scripted:optimal",
                    "trials": 4,
                    "parallelism": parallelism,
                }
            )
            return [
                (r.trial_id, r.task_id, r.believed, r.actual, r.tool_calls)
                for r in run_trials(plan)
            ]

        assert sorted(run_with(1)) == sorted(run_with(3))

    @pytest.mark.parametrize(
        "tasks, backend",
        [(["t1", "t2"], "scripted:optimal"), (["t1"], "scripted:hallucinator")],
    )
    def test_template_path_matches_per_trial_load(self, tmp_path, monkeypatch, tasks, backend):
        """Trials copied from one template write exactly what trials that
        each load the scenario write: every file, byte for byte."""
        written = {}
        for name, execute in (("template", run_trials), ("oracle", per_trial_load_trials)):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            plan = ExperimentPlan.from_dict(
                {"name": "cmp", "tasks": tasks, "backend": backend, "trials": 3,
                 "seed": 4, "output_dir": "out"}
            )
            execute(plan)
            written[name] = read_tree("out")
        assert len(written["template"]) == 1 + 3 * len(tasks)
        assert written["template"] == written["oracle"]

    def test_trial_record_roundtrip(self, tmp_path):
        plan = ExperimentPlan.from_dict(
            {"name": "rt", "tasks": ["t1"], "backend": "scripted:optimal",
             "output_dir": str(tmp_path)}
        )
        record = run_trials(plan)[0]
        [line] = (tmp_path / "trials.jsonl").read_text().splitlines()
        assert TrialRecord(**json.loads(line)) == record


class TestMemoryProtocol:
    def run_plan(self, sizes, trials=2):
        plan = ExperimentPlan.from_dict(
            {
                "name": "mem",
                "tasks": ["t1"],
                "backend": "scripted:memory_hinted",
                "trials": trials,
                "memory_sizes": list(sizes),
            }
        )
        return run_trials(plan)

    def test_memory_shortens_runs(self):
        records = self.run_plan((0, 1, 2, 3))
        report = compute_metrics(records)
        stats = report.group("t1", "scripted:memory_hinted").by_memory_size
        assert set(stats) == {0, 1, 2, 3}
        assert stats[0]["mean_tool_calls"] == 19.0
        for size in (1, 2, 3):
            assert stats[size]["mean_tool_calls"] == 14.0
            assert stats[size]["success_rate"] == 1.0

    def test_memory_size_before_matches_batch(self):
        records = self.run_plan((0, 2), trials=3)
        sizes = sorted({r.memory_size_before for r in records})
        assert sizes == [0, 2]
        assert sum(1 for r in records if r.memory_size_before == 2) == 3

    def test_insufficient_pool_rejected(self):
        with pytest.raises(EvaluationError, match="only 0 prior reports"):
            self.run_plan((1,), trials=1)

    def test_batches_honour_parallelism(self, tmp_path, monkeypatch, capsys):
        """Each memory-size batch runs plan.parallelism trials at a time and
        writes the same bytes as a serial run."""
        threads = set()
        first_two = threading.Barrier(2, timeout=5)
        calls = itertools.count()
        run_trial = runner.run_trial

        def overlapping_run_trial(*args, **kwargs):
            threads.add(threading.get_ident())
            if next(calls) < 2:
                first_two.wait()  # the first two trials must run at once
            return run_trial(*args, **kwargs)

        written = {}
        for parallelism in (1, 2):
            (tmp_path / str(parallelism)).mkdir()
            monkeypatch.chdir(tmp_path / str(parallelism))
            with open("plan.json", "w", encoding="utf-8") as handle:
                json.dump(
                    {"name": "mem", "tasks": ["t1"],
                     "backend": "scripted:memory_hinted", "trials": 3,
                     "memory_sizes": [0, 1, 2], "parallelism": parallelism,
                     "output_dir": "out"},
                    handle,
                )
            if parallelism == 2:
                monkeypatch.setattr(runner, "run_trial", overlapping_run_trial)
            assert main(["experiment", "plan.json"]) == 0
            written[parallelism] = (read_tree("out"), capsys.readouterr())
        files = written[1][0]
        assert len(files) == 4 + 9  # trials.jsonl, three metrics files, transcripts
        assert written[2] == written[1]
        assert len(threads) > 1


def fake_record(
    believed="succeeded",
    actual="succeeded",
    task_id="t1",
    model_id="m",
    tool_calls=10,
    termination="end_task",
    memory_size_before=0,
    trial_id="x-000",
):
    return TrialRecord(
        trial_id=trial_id,
        task_id=task_id,
        model_id=model_id,
        memory_size_before=memory_size_before,
        believed=believed,
        actual=actual,
        tool_calls=tool_calls,
        termination=termination,
        transcript_path=None,
        scenario_hash="deadbeef",
    )


class TestMetrics:
    def test_confusion_layout(self):
        records = (
            [fake_record("succeeded", "succeeded")] * 3
            + [fake_record("succeeded", "failed")] * 1
            + [fake_record("failed", "succeeded")] * 2
            + [fake_record("failed", "failed")] * 4
        )
        group = compute_metrics(records).group("t1", "m")
        assert group.confusion == [[3, 1], [2, 4]]
        assert group.trials == 10
        assert group.success_rate == pytest.approx(0.5)

    def test_success_rate_counts_actual_only(self):
        records = [fake_record("succeeded", "failed")] * 4
        group = compute_metrics(records).group("t1", "m")
        assert group.success_rate == 0.0
        assert group.confusion == [[0, 4], [0, 0]]

    def test_groups_split_by_task_and_model(self):
        records = [
            fake_record(task_id="t1", model_id="a"),
            fake_record(task_id="t2", model_id="a"),
            fake_record(task_id="t1", model_id="b"),
        ]
        report = compute_metrics(records)
        assert [(g.task_id, g.model_id) for g in report.groups] == [
            ("t1", "a"),
            ("t1", "b"),
            ("t2", "a"),
        ]

    def test_mean_tool_calls(self):
        records = [fake_record(tool_calls=10), fake_record(tool_calls=20)]
        assert compute_metrics(records).group("t1", "m").mean_tool_calls == 15.0

    def test_empty_records_rejected(self):
        with pytest.raises(EvaluationError, match="zero records"):
            compute_metrics([])

    def test_exclude_backend_errors(self):
        records = [
            fake_record("succeeded", "succeeded"),
            fake_record("failed", "failed", termination="backend_error"),
        ]
        full = compute_metrics(records).group("t1", "m")
        trimmed = compute_metrics(records, exclude_backend_errors=True).group(
            "t1", "m"
        )
        assert full.trials == 2
        assert trimmed.trials == 1
        assert trimmed.success_rate == 1.0

    def test_all_backend_errors_rejected(self):
        records = [fake_record(termination="backend_error")]
        with pytest.raises(EvaluationError, match="backend errors"):
            compute_metrics(records, exclude_backend_errors=True)

    def test_unknown_group_lookup(self):
        report = compute_metrics([fake_record()])
        with pytest.raises(KeyError, match="no metrics for task 't9'"):
            report.group("t9", "m")


class TestRenderers:
    def sample_report(self):
        records = [
            fake_record("succeeded", "succeeded", memory_size_before=0),
            fake_record("succeeded", "failed", memory_size_before=1, tool_calls=20),
        ]
        return compute_metrics(records)

    def test_json_roundtrip(self):
        report = self.sample_report()
        [group] = report.groups
        assert json.loads(render_json(report)) == {
            "groups": [
                {
                    "task_id": group.task_id,
                    "model_id": group.model_id,
                    "trials": group.trials,
                    "success_rate": group.success_rate,
                    "mean_tool_calls": group.mean_tool_calls,
                    "confusion": group.confusion,
                    "by_memory_size": {
                        "0": group.by_memory_size[0],
                        "1": group.by_memory_size[1],
                    },
                }
            ]
        }

    def test_csv_shape(self):
        lines = render_csv(self.sample_report()).strip().splitlines()
        assert lines[0] == "task,model,memory_size,trials,success_rate,mean_tool_calls"
        assert len(lines) == 3
        assert lines[1].startswith("t1,m,0,1,")
        assert lines[2].startswith("t1,m,1,1,")

    def test_markdown_sections(self):
        text = render_markdown(self.sample_report())
        assert "| Task | Model | Trials | Success rate | Mean tool calls |" in text
        assert "## t1 / m" in text
        assert "Believed vs actual" in text
        assert "## Reference success rates" in text
        assert "| t2 | gpt-4.1 | 44.4% |" in text

    def test_emit_report_writes_all_formats(self, tmp_path):
        paths = emit_report(self.sample_report(), str(tmp_path))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["metrics.csv", "metrics.json", "metrics.md"]
        for path in paths:
            assert os.path.getsize(path) > 0


class TestReferenceRates:
    def test_pinned_values(self):
        assert REFERENCE_SUCCESS_RATES["t1"] == {
            "gpt-4.1": 1.0,
            "claude-4-sonnet": 1.0,
            "qwen3-coder-480b": 0.80,
            "deepseek-v3.1": 1.0,
        }
        assert REFERENCE_SUCCESS_RATES["t2"] == {
            "gpt-4.1": 0.444,
            "claude-4-sonnet": 1.0,
            "qwen3-coder-480b": 0.662,
            "deepseek-v3.1": 0.755,
        }
