"""The benchmark's own checks: seeded inputs repeat byte for byte, rpc
calls fail only where failures were injected, traced call counts repeat
exactly, and the tracer refuses a missing target."""

from __future__ import annotations

import os

import pytest

import inputs
import tracing
import workloads
import worker


def _files(root):
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def test_plans_sessions_and_cycles_repeat_for_a_seed():
    assert inputs.batch_plans(7) == inputs.batch_plans(7)
    assert inputs.rpc_sessions(7) == inputs.rpc_sessions(7)
    assert inputs.replay_cycle(7) == inputs.replay_cycle(7)
    assert inputs.batch_plans(7) != inputs.batch_plans(8)
    assert inputs.rpc_sessions(7) != inputs.rpc_sessions(8)
    assert sum(plan["trials"] for plan in inputs.batch_plans(7)) == inputs.BATCH_CYCLE_TRIALS


def test_rpc_sessions_fail_only_where_calls_were_injected():
    from hearth.memory.episodic import EpisodicStore
    from hearth.memory.scratchpad import Scratchpad
    from hearth.tools.dispatch import MemoryHandles, ToolCall, dispatch
    from hearth.world.scenario import default_scenario_data, load_scenario

    every = inputs.RPC_FAIL_AFTER + 1
    for calls in inputs.rpc_sessions(7)[:2]:
        world = load_scenario(default_scenario_data())
        handles = MemoryHandles(Scratchpad(), EpisodicStore(), inputs.RPC_MODEL_ID)
        results = [dispatch(ToolCall(name, arguments), world, handles) for name, arguments in calls]
        failed = [index for index, result in enumerate(results) if not result.ok]
        assert failed == [index for index in range(len(calls)) if index % every == every - 1]
        causes = {results[index].machine_payload["cause"] for index in failed}
        assert causes == set(inputs.RPC_FAIL_CAUSES)


def test_store_is_byte_identical_and_loads(tmp_path):
    from hearth.agent.scripts import T1_DESCRIPTION
    from hearth.memory.episodic import EpisodicStore

    paths = [str(tmp_path / name) for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    inputs.write_store(paths[0], 7, "recall", 200)
    inputs.write_store(paths[1], 7, "recall", 200)
    inputs.write_store(paths[2], 8, "recall", 200)
    a, b, c = (_files(str(tmp_path))[os.path.basename(p)] for p in paths)
    assert a == b
    assert a != c
    store = EpisodicStore(path=paths[0])
    assert len(store) == 200
    assert store.search(T1_DESCRIPTION)


def test_recorded_transcripts_are_byte_identical(tmp_path):
    inputs.record_transcripts(str(tmp_path / "one"), 7)
    inputs.record_transcripts(str(tmp_path / "two"), 7)
    one, two = _files(str(tmp_path / "one")), _files(str(tmp_path / "two"))
    assert one == two
    for path in inputs.transcript_paths(str(tmp_path / "one")).values():
        assert os.path.exists(path)


@pytest.mark.parametrize("name", ["batch", "replay"])
def test_traced_pass_counts_repeat_exactly(tmp_path, name):
    if name == "replay":
        inputs.record_transcripts(str(tmp_path / "recorded"), 7)
    workload = worker.make_workload(name, str(tmp_path), 7, trace=True)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        workload.reset()
        tracer.install()
        try:
            result = workloads.run_ops(workload, steps=workload.steps, tracer=tracer)
        finally:
            tracer.uninstall()
        assert result["failed"] == 0
        counts.append(tracing.count_metrics(tracing.layer_metrics(tracer.spans, result["ops"])))
    assert counts[0] == counts[1]
    assert counts[0]["tools.dispatch_calls"] > 0


def test_missing_wrap_target_fails_and_unwraps(monkeypatch):
    import hearth.cli

    original = hearth.cli.run_task
    monkeypatch.setattr(
        tracing, "WRAP_TARGETS",
        tracing.WRAP_TARGETS + (("cli.gone", "hearth.cli", "no_such_function"),),
    )
    with pytest.raises(tracing.WrapTargetMissing, match="hearth.cli.no_such_function"):
        tracing.Tracer().install()
    assert hearth.cli.run_task is original


def test_tail_keeps_ten_samples_beyond_in_every_chunk():
    samples = [float(i) for i in range(1, 201)]
    # 200 samples in one chunk: p95 leaves 10 beyond.
    assert worker.tail(samples, 99.9, 1) == (95.0, 190.0)
    # Two chunks of 100: p90 leaves 10 beyond in each; median of 90 and 190.
    assert worker.tail(samples, 99.9, 2) == (90.0, 140.0)
    assert worker.tail(samples, 75.0, 1) == (75.0, 150.0)
    assert worker.tail(samples[:15], 99.9, 1) == (100.0, 15.0)
