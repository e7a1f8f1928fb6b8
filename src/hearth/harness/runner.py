"""Trial runner: trial batches, the memory-accumulation protocol, replay.

`execute_task` is the one path that runs a task and records its
transcript; `hearth run`, trial batches and `replay_transcript` all go
through it. Every trial starts from the same scenario document, so
differences between trials come only from the backend and the seeded
memory store.
TrialRecords carry both the agent's belief and the checker's verdict;
nothing here ever feeds ground truth back to the agent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

from ..agent.backends import Backend, RecordedReplayBackend, ScriptedBackend
from ..agent.context import PROMPT_VERSION
from ..agent.http_backend import HttpBackendConfig, HttpChatBackend
from ..agent.loop import (
    DEFAULT_MAX_TOOL_CALLS,
    TERMINATION_STEP_LIMIT,
    TaskRun,
    run_task,
)
from ..agent.scripts import SCRIPTS
from ..agent.transcript import (
    Transcript,
    TranscriptError,
    TranscriptFinal,
    TranscriptHeader,
    TranscriptMessage,
)
from ..jsonio import FieldError, dumps, from_json, read_json_object, replace_file
from ..memory.episodic import EpisodicRecord, EpisodicStore
from ..memory.scratchpad import Scratchpad
from ..tools.dispatch import MemoryHandles
from ..world.scenario import load_scenario, read_scenario, scenario_hash
from ..world.state import WorldState, canonical_json, snapshot
from .tasks import TASKS, EvaluationError, TaskDef

VALID_MEMORY_SIZES = (0, 1, 2, 3)


@dataclass(frozen=True)
class ExperimentPlan:
    """Config for one batch: which tasks, which backend, how many trials."""

    name: str
    tasks: tuple[str, ...]
    backend: Any
    trials: int = 1
    memory_sizes: tuple[int, ...] | None = None
    scenario_path: str | None = None
    seed: int | None = None
    output_dir: str | None = None
    parallelism: int = 1
    exclude_backend_errors: bool = False
    max_tool_calls: int = DEFAULT_MAX_TOOL_CALLS
    memory_enabled: bool = True

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentPlan":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown plan fields: {sorted(unknown)}")
        for required in ("name", "tasks", "backend"):
            if required not in data:
                raise ValueError(f"plan is missing required field '{required}'")
        try:
            plan = from_json(cls, data)
        except FieldError as exc:
            raise ValueError(
                f"plan field '{exc.name}' has the wrong type: {exc.value!r}"
            ) from None
        tasks, sizes = plan.tasks, plan.memory_sizes
        if not tasks:
            raise ValueError("plan must name at least one task")
        for position, task_id in enumerate(tasks):
            task = TASKS.get(task_id)
            if task is None:
                raise ValueError(f"unknown task '{task_id}'")
            if task.prerequisite is not None and task.prerequisite not in tasks[:position]:
                raise ValueError(
                    f"task '{task_id}' requires '{task.prerequisite}' earlier "
                    f"in the task list"
                )
        if plan.trials < 1:
            raise ValueError("trials must be >= 1")
        if sizes is not None:
            bad = [m for m in sizes if m not in VALID_MEMORY_SIZES]
            if bad:
                raise ValueError(
                    f"memory_sizes must lie in {list(VALID_MEMORY_SIZES)}, got {bad}"
                )
            repeated = sorted({m for m in sizes if sizes.count(m) > 1})
            if repeated:
                raise ValueError(f"memory_sizes lists {repeated} more than once")
        if plan.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if plan.max_tool_calls < 1:
            raise ValueError("max_tool_calls must be >= 1")
        return plan

    @classmethod
    def from_file(cls, path: str) -> "ExperimentPlan":
        return cls.from_dict(read_json_object(path, "plan"))


@dataclass(frozen=True)
class TrialRecord:
    trial_id: str
    task_id: str
    model_id: str
    memory_size_before: int
    believed: str
    actual: str
    tool_calls: int
    termination: str
    transcript_path: str | None
    scenario_hash: str


@dataclass(frozen=True)
class BackendSetup:
    """Normalized backend choice: knows how to mint a Backend per task.
    Exactly one of `script_name` and `http_config` is set."""

    model_id: str
    script_name: str | None = None
    http_config: HttpBackendConfig | None = None

    @classmethod
    def from_spec(cls, spec: Any) -> "BackendSetup":
        """A setup from `scripted:NAME`, `http:CONFIG_PATH`, or an object
        `{"kind": "scripted", "script": NAME}` or `{"kind": "http", ...}`
        holding what an http config file holds."""
        if isinstance(spec, str):
            kind, _, rest = spec.partition(":")
            if kind == "scripted":
                data = {"script": rest}
            elif kind == "http":
                data = read_json_object(rest, "backend config")
            else:
                raise ValueError(f"unknown backend spec '{spec}'")
        elif isinstance(spec, dict):
            data = dict(spec)
            kind = data.pop("kind", None)
        else:
            raise ValueError(f"unsupported backend spec type: {type(spec).__name__}")
        if kind == "scripted":
            name = data.pop("script", None)
            if data:
                raise ValueError(f"unknown scripted backend fields: {sorted(data)}")
            if name not in SCRIPTS:
                raise ValueError(
                    f"unknown script '{name}'; available: {sorted(SCRIPTS)}"
                )
            return cls(model_id=f"scripted:{name}", script_name=name)
        if kind == "http":
            config = HttpBackendConfig.from_dict(data)
            return cls(model_id=config.model, http_config=config)
        raise ValueError(f"backend config needs kind scripted|http, got {kind!r}")

    def make(self, task_id: str) -> Backend:
        if self.http_config is not None:
            return HttpChatBackend(self.http_config)
        per_task = SCRIPTS[self.script_name]
        if task_id not in per_task:
            raise EvaluationError(
                f"script '{self.script_name}' has no behavior for task '{task_id}'"
            )
        return ScriptedBackend(per_task[task_id])


@dataclass(frozen=True)
class ScenarioTemplate:
    """A scenario validated once per batch; each trial copies its world."""

    data: dict[str, Any]
    digest: str
    initial_world: dict[str, Any]

    @classmethod
    def load(cls, path: str | None = None) -> "ScenarioTemplate":
        """Read (None: the bundled scenario) and validate a scenario."""
        data = read_scenario(path)
        return cls(data, scenario_hash(data), load_scenario(data).to_dict())


@dataclass
class TrialOutcome:
    """One trial's records and runs, and its world as the last task left it."""

    world: WorldState
    records: list[TrialRecord] = field(default_factory=list)
    runs: list[TaskRun] = field(default_factory=list)


def task_header(
    scenario: ScenarioTemplate,
    task: TaskDef,
    model_id: str,
    seed: int | None,
    memory_enabled: bool,
    store: EpisodicStore,
    world: WorldState,
) -> TranscriptHeader:
    """The transcript header of a task about to start in `world`, with
    `store` as it stands: its size and the sequence number its next add
    would mint. It lists no memories yet; once the run is over,
    `run_trial` lists the `returned_memories` of its searches, so a
    header stays small however large the store grows.
    """
    return TranscriptHeader(
        scenario=scenario.data,
        scenario_hash=scenario.digest,
        prompt_version=PROMPT_VERSION,
        model_id=model_id,
        task_id=task.id,
        task_prompt=task.prompt,
        seed=seed,
        memory_enabled=memory_enabled,
        memory_count=len(store),
        memory_next_seq=store.next_seq,
        initial_world=world.to_dict(),
    )


def returned_memories(
    records: list[EpisodicRecord], messages: list[TranscriptMessage]
) -> list[dict[str, Any]]:
    """The `records` that some search_memory call in `messages` returned,
    in store order, as a header lists them.

    Replay needs no others. Similarities are computed per record, and ties
    are broken by `created_at`, then by store order, so a search of this
    subset returns what the same search of all `records` returned. The
    one add, end_task's, ends the run, and the header's `memory_next_seq`
    fixes the id it mints.
    """
    returned = {
        result["id"]
        for message in messages
        if message.tool_result and message.tool_result["name"] == "search_memory"
        for result in message.tool_result["machine_payload"].get("results", ())
    }
    return [record.to_dict() for record in records if record.id in returned]


def execute_task(
    world: WorldState,
    handles: MemoryHandles,
    backend: Backend,
    header: TranscriptHeader,
    max_tool_calls: int,
) -> tuple[TaskRun, Transcript]:
    """Run the task `header` describes from `world`, with search_memory
    offered as the header says; return the run and its transcript, which
    ends in the ground-truth snapshot."""
    run = run_task(
        world,
        handles,
        backend,
        header.task_prompt,
        max_tool_calls,
        header.memory_enabled,
    )
    final = TranscriptFinal(
        termination=run.termination,
        believed_status=run.believed_status,
        tool_calls=run.tool_calls,
        snapshot=snapshot(world),
    )
    return run, Transcript(header=header, messages=run.messages, final=final)


def seed_store(reports: Iterable[dict[str, Any]]) -> EpisodicStore:
    """A fresh in-memory store holding `reports`, added in order and
    numbered from 1."""
    store = EpisodicStore()
    for report in reports:
        store.add(
            task_description=report["task_description"],
            believed_status=report["believed_status"],
            action_summary=report["action_summary"],
            model_id=report.get("model_id", "unknown"),
        )
    return store


@dataclass(frozen=True)
class ReplayReport:
    """The live run's counts and how it diverged from the recording, or
    None if it did not."""

    messages: int
    tool_calls: int
    termination: str
    divergence: str | None = None


def replay_transcript(transcript: Transcript) -> ReplayReport:
    """Re-execute a recorded task against the world and store its header
    describes, re-emitting the recorded assistant turns, then compare the
    finished run with the recording.

    Raises TranscriptError when the recording cannot be replayed at all:
    another prompt version, a scenario that does not match its hash, or
    a world or memories that their readers refuse.
    """
    header, recorded = transcript.header, transcript.final
    if header.prompt_version != PROMPT_VERSION:
        raise TranscriptError(
            f"transcript prompt version '{header.prompt_version}' does "
            f"not match current '{PROMPT_VERSION}'"
        )
    recomputed = scenario_hash(header.scenario)
    if recomputed != header.scenario_hash:
        raise TranscriptError(
            f"scenario hash mismatch: header says "
            f"{header.scenario_hash}, scenario hashes to {recomputed}"
        )
    try:
        world = WorldState.from_dict(header.initial_world)
    except ValueError as exc:
        raise TranscriptError(f"bad initial world: {exc}") from None
    try:
        store = EpisodicStore.from_dicts(header.initial_memories, header.memory_next_seq)
    except KeyError as exc:
        raise TranscriptError(f"initial memory lacks {exc}") from None
    except ValueError as exc:
        raise TranscriptError(f"bad initial memory: {exc}") from None
    handles = MemoryHandles(Scratchpad(), store, header.model_id)
    # One call of headroom lets a run that ended in a refusal or a backend
    # error reach the turn it ended on; a step limit is the cap itself.
    headroom = 0 if recorded.termination == TERMINATION_STEP_LIMIT else 1
    max_tool_calls = max(recorded.tool_calls + headroom, 1)
    _, live = execute_task(
        world, handles, RecordedReplayBackend(transcript), header, max_tool_calls
    )
    return ReplayReport(
        len(live.messages),
        live.final.tool_calls,
        live.final.termination,
        _divergence(live, transcript),
    )


def _divergence(live: Transcript, recording: Transcript) -> str | None:
    """How a live run that terminated differs from its recording, or None.

    Messages are compared whole, every field of each. The first differing
    message is named before any difference in length.
    """
    for got, want in zip(live.messages, recording.messages):
        if got != want:
            return (
                f"replay divergence at message index {got.index}: live message "
                f"{got.to_dict()!r} != recorded {want.to_dict()!r}"
            )
    if len(live.messages) != len(recording.messages):
        return (
            f"live run has {len(live.messages)} messages, "
            f"recording has {len(recording.messages)}"
        )
    if live.final.termination != recording.final.termination:
        return (
            f"termination '{live.final.termination}' != recorded "
            f"'{recording.final.termination}'"
        )
    if live.final.tool_calls != recording.final.tool_calls:
        return (
            f"final tool_calls {live.final.tool_calls} != recorded "
            f"{recording.final.tool_calls}"
        )
    if live.final.believed_status != recording.final.believed_status:
        return (
            f"final believed_status {live.final.believed_status!r} != recorded "
            f"{recording.final.believed_status!r}"
        )
    if canonical_json(live.final.snapshot) != canonical_json(recording.final.snapshot):
        return "final snapshot differs from the recording"
    return None


def run_trial(
    scenario: ScenarioTemplate,
    task_ids: tuple[str, ...],
    setup: BackendSetup,
    store: EpisodicStore,
    max_tool_calls: int,
    trial_id: str,
    transcript_dir: str | None = None,
    seed: int | None = None,
    memory_enabled: bool = True,
    baseline: dict[str, Any] | None = None,
) -> TrialOutcome:
    """Run one trial: the task sequence on a fresh world, shared store.
    A `baseline` t1 snapshot stands in for a t1 the trial does not run."""
    world = WorldState.from_dict(scenario.initial_world)
    handles = MemoryHandles(
        scratchpad=Scratchpad(), store=store, model_id=setup.model_id
    )
    outcome = TrialOutcome(world)
    for task_id in task_ids:
        task = TASKS[task_id]
        # t1 is the only prerequisite, and `baseline` is set exactly when
        # it was achieved.
        if task.prerequisite is not None and baseline is None:
            continue
        header = task_header(
            scenario, task, setup.model_id, seed, memory_enabled, store, world
        )
        size_before = len(store)
        run, transcript = execute_task(
            world, handles, setup.make(task_id), header, max_tool_calls
        )
        header.initial_memories = returned_memories(
            store.records[:size_before], run.messages
        )
        final_snapshot = transcript.final.snapshot
        actual_ok = task.check(final_snapshot, baseline)
        transcript_path = None
        if transcript_dir is not None:
            transcript_path = os.path.join(
                transcript_dir, f"{trial_id}_{task_id}.jsonl"
            )
            transcript.write_jsonl(transcript_path)
        outcome.runs.append(run)
        outcome.records.append(
            TrialRecord(
                trial_id=trial_id,
                task_id=task_id,
                model_id=setup.model_id,
                memory_size_before=size_before,
                believed=run.believed_status or "failed",
                actual="succeeded" if actual_ok else "failed",
                tool_calls=run.tool_calls,
                termination=run.termination,
                transcript_path=transcript_path,
                scenario_hash=scenario.digest,
            )
        )
        if task_id == "t1":
            baseline = final_snapshot if actual_ok else None
    return outcome


def _run_batch(
    parallelism: int, jobs: list[Callable[[], TrialOutcome]]
) -> list[TrialOutcome]:
    if parallelism == 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    # Imported here: a batch run one trial at a time never starts a pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [future.result() for future in futures]


def _prepare_output(plan: ExperimentPlan) -> str | None:
    if plan.output_dir is None:
        return None
    transcript_dir = os.path.join(plan.output_dir, "transcripts")
    os.makedirs(transcript_dir, exist_ok=True)
    return transcript_dir


def _persist_records(plan: ExperimentPlan, records: list[TrialRecord]) -> None:
    if plan.output_dir is None:
        return
    replace_file(os.path.join(plan.output_dir, "trials.jsonl"), "".join(
        dumps(vars(record)) + "\n" for record in records
    ))


def run_trials(plan: ExperimentPlan) -> list[TrialRecord]:
    """Run the plan's trials and return their records in trial order.

    Without memory sizes, one batch of plan.trials trials runs, each with
    an empty store. Otherwise this is the memory-accumulation protocol:
    one batch per size, in the order given, each trial's fresh store
    seeded with exactly that many reports harvested from the batches
    before it (believed labels included, wrong or not), so size 0 must
    come before any size that needs its reports. Trials of one batch run
    plan.parallelism at a time.
    """
    scenario = ScenarioTemplate.load(plan.scenario_path)
    setup = BackendSetup.from_spec(plan.backend)
    transcript_dir = _prepare_output(plan)
    if plan.memory_sizes:
        batches = [(f"m{size}-", size) for size in plan.memory_sizes]
    else:
        batches = [("", 0)]

    pool: list[dict[str, Any]] = []
    records: list[TrialRecord] = []
    for prefix, size in batches:
        if size > len(pool):
            raise EvaluationError(
                f"cannot seed memory size {size}: only {len(pool)} prior "
                f"reports available"
            )
        stores = [seed_store(pool[:size]) for _ in range(plan.trials)]
        jobs = [
            partial(
                run_trial,
                scenario,
                plan.tasks,
                setup,
                store,
                plan.max_tool_calls,
                trial_id=f"{plan.name}-{prefix}{index:03d}",
                transcript_dir=transcript_dir,
                seed=plan.seed,
                memory_enabled=plan.memory_enabled,
            )
            for index, store in enumerate(stores)
        ]
        for outcome, store in zip(_run_batch(plan.parallelism, jobs), stores):
            records.extend(outcome.records)
            pool.extend(record.to_dict() for record in store.records[size:])
    _persist_records(plan, records)
    return records
