"""Trial runner: executes task batches and the memory-accumulation protocol.

Every trial starts from the same scenario document, so differences
between trials come only from the backend and the seeded memory store.
TrialRecords carry both the agent's belief and the checker's verdict;
nothing here ever feeds ground truth back to the agent.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from ..agent.backends import Backend, ScriptedBackend
from ..agent.context import PROMPT_VERSION, PromptConfig
from ..agent.http_backend import HttpBackendConfig, HttpChatBackend
from ..agent.loop import RunLimits, TaskRun, run_task
from ..agent.scripts import SCRIPTS
from ..agent.transcript import (
    Transcript,
    TranscriptFinal,
    TranscriptHeader,
)
from ..memory.episodic import EpisodicStore
from ..memory.scratchpad import Scratchpad
from ..tools.dispatch import MemoryHandles
from ..world.scenario import load_scenario, read_scenario, scenario_hash
from ..world.state import WorldState, snapshot
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
    max_tool_calls: int = 50
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
        tasks = tuple(data["tasks"])
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
        trials = int(data.get("trials", 1))
        if trials < 1:
            raise ValueError("trials must be >= 1")
        memory_sizes = data.get("memory_sizes")
        if memory_sizes is not None:
            memory_sizes = tuple(int(m) for m in memory_sizes)
            bad = [m for m in memory_sizes if m not in VALID_MEMORY_SIZES]
            if bad:
                raise ValueError(
                    f"memory_sizes must lie in {list(VALID_MEMORY_SIZES)}, got {bad}"
                )
        parallelism = int(data.get("parallelism", 1))
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        max_tool_calls = int(data.get("max_tool_calls", 50))
        return cls(
            name=data["name"],
            tasks=tasks,
            backend=data["backend"],
            trials=trials,
            memory_sizes=memory_sizes,
            scenario_path=data.get("scenario_path"),
            seed=data.get("seed"),
            output_dir=data.get("output_dir"),
            parallelism=parallelism,
            exclude_backend_errors=bool(data.get("exclude_backend_errors", False)),
            max_tool_calls=max_tool_calls,
            memory_enabled=bool(data.get("memory_enabled", True)),
        )

    @classmethod
    def from_file(cls, path: str) -> "ExperimentPlan":
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON in plan '{path}': {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"plan '{path}' must be a JSON object")
        return cls.from_dict(data)


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

    def to_dict(self) -> dict[str, Any]:
        return {
            "trial_id": self.trial_id,
            "task_id": self.task_id,
            "model_id": self.model_id,
            "memory_size_before": self.memory_size_before,
            "believed": self.believed,
            "actual": self.actual,
            "tool_calls": self.tool_calls,
            "termination": self.termination,
            "transcript_path": self.transcript_path,
            "scenario_hash": self.scenario_hash,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TrialRecord":
        return cls(
            trial_id=data["trial_id"],
            task_id=data["task_id"],
            model_id=data["model_id"],
            memory_size_before=int(data["memory_size_before"]),
            believed=data["believed"],
            actual=data["actual"],
            tool_calls=int(data["tool_calls"]),
            termination=data["termination"],
            transcript_path=data.get("transcript_path"),
            scenario_hash=data["scenario_hash"],
        )


@dataclass(frozen=True)
class BackendSetup:
    """Normalized backend choice: knows how to mint a Backend per task."""

    kind: str
    model_id: str
    script_name: str | None = None
    http_config: HttpBackendConfig | None = None

    @classmethod
    def from_spec(cls, spec: Any) -> "BackendSetup":
        if isinstance(spec, str):
            kind, _, rest = spec.partition(":")
            if kind == "scripted":
                if rest not in SCRIPTS:
                    raise ValueError(
                        f"unknown script '{rest}'; available: {sorted(SCRIPTS)}"
                    )
                return cls(
                    kind="scripted", model_id=f"scripted:{rest}", script_name=rest
                )
            if kind == "http":
                with open(rest, encoding="utf-8") as handle:
                    data = json.load(handle)
                config = HttpBackendConfig.from_dict(data)
                return cls(kind="http", model_id=config.model, http_config=config)
            raise ValueError(f"unknown backend spec '{spec}'")
        if isinstance(spec, dict):
            data = dict(spec)
            kind = data.pop("kind", None)
            if kind == "scripted":
                name = data.pop("script", None)
                if data or name not in SCRIPTS:
                    raise ValueError(f"bad scripted backend config: {spec}")
                return cls(
                    kind="scripted", model_id=f"scripted:{name}", script_name=name
                )
            if kind == "http":
                config = HttpBackendConfig.from_dict(data)
                return cls(kind="http", model_id=config.model, http_config=config)
            raise ValueError(f"backend config needs kind scripted|http, got {kind!r}")
        raise ValueError(f"unsupported backend spec type: {type(spec).__name__}")

    def make(self, task_id: str) -> Backend:
        if self.kind == "scripted":
            assert self.script_name is not None
            per_task = SCRIPTS[self.script_name]
            if task_id not in per_task:
                raise EvaluationError(
                    f"script '{self.script_name}' has no behavior for task "
                    f"'{task_id}'"
                )
            return ScriptedBackend(per_task[task_id])
        assert self.http_config is not None
        return HttpChatBackend(self.http_config)


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
    """One trial's records plus the reports it minted (for memory pools)."""

    records: list[TrialRecord]
    new_reports: list[dict[str, Any]] = field(default_factory=list)


def header_memories(store: EpisodicStore) -> list[dict[str, Any]]:
    """The store's records for a transcript header, without embeddings:
    replay re-embeds each memory from its `task_description`, so a header
    stays small however large the store grows."""
    return [record.without_embedding() for record in store.records]


def write_transcript(
    directory: str,
    trial_id: str,
    task: TaskDef,
    run: TaskRun,
    scenario_data: dict[str, Any],
    scenario_digest: str,
    model_id: str,
    seed: int | None,
    memory_enabled: bool,
    initial_memories: list[dict[str, Any]],
    initial_world: dict[str, Any],
    final_snapshot: dict[str, Any],
) -> str:
    header = TranscriptHeader(
        scenario=scenario_data,
        scenario_hash=scenario_digest,
        prompt_version=PROMPT_VERSION,
        model_id=model_id,
        task_id=task.id,
        task_prompt=task.prompt,
        seed=seed,
        memory_enabled=memory_enabled,
        initial_memories=initial_memories,
        initial_world=initial_world,
    )
    final = TranscriptFinal(
        termination=run.termination,
        believed_status=run.believed_status,
        tool_calls=run.tool_calls,
        snapshot=final_snapshot,
    )
    path = os.path.join(directory, f"{trial_id}_{task.id}.jsonl")
    Transcript(header=header, messages=run.messages, final=final).write_jsonl(path)
    return path


def run_trial(
    scenario: ScenarioTemplate,
    task_ids: tuple[str, ...],
    setup: BackendSetup,
    store: EpisodicStore,
    limits: RunLimits,
    trial_id: str,
    transcript_dir: str | None = None,
    seed: int | None = None,
    memory_enabled: bool = True,
) -> TrialOutcome:
    """Run one trial: the task sequence on a fresh world, shared store."""
    world = WorldState.from_dict(scenario.initial_world)
    handles = MemoryHandles(
        scratchpad=Scratchpad(), store=store, model_id=setup.model_id
    )
    prompt_config = PromptConfig(memory_enabled=memory_enabled)
    outcome = TrialOutcome(records=[])
    baseline: dict[str, Any] | None = None
    achieved: dict[str, bool] = {}
    for task_id in task_ids:
        task = TASKS[task_id]
        if task.prerequisite is not None and not achieved.get(task.prerequisite):
            continue
        initial_memories = header_memories(store)
        initial_world = world.to_dict()
        size_before = len(store)
        backend = setup.make(task_id)
        run = run_task(
            world,
            handles,
            backend,
            task.prompt,
            limits=limits,
            prompt_config=prompt_config,
        )
        final_snapshot = snapshot(world)
        actual_ok = task.check(final_snapshot, baseline)
        transcript_path = None
        if transcript_dir is not None:
            transcript_path = write_transcript(
                transcript_dir,
                trial_id,
                task,
                run,
                scenario.data,
                scenario.digest,
                setup.model_id,
                seed,
                memory_enabled,
                initial_memories,
                initial_world,
                final_snapshot,
            )
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
        for record in store.records[size_before:]:
            outcome.new_reports.append(
                {
                    "task_description": record.task_description,
                    "believed_status": record.believed_status,
                    "action_summary": record.action_summary,
                    "model_id": record.model_id,
                }
            )
        achieved[task_id] = actual_ok
        if task_id == "t1" and actual_ok:
            baseline = final_snapshot
    return outcome


def _run_batch(
    parallelism: int, jobs: list[Callable[[], TrialOutcome]]
) -> list[TrialOutcome]:
    if parallelism == 1 or len(jobs) <= 1:
        return [job() for job in jobs]
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
    path = os.path.join(plan.output_dir, "trials.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def run_trials(plan: ExperimentPlan) -> list[TrialRecord]:
    """Execute plan.trials independent trials, each with a fresh store."""
    scenario = ScenarioTemplate.load(plan.scenario_path)
    setup = BackendSetup.from_spec(plan.backend)
    limits = RunLimits(max_tool_calls=plan.max_tool_calls)
    transcript_dir = _prepare_output(plan)

    def job_for(index: int) -> Callable[[], TrialOutcome]:
        def job() -> TrialOutcome:
            return run_trial(
                scenario,
                plan.tasks,
                setup,
                EpisodicStore(),
                limits,
                trial_id=f"{plan.name}-{index:03d}",
                transcript_dir=transcript_dir,
                seed=plan.seed,
                memory_enabled=plan.memory_enabled,
            )

        return job

    outcomes = _run_batch(plan.parallelism, [job_for(i) for i in range(plan.trials)])
    records = [record for outcome in outcomes for record in outcome.records]
    _persist_records(plan, records)
    return records


def run_memory_protocol(plan: ExperimentPlan) -> list[TrialRecord]:
    """Memory-accumulation protocol: one batch per requested store size.

    Each batch seeds every trial's fresh store with exactly m reports
    harvested from earlier executions (believed labels included, wrong or
    not). Batches run in the order given, so size 0 must come before any
    size that needs its reports.
    """
    if not plan.memory_sizes:
        raise EvaluationError("plan.memory_sizes must name at least one size")
    scenario = ScenarioTemplate.load(plan.scenario_path)
    setup = BackendSetup.from_spec(plan.backend)
    limits = RunLimits(max_tool_calls=plan.max_tool_calls)
    transcript_dir = _prepare_output(plan)

    pool: list[dict[str, Any]] = []
    records: list[TrialRecord] = []
    for size in plan.memory_sizes:
        if size > len(pool):
            raise EvaluationError(
                f"cannot seed memory size {size}: only {len(pool)} prior "
                f"reports available"
            )
        seeds = pool[:size]
        batch_outcomes: list[TrialOutcome] = []
        for index in range(plan.trials):
            store = EpisodicStore()
            for report in seeds:
                store.add(
                    task_description=report["task_description"],
                    believed_status=report["believed_status"],
                    action_summary=report["action_summary"],
                    model_id=report["model_id"],
                )
            outcome = run_trial(
                scenario,
                plan.tasks,
                setup,
                store,
                limits,
                trial_id=f"{plan.name}-m{size}-{index:03d}",
                transcript_dir=transcript_dir,
                seed=plan.seed,
                memory_enabled=plan.memory_enabled,
            )
            batch_outcomes.append(outcome)
        for outcome in batch_outcomes:
            records.extend(outcome.records)
            pool.extend(outcome.new_reports)
    _persist_records(plan, records)
    return records
