"""Metrics over trial records: rates, confusion matrices, reports.

The headline numbers are the actual success rate and the believed-vs-
actual confusion matrix, grouped per (task, model); the memory series
groups the same numbers by how many records the store held when the
trial began.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Iterable

from ..agent.loop import TERMINATION_BACKEND_ERROR
from ..jsonio import replace_file
from .runner import TrialRecord
from .tasks import EvaluationError

# External reference points (published evaluations of remote models on
# these two tasks), shown alongside local results for orientation.
REFERENCE_SUCCESS_RATES: dict[str, dict[str, float]] = {
    "t1": {
        "gpt-4.1": 1.0,
        "claude-4-sonnet": 1.0,
        "qwen3-coder-480b": 0.80,
        "deepseek-v3.1": 1.0,
    },
    "t2": {
        "gpt-4.1": 0.444,
        "claude-4-sonnet": 1.0,
        "qwen3-coder-480b": 0.662,
        "deepseek-v3.1": 0.755,
    },
}


@dataclass
class GroupMetrics:
    task_id: str
    model_id: str
    trials: int
    success_rate: float
    mean_tool_calls: float
    # Rows are believed (succeeded, failed); columns actual (succeeded, failed).
    confusion: list[list[int]]
    by_memory_size: dict[int, dict[str, float]] = field(default_factory=dict)


@dataclass
class MetricsReport:
    groups: list[GroupMetrics]

    def group(self, task_id: str, model_id: str) -> GroupMetrics:
        for group in self.groups:
            if group.task_id == task_id and group.model_id == model_id:
                return group
        raise KeyError(f"no metrics for task '{task_id}' and model '{model_id}'")


def _confusion(records: Iterable[TrialRecord]) -> list[list[int]]:
    matrix = [[0, 0], [0, 0]]
    for record in records:
        row = 0 if record.believed == "succeeded" else 1
        col = 0 if record.actual == "succeeded" else 1
        matrix[row][col] += 1
    return matrix


def _rate(records: list[TrialRecord]) -> float:
    return sum(1 for r in records if r.actual == "succeeded") / len(records)


def _mean_calls(records: list[TrialRecord]) -> float:
    return sum(r.tool_calls for r in records) / len(records)


def compute_metrics(
    records: list[TrialRecord], exclude_backend_errors: bool = False
) -> MetricsReport:
    """Aggregate trial records per (task, model)."""
    if not records:
        raise EvaluationError("cannot compute metrics over zero records")
    if exclude_backend_errors:
        records = [r for r in records if r.termination != TERMINATION_BACKEND_ERROR]
        if not records:
            raise EvaluationError("all records were backend errors")
    grouped: dict[tuple[str, str], list[TrialRecord]] = {}
    for record in records:
        grouped.setdefault((record.task_id, record.model_id), []).append(record)
    groups = []
    for (task_id, model_id), members in sorted(grouped.items()):
        by_size: dict[int, dict[str, float]] = {}
        sizes: dict[int, list[TrialRecord]] = {}
        for member in members:
            sizes.setdefault(member.memory_size_before, []).append(member)
        for size, subset in sorted(sizes.items()):
            by_size[size] = {
                "trials": float(len(subset)),
                "success_rate": _rate(subset),
                "mean_tool_calls": _mean_calls(subset),
            }
        groups.append(
            GroupMetrics(
                task_id=task_id,
                model_id=model_id,
                trials=len(members),
                success_rate=_rate(members),
                mean_tool_calls=_mean_calls(members),
                confusion=_confusion(members),
                by_memory_size=by_size,
            )
        )
    return MetricsReport(groups=groups)


def render_json(report: MetricsReport) -> str:
    # json writes by_memory_size's int keys as strings, sorted as ints.
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def render_csv(report: MetricsReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["task", "model", "memory_size", "trials", "success_rate", "mean_tool_calls"]
    )
    for group in report.groups:
        for size, stats in sorted(group.by_memory_size.items()):
            writer.writerow(
                [
                    group.task_id,
                    group.model_id,
                    size,
                    int(stats["trials"]),
                    f"{stats['success_rate']:.4f}",
                    f"{stats['mean_tool_calls']:.2f}",
                ]
            )
    return buffer.getvalue()


def render_markdown(report: MetricsReport) -> str:
    lines = ["# Evaluation report", ""]
    lines.append("| Task | Model | Trials | Success rate | Mean tool calls |")
    lines.append("| --- | --- | --- | --- | --- |")
    for group in report.groups:
        lines.append(
            f"| {group.task_id} | {group.model_id} | {group.trials} "
            f"| {group.success_rate:.1%} | {group.mean_tool_calls:.1f} |"
        )
    for group in report.groups:
        lines += [
            "",
            f"## {group.task_id} / {group.model_id}",
            "",
            "Believed vs actual (rows: believed succeeded/failed; columns:",
            "actual succeeded/failed):",
            "",
            "```",
            f"[[{group.confusion[0][0]:4d} {group.confusion[0][1]:4d}]",
            f" [{group.confusion[1][0]:4d} {group.confusion[1][1]:4d}]]",
            "```",
        ]
        if group.by_memory_size:
            lines += [
                "",
                "| Memory size | Trials | Success rate | Mean tool calls |",
                "| --- | --- | --- | --- |",
            ]
            for size, stats in sorted(group.by_memory_size.items()):
                lines.append(
                    f"| {size} | {int(stats['trials'])} "
                    f"| {stats['success_rate']:.1%} "
                    f"| {stats['mean_tool_calls']:.1f} |"
                )
    lines += [
        "",
        "## Reference success rates",
        "",
        "External evaluations of remote models on the same tasks, for",
        "orientation:",
        "",
        "| Task | Model | Success rate |",
        "| --- | --- | --- |",
    ]
    for task_id, per_model in REFERENCE_SUCCESS_RATES.items():
        for model_id, rate in per_model.items():
            lines.append(f"| {task_id} | {model_id} | {rate:.1%} |")
    lines.append("")
    return "\n".join(lines)


_REPORT_FILES = {
    "metrics.json": render_json,
    "metrics.csv": render_csv,
    "metrics.md": render_markdown,
}


def emit_report(report: MetricsReport, output_dir: str) -> list[str]:
    """Write the report as JSON, CSV and Markdown; returns written paths."""
    paths = []
    os.makedirs(output_dir, exist_ok=True)
    for name, renderer in _REPORT_FILES.items():
        path = os.path.join(output_dir, name)
        replace_file(path, renderer(report))
        paths.append(path)
    return paths
