"""Span tracing for the benchmark's traced run.

Spans are recorded by wrapping the public functions each hearth layer
exposes, at the names their callers look them up under (a function
imported into another module is wrapped in that module). Nothing under
src/ changes. A span is a list [name, start_ns, end_ns, parent, op, attrs];
spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable

# (span name, module, attribute path). Every target must exist: a
# refactor that moves one must update this table, or the traced run
# fails instead of silently reporting an empty layer.
WRAP_TARGETS = (
    ("world.load_scenario", "hearth.cli", "load_scenario"),
    ("world.load_scenario", "hearth.harness.runner", "load_scenario"),
    ("world.load_scenario", "hearth.rpc.server", "load_scenario"),
    ("world.load_scenario", "hearth.world.scenario", "load_scenario"),
    ("world.from_dict", "hearth.world.state", "WorldState.from_dict"),
    ("world.snapshot", "hearth.cli", "snapshot"),
    ("world.snapshot", "hearth.harness.runner", "snapshot"),
    ("world.snapshot", "hearth.rpc.server", "snapshot"),
    ("world.shortest_path", "hearth.world.actions", "shortest_path"),
    ("tools.dispatch", "hearth.agent.loop", "dispatch"),
    ("tools.dispatch", "hearth.rpc.server", "dispatch"),
    ("memory.open", "hearth.memory.episodic", "EpisodicStore.__init__"),
    ("memory.search", "hearth.memory.episodic", "EpisodicStore.search"),
    ("memory.add", "hearth.memory.episodic", "EpisodicStore.add"),
    ("memory.embed", "hearth.memory.embedding", "HashedEmbedder.embed"),
    ("agent.run_task", "hearth.cli", "run_task"),
    ("agent.run_task", "hearth.harness.runner", "run_task"),
    ("agent.next_action", "hearth.agent.backends", "ScriptedBackend.next_action"),
    ("agent.next_action", "hearth.agent.backends", "RecordedReplayBackend.next_action"),
    ("agent.transcript_write", "hearth.agent.transcript", "Transcript.write_jsonl"),
    ("agent.transcript_read", "hearth.agent.transcript", "Transcript.read_jsonl"),
    ("harness.run_trial", "hearth.harness.runner", "run_trial"),
    ("harness.report", "hearth.cli", "compute_metrics"),
    ("harness.report", "hearth.cli", "emit_report"),
    ("cli.experiment", "hearth.cli", "cmd_experiment"),
    ("cli.run", "hearth.cli", "cmd_run"),
    ("cli.replay", "hearth.cli", "cmd_replay"),
    ("rpc.handle_line", "hearth.rpc.server", "RpcConnection.handle_line"),
    ("rpc.request", "hearth.rpc.client", "RpcClient.request"),
)

# Spans that start an op of their own when they have no parent: each
# request the client sends, and each frame the server handles.
OPENS_OP = {"rpc.handle_line", "rpc.request"}


def _dispatch_attrs(args: tuple, kwargs: dict, result: Any) -> Any:
    cause = None if result.ok else result.machine_payload.get("cause")
    return [args[0].name, cause]


def _open_attrs(args: tuple, kwargs: dict, result: Any) -> Any:
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    return [path is not None, len(args[0])]


def _write_attrs(args: tuple, kwargs: dict, result: Any) -> Any:
    return os.path.getsize(args[1])


def _line_attrs(args: tuple, kwargs: dict, result: Any) -> Any:
    return '"method": "tool.' in args[1]


def _request_attrs(args: tuple, kwargs: dict, result: Any) -> Any:
    return args[1]


ATTRS: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "tools.dispatch": _dispatch_attrs,
    "memory.open": _open_attrs,
    "memory.search": lambda args, kwargs, result: bool(result),
    "agent.transcript_write": _write_attrs,
    "rpc.handle_line": _line_attrs,
    "rpc.request": _request_attrs,
}


class WrapTargetMissing(RuntimeError):
    """A function the tracer must wrap no longer exists where expected."""


class Tracer:
    """Records spans from wrapped functions into an in-memory list."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []
        self._op_counter = itertools.count()

    def set_op(self, op: Any) -> None:
        """Mark the spans this thread records next as belonging to `op`."""
        self._local.op = op

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        local = self._local
        attrs = ATTRS.get(name)
        opens_op = name in OPENS_OP
        counter = self._op_counter
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if opens_op and not stack:
                local.op = f"s{next(counter)}"
            span = [name, clock(), 0, stack[-1] if stack else None,
                    getattr(local, "op", None), None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[5] = "raised"
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; raises WrapTargetMissing if one is gone."""
        if self._installed:
            return
        for name, module_name, path in WRAP_TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
                if owner is None:
                    break
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.uninstall()
                raise WrapTargetMissing(f"wrap target {module_name}.{path} is missing")
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()


def write_spans(spans: list[list[Any]], path: str) -> None:
    """Write spans as JSON lines, each parent given by its line index."""
    index = {id(span): number for number, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as handle:
        for number, (name, start, end, parent, op, attrs) in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "i": number,
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "parent": None if parent is None else index[id(parent)],
                        "op": op,
                        "attrs": attrs,
                    }
                )
                + "\n"
            )


def read_spans(path: str) -> list[list[Any]]:
    spans: list[list[Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            parent = None if row["parent"] is None else spans[row["parent"]]
            spans.append(
                [row["name"], row["start_ns"], row["end_ns"], parent, row["op"], row["attrs"]]
            )
    return spans


def self_times(spans: list[list[Any]]) -> dict[int, int]:
    """Self time in ns per span (keyed by id): duration minus children."""
    child = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            child[id(parent)] = child.get(id(parent), 0) + span[2] - span[1]
    return {id(span): span[2] - span[1] - child.get(id(span), 0) for span in spans}


TOOLS = (
    "look_around",
    "move_to",
    "grab",
    "place",
    "add_to_scratchpad",
    "view_scratchpad",
    "search_memory",
    "end_task",
)
# Failure causes dispatch can report. Listed, not discovered, so every
# run prints the same metric names.
CAUSES = (
    "unknown-tool",
    "invalid-arguments",
    "unknown-location",
    "no-path",
    "does-not-exist",
    "out-of-reach",
    "already-holding",
    "not-graspable",
    "not-holding",
    "no-such-slot",
    "occupied",
    "empty-note",
    "invalid-status",
    "empty-field",
)


def span_table(spans: list[list[Any]], ops: int) -> dict[str, dict[str, float]]:
    """Calls, total and self milliseconds per op for every span name."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span[0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (span[2] - span[1]) / 1e6
        row["self_ms"] += selfs[id(span)] / 1e6
    return {
        name: {key: value / ops for key, value in row.items()}
        for name, row in sorted(table.items())
    }


def layer_metrics(
    spans: list[list[Any]], ops: int, server_spans: list[list[Any]] | None = None
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per op unless its unit says per call.

    `spans` come from the benchmark process; `server_spans` from a traced
    `hearth serve` child, if the workload has one. A layer with no calls
    on a workload reports 0.
    """
    every = spans + (server_spans or [])
    table = span_table(every, ops)

    def total(name: str, scale: float) -> float:
        return table.get(name, {}).get("total_ms", 0.0) * scale

    def self_time(name: str) -> float:
        return table.get(name, {}).get("self_ms", 0.0)

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def mean_us(durations: list[int]) -> float:
        return sum(durations) / len(durations) / 1e3 if durations else 0.0

    dispatched = [s[5] for s in every if s[0] == "tools.dispatch"]
    by_tool = {tool: 0 for tool in TOOLS}
    by_cause = {cause: 0 for cause in CAUSES}
    for tool, cause in dispatched:
        by_tool[tool] = by_tool.get(tool, 0) + 1
        if cause is not None:
            by_cause[cause] = by_cause.get(cause, 0) + 1
    loads = [s for s in every if s[0] == "memory.open" and s[5] != "raised" and s[5][0]]
    searches = [s[5] for s in every if s[0] == "memory.search"]
    written = sum(s[5] for s in every if s[0] == "agent.transcript_write")
    lines = [s[2] - s[1] for s in every if s[0] == "rpc.handle_line" and s[5] is True]
    requests = [s for s in every if s[0] == "rpc.request"]
    round_trips = [s[2] - s[1] for s in requests if str(s[5]).startswith("tool.")]
    creates = [s[2] - s[1] for s in requests if s[5] == "session.create"]
    errors = sum(1 for s in requests if s[5] == "raised")

    metrics: dict[str, tuple[float, str]] = {
        "world.load_scenario_ms": (total("world.load_scenario", 1), "ms/op"),
        "world.load_scenario_calls": (calls("world.load_scenario"), "count"),
        "world.from_dict_us": (total("world.from_dict", 1e3), "us/op"),
        "world.snapshot_us": (total("world.snapshot", 1e3), "us/op"),
        "world.shortest_path_us": (total("world.shortest_path", 1e3), "us/op"),
        "world.shortest_path_calls": (calls("world.shortest_path"), "count"),
        "tools.dispatch_us": (total("tools.dispatch", 1e3), "us/op"),
        "tools.dispatch_calls": (len(dispatched) / ops, "count"),
    }
    for tool in TOOLS:
        metrics[f"tools.dispatch_calls.{tool}"] = (by_tool[tool] / ops, "count")
    failed = sum(by_cause.values())
    metrics["tools.failure_ratio"] = (ratio(failed, len(dispatched)), "ratio")
    for cause in CAUSES:
        metrics[f"tools.failure_ratio.{cause}"] = (
            ratio(by_cause[cause], len(dispatched)),
            "ratio",
        )
    metrics.update(
        {
            "memory.load_ms": (sum(s[2] - s[1] for s in loads) / 1e6 / ops, "ms/op"),
            "memory.records": (ratio(sum(s[5][1] for s in loads), len(loads)), "count"),
            "memory.search_ms": (total("memory.search", 1), "ms/op"),
            "memory.search_calls": (len(searches) / ops, "count"),
            "memory.search_hit_ratio": (ratio(sum(searches), len(searches)), "ratio"),
            "memory.add_ms": (total("memory.add", 1), "ms/op"),
            "memory.add_calls": (calls("memory.add"), "count"),
            "memory.embed_us": (total("memory.embed", 1e3), "us/op"),
            "memory.embed_calls": (calls("memory.embed"), "count"),
            "agent.run_task_ms": (total("agent.run_task", 1), "ms/op"),
            "agent.loop_self_ms": (self_time("agent.run_task"), "ms/op"),
            "agent.next_action_us": (total("agent.next_action", 1e3), "us/op"),
            "agent.turns": (calls("agent.next_action"), "count"),
            "agent.transcript_write_ms": (total("agent.transcript_write", 1), "ms/op"),
            "agent.transcript_bytes": (written / ops, "bytes"),
            "agent.transcript_read_ms": (total("agent.transcript_read", 1), "ms/op"),
            "harness.run_trial_ms": (total("harness.run_trial", 1), "ms/op"),
            "harness.trial_self_ms": (self_time("harness.run_trial"), "ms/op"),
            "harness.report_ms": (total("harness.report", 1), "ms/op"),
            "cli.run_self_ms": (self_time("cli.run"), "ms/op"),
            "cli.replay_self_ms": (self_time("cli.replay"), "ms/op"),
            "rpc.handle_line_us": (mean_us(lines), "us/op"),
            "rpc.round_trip_us": (mean_us(round_trips), "us/op"),
            "rpc.transport_us": (
                mean_us(round_trips) - mean_us(lines) if lines else 0.0,
                "us/op",
            ),
            "rpc.session_create_ms": (mean_us(creates) / 1e3, "ms/call"),
            "rpc.errors": (errors / ops, "count"),
        }
    )
    return metrics


def count_metrics(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """The exact, seed-determined subset: calls, records and bytes."""
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if unit in ("count", "bytes") and name != "rpc.errors"
        and not name.startswith("trace.")
    }
