"""Command-line entry points.

Exit codes are fixed for CI scripting: 0 success, 1 task failure or
replay divergence, 2 configuration problem, 3 backend problem.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any

from .agent.backends import BackendError
from .agent.loop import DEFAULT_MAX_TOOL_CALLS, TERMINATION_BACKEND_ERROR
from .agent.transcript import Transcript
from .harness.metrics import compute_metrics, emit_report, render_json
from .harness.runner import (
    BackendSetup,
    ExperimentPlan,
    ScenarioTemplate,
    replay_transcript,
    run_trial,
    run_trials,
)
from .harness.tasks import TASKS, EvaluationError, check_t1
from .jsonio import read_json_object
from .memory.episodic import EpisodicStore, PersistenceError
from .world.scenario import load_scenario, read_scenario, scenario_hash
from .world.state import WorldState, canonical_json, snapshot

# perfbench/tracing.py wraps this name here (its WRAP_TARGETS) and fails
# when it is missing; tasks run it from harness.runner.
from .agent.loop import run_task  # noqa: F401

EXIT_OK = 0
EXIT_TASK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3


def _load_baseline(path: str) -> tuple[ScenarioTemplate, dict[str, Any]]:
    """The scenario, starting world and t1 snapshot of a baseline file,
    whose snapshot must satisfy t1 and be its world's."""
    if os.path.isdir(path):
        path = os.path.join(path, "baseline.json")
    baseline = read_json_object(path, "baseline file")
    for key in ("scenario", "scenario_hash", "world", "snapshot"):
        if key not in baseline:
            raise ValueError(f"baseline file is missing '{key}'")
    data = baseline["scenario"]
    try:
        load_scenario(data)
        world = WorldState.from_dict(baseline["world"])
    except ValueError as exc:
        raise ValueError(f"baseline file '{path}': {exc}") from exc
    digest = scenario_hash(data)
    if digest != baseline["scenario_hash"]:
        raise ValueError(
            f"baseline file '{path}': scenario hash mismatch: baseline says "
            f"{baseline['scenario_hash']}, scenario hashes to {digest}"
        )
    if not check_t1(baseline["snapshot"]):
        raise ValueError(
            "baseline snapshot does not satisfy t1; refusing to run t2 from it"
        )
    if canonical_json(snapshot(world)) != canonical_json(baseline["snapshot"]):
        raise ValueError(
            f"baseline file '{path}': snapshot does not match the baseline's world"
        )
    return ScenarioTemplate(data, digest, world.to_dict()), baseline["snapshot"]


def cmd_run(args: argparse.Namespace) -> int:
    task = TASKS[args.task]
    if args.max_tool_calls < 1:
        raise ValueError("max_tool_calls must be >= 1")

    baseline_snapshot: dict[str, Any] | None = None
    if task.prerequisite is not None:
        if args.baseline is None:
            print(
                f"error: task '{task.id}' requires a baseline from a "
                f"successful '{task.prerequisite}' run; pass --baseline",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        if args.scenario is not None:
            print("error: --scenario only applies to tasks without a prerequisite",
                  file=sys.stderr)
            return EXIT_CONFIG
        scenario, baseline_snapshot = _load_baseline(args.baseline)
    else:
        if args.baseline is not None:
            print("error: --baseline only applies to tasks with a prerequisite",
                  file=sys.stderr)
            return EXIT_CONFIG
        scenario = ScenarioTemplate.load(args.scenario)

    setup = BackendSetup.from_spec(args.backend)
    store = EpisodicStore(path=args.memory) if args.memory else EpisodicStore()
    outcome = run_trial(
        scenario, (task.id,), setup, store, args.max_tool_calls, "run",
        args.output_dir or None, args.seed, not args.no_memory, baseline_snapshot,
    )
    (record,), (run,) = outcome.records, outcome.runs
    actual_ok = record.actual == "succeeded"

    print(f"task: {task.id}")
    print(f"believed: {record.believed}")
    print(f"actual: {record.actual}")
    print(f"tool calls: {run.tool_calls}")
    print(f"termination: {run.termination}")
    if run.latencies_s:
        mean_latency = sum(run.latencies_s) / len(run.latencies_s)
        print(f"mean backend latency: {mean_latency:.2f}s")

    if args.output_dir:
        print(f"transcript: {record.transcript_path}")
        if task.id == "t1" and actual_ok:
            baseline = {
                "scenario": scenario.data,
                "scenario_hash": scenario.digest,
                "world": outcome.world.to_dict(),
                "snapshot": snapshot(outcome.world),
            }
            baseline_path = os.path.join(args.output_dir, "baseline.json")
            with open(baseline_path, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(baseline))
            print(f"baseline: {baseline_path}")

    if run.termination == TERMINATION_BACKEND_ERROR:
        if run.error:
            print(f"backend error: {run.error}", file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK if actual_ok else EXIT_TASK_FAILED


def cmd_experiment(args: argparse.Namespace) -> int:
    plan = ExperimentPlan.from_file(args.plan)
    records = run_trials(plan)
    report = compute_metrics(records, plan.exclude_backend_errors)
    out_dir = args.report_dir or plan.output_dir
    if out_dir:
        paths = emit_report(report, out_dir)
        for path in paths:
            print(f"wrote {path}")
    else:
        print(render_json(report), end="")
    for group in report.groups:
        print(
            f"{group.task_id} {group.model_id}: success rate "
            f"{group.success_rate:.1%} over {group.trials} trials"
        )
    return EXIT_OK


def cmd_memory(args: argparse.Namespace) -> int:
    if not os.path.exists(args.store):
        print(f"error: no store file at '{args.store}'", file=sys.stderr)
        return EXIT_CONFIG
    store = EpisodicStore(path=args.store)
    if args.action == "list":
        print(f"{len(store)} records")
        for record in store.records:
            print(
                f"{record.id} [{record.believed_status}] ({record.model_id}) "
                f"{record.task_description}"
            )
        return EXIT_OK
    if args.action == "search":
        if not args.query:
            print("error: search requires --query", file=sys.stderr)
            return EXIT_CONFIG
        results = store.search(args.query, k=args.k)
        if not results:
            print("no relevant memories")
            return EXIT_OK
        for rank, (record, similarity) in enumerate(results, start=1):
            print(
                f"{rank}. {record.id} similarity {similarity:.3f} "
                f"[{record.believed_status}] {record.task_description}"
            )
        return EXIT_OK
    # purge
    if not args.yes:
        print("refusing to purge without --yes", file=sys.stderr)
        return EXIT_CONFIG
    count = len(store)
    store.purge()
    print(f"purged {count} records")
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    # Imported here: only `serve` needs the server and socketserver.
    from .rpc.server import ToolRpcServer, serve_stdio

    scenario_data = read_scenario(args.scenario)
    if args.stdio:
        serve_stdio(scenario_data, expose_ground_truth=args.expose_ground_truth)
        return EXIT_OK
    if not 0 <= args.port <= 65535:
        raise ValueError(f"port must be 0-65535: {args.port}")
    server = ToolRpcServer(
        (args.host, args.port),
        scenario_data,
        expose_ground_truth=args.expose_ground_truth,
    )
    print(f"listening on {args.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    report = replay_transcript(Transcript.read_jsonl(args.transcript))
    if report.divergence is not None:
        print(f"replay diverged: {report.divergence}", file=sys.stderr)
        return EXIT_TASK_FAILED
    print(
        f"replay ok: {report.messages} messages, {report.tool_calls} tool calls, "
        f"termination {report.termination}"
    )
    return EXIT_OK


def _add_run_arguments(run: argparse.ArgumentParser) -> None:
    run.add_argument("--task", required=True, choices=sorted(TASKS))
    run.add_argument(
        "--backend",
        required=True,
        help="scripted:NAME or http:CONFIG_JSON",
    )
    run.add_argument("--scenario", help="scenario JSON (default: bundled)")
    run.add_argument("--baseline", help="baseline.json (or its directory) from t1")
    run.add_argument("--memory", help="episodic store JSONL path")
    run.add_argument("--output-dir", help="write transcript and baseline here")
    run.add_argument("--max-tool-calls", type=int, default=DEFAULT_MAX_TOOL_CALLS)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--no-memory", action="store_true",
                     help="hide search_memory from the agent")
    run.set_defaults(func=cmd_run)


def _add_experiment_arguments(experiment: argparse.ArgumentParser) -> None:
    experiment.add_argument("plan", help="experiment plan JSON")
    experiment.add_argument("--report-dir", help="where to write metrics files")
    experiment.set_defaults(func=cmd_experiment)


def _add_memory_arguments(memory: argparse.ArgumentParser) -> None:
    memory.add_argument("action", choices=("list", "search", "purge"))
    memory.add_argument("--store", required=True, help="store JSONL path")
    memory.add_argument("--query", help="search query")
    memory.add_argument("--k", type=int, default=3)
    memory.add_argument("--yes", action="store_true", help="confirm purge")
    memory.set_defaults(func=cmd_memory)


def _add_serve_arguments(serve: argparse.ArgumentParser) -> None:
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7341)
    serve.add_argument("--scenario", help="scenario JSON (default: bundled)")
    serve.add_argument("--expose-ground-truth", action="store_true")
    serve.add_argument("--stdio", action="store_true",
                       help="serve a single connection on stdin/stdout")
    serve.set_defaults(func=cmd_serve)


def _add_replay_arguments(replay: argparse.ArgumentParser) -> None:
    replay.add_argument("transcript", help="transcript JSONL path")
    replay.set_defaults(func=cmd_replay)


# Each command's help and the function that adds its arguments. The
# adders name their cmd_* handler when they run, so a handler replaced
# on this module (perfbench/tracing.py wraps three) is the one called.
COMMANDS = {
    "run": ("run one task with a backend", _add_run_arguments),
    "experiment": ("run a trial batch from a plan", _add_experiment_arguments),
    "memory": ("inspect or clear an episodic store", _add_memory_arguments),
    "serve": ("serve the tool interface over JSON-RPC", _add_serve_arguments),
    "replay": ("re-execute a recorded transcript", _add_replay_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for an invocation whose first argument is `command`.

    A known command gets only its own subparser; the metavar keeps every
    command in the top-level usage line, which an `unrecognized
    arguments` error prints. Anything else (`-h`, no argument, an
    unknown name) gets every subparser and no metavar, so the help and
    the `required` and `invalid choice` errors name the argument
    `command`.
    """
    parser = argparse.ArgumentParser(
        prog="hearth",
        description="Household-agent simulator: run tasks, experiments, and "
        "the tool server.",
    )
    if command in COMMANDS:
        names = [command]
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}"
        )
    else:
        names = list(COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (EvaluationError, PersistenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
