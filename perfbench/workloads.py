"""The four workloads: what one op is, how it is run, and how it is checked.

Each workload drives hearth only through its public entry points:
`hearth.cli.main`, `EpisodicStore`, and a `hearth serve` child reached
with `RpcClient`. In-process workloads time each op on its own; checks
run outside the timed intervals.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any

import inputs

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(PERFBENCH), "src")


def cli(argv: list[str]) -> tuple[int, str]:
    """Run `hearth.cli.main` in process; returns the exit code and stdout."""
    from hearth.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class InProcess:
    """An in-process workload; `steps` ops of the cycle make one pass."""

    steps = 1

    def reset(self) -> None:
        """Restore the state a pass starts from."""

    def before(self, index: int) -> Any:
        return None

    def run(self, index: int, state: Any) -> Any:
        raise NotImplementedError

    def ops_in(self, index: int) -> int:
        return 1

    def after(self, index: int, state: Any, output: Any) -> int:
        """Check one op right after it ran; returns failed ops."""
        return 0

    def finish(self) -> int:
        """Check outputs deferred to the end of a batch of ops."""
        return 0

    def final_checks(self) -> tuple[int, int]:
        """Once-per-run checks: (attempted, failed)."""
        return 0, 0

    def close(self) -> None:
        pass


def run_ops(
    workload: InProcess,
    deadline: float | None = None,
    steps: int | None = None,
    tracer: Any = None,
    first: int = 0,
) -> dict[str, Any]:
    """Run ops from index `first` until the deadline, or for `steps` ops.

    Each op's wall time is a sample; a batch op of n trials gives n
    trials' time over n. The worker thread's CPU time is summed alongside.
    """
    samples: list[tuple[float, float]] = []
    busy = cpu = 0.0
    ops = failed = 0
    index = first
    while (index - first < steps) if steps is not None else (time.perf_counter() < deadline):
        state = workload.before(index)
        if tracer is not None:
            tracer.set_op(index)
        cpu_start = time.thread_time()
        start = time.perf_counter()
        output = workload.run(index, state)
        elapsed = time.perf_counter() - start
        cpu += time.thread_time() - cpu_start
        count = workload.ops_in(index)
        busy += elapsed
        ops += count
        samples.append((start, elapsed / count))
        failed += workload.after(index, state, output)
        index += 1
    failed += workload.finish()
    return _totals(ops, busy, cpu, samples, failed) | {"next": index}


def _totals(
    ops: int, busy: float, cpu: float, samples: list[tuple[float, float]], failed: int
) -> dict[str, Any]:
    return {
        "ops": ops,
        "busy_s": busy,
        "cpu_s": cpu,
        "samples": [elapsed for _, elapsed in sorted(samples)],
        "failed": failed,
    }


class Batch(InProcess):
    """Repeated `hearth experiment` plans; one op is one trial."""

    def __init__(self, work: str, seed: int) -> None:
        from hearth.agent.scripts import SCRIPT_CALL_COUNTS

        self.plans = inputs.batch_plans(seed)
        self.steps = len(self.plans)
        self.runs = os.path.join(work, f"runs-{os.getpid()}")
        self.pending: list[tuple[dict[str, Any], int]] = []
        self.expected = {
            ("optimal", "t1"): (SCRIPT_CALL_COUNTS[("optimal", "t1")], "succeeded"),
            ("optimal", "t2"): (SCRIPT_CALL_COUNTS[("optimal", "t2")], "succeeded"),
            ("hallucinator", "t1"): (SCRIPT_CALL_COUNTS[("hallucinator", "t1")], "failed"),
        }

    def warmup(self) -> None:
        state = self._write_plan(dict(self.plans[0], trials=1, name="warmup"), "warmup")
        if self._check(state["plan"], self.run(0, state)):
            raise RuntimeError("warm-up experiment failed its check")
        self.reset()

    def _write_plan(self, plan: dict[str, Any], label: str) -> dict[str, Any]:
        plan = dict(plan, output_dir=os.path.join(self.runs, label))
        path = plan["output_dir"] + ".json"
        os.makedirs(self.runs, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(plan, handle)
        return {"plan": plan, "path": path}

    def reset(self) -> None:
        shutil.rmtree(self.runs, ignore_errors=True)

    def before(self, index: int) -> Any:
        return self._write_plan(self.plans[index % self.steps], f"{index:05d}")

    def run(self, index: int, state: Any) -> int:
        return cli(["experiment", state["path"]])[0]

    def ops_in(self, index: int) -> int:
        return self.plans[index % self.steps]["trials"]

    def after(self, index: int, state: Any, output: Any) -> int:
        self.pending.append((state["plan"], output))
        return 0

    def finish(self) -> int:
        failed = sum(self._check(plan, code) for plan, code in self.pending)
        self.pending.clear()
        self.reset()
        return failed

    def _check(self, plan: dict[str, Any], code: int) -> int:
        """Failed trials of one plan: each trial's records, then the
        confusion matrices in metrics.json."""
        trials = plan["trials"]
        if code != 0:
            return trials
        script = plan["backend"].split(":", 1)[1]
        out = plan["output_dir"]
        with open(os.path.join(out, "trials.jsonl"), encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        with open(os.path.join(out, "metrics.json"), encoding="utf-8") as handle:
            groups = json.load(handle)["groups"]
        confusion = {(g["task_id"], g["model_id"]): g["confusion"] for g in groups}
        want_confusion = {}
        for task in plan["tasks"]:
            actual = self.expected[(script, task)][1]
            want_confusion[(task, plan["backend"])] = (
                [[trials, 0], [0, 0]] if actual == "succeeded" else [[0, trials], [0, 0]]
            )
        if confusion != want_confusion or len(records) != trials * len(plan["tasks"]):
            return trials
        bad = set()
        for record in records:
            calls, actual = self.expected[(script, record["task_id"])]
            got = (record["tool_calls"], record["believed"], record["actual"],
                   record["termination"])
            if got != (calls, "succeeded", actual, "end_task") or not os.path.exists(
                record["transcript_path"]
            ):
                bad.add(record["trial_id"])
        return len(bad)


class Recall(InProcess):
    """Repeated `hearth run --memory STORE`; one op is one run.

    Every op loads the durable store, searches it, appends one record
    with an fsync, and writes a transcript whose header holds the store.
    The store is restored outside the timed interval every `steps` ops,
    so every op sees the same store sizes however many ops a run makes.
    """

    steps = 4

    def __init__(self, work: str, seed: int) -> None:
        from hearth.agent.scripts import SCRIPT_CALL_COUNTS, T1_DESCRIPTION

        self.store = os.path.join(work, "store.jsonl")
        self.base = os.path.join(work, f"store-{os.getpid()}.base")
        self.out = os.path.join(work, f"out-{os.getpid()}")
        self.calls = SCRIPT_CALL_COUNTS[("memory_hinted", "t1")][1]
        self.description = T1_DESCRIPTION

    def warmup(self) -> None:
        size = os.path.getsize(self.store)
        if self.after(0, size, self.run(0, size)):
            raise RuntimeError("warm-up run failed its check")
        shutil.copyfile(self.store, self.base)

    def reset(self) -> None:
        shutil.copyfile(self.base, self.store)
        # Flushed here, so an op's fsync writes only the record it appends.
        with open(self.store, "rb") as handle:
            os.fsync(handle.fileno())

    def before(self, index: int) -> int:
        if index % self.steps == 0:
            self.reset()
        return os.path.getsize(self.store)

    def run(self, index: int, state: Any) -> tuple[int, str]:
        return cli(
            ["run", "--task", "t1", "--backend", "scripted:memory_hinted",
             "--memory", self.store, "--output-dir", self.out]
        )

    def after(self, index: int, state: int, output: tuple[int, str]) -> int:
        code, stdout = output
        with open(self.store, "rb") as handle:
            handle.seek(state)
            appended = handle.read().splitlines()
        ok = (
            code == 0
            and f"tool calls: {self.calls}" in stdout.splitlines()
            and len(appended) == 1
            and json.loads(appended[0])["task_description"] == self.description
        )
        return 0 if ok else 1

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class Replay(InProcess):
    """Repeated `hearth replay` of transcripts recorded at set-up."""

    def __init__(self, work: str, seed: int) -> None:
        self.paths = inputs.transcript_paths(os.path.join(work, "recorded"))
        self.cycle = inputs.replay_cycle(seed)
        self.steps = len(self.cycle)
        self.tampered = os.path.join(work, f"tampered-{os.getpid()}.jsonl")

    def warmup(self) -> None:
        for kind in sorted(self.paths):
            if cli(["replay", self.paths[kind]])[0] != 0:
                raise RuntimeError(f"warm-up replay of {kind} failed")

    def run(self, index: int, state: Any) -> int:
        return cli(["replay", self.paths[self.cycle[index % self.steps]]])[0]

    def after(self, index: int, state: Any, output: int) -> int:
        return 0 if output == 0 else 1

    def final_checks(self) -> tuple[int, int]:
        """A transcript with one tool result altered must exit 1."""
        with open(self.paths["optimal_t1"], encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        tool = next(line for line in lines if line.get("role") == "tool")
        tool["content"] += " (altered)"
        with open(self.tampered, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line, sort_keys=True) + "\n")
        code = cli(["replay", self.tampered])[0]
        os.remove(self.tampered)
        return 1, 0 if code == 1 else 1


class Server:
    """A `hearth serve --expose-ground-truth` child on an ephemeral port."""

    def __init__(self, spans_path: str | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        serve = ["serve", "--port", "0", "--expose-ground-truth"]
        if spans_path is None:
            argv = [sys.executable, "-m", "hearth", *serve]
        else:
            argv = [sys.executable, os.path.join(PERFBENCH, "traced_serve.py"),
                    spans_path, *serve]
        self.spans_path = spans_path
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Rpc:
    """Closed-loop tool calls over JSON-RPC; one op is one round trip.

    The client keeps one connection busy, pinned with the server to one
    CPU. Each session is one connection running one seeded call sequence,
    then `session.snapshot` and `session.close`. Sessions run one after
    another: with two connections at once, a call on one most likely
    waited on the other's work under a GIL, such as the scenario load of
    its `session.create`; the tail then measured that wait and how the
    host scheduled the threads, and swung by a factor of two between runs
    of the same code.
    """

    def __init__(self, work: str, seed: int, traced: bool) -> None:
        self.sessions = inputs.read_rpc_sessions(os.path.join(work, "rpc_sessions.json"))
        self.cycle = itertools.cycle(range(len(self.sessions)))
        # Client and server share one CPU. Their round trips then need no
        # wake-up across virtual CPUs, whose cost swings with the time the
        # host takes from each; that swing doubled the op rate between
        # runs. The server holds the GIL while it works, so a second CPU
        # gives it no more throughput.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.first: dict[int, tuple[list[Any], Any]] = {}
        self.runs = {index: 0 for index in range(len(self.sessions))}
        self.plain = Server()
        self.traced = None
        if traced:
            try:
                self.traced = Server(os.path.join(work, f"server-spans-{os.getpid()}.jsonl"))
            except BaseException:
                self.plain.stop()
                raise

    def warmup(self) -> None:
        from hearth.rpc import RpcClient

        with RpcClient("127.0.0.1", self.plain.port) as client:
            client.create_session(model_id="perfbench-warmup")
            for name, arguments in self.sessions[0][:20]:
                client.tool(name, **arguments)
            client.close_session()

    def _session(self, port: int, index: int, samples: list[tuple[float, float]]) -> int:
        """Run sequence `index` as one session, appending (start, seconds)
        per tool call to `samples`; returns failed calls."""
        from hearth.rpc import RpcClient, RpcError

        replies: list[Any] = []
        with RpcClient("127.0.0.1", port, timeout_s=60) as client:
            client.create_session(model_id=inputs.RPC_MODEL_ID)
            for name, arguments in self.sessions[index]:
                start = time.perf_counter()
                try:
                    reply = client.tool(name, **arguments)
                except RpcError:
                    reply = None
                samples.append((start, time.perf_counter() - start))
                replies.append(reply)
            final = client.snapshot()
            client.close_session()
        first = self.first.setdefault(index, (replies, final))
        self.runs[index] += 1
        if first[0] is replies:
            return sum(reply is None for reply in replies)
        if final != first[1]:
            return len(replies)
        return sum(got is None or got != want for got, want in zip(replies, first[0]))

    def _loop(self, server: Server, deadline: float | None, indexes: Any) -> dict[str, Any]:
        """Run sessions from `indexes` one after another, until the
        deadline or the iterator's end. The server's CPU time is read from
        /proc around the loop."""
        samples: list[tuple[float, float]] = []
        failed = 0
        cpu_start = server.cpu_s()
        start = time.perf_counter()
        while deadline is None or time.perf_counter() < deadline:
            index = next(indexes, None)
            if index is None:
                break
            failed += self._session(server.port, index, samples)
        wall = time.perf_counter() - start
        return _totals(len(samples), wall, server.cpu_s() - cpu_start, samples, failed)

    def measure(self, deadline: float) -> dict[str, Any]:
        return self._loop(self.plain, deadline, self.cycle)

    def one_pass(self, traced: bool) -> dict[str, Any]:
        server = self.traced if traced else self.plain
        return self._loop(server, None, iter(range(len(self.sessions))))

    def final_checks(self) -> tuple[int, int]:
        """Every sequence's replies and final snapshot against `dispatch`
        on a local world, run after timing. Later runs of a sequence were
        compared with its first run, so a mismatch here fails them all."""
        from hearth.memory.episodic import EpisodicStore
        from hearth.memory.scratchpad import Scratchpad
        from hearth.tools.dispatch import MemoryHandles, ToolCall, dispatch
        from hearth.world.scenario import default_scenario_data, load_scenario
        from hearth.world.state import canonical_json, snapshot

        failed = 0
        for index, (replies, final) in self.first.items():
            world = load_scenario(default_scenario_data())
            handles = MemoryHandles(Scratchpad(), EpisodicStore(), inputs.RPC_MODEL_ID)
            wrong = 0
            for (name, arguments), reply in zip(self.sessions[index], replies):
                want = dispatch(ToolCall(name, arguments), world, handles).to_dict()
                # A failed call (None) was counted when it happened.
                wrong += reply is not None and canonical_json(want) != canonical_json(reply)
            if canonical_json(snapshot(world)) != canonical_json(final):
                wrong = len(replies)
            failed += wrong * self.runs[index]
        return 0, failed

    def server_spans(self) -> list[list[Any]]:
        import tracing

        self.traced.stop()
        return tracing.read_spans(self.traced.spans_path)

    def close(self) -> None:
        for server in (self.plain, self.traced):
            if server is not None:
                server.stop()
