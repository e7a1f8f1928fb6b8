"""Benchmark entry point for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hearth checkout. It generates the workload's
inputs from the seed, times the set-up of several fresh workload
processes, lets the last one measure for S seconds, checks every op's
output, and prints one JSON line last: `correct`, `attempted`, `failed`
and `metrics`. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones from a traced run. The line before
it holds details: error rate, tail percentile, sample counts, machine.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

import calibrate

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("batch", "recall", "rpc", "replay")
# Fresh workload processes whose set-up is timed; setup_s is the median.
SETUP_REPEATS = 5
# Calibration bursts around each set-up, after a pause of SETUP_SETTLE_S.
SETUP_BURSTS = 3
SETUP_SETTLE_S = 0.1
# A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 150


def generate(workload: str, seed: int, work: str) -> None:
    """Write the inputs the workload processes read (not timed as set-up)."""
    import inputs

    if workload == "recall":
        inputs.write_store(
            os.path.join(work, "pristine.jsonl"), seed, "recall",
            inputs.RECALL_STORE_RECORDS,
        )
    elif workload == "rpc":
        inputs.write_rpc_sessions(os.path.join(work, "rpc_sessions.json"), seed)
    elif workload == "replay":
        inputs.record_transcripts(os.path.join(work, "recorded"), seed)


def run_worker(args: argparse.Namespace, work: str, role: str) -> tuple[float, Any]:
    """Start one workload process; returns its set-up time and result."""
    if args.workload == "recall":
        store = os.path.join(work, "store.jsonl")
        shutil.copyfile(os.path.join(work, "pristine.jsonl"), store)
        # Flushed before set-up starts, so the warm-up op's fsync writes
        # only the record it appends.
        with open(store, "rb") as handle:
            os.fsync(handle.fileno())
    argv = [
        sys.executable, os.path.join(PERFBENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--role", role, "--spans-out", spans_path(args),
    ]
    start = time.perf_counter()
    # A session of its own lets a hung worker be killed with its server.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
        wait_for_group(proc.pid)
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"{args.workload} {role} process failed with exit code {code}")
    results = [line[len("RESULT "):] for line in rest.splitlines() if line.startswith("RESULT ")]
    return setup_s, json.loads(results[-1]) if results else None


def wait_for_group(pgid: int) -> None:
    """Wait until no process of a killed worker's group is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(100):
            time.sleep(0.05)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def setup_bursts() -> list[float]:
    """Mean slice times of a few calibration bursts. The first bursts
    after a worker exits can read up to twice as slow while the system
    clears it away, so they start after a pause."""
    time.sleep(SETUP_SETTLE_S)
    return [calibrate.burst().wall_ms for _ in range(SETUP_BURSTS)]


def spans_path(args: argparse.Namespace) -> str:
    """Where a traced run leaves its spans; each run replaces the last."""
    return os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}.jsonl")


def machine() -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "jsonschema": importlib.metadata.version("jsonschema"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "hearth", "cli.py")):
        print(f"error: no hearth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(os.path.dirname(spans_path(args)), exist_ok=True)
    try:
        start = time.perf_counter()
        generate(args.workload, args.seed, work)
        generate_s = time.perf_counter() - start
        repeats = 1 if args.trace else SETUP_REPEATS
        bursts, raw_setups = [], []
        for n in range(repeats):
            bursts += setup_bursts()
            setup_s, result = run_worker(args, work, "measure" if n == repeats - 1 else "setup")
            raw_setups.append(setup_s)
        bursts += setup_bursts()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Set-up times are scaled like the run's times, by one factor: the
    # median of the calibration bursts taken before and after them.
    setups = [s * calibrate.NOMINAL_SLICE_MS / statistics.median(bursts) for s in raw_setups]

    attempted, failed = result["attempted"], result["failed"]
    detail: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "error_rate": failed / attempted,
        "ops": result["ops"],
        "generate_s": generate_s,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "setup_calibration_ms": bursts,
        "machine": machine(),
    }
    if args.trace:
        metrics = result["metrics"]
        detail.update(passes=result["passes"], spans=spans_path(args),
                      span_table=result["span_table"])
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (result["rate"], "1/s"),
            "op_p50_ms": (result["p50_s"] * 1e3, "ms"),
            "op_tail_ms": (result["tail_s"] * 1e3, "ms"),
            "cpu_ms_per_op": (result["cpu_s"] / result["ops"] * 1e3, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        detail.update(
            {key: result[key] for key in ("samples", "tail_percentile", "calibration_ms", "raw")}
        )
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
