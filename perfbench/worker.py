"""One workload process: import hearth, set up, warm up, then measure.

run.py starts this script once per set-up it times. It prints READY when
set-up and warm-up are done; a `--role setup` process then exits, a
`--role measure` process goes on to the timed (or traced) ops and prints
one line `RESULT {json}`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Any

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(PERFBENCH), "src")

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# The tail percentile of each workload: one on the ladder that left ten
# samples beyond it with room to spare at the op rates measured when the
# benchmark was defined. It is fixed so that a faster program, which
# collects more samples, is compared at the same percentile; a run with
# too few samples steps down the ladder and reports the one it used.
# rpc stays at p95 though it could afford p99.9: a round trip lasts about
# 0.1 ms, and beyond p95 its tail is most likely set by the host
# preempting the CPU: p99 moved by a factor of two between runs of the
# same code while p95 moved by an eighth.
TAIL_PERCENTILE = {"batch": 75.0, "recall": 75.0, "rpc": 95.0, "replay": 95.0}
# The tail is the median of that percentile over this many consecutive
# chunks of the run's samples, so a burst of stolen CPU time in one part
# of the run does not set it. The count is fixed per workload, like the
# percentile, so that every build is measured with the same estimator. It
# leaves each chunk about twice the samples its percentile needs; batch
# and recall collect too few samples for more than one chunk.
TAIL_CHUNKS = {"batch": 1, "recall": 1, "rpc": 4, "replay": 3}
# Workloads whose median op is scaled by the median calibration slice.
# Their ops last a few slices or less, so the median op, like the median
# slice, rarely includes a stall of the host. A batch or recall sample
# lasts tens of slices and includes its share of stalls, as the mean
# slice does, so it is scaled by the mean like every rate and tail.
P50_BY_MEDIAN_SLICE = ("rpc", "replay")
# A run is cut into this many windows with a calibration burst between
# them; rates are the median over windows.
WINDOWS = 20


def _rank(percentile: float, n: int) -> int:
    """Nearest rank (1-based) of a percentile among n samples."""
    return max(1, -(-int(percentile * 10) * n // 1000))


def tail(samples: list[float], highest: float, chunks: int) -> tuple[float, float]:
    """(percentile, value): the median over `chunks` consecutive chunks of
    the samples of their tail, at the highest ladder percentile up to
    `highest` that leaves ten samples beyond it in every chunk."""
    size = len(samples) // chunks
    for percentile in TAIL_LADDER:
        if percentile > highest or size - _rank(percentile, size) < TAIL_MIN_BEYOND:
            continue
        values = []
        for index in range(chunks):
            end = (index + 1) * size if index < chunks - 1 else len(samples)
            chunk = sorted(samples[index * size:end])
            values.append(chunk[_rank(percentile, len(chunk)) - 1])
        return percentile, statistics.median(values)
    return 100.0, max(samples)


def make_workload(name: str, work: str, seed: int, trace: bool) -> Any:
    import workloads

    if name == "rpc":
        return workloads.Rpc(work, seed, traced=trace)
    return {"batch": workloads.Batch, "recall": workloads.Recall,
            "replay": workloads.Replay}[name](work, seed)


def measure(workload: Any, name: str, seconds: float) -> dict[str, Any]:
    """Ops for `seconds`, in windows with a calibration burst between them.

    Each window's times are scaled by the calibration bursts on either
    side of it to the nominal machine of calibrate.py: rates and tails by
    the bursts' mean wall time, the median op by their mean or median
    wall time (P50_BY_MEDIAN_SLICE), CPU times by their CPU time. Raw
    figures are returned alongside.
    """
    import calibrate
    import workloads

    is_rpc = isinstance(workload, workloads.Rpc)
    start = time.perf_counter()
    bursts = [calibrate.burst()]
    windows = []
    index = 0
    for number in range(1, WINDOWS + 1):
        deadline = start + seconds * number / WINDOWS
        if is_rpc:
            window = workload.measure(deadline)
        else:
            window = workloads.run_ops(workload, deadline=deadline, first=index)
            index = window["next"]
        bursts.append(calibrate.burst())
        windows.append(window)
    if is_rpc:
        peak = workload.plain.peak_rss_mb()
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    nominal = calibrate.NOMINAL_SLICE_MS
    rates, samples, typical, raw_samples = [], [], [], []
    cpu = 0.0
    for window, before, after in zip(windows, bursts, bursts[1:]):
        wall_scale = nominal / ((before.wall_ms + after.wall_ms) / 2)
        if name in P50_BY_MEDIAN_SLICE:
            typical_scale = nominal / ((before.median_wall_ms + after.median_wall_ms) / 2)
        else:
            typical_scale = wall_scale
        cpu += window["cpu_s"] * nominal / ((before.cpu_ms + after.cpu_ms) / 2)
        if window["ops"]:
            rates.append(window["ops"] / window["busy_s"] / wall_scale)
        samples += [sample * wall_scale for sample in window["samples"]]
        typical += [sample * typical_scale for sample in window["samples"]]
        raw_samples += window["samples"]
    ops = sum(window["ops"] for window in windows)
    percentile, value = tail(samples, TAIL_PERCENTILE[name], TAIL_CHUNKS[name])
    return {
        "ops": ops,
        "failed": sum(window["failed"] for window in windows),
        "samples": len(samples),
        "rate": statistics.median(rates),
        "p50_s": statistics.median(typical),
        "tail_percentile": percentile,
        "tail_s": value,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "calibration_ms": [burst.wall_ms for burst in bursts],
        "raw": {
            "ops_per_s": ops / sum(window["busy_s"] for window in windows),
            "op_p50_ms": statistics.median(raw_samples) * 1e3,
            "op_tail_ms": tail(raw_samples, percentile, TAIL_CHUNKS[name])[1] * 1e3,
            "cpu_ms_per_op": sum(window["cpu_s"] for window in windows) / ops * 1e3,
        },
    }


def traced(workload: Any, seconds: float, spans_out: str) -> dict[str, Any]:
    """Alternate untraced and traced passes over the same ops until the
    time is up. Every traced pass must give the same call counts."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    is_rpc = isinstance(workload, workloads.Rpc)

    def one_pass(trace_it: bool) -> dict[str, Any]:
        if not is_rpc:
            workload.reset()
        if trace_it:
            tracer.install()
        try:
            if is_rpc:
                return workload.one_pass(trace_it)
            return workloads.run_ops(
                workload, steps=workload.steps, tracer=tracer if trace_it else None
            )
        finally:
            tracer.uninstall()

    deadline = time.perf_counter() + seconds
    totals = {False: [0, 0.0], True: [0, 0.0]}
    failed = passes = 0
    first_counts = None
    while passes == 0 or time.perf_counter() < deadline:
        for trace_it in (False, True):
            mark = len(tracer.spans)
            result = one_pass(trace_it)
            totals[trace_it][0] += result["ops"]
            totals[trace_it][1] += result["busy_s"]
            failed += result["failed"]
            if trace_it and not is_rpc:
                counts = tracing.count_metrics(
                    tracing.layer_metrics(tracer.spans[mark:], result["ops"])
                )
                first_counts = counts if first_counts is None else first_counts
                # A pass that repeats with other counts shows
                # nondeterminism; its ops count as failed.
                if counts != first_counts:
                    failed += result["ops"]
        passes += 1
    server_spans = workload.server_spans() if is_rpc else []
    tracing.write_spans(tracer.spans + server_spans, spans_out)
    ops = totals[True][0]
    metrics = tracing.layer_metrics(tracer.spans, ops, server_spans)
    traced_rate = ops / totals[True][1]
    untraced_rate = totals[False][0] / totals[False][1]
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1) * 100, "%")
    metrics["trace.spans_per_op"] = (
        (len(tracer.spans) + len(server_spans)) / ops,
        "count",
    )
    return {
        "ops": ops + totals[False][0],
        "failed": failed,
        "passes": passes,
        "metrics": metrics,
        "span_table": tracing.span_table(tracer.spans + server_spans, ops),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import hearth.cli  # noqa: F401 - importing hearth is part of set-up

    workload = make_workload(args.workload, args.work, args.seed, bool(args.trace))
    try:
        workload.warmup()
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        if args.trace:
            result = traced(workload, args.seconds, args.spans_out)
        else:
            result = measure(workload, args.workload, args.seconds)
        attempted, failed = workload.final_checks()
        result["attempted"] = result["ops"] + attempted
        result["failed"] += failed
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
