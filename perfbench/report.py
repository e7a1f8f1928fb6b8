"""Run every workload once and print its metrics as one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]
                                [--counts-out FILE]

With --trace 0 it prints every end-to-end metric with its unit for each
workload, plus the error rate and the tail percentile used. With
--trace 1 it prints the per-layer metrics and the tracing overhead;
--counts-out then also writes the exact per-op counts as JSON.
Each workload runs in its own `run.py` process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import tracing

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch", "recall", "rpc", "replay")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=os.path.dirname(PERFBENCH), check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-out", help="with --trace 1, write per-op counts here")
    args = parser.parse_args()

    results = {w: run(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    names = list(next(iter(results.values()))[1]["metrics"])
    units = {name: results[WORKLOADS[0]][1]["metrics"][name]["unit"] for name in names}
    rows = [(name, units[name], [f"{r['metrics'][name]['value']:.6g}" for _, r in results.values()])
            for name in names]
    rows.append(("error_rate", "ratio", [f"{d['error_rate']:.6g}" for d, _ in results.values()]))
    rows.append(("attempted", "count", [str(r["attempted"]) for _, r in results.values()]))
    if not args.trace:
        rows.append(("tail_percentile", "%", [str(d["tail_percentile"]) for d, _ in results.values()]))
        rows.append(("samples", "count", [str(d["samples"]) for d, _ in results.values()]))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'metric':{width}}  {'unit':6}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, unit, values in rows:
        print(f"{name:{width}}  {unit:6}" + "".join(f"{v:>14}" for v in values))
    machine = next(iter(results.values()))[0]["machine"]
    print(f"seed {args.seed}, {args.seconds} s per workload, machine {json.dumps(machine)}")

    if args.counts_out and args.trace:
        counts = {
            workload: tracing.count_metrics(
                {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
            )
            for workload, (_, result) in results.items()
        }
        with open(args.counts_out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "per_op": counts}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all(r["correct"] for _, r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
