"""A fixed reference computation that measures how fast the machine is now.

The benchmark runs a burst of it between the windows of a run and before
each set-up. Its time moves with the share of CPU the host leaves us and
with how fast that CPU runs, and so does the program's; dividing the two
turns a time into the time it would take on a machine where one slice of
this computation takes NOMINAL_SLICE_MS.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from typing import NamedTuple

NOMINAL_SLICE_MS = 1.0
BURST_SLICES = 15
_WORDS = "put the mug box and cube away on shelf swap table kitchen living room".split()


def reference_slice() -> int:
    """The mix hearth spends its time on: building dicts and strings,
    JSON encoding and decoding, hashing, sorting."""
    records = []
    for i in range(20):
        record = {
            "id": f"mem-{i:06d}",
            "text": " ".join(_WORDS[(i + k) % len(_WORDS)] for k in range(8)),
            "vector": [((i * 31 + k) % 17) / 17.0 for k in range(24)],
        }
        line = json.dumps(record, sort_keys=True)
        record = json.loads(line)
        record["digest"] = hashlib.blake2b(line.encode(), digest_size=8).hexdigest()
        records.append(record)
    records.sort(key=lambda r: (r["text"], r["digest"]))
    return sum(len(r["vector"]) for r in records)


class Burst(NamedTuple):
    """Milliseconds of one slice over a short burst. The mean includes the
    stalls the host imposes, as a rate or a long op does; the median is
    the typical slice, which a short op at the median is like."""

    wall_ms: float
    cpu_ms: float
    median_wall_ms: float


def burst() -> Burst:
    walls, cpus = [], []
    for _ in range(BURST_SLICES):
        wall, cpu = time.perf_counter(), time.thread_time()
        reference_slice()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.thread_time() - cpu)
    return Burst(
        statistics.fmean(walls) * 1e3,
        statistics.fmean(cpus) * 1e3,
        statistics.median(walls) * 1e3,
    )
