"""`hearth serve` with the benchmark's span wrappers installed.

    python3 perfbench/traced_serve.py SPANS_OUT serve [ARGS...]

Runs `hearth.cli.main(ARGS)` and writes the spans it recorded to
SPANS_OUT when the server stops (on SIGINT).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from hearth.cli import main as hearth_main

    try:
        return hearth_main(argv)
    finally:
        tracing.write_spans(tracer.spans, spans_out)


if __name__ == "__main__":
    sys.exit(main())
