"""Run one CLI op under the tracer, in a fresh process.

    python3 bench/trace_cli.py TRACE.json OP_ID -- <burnside.cli arguments>

The CLI's own output goes to stdout as usual; the trace goes to TRACE.json.
The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    out, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py TRACE.json OP_ID -- ARGS...")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from burnside import cli

    from bench import layers
    from bench.tracer import Tracer

    tracer = Tracer()
    tracer.op = int(op)
    tracer.install(layers.TARGETS)
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
        sys.stdout.flush()
        snapshot = dict(tracer.snapshot(), caches=layers.cache_info())
        Path(out).write_text(json.dumps(snapshot), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
