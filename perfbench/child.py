"""Child-process entry points for the benchmark.

    python3 perfbench/child.py cli SPANS_OUT ARGS...
        Run `shapeforge ARGS...` in this fresh interpreter with the span
        tracer installed, write the spans to SPANS_OUT and exit with the
        command's exit code.

    python3 perfbench/child.py decompose SIZE SEED OP SPANS_OUT|-
        Run one op of the decompose workload in this fresh interpreter
        and print its set-up time, timings and failed grades as JSON;
        with a SPANS_OUT path, trace it and write the spans there.

The parent puts the checkout's `src/` on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys

import run
from spans import Tracer


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        import shapeforge.cli

        tracer = Tracer()
        tracer.install()
        try:
            return shapeforge.cli.main(rest[1:])
        finally:
            tracer.dump(rest[0])
    if mode == "decompose":
        size, seed, op, spans_out = rest
        tracer = None if spans_out == "-" else Tracer()
        try:
            print(json.dumps(run.decompose_sweep(size, int(seed), int(op), tracer)))
        finally:
            if tracer is not None:
                tracer.dump(spans_out)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
