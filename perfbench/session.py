"""One long-lived process that runs a list of CLI commands in-process.

    python3 perfbench/session.py JOBS_JSON [TRACE_OUT]

JOBS_JSON is a JSON list of argument lists for ``algebroids.cli.run``.
Each command's stdout is captured; one JSON line per command goes to
the real stdout with its exit code, start and end (``time.perf_counter``,
which is the system-wide monotonic clock), report text and, if it
raised, the error. Caches are shared across the commands, as in any
program that calls the library repeatedly. With TRACE_OUT the tracer
is installed first and its data written there at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from tracer import Tracer, install, record_cache_sizes


def main(argv: list[str]) -> int:
    jobs = json.loads(argv[0])
    tracer = None
    if len(argv) > 1:
        tracer = Tracer()
        install(tracer)
    from algebroids import cli, expr

    out = sys.stdout
    try:
        for args in jobs:
            buf = io.StringIO()
            code, error = None, None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.run(args)
            except Exception as e:  # a raise is a failed verdict, not a crash of the session
                error = f"{type(e).__name__}: {e}"
            end = time.perf_counter()
            row = {"code": code, "start": start, "end": end, "out": buf.getvalue(), "error": error}
            out.write(json.dumps(row) + "\n")
            out.flush()
    finally:
        if tracer is not None:
            record_cache_sizes(tracer, expr)
            tracer.dump(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
