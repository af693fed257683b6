"""Bootstrap for a traced fresh-process job.

    python3 perfbench/child.py TRACE_OUT -- <algebroids CLI arguments>

Installs the tracer, runs the CLI exactly as ``python3 -m algebroids.cli``
would, writes the trace to TRACE_OUT at exit and exits with the CLI's
code. The package must be importable (``PYTHONPATH`` naming ``src``).
"""

from __future__ import annotations

import sys

from tracer import Tracer, install, record_cache_sizes


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: child.py TRACE_OUT -- <algebroids arguments>", file=sys.stderr)
        return 2
    trace_out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    mods = install(tracer)
    try:
        return mods["cli"].run(cli_args)
    finally:
        sys.stdout.flush()
        record_cache_sizes(tracer, mods["expr"])
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
