#!/usr/bin/env python3
"""Child process of a traced benchmark iteration: runs ``igbs.cli.main``
with every layer boundary wrapped, then writes the trace.

    python3 perfbench/traced_cli.py TRACE_OUT LAUNCH_MONOTONIC <igbs cli args>

``LAUNCH_MONOTONIC`` is the parent's ``time.monotonic()`` just before it
started this process; CLOCK_MONOTONIC is shared by all processes on the
machine, so the start-up span runs from launch until ``igbs.cli`` is
imported.
"""

import sys
import time


def main() -> int:
    trace_path, launched, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import igbs.cli

    imported = time.monotonic()
    import tracer

    t = tracer.Tracer()
    tracer.install(t)
    run = t.wrap(igbs.cli.main, "cli.main")
    try:
        return run(argv)
    finally:
        t.dump(trace_path, startup_s=imported - launched)


if __name__ == "__main__":
    sys.exit(main())
