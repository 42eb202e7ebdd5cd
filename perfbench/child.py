"""Traced stand-in for ``python -m goppacrypt.cli`` in the params workload.

Usage: child.py SPAWN_TIME CLI_ARGS...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before the spawn
(a system-wide monotonic clock on Linux).  The child imports the package,
notes the start-up time, wraps the package's entry points, runs the CLI,
and appends its spans to stderr after a marker line for the parent.
"""

import json
import sys
import time

spawned = float(sys.argv[1])
import goppacrypt  # noqa: E402  (start-up ends when the package is in)
import goppacrypt.cli  # noqa: E402
imported = time.perf_counter()

from spans import TRACE_MARKER, Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install(goppacrypt)
    tracer.op = 0
    try:
        code = goppacrypt.cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    data = tracer.export()
    data["startup_s"] = imported - spawned
    sys.stderr.flush()
    sys.stderr.buffer.write(TRACE_MARKER + json.dumps(data).encode())
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
