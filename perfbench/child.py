"""One `bundlelab` CLI call in a fresh interpreter.

    python3 perfbench/child.py STAMP TRACE -- ARGS...

Imports ``bundlelab.cli`` from the checkout's ``src/``, writes the
CLOCK_MONOTONIC time of the call into ``bundlelab.cli.main`` to the file
STAMP (the clock is system-wide, so the parent can subtract its own spawn
time), runs ``main(ARGS)`` and exits with its return code.  When TRACE is a
path rather than ``-``, the package is wrapped by ``tracer.install()`` first
and the span summary is written to TRACE after ``main`` returns.
"""

import sys
import time
from pathlib import Path


def run(stamp: str, trace: str, argv: list) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from bundlelab import cli

    tracer = None
    if trace != "-":
        import tracer as tracing  # this script's directory is on sys.path

        tracer = tracing.install()
    started = time.monotonic()
    try:
        return cli.main(argv)
    finally:
        Path(stamp).write_text(repr(started))
        if tracer is not None:
            tracer.dump(trace)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[4:]))
