"""One cold `topsl sweep --n-max 3` in a fresh interpreter.

Usage: python3 sweep_child.py SRC_DIR THREADS [TRACE_FILE]

Imports topsl from SRC_DIR, runs the sweep through topsl.cli.main with its
output captured, and prints one JSON line: exit code, seconds spent in the
call, peak resident memory in KiB, and the sweep's output.  With TRACE_FILE
the call runs under the tracer, and the spans are written there.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

src, threads = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from topsl import cli  # noqa: E402

argv = ["sweep", "--n-max", "3", "--threads", threads]
tracer = None
if len(sys.argv) > 3:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
buf = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(buf):
    rc = (tracer.span(tracing.OP, cli.main) if tracer else cli.main)(argv)
seconds = time.perf_counter() - start
if tracer:
    tracer.uninstall()
    tracing.write(sys.argv[3], tracer.export())
print(json.dumps({
    "rc": rc,
    "seconds": seconds,
    "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "output": buf.getvalue(),
}))
