"""`python -m singlat` with spans: the traced form of one cold command.

Run as `python perfbench/traced_cli.py <singlat arguments>`. It times the
import of `singlat`, installs the spans of `tracing`, runs the command line
entry point, and appends one line to stderr: the marker of
`worker.TRACE_MARK` followed by the spans, counts and import time as JSON.
"""

import json
import sys
import time

started = time.perf_counter()
import singlat.cli  # noqa: E402

import_ms = (time.perf_counter() - started) * 1000.0

import tracing  # noqa: E402

tracer = tracing.install()
tracer.op = 0
try:
    code = singlat.cli.main(sys.argv[1:])
finally:
    sys.stdout.flush()
    sys.stderr.write("\nPERFBENCH-TRACE " + json.dumps({
        "import_ms": import_ms, "spans": tracer.spans, "counts": tracer.counts,
        "rate_time": tracer.rate_time}) + "\n")
sys.exit(code)
