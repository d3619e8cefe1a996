"""``mflq`` command-line entry point with spans recorded.

Usage: ``python3 cli_child.py SPANS_JSON <mflq arguments>``.  Times the
import of the CLI module, wraps the library's public functions, runs the
command and writes its spans to SPANS_JSON; the exit code is the
command's own.
"""

import json
import sys
import time

import tracer

if __name__ == "__main__":
    t0 = time.perf_counter_ns()
    import mflq.cli
    t1 = time.perf_counter_ns()
    tr = tracer.Tracer()
    tr.spans.append(["cli.import", t0, t1, None, None, False, None])
    tr.install()
    try:
        code = mflq.cli.main(sys.argv[2:])
    finally:
        tr.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.reduce_captures(tr.spans), fh)
    sys.exit(code)
