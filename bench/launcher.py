"""Traced stand-in for `python -m curvedq.cli ARGS...`.

Usage: python bench/launcher.py SPANS_JSON ARGS...

Times the import of curvedq.cli, installs the span wrappers, runs
cli.run(ARGS) with the real stdout and stderr, then writes its timings and
spans to SPANS_JSON and exits with the CLI's exit code.
"""

import json
import os
import sys
import time

started = time.time()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
# Spans written per process; the aggregates cover every call.  Writing all of
# them (thousands per `check`) would make the traced process noticeably slower.
SPANS_KEPT = 500


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import curvedq.cli

    import_s = time.perf_counter() - t0
    from spans import Tracer

    tracer = Tracer(cap=SPANS_KEPT)
    tracer.install()
    tracer.on = True
    code = curvedq.cli.run(argv)
    sys.stdout.flush()
    record = {
        "started": started,
        "import_s": import_s,
        "run_end": time.time(),
        "summary": tracer.summary(),
        "spans": tracer.finished_spans(),
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
