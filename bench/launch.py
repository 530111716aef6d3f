"""Run one qbft command line with layer spans recorded.

    python bench/launch.py SPANS_JSON SPAWN_MONOTONIC ARG...

Imports qbft from the checkout's src/, installs the span wrappers, calls
qbft.cli.main(ARG...) and writes the span log, together with the time from
the parent's spawn (a time.monotonic() reading) to main's entry, to
SPANS_JSON.  Exits with main's exit code.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qbft.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main():
    out_path, spawned = sys.argv[1], float(sys.argv[2])
    tracer = Tracer()
    tracer.install()
    entry = time.monotonic()
    try:
        code = qbft.cli.main(sys.argv[3:])
    finally:
        log = tracer.dump()
        log["start_s"] = entry - spawned
        with open(out_path, "w") as fh:
            json.dump(log, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
