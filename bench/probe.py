"""Set one workload up in a fresh process and report when it is ready.

    python bench/probe.py WORKLOAD

Imports qbft from the checkout's src/, runs the workload's set-up (nothing
beyond the import for cli-cold) and prints time.monotonic() at the moment
the first op could run.  The parent subtracts its own reading taken just
before the spawn, which gives set-up time from process start.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qbft  # noqa: E402

if __name__ == "__main__":
    if sys.argv[1] != "cli-cold":
        from workloads import WORKLOADS
        WORKLOADS[sys.argv[1]].setup(qbft)
    print(repr(time.monotonic()))
