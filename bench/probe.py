"""Time one set-up in a fresh interpreter: import fanolg and build a workload's
inputs.  Prints the seconds taken, scaled to the reference speed of clock.py
by a kernel burst just before and just after, and the wall seconds.

    python3 bench/probe.py sweep 0
"""

import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import clock  # noqa: E402

BEFORE = clock.burst()
START = perf_counter()

import workloads  # noqa: E402

fl = workloads.load_package()
workloads.WORKLOADS[sys.argv[1]].inputs(fl, int(sys.argv[2]), False)
elapsed = perf_counter() - START
print(clock.scale_once(elapsed, BEFORE, clock.burst()), elapsed)
