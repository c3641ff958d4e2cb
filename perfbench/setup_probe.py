"""Time one fresh-process set-up of a benchmark workload.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Prints the seconds from the start of this script (before the program
is imported) to the end of the workload's ``setup()``: imports, spec
compilation or target-registry build, machine build and driver bind.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]]().setup()
print(time.perf_counter() - START)
