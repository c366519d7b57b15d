"""Time one cold set-up of a workload and print it in seconds.

Run by ``run.py`` in a fresh interpreter, so the time covers importing numpy
and lfme-lab, generating the suite and building the configs:
``python3 perfbench/setup_probe.py WORKLOAD SEED``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.make_workloads()[sys.argv[1]].setup(int(sys.argv[2]))
    print(repr(time.perf_counter() - T0))
