"""Benchmark of lfme-lab: timed training workloads and a traced per-layer pass.

Run it as ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout; see ``perfbench/README.md``.
"""
