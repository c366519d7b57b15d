"""Record the output reference that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Runs each workload's job set once on the ``REFERENCE_SEED`` inputs and writes
each run's out-of-domain accuracy and loss-trace digest to
``perfbench/reference.json``. Rerun it only when a change is meant to alter
what the program computes, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402


def main():
    workdir = ROOT / ".perfbench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {"seed": workloads.REFERENCE_SEED, "ood_tolerance": workloads.OOD_TOLERANCE,
           "workloads": {}}
    try:
        for name, workload in workloads.make_workloads().items():
            rnd = workload.run_round(workload.setup(workloads.REFERENCE_SEED), workdir)
            bad = [f"{rec.label}: {rec.problem}" for rec in rnd.records if not rec.ok]
            if bad:
                raise SystemExit(f"{name}: runs failed their output check: {bad}")
            out["workloads"][name] = {
                rec.label: {"ood_accuracy": rec.ood_accuracy, "loss_digest": rec.loss_digest}
                for rec in rnd.records}
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
