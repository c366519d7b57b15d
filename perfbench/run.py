"""lfme-lab benchmark: one workload, timed (``--trace 0``) or traced (``--trace 1``).

    python3 perfbench/run.py --workload guided_small --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``, never from an installed copy. Lines before the last are
for people (environment, every metric with its unit, failures); the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_ROUNDS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PER_STEP_KINDS = ("erm", "lfme", "agg_dyn")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "lfme_lab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Cold set-up time of the workload, measured in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout.strip().splitlines()[-1])


def peak_rss_mib() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def warm_up(workloads, workload, workdir):
    """Untimed round on the reference inputs, checked against reference.json.

    Returns the round and how many loss digests differ from the reference.
    """
    rnd = workload.run_round(workload.setup(workloads.REFERENCE_SEED), workdir)
    return rnd, workloads.check_reference(workload.name, rnd.records)


def outcome(warm, rounds, digest_mismatches):
    """Attempted runs, failure lines, and the counts reported beside metrics."""
    records = warm.records + [rec for rnd in rounds for rec in rnd.records]
    problems = [f"{rec.label}: {rec.problem}" for rec in records if not rec.ok]
    extra = {"failed_ratio": (len(problems) / len(records), "ratio"),
             "reference_digest_mismatches": (digest_mismatches, "count")}
    return len(records), problems, extra


def timed_pass(workloads, workload, seed: int, seconds: float, workdir: Path):
    warm, mismatches = warm_up(workloads, workload, workdir)
    state = workload.setup(seed)
    setups, rounds = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        # One set-up sample per round spreads them over the same time as the rounds.
        setups.append(setup_seconds(workload.name, seed))
        rounds.append(workload.run_round(state, workdir))
    workloads.check_repeats(rounds)
    attempted, problems, extra = outcome(warm, rounds, mismatches)
    done = [rec for rnd in rounds for rec in rnd.records if rec.wall_s == rec.wall_s]
    steps = sum(r.steps for r in done)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "steps_per_s": (steps / sum(r.wall_s for r in rounds), "1/s"),
        "ms_per_step": (1e3 * sum(r.wall_s for r in done) / steps, "ms"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    for kind in PER_STEP_KINDS:
        per_step = [r.wall_s / r.steps for r in done if r.kind == kind]
        if per_step:
            extra[f"ms_per_step.{kind}"] = (1e3 * statistics.median(per_step), "ms")
    extra["rounds"] = (len(rounds), "count")
    return metrics, extra, attempted, problems


def trace_pass(workloads, tracing, workload, seed: int, seconds: float, workdir: Path):
    """Alternate untraced and traced units (one set-up plus one serial round).

    Serial rounds keep every span in this process, so self times add up to
    the traced wall time; the pool's CPU/wall comes from the warm-up round.
    """
    warm, mismatches = warm_up(workloads, workload, workdir)
    tracer = tracing.Tracer()
    untraced, traced_walls, rounds = [], [], []
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_wall = time.perf_counter() - t0
        rnd = workload.run_round(state, workdir, serial=True)
        untraced.append(setup_wall + rnd.wall_s)
        before = tracer.wall_s
        with tracing.traced(tracer):
            state = workload.setup(seed)
        rounds += [rnd, workload.run_round(state, workdir, serial=True,
                                           around=lambda: tracing.traced(tracer))]
        traced_walls.append(tracer.wall_s - before)
    if abs(tracer.self_sum() - tracer.wall_s) > 1e-6 * tracer.wall_s:
        raise RuntimeError(f"self times sum to {tracer.self_sum()} s, "
                           f"traced wall is {tracer.wall_s} s")
    workloads.check_repeats(rounds)
    attempted, problems, extra = outcome(warm, rounds, mismatches)
    units = len(traced_walls)
    metrics = {}
    for name, (calls, self_s) in tracer.stats.items():
        metrics[f"{name}.calls"] = (calls / units, "count")
        metrics[f"{name}.self_s"] = (self_s / units, "s")
        metrics[f"{name}.share"] = (self_s / tracer.wall_s, "ratio")
    for name in ("autodiff.tape_nodes", "models.save_checkpoint.bytes",
                 "models.load_checkpoint.bytes", "cli.write_csv.bytes"):
        metrics[name] = (tracer.counts[name] / units, "B" if name.endswith("bytes") else "count")
    steps = tracer.stats["train.optimizer_step"][0]
    metrics["train.optimizer.tensors"] = (
        tracer.counts["train.optimizer.tensors"] / steps if steps else 0.0, "count")
    metrics["cli.pool.cpu_per_wall"] = (warm.pool_cpu_per_wall, "ratio")
    traced_s, untraced_s = statistics.median(traced_walls), statistics.median(untraced)
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    extra["traced_units"] = (units, "count")
    return metrics, extra, attempted, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lfme_lab" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'lfme_lab'}; "
              "run inside a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import lfme_lab

    from perfbench import tracing, workloads

    if Path(lfme_lab.__file__).resolve().parent != SRC / "lfme_lab":
        print(f"perfbench: imported lfme_lab from {lfme_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    table = workloads.make_workloads()
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose one of {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            result = trace_pass(workloads, tracing, workload, args.seed, args.seconds, workdir)
        else:
            result = timed_pass(workloads, workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass        # another run's directory is still there
    metrics, extra, attempted, problems = result
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{workload.name}  {name:40s} {value:.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
