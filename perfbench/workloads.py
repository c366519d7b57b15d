"""The benchmark's workloads: fixed job sets run through lfme-lab's public API.

Each workload is a closed loop from one caller. One *round* runs the
workload's whole job set to completion; the timed pass repeats rounds on the
inputs made from one seed, so every job of a round is also a repeat of the
same job in the round before it.

Every run gets an output check: its loss trace is finite, its out-of-domain
accuracy is a valid fraction, and a repeated job has a byte-identical
loss-trace digest (and, through the CLI, byte-identical ``metrics.csv``).
The warm-up round runs on ``REFERENCE_SEED`` inputs and is compared against
``reference.json``, recorded at the seed commit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lfme_lab import cli, domains, train

from .tracing import patched

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Out-of-domain accuracy may move by a few samples when expert-path last bits
# move; a larger shift means the program computes something else.
OOD_TOLERANCE = 0.02


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def loss_digest(loss_trace: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(loss_trace, dtype="<f8").tobytes()).hexdigest()


@dataclass
class RunRecord:
    """One training run of a round and the result of its output check."""

    label: str
    kind: str
    steps: int
    wall_s: float = math.nan
    loss_digest: str | None = None
    output_digest: str | None = None
    ood_accuracy: float | None = None
    problem: str | None = None      # why the output check failed; None if it passed

    @property
    def ok(self) -> bool:
        return self.problem is None


@dataclass
class Round:
    records: list[RunRecord]
    wall_s: float
    cpu_s: float
    pool_cpu_per_wall: float = 0.0


def check_loss_and_ood(rec: RunRecord, loss_trace, ood_accuracy):
    rec.loss_digest = loss_digest(loss_trace)
    rec.ood_accuracy = ood_accuracy
    if not np.all(np.isfinite(loss_trace)):
        rec.problem = "non-finite loss"
    elif ood_accuracy is None or not 0.0 <= ood_accuracy <= 1.0:
        rec.problem = f"out-of-domain accuracy {ood_accuracy!r} is not a fraction"


class InProcessWorkload:
    """``train.run_method`` called serially in this process, held-out = last domain."""

    def __init__(self, name: str, suite: dict, config: dict, jobs):
        self.name = name
        self.suite = suite
        self.config = config
        self.jobs = tuple(jobs)         # (kind, alpha_half) pairs

    def setup(self, seed: int):
        suite = domains.generate_suite(domains.SuiteSpec(seed=seed, **self.suite))
        config = train.TrainConfig(seed=seed, **self.config)
        config.validate()
        methods = []
        for kind, alpha_half in self.jobs:
            method = train.MethodSpec(kind, alpha_half=alpha_half)
            method.validate()
            label = f"{kind}@{alpha_half:g}" if kind == train.LFME else kind
            methods.append((label, method))
        return suite[:-1], suite[-1], config, methods

    def run_round(self, state, workdir: Path, *, serial=False,
                  around=contextlib.nullcontext) -> Round:
        sources, held, config, methods = state
        done = []
        with around():
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            for label, method in methods:
                rec = RunRecord(label, method.kind, config.steps)
                start = time.perf_counter()
                try:
                    run = train.run_method(sources, method, config, held_out=held)
                except Exception as e:  # noqa: BLE001 - a raising run is counted as failed
                    rec.problem = f"raised {type(e).__name__}: {e}"
                    run = None
                else:
                    rec.wall_s = time.perf_counter() - start
                done.append((rec, run))
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        for rec, run in done:
            if run is not None:
                check_loss_and_ood(rec, run.loss_trace, run.ood_accuracy)
        return Round([rec for rec, _ in done], wall, cpu)


class PooledCliWorkload:
    """``lfme train --jobs N`` over every held-out domain, then ``compare`` and ``analyze``."""

    name = "pooled_lodo"
    methods = ("erm", "erm_plus", "ls", "self_guid")

    def __init__(self, steps: int):
        self.steps = steps
        self._rounds = 0

    def setup(self, seed: int):
        config = {"suite": {"seed": seed}, "train": {"steps": self.steps},
                  "methods": [{"kind": k} for k in self.methods],
                  "seeds": [seed], "held_out": "all"}
        cli.validate_config(config)
        suite = cli.build_suite(config, seed=seed)
        helds = cli.held_out_ids(config, suite)
        cli.build_train_config(config, seed)
        return config, seed, helds

    def run_round(self, state, workdir: Path, *, serial=False,
                  around=contextlib.nullcontext) -> Round:
        config, seed, helds = state
        self._rounds += 1
        out = workdir / f"pooled-{self._rounds}"
        records_dir = workdir / f"pooled-{self._rounds}-records"
        records_dir.mkdir(parents=True)
        cfg_path = workdir / f"pooled-{self._rounds}.json"
        cfg_path.write_text(json.dumps(config))
        jobs = 1 if serial else min(2, nproc())
        run_method = cli.run_method

        def timed_run_method(sources, method, train_config, held_out=None):
            # Runs inside the pool's (forked) workers: the record goes back by file.
            start = time.perf_counter()
            run = run_method(sources, method, train_config, held_out=held_out)
            wall = time.perf_counter() - start
            finite = bool(np.all(np.isfinite(run.loss_trace)))
            (records_dir / f"{method.name}-h{held_out.domain_id}.json").write_text(json.dumps({
                "wall_s": wall, "loss_digest": loss_digest(run.loss_trace),
                "finite": finite, "ood_accuracy": run.ood_accuracy}))
            return run

        sink = io.StringIO()
        with around(), patched([(cli, "run_method", timed_run_method)]), \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            codes = {"train": cli.main(["train", "-c", str(cfg_path), "-o", str(out),
                                        "--jobs", str(jobs)])}
            train_wall = time.perf_counter() - t0
            kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            codes["compare"] = cli.main(["compare", "-c", str(cfg_path), "-o", str(out)])
            codes["analyze"] = cli.main(["analyze", str(out)])
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        kids_cpu = (kids1.ru_utime + kids1.ru_stime) - (kids0.ru_utime + kids0.ru_stime)
        records = self._check(out, records_dir, seed, helds, codes, sink.getvalue())
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(records_dir)
        cfg_path.unlink()
        return Round(records, wall, cpu, kids_cpu / train_wall)

    def _check(self, out: Path, records_dir: Path, seed, helds, codes, log) -> list[RunRecord]:
        round_problem = None
        bad = {cmd: code for cmd, code in codes.items() if code != 0}
        if bad:
            round_problem = f"exit codes {bad}: {log.strip()[-300:]}"
        elif _csv_rows(out / "summary.csv") != len(self.methods):
            round_problem = "summary.csv does not hold one row per method"
        elif _csv_rows(out / "analysis" / "entropy_summary.csv") != len(self.methods) * len(helds):
            round_problem = "entropy_summary.csv does not hold one row per run"
        records = []
        for kind in self.methods:
            for h in helds:
                rec = RunRecord(f"{kind}/h{h}", kind, self.steps)
                records.append(rec)
                rec_path = records_dir / f"{kind}-h{h}.json"
                rdir = cli.run_dir(out, kind, seed, h)
                if not rec_path.exists():
                    rec.problem = round_problem or "run did not finish"
                    continue
                info = json.loads(rec_path.read_text())
                rec.wall_s = info["wall_s"]
                rec.loss_digest = info["loss_digest"]
                rec.ood_accuracy = info["ood_accuracy"]
                if round_problem:
                    rec.problem = round_problem
                elif not info["finite"]:
                    rec.problem = "non-finite loss"
                elif not all((rdir / f).exists() for f in ("run.json", "target.ckpt")):
                    rec.problem = "run.json or target.ckpt missing"
                else:
                    metrics = (rdir / "metrics.csv").read_bytes()
                    rec.output_digest = hashlib.sha256(metrics).hexdigest()
                    written = _ood_from_metrics(metrics)
                    if written is None or written != rec.ood_accuracy:
                        rec.problem = (f"metrics.csv ood_accuracy {written!r} != "
                                       f"run's {rec.ood_accuracy!r}")
        return records


def _csv_rows(path: Path) -> int:
    if not path.exists():
        return -1
    with open(path, newline="") as f:
        return sum(1 for _ in csv.DictReader(f))


def _ood_from_metrics(blob: bytes) -> float | None:
    for row in csv.DictReader(io.StringIO(blob.decode())):
        if row["metric"] == "ood_accuracy":
            return float(row["value"])
    return None


GUIDED_SMALL_STEPS = 250
POOLED_LODO_STEPS = 250
GUIDED_WIDE_STEPS = 30


def make_workloads(small_steps=GUIDED_SMALL_STEPS, pooled_steps=POOLED_LODO_STEPS,
                   wide_steps=GUIDED_WIDE_STEPS) -> dict:
    """The three workloads by name; tests pass fewer steps.

    Why each was chosen is in README.md and BENCHMARK.json.
    """
    guided_small = InProcessWorkload(
        "guided_small", suite={}, config={"steps": small_steps},
        jobs=[(train.LFME, 0.01), (train.LFME, 1.0), (train.LFME, 10.0), (train.AGG_DYN, 1.0)])
    guided_wide = InProcessWorkload(
        "guided_wide", suite={"n_classes": 10, "d_inv": 32, "d_spu": 32, "n_per_domain": 4000},
        config={"steps": wide_steps, "hidden_dims": (512, 512), "batch_per_domain": 256},
        jobs=[(train.LFME, 1.0), (train.ERM, 1.0)])
    return {w.name: w for w in (guided_small, PooledCliWorkload(pooled_steps), guided_wide)}


def check_reference(workload_name: str, records: list[RunRecord],
                    reference: dict | None = None) -> int:
    """Fail runs whose OOD accuracy is off the seed-commit reference by more
    than OOD_TOLERANCE; return how many loss digests differ from it.

    A different digest is counted, not failed: expert last bits may move.
    """
    if reference is None:
        reference = json.loads(REFERENCE_PATH.read_text())
    expected = reference["workloads"].get(workload_name, {})
    mismatches = 0
    for rec in records:
        ref = expected.get(rec.label)
        if not rec.ok:
            continue
        if ref is None:
            rec.problem = "no reference recorded"
        elif abs(rec.ood_accuracy - ref["ood_accuracy"]) > OOD_TOLERANCE:
            rec.problem = f"ood_accuracy {rec.ood_accuracy} vs reference {ref['ood_accuracy']}"
        elif rec.loss_digest != ref["loss_digest"]:
            mismatches += 1
    return mismatches


def check_repeats(rounds: list[Round]):
    """Fail runs whose digests differ from the same job's first run."""
    first: dict[str, RunRecord] = {}
    for rnd in rounds:
        for rec in rnd.records:
            if not rec.ok:
                continue
            prev = first.setdefault(rec.label, rec)
            if (rec.loss_digest, rec.output_digest) != (prev.loss_digest, prev.output_digest):
                rec.problem = "repeated job is not byte-identical"
