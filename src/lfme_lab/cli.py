"""Configuration-driven experiment runner.

Subcommands: gen (write suite CSVs), train (run methods x seeds x held-out
domains), compare (summary tables), analyze (histograms and traces), sweep
(guidance-weight grid, run as train jobs). Configuration is a JSON document;
any key can be overridden with --set dotted.path=value. Exit codes: 0
success, 1 bad configuration or command line, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import models as mm
from .analysis import report_from_run
from .domains import CSV_COLUMNS, DataError, SuiteSpec, generate_suite, load_csv_suite
from .train import (LFME, ConfigError, MethodSpec, TrainConfig, blas_thread_calls, check_sources,
                    run_method, softmax_np)

DEFAULT_ALPHA_GRID = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]

ALL_METHODS_PRESET = [
    {"kind": "erm"}, {"kind": "lfme"}, {"kind": "erm_plus"}, {"kind": "ls"},
    {"kind": "kd_zz"}, {"kind": "kd_qz"}, {"kind": "kd_qq"}, {"kind": "kd_ce"},
    {"kind": "agg_avg"}, {"kind": "agg_ms"}, {"kind": "agg_conf"}, {"kind": "agg_dyn"},
    {"kind": "self_guid"}, {"kind": "ermp_w_expt"}, {"kind": "ermp_w_self"},
]

# Every top-level config key with its default; ``validate_config`` rejects any other key.
CONFIG_DEFAULTS = {"suite": {}, "train": {}, "methods": [{"kind": "erm"}], "seeds": [0],
                   "held_out": "all", "output": "out", "alpha_grid": DEFAULT_ALPHA_GRID}


class CliError(Exception):
    """Configuration-level failure (exit code 1)."""


def load_config(args) -> dict:
    config = {}
    if args.config:
        try:
            with open(args.config) as f:
                config = json.load(f)
        except FileNotFoundError:
            raise CliError(f"config file not found: {args.config}") from None
        except ValueError as e:     # JSONDecodeError, or an integer over Python's digit limit
            raise CliError(f"config is not valid JSON: {e}") from None
        if not isinstance(config, dict):
            raise CliError(f"config must be a JSON object, got {config!r}")
    for key, default in CONFIG_DEFAULTS.items():    # before --set: config.json's key order
        config.setdefault(key, copy.deepcopy(default))

    for item in args.set or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        node = config
        parts = key.split(".")
        for i, p in enumerate(parts[:-1]):
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise CliError(f"--set {key}: config.{'.'.join(parts[:i + 1])} is not an object")
        node[parts[-1]] = value

    if args.output is not None:
        config["output"] = args.output
    return validate_config(config)


@dataclass(frozen=True)
class Plan:
    """A checked config and what it builds, once per command (``validate_config``)."""
    config: dict                        # completed: every top-level key, methods expanded
    methods: list[MethodSpec]           # one per config.methods entry
    train: dict[int, TrainConfig]       # one per seed
    held_out: list[int]
    alphas: list[float]                 # config.alpha_grid as floats
    csv_suite: list | None              # read once: a CSV suite does not depend on the seed

    def suite(self, seed: int | None) -> list:
        """The suite of ``seed`` (None: ``config.suite.seed``); a synthetic one is generated."""
        return self.csv_suite or build_suite(self.config, seed)


def validate_config(config: dict) -> Plan:
    """Make ``config`` a valid config in place and return its plan, or raise a ``CliError``
    naming the bad key.

    Fills each missing top-level key from ``CONFIG_DEFAULTS`` and expands ``methods:
    "all"``. Each method, each seed's train config and the suite spec are built, so a
    malformed value fails with the error of the spec that owns it; a CSV suite is read.
    The held-out ids resolve over the suite's domains, which every suite numbers from 0.
    """
    for key, default in CONFIG_DEFAULTS.items():
        config.setdefault(key, copy.deepcopy(default))
    unknown = sorted(config.keys() - CONFIG_DEFAULTS.keys())
    if unknown:
        raise CliError(f"unknown config key {unknown[0]!r}; known keys: {list(CONFIG_DEFAULTS)}")
    if config["methods"] == "all":
        config["methods"] = [dict(m) for m in ALL_METHODS_PRESET]
    for key in ("suite", "train"):
        if not isinstance(config[key], dict):
            raise CliError(f"config.{key} must be an object, got {config[key]!r}")
    methods = config["methods"]
    if not isinstance(methods, list) or not methods:
        raise CliError(f'config.methods must be "all" or a nonempty list, got {methods!r}')
    for i, m in enumerate(methods):
        if not isinstance(m, dict):
            raise CliError(f"config.methods[{i}] must be an object, got {m!r}")
    if not isinstance(config["output"], str) or not config["output"]:
        raise CliError(f"config.output must be a nonempty path string, got {config['output']!r}")
    seeds = config["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(
            type(s) is int and 0 <= s < 2 ** 64 for s in seeds) or len(set(seeds)) != len(seeds):
        raise CliError("config.seeds must be a nonempty list of distinct integers in "
                       f"[0, 2**64), got {seeds!r}")
    methods = [build_method(m) for m in methods]
    for i, m in enumerate(methods):
        if m.kind in [n.kind for n in methods[:i]]:
            raise CliError(f"config.methods[{i}]: method kind {m.kind!r} is listed twice; "
                           "its runs would share one directory")
    csv_suite = build_suite(config) if "csv" in config["suite"] else None
    try:
        domains = csv_suite or SuiteSpec(**config["suite"]).domain_ids
    except (TypeError, DataError) as e:
        raise CliError(f"config.suite: {e}") from None
    return Plan(config, methods, {s: build_train_config(config, s) for s in seeds},
                held_out_ids(config, domains), alpha_grid(config), csv_suite)


def build_suite(config: dict, seed: int | None = None) -> list:
    """The domains of ``config.suite``: the CSV suite, read, or the synthetic suite,
    generated with ``seed`` in place of ``config.suite.seed`` unless it is None."""
    suite_cfg = dict(config["suite"])
    if "csv" in suite_cfg:
        path = suite_cfg.pop("csv")
        if suite_cfg:
            raise CliError(f"config.suite.{min(suite_cfg)} is not read beside config.suite.csv")
        if not isinstance(path, str):
            raise CliError(f"config.suite.csv must be a path string, got {path!r}")
        try:
            return load_csv_suite(path)
        except OSError as e:
            raise CliError(f"config.suite.csv: {e}") from None
    return generate_suite(SuiteSpec(**suite_cfg if seed is None else dict(suite_cfg, seed=seed)))


def build_method(cfg: dict) -> MethodSpec:
    try:
        return MethodSpec(**cfg)
    except (TypeError, ConfigError) as e:
        raise CliError(f"config.methods: {e}") from None


def build_train_config(config: dict, seed: int) -> TrainConfig:
    if "seed" in config["train"]:
        raise CliError("config.train.seed is not read: each run's seed comes from config.seeds")
    try:
        return TrainConfig(**config["train"], seed=seed)
    except (TypeError, ConfigError) as e:
        raise CliError(f"config.train: {e}") from None


def held_out_ids(config: dict, domains) -> list[int]:
    """``config.held_out`` resolved over ``domains``, a suite or its ids ``0..n-1``."""
    ho, n = config["held_out"], len(domains)
    ids = list(range(n)) if ho == "all" else [n - 1] if ho == "last" else ho
    if not isinstance(ids, list) or not ids or not all(
            type(h) is int and 0 <= h < n for h in ids) or len(set(ids)) != len(ids):
        raise CliError('config.held_out must be "all", "last" or a nonempty list of distinct '
                       f"domain ids in [0, {n}), got {ho!r}")
    return list(ids)


# ---------------------------------------------------------------------------
# File emission


def write_csv(path: Path, header, rows):
    def writer(f):
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    mm.atomic_write(path, writer)


def run_dir(output: Path, method_name: str, seed: int, held_out: int) -> Path:
    return output / method_name / f"seed{seed}" / f"heldout{held_out}"


def execute_job(output, method: MethodSpec, train_cfg: TrainConfig, sources, held_ds) -> Path:
    """Train ``method`` on ``sources`` and write its run directory under ``output``."""
    seed, held = train_cfg.seed, held_ds.domain_id
    run = run_method(sources, method, train_cfg, held_out=held_ds)
    report = report_from_run(run)

    out = run_dir(Path(output), method.name, seed, held)
    base = (method.name, seed, held)

    rows = []
    for ev in run.evals:
        metrics = {"target_loss": ev.target_loss,
                   **{f"train_acc_d{d}": ev.train_acc[d] for d in sorted(ev.train_acc)},
                   **{f"val_acc_d{d}": ev.val_acc[d] for d in sorted(ev.val_acc)},
                   "mean_val_acc": ev.mean_val_acc, "val_entropy": ev.val_entropy,
                   "probe_logit_sum": ev.probe_logit_sum}
        for name, value in metrics.items():
            rows.append([*base, ev.step, name, repr(value)])
    rows.append([*base, run.selected_step, "selected_step", run.selected_step])
    if run.ood_accuracy is not None:
        rows.append([*base, run.selected_step, "ood_accuracy", repr(run.ood_accuracy)])
    write_csv(out / "metrics.csv",
              ["method", "seed", "held_out_domain", "step", "metric", "value"], rows)

    if any(ev.expert_val_acc for ev in run.evals):
        erows = [[*base, ev.step, f"expert_val_acc_d{d}", repr(ev.expert_val_acc[d])]
                 for ev in run.evals for d in sorted(ev.expert_val_acc)]
        for ev, rh, re in zip(run.evals, report.ratio_hard_trace, report.ratio_easy_trace):
            erows.append([*base, ev.step, "ratio_hard", repr(rh)])
            erows.append([*base, ev.step, "ratio_easy", repr(re)])
        write_csv(out / "experts.csv",
                  ["method", "seed", "held_out_domain", "step", "metric", "value"], erows)

    if any(ev.rescale_f is not None for ev in run.evals):
        rrows = [[ev.step, repr(ev.rescale_f), repr(ev.rescale_fp)]
                 for ev in run.evals if ev.rescale_f is not None]
        write_csv(out / "rescale.csv", ["step", "mean_f", "mean_fp"], rrows)

    sel = run.selected
    if sel.target_params is not None:
        model = run.selected_target_model()
        mm.save_checkpoint(model, out / "target.ckpt", role="target",
                           step=run.selected_step, seed=seed)
    if sel.expert_params is not None:
        for i, e in enumerate(run.selected_expert_models()):
            mm.save_checkpoint(e, out / f"expert{i}.ckpt", role="expert", index=i,
                               step=run.selected_step, seed=seed)
    if sel.weighting_params is not None:
        mm.save_checkpoint(mm.model_from_arrays(sel.weighting_params), out / "weighting.ckpt",
                           role="weighting", step=run.selected_step, seed=seed)
    # Written last, atomically: a run directory holding run.json is complete.
    info = {"method": asdict(method), "seed": seed, "held_out": held,
            "sources": run.source_ids, "selected_step": run.selected_step,
            "ood_accuracy": run.ood_accuracy}
    mm.atomic_write(out / "run.json", lambda f: json.dump(info, f, indent=2))
    return out


def _run_group(group) -> list[str]:
    """Run a ``train_jobs`` group's jobs in order; return their run directories."""
    train_cfg, sources, held_ds, jobs = group
    return [str(execute_job(output, method, train_cfg, sources, held_ds))
            for output, method in jobs]


# ---------------------------------------------------------------------------
# Process pool


def _share_cpus(threads: int):
    """Pool initializer: give this worker ``threads`` BLAS threads, if OpenBLAS is found."""
    calls = blas_thread_calls()
    if calls is not None:
        calls[1](threads)


def map_jobs(fn, payloads, jobs: int):
    """Yield ``fn(payload)`` for each payload of the list ``payloads``, in order.

    The pool is never larger than its work: it has ``min(jobs, len(payloads))``
    workers. One worker runs in this process at its BLAS thread count; more are
    forked, each with ``max(1, cpus // workers)`` BLAS threads, so the workers
    together do not oversubscribe the CPUs. Either way, ``train_run`` drops a
    small run to one thread (``SERIAL_BLAS_MADDS``).
    """
    workers = min(jobs, len(payloads))
    if workers <= 1:
        yield from map(fn, payloads)
        return
    from concurrent.futures import ProcessPoolExecutor     # multiprocessing costs every import
    threads = max(1, len(os.sched_getaffinity(0)) // workers)
    with ProcessPoolExecutor(max_workers=workers, initializer=_share_cpus,
                             initargs=(threads,)) as pool:
        yield from pool.map(fn, payloads)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    plan = load_config(args)
    suite = plan.suite(None)
    out = Path(plan.config["output"])
    out.mkdir(parents=True, exist_ok=True)
    d = suite[0].features.shape[1]
    header = [f"f{i}" for i in range(d)] + list(CSV_COLUMNS)
    for ds in suite:
        rows = [[f"{v:.17g}" for v in row] + [ds.domain_id, int(lab)]
                for row, lab in zip(ds.features, ds.labels)]
        write_csv(out / f"domain_{ds.domain_id}.csv", header, rows)
    print(f"wrote {len(suite)} domain files to {out}")
    return 0


def train_jobs(plan: Plan, runs: list[tuple[dict, list[MethodSpec]]], jobs: int):
    """Train every method x seed x held-out job of each run.

    A run is ``(config, methods)``: the config its output's ``config.json`` records and
    the specs it trains. ``plan`` gives the seeds' train configs and suites and the
    held-out ids. Each seed's suite is built once, here, and each group's sources pass
    ``check_sources``, before anything is written. A group, one ``map_jobs`` payload, is
    ``(train config, sources, held-out dataset, [(output, method)])``: the jobs that share
    one expert trajectory (README "Expert memo"). Groups run in (seed, held-out id) order.
    """
    group_jobs = [(config["output"], m) for config, methods in runs for m in methods]
    groups = []
    for seed in sorted(plan.train):
        suite = plan.suite(seed)
        for h in sorted(plan.held_out):
            sources = [ds for ds in suite if ds.domain_id != h]
            try:
                check_sources(sources, plan.train[seed].batch_per_domain)
            except ConfigError as e:
                raise CliError(f"config.{e}") from None
            groups.append((plan.train[seed], sources, suite[h], group_jobs))
    for config, _ in runs:
        mm.atomic_write(Path(config["output"]) / "config.json",
                        lambda f: json.dump(config, f, indent=2))
    for done in map_jobs(_run_group, groups, jobs):
        print("\n".join(f"finished {path}" for path in done))


def cmd_train(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    plan = load_config(args)
    train_jobs(plan, [(plan.config, plan.methods)], args.jobs)
    return 0


def cmd_compare(args) -> int:
    plan = load_config(args)
    out = Path(plan.config["output"])
    header = ["method"] + [f"domain{h}" for h in plan.held_out] + ["Avg"]
    csv_rows, md_rows = [], []
    for name in (m.name for m in plan.methods):
        cells_csv, cells_md, means = [], [], []
        for h in plan.held_out:
            accs = []
            for seed in plan.config["seeds"]:
                p = run_dir(out, name, seed, h) / "run.json"   # present once the run is complete
                acc = json.loads(p.read_text())["ood_accuracy"] if p.exists() else None
                if acc is None:
                    gap = f"no ood_accuracy in {p}" if p.exists() else f"missing {p}"
                    print(f"missing run: {name} seed={seed} held_out={h}: {gap}", file=sys.stderr)
                else:
                    accs.append(acc)
            if accs:
                mean, std = float(np.mean(accs)), float(np.std(accs))
                cells_csv.append(f"{mean:.4f}")
                cells_md.append(f"{100 * mean:.1f} ± {100 * std:.1f}")
                means.append(mean)
            else:
                cells_csv.append("")
                cells_md.append("—")
        csv_rows.append([name] + cells_csv + [f"{np.mean(means):.4f}" if means else ""])
        md_rows.append([name] + cells_md + [f"{100 * np.mean(means):.1f}" if means else "—"])
    if all(row[-1] == "" for row in csv_rows):
        print("no completed runs found", file=sys.stderr)
        return 1

    write_csv(out / "summary.csv", header, csv_rows)

    def write_md(f):
        f.write("| " + " | ".join(header) + " |\n")
        f.write("|" + "---|" * len(header) + "\n")
        for row in md_rows:
            f.write("| " + " | ".join(str(c) for c in row) + " |\n")
    mm.atomic_write(out / "summary.md", write_md)
    print(f"wrote {out / 'summary.csv'} and {out / 'summary.md'}")
    return 0


def cmd_analyze(args) -> int:
    root = Path(args.run_dir)
    if not root.exists():
        raise CliError(f"run directory not found: {root}")
    run_jsons = sorted(root.glob("*/seed*/heldout*/run.json"))
    if not run_jsons:
        raise CliError(f"no completed runs found in {root}")
    config_path = root / "config.json"
    plan = validate_config(json.loads(config_path.read_text())) if config_path.exists() else None
    runs = [(p.parent, json.loads(p.read_text())) for p in run_jsons]
    # Built before anything is written, so a suite that cannot be built leaves no analysis/.
    seeds = sorted({info["seed"] for rdir, info in runs if (rdir / "target.ckpt").exists()})
    suites = {seed: plan.suite(seed) for seed in seeds} if plan else {}
    analysis_dir = root / "analysis"
    analysis_dir.mkdir(parents=True, exist_ok=True)

    entropy_rows = []
    for rdir, info in runs:
        name = f"{info['method']['kind']}_seed{info['seed']}_heldout{info['held_out']}"

        with open(rdir / "metrics.csv", newline="") as f:
            ent = [float(r["value"]) for r in csv.DictReader(f) if r["metric"] == "val_entropy"]
        if ent:
            entropy_rows.append([info["method"]["kind"], info["seed"], info["held_out"],
                                 repr(ent[-1])])

        rescale = rdir / "rescale.csv"
        if rescale.exists():
            (analysis_dir / f"{name}_rescale.csv").write_bytes(rescale.read_bytes())
        elif info["method"].get("alpha_half", 1.0) == 0.0:
            print(f"notice: no rescale trace for {name} (guidance weight is 0)",
                  file=sys.stderr)

        ckpt = rdir / "target.ckpt"
        if ckpt.exists() and plan is not None:
            sources = [ds for ds in suites[info["seed"]] if ds.domain_id != info["held_out"]]
            x = np.concatenate([ds.features[ds.val_idx] for ds in sources])
            z = mm.forward_array(mm.load_checkpoint(ckpt).to_model(), x)
            q = softmax_np(z)
            for tag, values in (("logits", z.ravel()), ("probs", q.ravel())):
                counts, edges = np.histogram(values, bins=50)
                write_csv(analysis_dir / f"{name}_hist_{tag}.csv",
                          ["bin_left", "bin_right", "count"],
                          [[repr(float(edges[i])), repr(float(edges[i + 1])), int(c)]
                           for i, c in enumerate(counts)])

    if entropy_rows:
        write_csv(analysis_dir / "entropy_summary.csv",
                  ["method", "seed", "held_out_domain", "val_entropy"], entropy_rows)
    print(f"analysis written to {analysis_dir}")
    return 0


def alpha_grid(config: dict) -> list[float]:
    """``config.alpha_grid`` as floats: a nonempty list of distinct finite numbers >= 0."""
    grid = config["alpha_grid"]
    try:
        values = [float(a) for a in grid if type(a) in (int, float)]
    except (TypeError, OverflowError):
        values = []
    if (not isinstance(grid, list) or not grid or len(values) != len(grid)
            or not all(0.0 <= a < float("inf") for a in values)
            or len(set(values)) != len(values)):
        raise CliError("config.alpha_grid must be a nonempty list of distinct finite "
                       f"numbers >= 0, got {grid!r}")
    return values


def cmd_sweep(args) -> int:
    """Train lfme at each grid value, on the first seed, as ``train`` jobs.

    Each value gets a complete ``train`` output at ``<output>/alpha<value>``;
    ``sweep.csv`` collects their out-of-domain accuracies.
    """
    plan = load_config(args)
    out = Path(plan.config["output"])
    seed = plan.config["seeds"][0]
    runs = [(dict(plan.config, seeds=[seed], output=str(out / f"alpha{a!r}"),
                  methods=[{"kind": LFME, "alpha_half": a}]), [MethodSpec(LFME, alpha_half=a)])
            for a in plan.alphas]
    train_jobs(replace(plan, train={seed: plan.train[seed]}), runs, 1)
    rows = []
    for a, (config, _) in zip(plan.alphas, runs):
        accs = [json.loads((run_dir(Path(config["output"]), LFME, seed, h) / "run.json")
                           .read_text())["ood_accuracy"] for h in plan.held_out]
        rows.append([a, float(np.mean(accs)), *accs])
    header = ["alpha_half", "mean_ood_accuracy"] + [f"ood_acc_domain{h}" for h in plan.held_out]
    write_csv(out / "sweep.csv", header, [[repr(v) for v in r] for r in rows])
    print(f"wrote {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------


class ArgumentParser(argparse.ArgumentParser):
    def error(self, message):       # a usage error exits 1, like a bad configuration
        raise CliError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(prog="lfme", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", "-c", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path)")
        p.add_argument("--output", "-o", help="output directory")

    p_gen = sub.add_parser("gen", help="generate a synthetic suite as CSV files")
    common(p_gen)
    p_gen.set_defaults(fn=cmd_gen)

    p_train = sub.add_parser("train", help="train configured methods")
    common(p_train)
    p_train.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_train.set_defaults(fn=cmd_train)

    p_cmp = sub.add_parser("compare", help="summarize finished runs")
    common(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_an = sub.add_parser("analyze", help="emit histograms and traces for an output dir")
    p_an.add_argument("run_dir")
    p_an.set_defaults(fn=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="guidance-weight sensitivity sweep")
    common(p_sw)
    p_sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as e:         # --help, once it has printed the help
        return e.code
    except (CliError, ConfigError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
