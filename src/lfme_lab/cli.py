"""Configuration-driven experiment runner.

Subcommands: gen (write suite CSVs), train (run methods x seeds x held-out
domains), compare (summary tables), analyze (histograms and traces), sweep
(guidance-weight grid, run as train jobs). Configuration is a JSON document;
any key can be overridden with --set dotted.path=value. Exit codes: 0
success, 1 bad configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import models as mm
from .analysis import report_from_run
from .domains import DataError, SuiteSpec, generate_suite, load_csv_suite
from .train import (LFME, ConfigError, MethodSpec, TrainConfig, blas_thread_calls, run_method,
                    softmax_np)

DEFAULT_ALPHA_GRID = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]

ALL_METHODS_PRESET = [
    {"kind": "erm"}, {"kind": "lfme"}, {"kind": "erm_plus"}, {"kind": "ls"},
    {"kind": "kd_zz"}, {"kind": "kd_qz"}, {"kind": "kd_qq"}, {"kind": "kd_ce"},
    {"kind": "agg_avg"}, {"kind": "agg_ms"}, {"kind": "agg_conf"}, {"kind": "agg_dyn"},
    {"kind": "self_guid"}, {"kind": "ermp_w_expt"}, {"kind": "ermp_w_self"},
]


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
    config.setdefault("suite", {})
    config.setdefault("train", {})
    config.setdefault("methods", [{"kind": "erm"}])
    config.setdefault("seeds", [0])
    config.setdefault("held_out", "all")
    config.setdefault("output", "out")
    config.setdefault("alpha_grid", DEFAULT_ALPHA_GRID)

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

    _check_sections(config)
    if getattr(args, "method", None):
        config["methods"] = [{"kind": args.method}]
    if getattr(args, "alpha_half", None) is not None:
        for m in config["methods"]:
            m["alpha_half"] = args.alpha_half
    if getattr(args, "steps", None) is not None:
        config["train"]["steps"] = args.steps
    if getattr(args, "output", None):
        config["output"] = args.output
    for source, raw in (("--seeds", getattr(args, "seeds", None)),
                        ("LFME_SEED", os.environ.get("LFME_SEED"))):
        if raw:
            try:
                config["seeds"] = [int(s) for s in raw.split(",")]
            except ValueError:
                raise CliError(f"{source} must be comma-separated integers, got {raw!r}") from None

    if not isinstance(config["output"], str):
        raise CliError(f"config.output must be a path string, got {config['output']!r}")
    validate_config(config)
    return config


def _check_sections(config: dict):
    """Expand ``methods: "all"`` and reject a section of the wrong type, naming it."""
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


def validate_config(config: dict):
    """Check ``seeds``, ``held_out`` and the ``methods`` and ``train`` values, or raise.

    Each method and each seed's train config is built, so a malformed value fails
    with the error of the spec that owns it. The suite values are checked where the
    suite is built (``build_suite``), and ``output`` in ``load_config``.
    """
    _check_sections(config)
    seeds, held_out = config["seeds"], config["held_out"]
    if not isinstance(seeds, list) or not seeds or not all(
            type(s) is int and 0 <= s < 2 ** 64 for s in seeds):
        raise CliError("config.seeds must be a nonempty list of integers in [0, 2**64), "
                       f"got {seeds!r}")
    if held_out not in ("all", "last") and not (
            isinstance(held_out, list) and all(type(h) is int for h in held_out)
            and len(set(held_out)) == len(held_out)):
        raise CliError('config.held_out must be "all", "last" or a list of distinct domain '
                       f"ids, got {held_out!r}")
    kinds = set()
    for i, m in enumerate(config["methods"]):
        kind = build_method(m).kind
        if kind in kinds:
            raise CliError(f"config.methods[{i}]: method kind {kind!r} is listed twice; "
                           "its runs would share one directory")
        kinds.add(kind)
    for seed in seeds:
        build_train_config(config, seed)


def build_suite(config: dict, seed: int | None = None):
    suite_cfg = dict(config["suite"])
    if "csv" in suite_cfg:
        path = suite_cfg["csv"]
        if not isinstance(path, str):
            raise CliError(f"config.suite.csv must be a path string, got {path!r}")
        try:
            return load_csv_suite(path, suite_cfg.get("domain_column", "domain"),
                                  suite_cfg.get("label_column", "label"))
        except OSError as e:
            raise CliError(f"config.suite.csv: {e}") from None
    if seed is not None:
        suite_cfg["seed"] = seed
    try:
        spec = SuiteSpec(**suite_cfg)
    except TypeError as e:
        raise CliError(f"config.suite: {e}") from None
    return generate_suite(spec)


def build_method(cfg: dict) -> MethodSpec:
    try:
        method = MethodSpec(**cfg)
        method.validate()
    except (TypeError, ConfigError) as e:
        raise CliError(f"config.methods: {e}") from None
    return method


def build_train_config(config: dict, seed: int) -> TrainConfig:
    kwargs = dict(config["train"])
    kwargs["seed"] = seed
    if isinstance(kwargs.get("hidden_dims"), list):
        kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
    try:
        tc = TrainConfig(**kwargs)
        tc.validate()
    except (TypeError, ConfigError) as e:
        raise CliError(f"config.train: {e}") from None
    return tc


def held_out_ids(config: dict, suite) -> list[int]:
    ho = config["held_out"]
    if ho == "all":
        return [ds.domain_id for ds in suite]
    if ho == "last":
        return [suite[-1].domain_id]
    ids = [int(h) for h in ho]
    known = {ds.domain_id for ds in suite}
    bad = [h for h in ids if h not in known]
    if bad:
        raise CliError(f"config.held_out: unknown domain ids {bad}")
    return ids


# ---------------------------------------------------------------------------
# File emission


def write_csv(path: Path, header, rows):
    def writer(f):
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    mm.atomic_write(path, writer)


def fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def run_dir(output: Path, method_name: str, seed: int, held_out: int) -> Path:
    return output / method_name / f"seed{seed}" / f"heldout{held_out}"


def execute_job(config: dict, method_cfg: dict, seed: int, held: int) -> Path:
    suite = build_suite(config, seed=seed)
    train_cfg = build_train_config(config, seed)
    method = build_method(method_cfg)
    byid = {ds.domain_id: ds for ds in suite}
    held_ds = byid[held]
    sources = [ds for ds in suite if ds.domain_id != held]
    run = run_method(sources, method, train_cfg, held_out=held_ds)
    report = report_from_run(run)

    out = run_dir(Path(config["output"]), method.name, seed, held)
    base = (method.name, seed, held)

    rows = []
    for ev in run.evals:
        metrics = {"target_loss": ev.target_loss}
        for d in sorted(ev.train_acc):
            metrics[f"train_acc_d{d}"] = ev.train_acc[d]
        for d in sorted(ev.val_acc):
            metrics[f"val_acc_d{d}"] = ev.val_acc[d]
        metrics["mean_val_acc"] = ev.mean_val_acc
        metrics["val_entropy"] = ev.val_entropy
        metrics["probe_logit_sum"] = ev.probe_logit_sum
        for name, value in metrics.items():
            rows.append([*base, ev.step, name, fmt(value)])
    rows.append([*base, run.selected_step, "selected_step", run.selected_step])
    if run.ood_accuracy is not None:
        rows.append([*base, run.selected_step, "ood_accuracy", fmt(run.ood_accuracy)])
    write_csv(out / "metrics.csv",
              ["method", "seed", "held_out_domain", "step", "metric", "value"], rows)

    if any(ev.expert_val_acc for ev in run.evals):
        erows = []
        for ev in run.evals:
            for d in sorted(ev.expert_val_acc):
                erows.append([*base, ev.step, f"expert_val_acc_d{d}", fmt(ev.expert_val_acc[d])])
        for i, (rh, re) in enumerate(zip(report.ratio_hard_trace, report.ratio_easy_trace)):
            step = run.evals[i].step
            erows.append([*base, step, "ratio_hard", fmt(rh)])
            erows.append([*base, step, "ratio_easy", fmt(re)])
        write_csv(out / "experts.csv",
                  ["method", "seed", "held_out_domain", "step", "metric", "value"], erows)

    if any(ev.rescale_f is not None for ev in run.evals):
        rrows = [[ev.step, fmt(ev.rescale_f), fmt(ev.rescale_fp)]
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
    # Written last, atomically: a run directory holding run.json is complete.
    info = {"method": asdict(method), "seed": seed, "held_out": held,
            "sources": run.source_ids, "selected_step": run.selected_step,
            "ood_accuracy": run.ood_accuracy}
    mm.atomic_write(out / "run.json", lambda f: json.dump(info, f, indent=2))
    return out


def _job_wrapper(payload):
    config, method_cfg, seed, held = payload
    return str(execute_job(config, method_cfg, seed, held))


# ---------------------------------------------------------------------------
# Process pool


def _share_cpus(threads: int):
    """Pool initializer: give this worker ``threads`` BLAS threads, if OpenBLAS is found."""
    calls = blas_thread_calls()
    if calls is not None:
        calls[1](threads)


def map_jobs(fn, payloads, jobs: int):
    """Yield ``fn(payload)`` for each payload, in order.

    ``jobs == 1`` runs in this process at its BLAS thread count. ``jobs > 1``
    runs a pool of forked workers, each with ``max(1, cpus // jobs)`` BLAS
    threads, so the workers together do not oversubscribe the CPUs. Either
    way, ``train_run`` drops a small run to one thread (``SERIAL_BLAS_MADDS``).
    """
    if jobs == 1:
        yield from map(fn, payloads)
        return
    from concurrent.futures import ProcessPoolExecutor     # multiprocessing costs every import
    threads = max(1, len(os.sched_getaffinity(0)) // jobs)
    with ProcessPoolExecutor(max_workers=jobs, initializer=_share_cpus,
                             initargs=(threads,)) as pool:
        yield from pool.map(fn, payloads)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    config = load_config(args)
    suite = build_suite(config)
    out = Path(config["output"])
    out.mkdir(parents=True, exist_ok=True)
    d = suite[0].features.shape[1]
    header = [f"f{i}" for i in range(d)] + ["domain", "label"]
    for ds in suite:
        rows = [[f"{v:.17g}" for v in row] + [ds.domain_id, int(lab)]
                for row, lab in zip(ds.features, ds.labels)]
        write_csv(out / f"domain_{ds.domain_id}.csv", header, rows)
    print(f"wrote {len(suite)} domain files to {out}")
    return 0


def train_jobs(configs: list[dict], jobs: int) -> list[list[int]]:
    """Train every method x seed x held-out job of each config through one ``map_jobs``.

    Every config must have passed ``validate_config``. Each config's suite is
    built before anything is written; then each config's ``config.json`` is
    written. The jobs run ordered by (seed, held-out id), so the jobs that train
    the same experts run one after another and replay them from the expert memo
    (README "Expert memo"). Returns each config's held-out ids.
    """
    helds = [held_out_ids(config, build_suite(config, seed=config["seeds"][0]))
             for config in configs]
    for config in configs:
        mm.atomic_write(Path(config["output"]) / "config.json",
                        lambda f: json.dump(config, f, indent=2))
    payloads = sorted(((config, m, seed, h) for config, hs in zip(configs, helds)
                       for m in config["methods"] for seed in config["seeds"] for h in hs),
                      key=lambda payload: payload[2:])
    for done in map_jobs(_job_wrapper, payloads, jobs):
        print(f"finished {done}")
    return helds


def cmd_train(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    train_jobs([load_config(args)], args.jobs)
    return 0


def cmd_compare(args) -> int:
    config = load_config(args)
    out = Path(config["output"])
    suite = build_suite(config, seed=config["seeds"][0])
    helds = held_out_ids(config, suite)
    method_names = [m["kind"] for m in config["methods"]]

    table = {}
    gaps = []
    for name in method_names:
        for h in helds:
            accs = []
            for seed in config["seeds"]:
                p = run_dir(out, name, seed, h) / "run.json"   # present once the run is complete
                if not p.exists():
                    gaps.append(f"{name} seed={seed} held_out={h}: missing {p}")
                    continue
                acc = json.loads(p.read_text())["ood_accuracy"]
                if acc is None:
                    gaps.append(f"{name} seed={seed} held_out={h}: no ood_accuracy in {p}")
                    continue
                accs.append(acc)
            if accs:
                table[(name, h)] = (float(np.mean(accs)), float(np.std(accs)))
    for g in gaps:
        print(f"missing run: {g}", file=sys.stderr)
    if not table:
        print("no completed runs found", file=sys.stderr)
        return 1

    header = ["method"] + [f"domain{h}" for h in helds] + ["Avg"]
    csv_rows, md_rows = [], []
    for name in method_names:
        cells_csv, cells_md, means = [], [], []
        for h in helds:
            if (name, h) in table:
                mean, std = table[(name, h)]
                cells_csv.append(f"{mean:.4f}")
                cells_md.append(f"{100 * mean:.1f} ± {100 * std:.1f}")
                means.append(mean)
            else:
                cells_csv.append("")
                cells_md.append("—")
        avg = f"{100 * np.mean(means):.1f}" if means else "—"
        csv_rows.append([name] + cells_csv + ([f"{np.mean(means):.4f}"] if means else [""]))
        md_rows.append([name] + cells_md + [avg])

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
    config_path = root / "config.json"
    config = None
    if config_path.exists():
        with open(config_path) as f:
            config = json.load(f)
    analysis_dir = root / "analysis"
    analysis_dir.mkdir(parents=True, exist_ok=True)

    entropy_rows, suites = [], {}
    for run_json in sorted(root.glob("*/seed*/heldout*/run.json")):
        rdir = run_json.parent
        with open(run_json) as f:
            info = json.load(f)
        name = f"{info['method']['kind']}_seed{info['seed']}_heldout{info['held_out']}"

        with open(rdir / "metrics.csv", newline="") as f:
            metric_rows = list(csv.DictReader(f))
        ent = [float(r["value"]) for r in metric_rows if r["metric"] == "val_entropy"]
        if ent:
            entropy_rows.append([info["method"]["kind"], info["seed"], info["held_out"],
                                 fmt(ent[-1])])

        rescale = rdir / "rescale.csv"
        if rescale.exists():
            with open(rescale, newline="") as src:
                data = src.read()
            (analysis_dir / f"{name}_rescale.csv").write_text(data)
        elif info["method"].get("alpha_half", 1.0) == 0.0:
            print(f"notice: no rescale trace for {name} (guidance weight is 0)",
                  file=sys.stderr)

        ckpt = rdir / "target.ckpt"
        if ckpt.exists() and config is not None and "csv" not in config.get("suite", {}):
            model = mm.load_checkpoint(ckpt).to_model()
            if info["seed"] not in suites:
                suites[info["seed"]] = build_suite(config, seed=info["seed"])
            suite = suites[info["seed"]]
            sources = [ds for ds in suite if ds.domain_id != info["held_out"]]
            x = np.concatenate([ds.features[ds.val_idx] for ds in sources])
            z = mm.forward_array(model, x)
            q = softmax_np(z)
            for tag, values in (("logits", z.ravel()), ("probs", q.ravel())):
                counts, edges = np.histogram(values, bins=50)
                write_csv(analysis_dir / f"{name}_hist_{tag}.csv",
                          ["bin_left", "bin_right", "count"],
                          [[fmt(float(edges[i])), fmt(float(edges[i + 1])), int(c)]
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
    config = load_config(args)
    grid = alpha_grid(config)
    out = Path(config["output"])
    seed = config["seeds"][0]
    configs = [dict(config, methods=[{"kind": LFME, "alpha_half": a}], seeds=[seed],
                    output=str(out / f"alpha{a!r}")) for a in grid]
    helds = train_jobs(configs, 1)[0]     # every grid value holds out the same domains
    rows = []
    for a, cfg in zip(grid, configs):
        accs = [json.loads((run_dir(Path(cfg["output"]), LFME, seed, h) / "run.json").read_text())
                ["ood_accuracy"] for h in helds]
        rows.append([a, float(np.mean(accs)), *accs])
    header = ["alpha_half", "mean_ood_accuracy"] + [f"ood_acc_domain{h}" for h in helds]
    write_csv(out / "sweep.csv", header, [[fmt(v) for v in r] for r in rows])
    print(f"wrote {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lfme", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", "-c", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path)")
        p.add_argument("--output", "-o", help="output directory")
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--steps", type=int, help="training steps")
        p.add_argument("--method", help="single method kind to run")
        p.add_argument("--alpha-half", type=float, dest="alpha_half",
                       help="guidance weight for all configured methods")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ConfigError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
