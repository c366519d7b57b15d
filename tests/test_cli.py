import argparse
import csv
import dataclasses
import itertools
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lfme_lab import cli
from lfme_lab import models as mm
from lfme_lab import train as tr
from lfme_lab.domains import SuiteSpec, load_csv_suite


def declared_field_cases():
    """``(--set item, key path, value)`` for each field a spec declares with
    ``domains.checked``: one wrong-kind value, and one value past each of its bounds. A
    method field is set on the second method, so its path carries the index."""
    cases = []
    for section, spec in (("suite", SuiteSpec), ("train", tr.TrainConfig),
                          ("methods", tr.MethodSpec)):
        for f in dataclasses.fields(spec):
            if "check" not in f.metadata or (section, f.name) == ("train", "seed"):
                continue        # a run's training seed is set by config.seeds, not here
            _, _, bounds, each = f.metadata["check"]
            past = {">=": -1, ">": 0, "<=": 1, "<": 0}
            for value in ["x"] + [int(b) + past[op] for op, b in map(str.split, bounds)]:
                path, given = f.name, value
                if each and value != "x":
                    path, given = f"{f.name}[0]", [value]
                if section == "methods":
                    methods = [{"kind": "erm"}, {"kind": "lfme", f.name: given}]
                    cases.append((f"methods={json.dumps(methods)}",
                                  f"config.methods[1].{path}", value))
                else:
                    cases.append((f"{section}.{f.name}={json.dumps(given)}",
                                  f"config.{section}.{path}", value))
    return cases


def write_config(tmp_path, **overrides):
    config = {
        "suite": {"n_domains": 2, "n_classes": 3, "n_per_domain": 150,
                  "d_inv": 3, "d_spu": 3, "spurious_strength": 0.8,
                  "noise": 0.4, "seed": 0},
        "train": {"steps": 60, "eval_every": 30, "batch_per_domain": 16},
        "methods": [{"kind": "erm"}],
        "seeds": [0],
        "held_out": "last",
        "output": str(tmp_path / "out"),
    }
    config.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(config))
    return p, config


def execute_job(config, kind):
    """``cli.execute_job`` of one ``kind`` job on seed 0 with held-out domain 2, built as a
    ``train_jobs`` group builds it."""
    suite = cli.build_suite(config, seed=0)
    return cli.execute_job(config["output"], tr.MethodSpec(kind),
                           cli.build_train_config(config, 0),
                           [ds for ds in suite if ds.domain_id != 2], suite[2])


def write_suite_csv(tmp_path):
    """``gen``'s domain files of ``write_config``'s suite, merged into one suite CSV;
    return its path and the generated suite."""
    cfg, config = write_config(tmp_path, output=str(tmp_path / "gen"))
    assert cli.main(["gen", "-c", str(cfg)]) == 0
    lines = []
    for i, f in enumerate(sorted((tmp_path / "gen").glob("domain_*.csv"))):
        text = f.read_text().splitlines()
        lines.extend(text if i == 0 else text[1:])
    merged = tmp_path / "all.csv"
    merged.write_text("\n".join(lines) + "\n")
    return merged, cli.build_suite(config)


def read_metrics(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def fail_run_json_write(monkeypatch):
    """Make ``execute_job``'s last write, ``run.json``, fail part way through."""
    dump = json.dump

    def dump_then_fail(obj, f, **kw):
        if "selected_step" not in obj:
            return dump(obj, f, **kw)
        f.write('{"method": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)


class TestGen:
    def test_writes_all_domains(self, tmp_path):
        cfg, config = write_config(tmp_path)
        assert cli.main(["gen", "-c", str(cfg)]) == 0
        files = sorted((tmp_path / "out").glob("domain_*.csv"))
        assert len(files) == 3
        for f in files:
            with open(f, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 151     # header + n_per_domain

    def test_round_trip(self, tmp_path):
        merged, suite = write_suite_csv(tmp_path)
        loaded = load_csv_suite(merged)
        # The loader standardizes over the pooled rows, so the written values must come
        # back exactly: the same arithmetic on the same numbers.
        pooled = np.concatenate([orig.features for orig in suite])
        pooled = (pooled - pooled.mean(axis=0)) / pooled.std(axis=0)
        starts = np.cumsum([0] + [len(orig.labels) for orig in suite])
        for ds, orig, start in zip(loaded, suite, starts):
            assert np.array_equal(ds.features, pooled[start:start + len(orig.labels)])
            assert np.array_equal(ds.labels, orig.labels)


class TestTrain:
    def test_outputs_and_determinism(self, tmp_path):
        cfg, config = write_config(tmp_path)
        assert cli.main(["train", "-c", str(cfg)]) == 0
        mpath = tmp_path / "out" / "erm" / "seed0" / "heldout2" / "metrics.csv"
        assert mpath.exists()
        first = mpath.read_bytes()
        assert cli.main(["train", "-c", str(cfg)]) == 0
        assert mpath.read_bytes() == first

    def test_reduction_equivalence(self, tmp_path):
        cfg, config = write_config(tmp_path, methods=[{"kind": "erm"}])
        cli.main(["train", "-c", str(cfg)])
        cfg2, _ = write_config(tmp_path, methods=[{"kind": "lfme", "alpha_half": 0.0}])
        cli.main(["train", "-c", str(cfg2)])
        erm = (tmp_path / "out" / "erm" / "seed0" / "heldout2" / "metrics.csv").read_text()
        lfme = (tmp_path / "out" / "lfme" / "seed0" / "heldout2" / "metrics.csv").read_text()
        assert erm.replace("erm,", "X,") == lfme.replace("lfme,", "X,")

    def test_row_count(self, tmp_path):
        cfg, config = write_config(tmp_path, seeds=[0, 1])
        cli.main(["train", "-c", str(cfg)])
        rows = read_metrics(tmp_path / "out" / "erm" / "seed1" / "heldout2" / "metrics.csv")
        n_evals = 60 // 30
        # per eval: loss + 2 train + 2 val + mean + entropy + logit_sum; plus 2 final rows
        assert len(rows) == n_evals * 8 + 2

    def test_jobs_that_share_experts_run_together_and_train_them_once(self, tmp_path, capsys,
                                                                      monkeypatch):
        # Jobs run by (seed, held-out id); within one, lfme trains the experts and agg_avg
        # replays them. The files equal those of runs that keep no trajectory.
        methods = [{"kind": "lfme"}, {"kind": "erm"}, {"kind": "agg_avg"}]
        builds, stack_models = [], mm.stack_models
        monkeypatch.setattr(mm, "stack_models",
                            lambda models: builds.append(1) or stack_models(models))
        outputs = {}
        for cap in (tr.EXPERT_MEMO_BYTES, 0):
            monkeypatch.setattr(tr, "EXPERT_MEMO_BYTES", cap)
            out = tmp_path / f"out{cap}"
            cfg, _ = write_config(tmp_path, seeds=[1, 0], methods=methods, held_out="all",
                                  output=str(out))
            assert cli.main(["train", "-c", str(cfg)]) == 0
            finished = [line.split(" ", 1)[1] for line in capsys.readouterr().out.splitlines()
                        if line.startswith("finished ")]
            assert finished == [str(cli.run_dir(out, m["kind"], seed, h)) for seed in (0, 1)
                                for h in (0, 1, 2) for m in methods]
            outputs[cap] = {p.relative_to(out): p.read_bytes()
                            for p in sorted(out.glob("*/seed*/heldout*/*"))}
        assert len(builds) == 6 + 12
        assert outputs[tr.EXPERT_MEMO_BYTES] == outputs[0]

    def test_jobs_that_share_experts_stay_on_one_worker(self, tmp_path, monkeypatch):
        # A (seed, held-out) group is one pool payload, so each group trains its experts
        # once: 2 x 3 groups of three methods, then 3 groups of two methods on 2 workers,
        # where no even split of the 6 jobs keeps every group whole. --jobs 2 runs first:
        # forked workers would inherit an expert memo the --jobs 1 run left in this process.
        lfme, erm, agg_avg = {"kind": "lfme"}, {"kind": "erm"}, {"kind": "agg_avg"}
        cases = [([1, 0], [lfme, erm, agg_avg], "all", 6, 2 * 3 * (7 + 3 + 5)),
                 ([0], [lfme, agg_avg], [0, 1, 2], 3, 3 * (7 + 5))]
        builds, calls, stack_models = tmp_path / "builds", itertools.count(), mm.stack_models

        def counting_stack_models(models):
            # Forked workers inherit this patch; the count comes back by file.
            (builds / f"{os.getpid()}-{next(calls)}").touch()
            return stack_models(models)

        monkeypatch.setattr(mm, "stack_models", counting_stack_models)
        for case, (seeds, methods, held_out, groups, n_files) in enumerate(cases):
            tr._expert_memo.clear()
            builds.mkdir()
            trees = {}
            for jobs in (2, 1):
                out = tmp_path / f"out{case}-{jobs}"
                cfg, _ = write_config(tmp_path, seeds=seeds, methods=methods,
                                      held_out=held_out, output=str(out))
                assert cli.main(["train", "-c", str(cfg), "--jobs", str(jobs)]) == 0
                trees[jobs] = {p.relative_to(out): p.read_bytes()
                               for p in sorted(out.glob("*/seed*/heldout*/*"))}
                if jobs == 2:
                    assert len(list(builds.iterdir())) == groups
            shutil.rmtree(builds)
            assert len(trees[1]) == n_files
            assert trees[2] == trees[1]

    @pytest.mark.parametrize("jobs, held_out", [(1, "all"), (2, "all"), (2, "last")],
                             ids=["1", "2", "2-one-group"])
    def test_worker_blas_threads(self, tmp_path, monkeypatch, jobs, held_out):
        # The pool has min(jobs, groups) workers; a lone group runs in this process.
        calls = cli.blas_thread_calls()
        if calls is None:
            pytest.skip("numpy has no OpenBLAS loaded")
        get_threads = calls[0]
        before = get_threads()
        counts = tmp_path / "counts"
        counts.mkdir()
        run_method = cli.run_method

        def recording_run_method(sources, method, train_config, held_out=None):
            # Forked workers inherit this patch; the count comes back by file.
            (counts / f"{os.getpid()}-{held_out.domain_id}").write_text(str(get_threads()))
            return run_method(sources, method, train_config, held_out=held_out)

        monkeypatch.setattr(cli, "run_method", recording_run_method)
        cfg, _ = write_config(tmp_path, held_out=held_out, train={"steps": 10, "eval_every": 5})
        assert cli.main(["train", "-c", str(cfg), "--jobs", str(jobs)]) == 0
        seen = [int(p.read_text()) for p in counts.iterdir()]
        groups = 3 if held_out == "all" else 1
        workers = min(jobs, groups)
        assert seen == [before if workers == 1
                        else max(1, len(os.sched_getaffinity(0)) // workers)] * groups
        assert get_threads() == before

    def test_each_group_builds_its_suite_once(self, tmp_path, monkeypatch):
        # 2 seeds x 3 held-out domains: the plan builds each seed's suite once, before
        # anything is written, and its 6 groups build none.
        real, seeds_built = cli.generate_suite, []
        monkeypatch.setattr(cli, "generate_suite",
                            lambda spec: seeds_built.append(spec.seed) or real(spec))
        cfg, _ = write_config(tmp_path, seeds=[0, 1], held_out="all",
                              methods=[{"kind": "erm"}, {"kind": "ls"}])
        assert cli.main(["train", "-c", str(cfg)]) == 0
        assert sorted(seeds_built) == [0, 1]

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_two_domain_csv_suite_exit_code(self, tmp_path, capsys, command):
        # Leaving one of 2 domains out leaves 1 source: exit 1 with nothing written.
        merged, _ = write_suite_csv(tmp_path)
        two = tmp_path / "two.csv"
        two.write_text("".join(line for line in merged.read_text().splitlines(keepends=True)
                               if line.split(",")[-2] != "2"))
        cfg, _ = write_config(tmp_path, suite={"csv": str(two)}, alpha_grid=[0.0, 1.0])
        capsys.readouterr()
        assert cli.main([command, "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: config.suite: a run needs at least 2 source domains, got 1")
        assert not (tmp_path / "out").exists()

    def test_workers_build_no_suite(self, tmp_path, monkeypatch):
        # Each group carries its sources and held-out domain to the worker that runs it.
        builds = tmp_path / "builds"
        builds.mkdir()
        real = cli.generate_suite

        def counting_generate_suite(spec):
            # Forked workers inherit this patch; the count comes back by file.
            (builds / f"{os.getpid()}-{spec.seed}").touch()
            return real(spec)

        monkeypatch.setattr(cli, "generate_suite", counting_generate_suite)
        cfg, _ = write_config(tmp_path, seeds=[1, 0], held_out="all",
                              train={"steps": 10, "eval_every": 5})
        assert cli.main(["train", "-c", str(cfg), "--jobs", "2"]) == 0
        assert len(list((tmp_path / "out").glob("erm/seed*/heldout*/run.json"))) == 6
        assert sorted(p.name for p in builds.iterdir()) == [f"{os.getpid()}-{s}" for s in (0, 1)]

    def test_pool_workers_are_forked(self, monkeypatch):
        # Only a forked worker inherits this process's patches and expert memo, and
        # some platforms default to another start method (POSIX from Python 3.14 on).
        import concurrent.futures
        contexts = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
                contexts.append(mp_context)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert list(cli.map_jobs(str, [1, 2, 3], jobs=2)) == ["1", "2", "3"]
        assert [c.get_start_method() for c in contexts] == ["fork"]

    def test_every_train_key_is_read(self, tmp_path):
        # A valid value other than the default of each TrainConfig field either changes
        # a tiny erm run's metrics or exits 1 with nothing written: no key is silently
        # overridden.
        values = {"optimizer": '"sgd"', "lr": "0.01", "weight_decay": "0.01", "steps": "40",
                  "batch_per_domain": "8", "seed": "7", "eval_every": "20",
                  "hidden_dims": "[8]", "probe_per_domain": "5"}
        assert values.keys() == {f.name for f in dataclasses.fields(tr.TrainConfig)}
        cfg, _ = write_config(tmp_path)
        base = tmp_path / "base"
        assert cli.main(["train", "-c", str(cfg), "-o", str(base)]) == 0
        metrics = "erm/seed0/heldout2/metrics.csv"
        for key, value in values.items():
            out = tmp_path / key
            code = cli.main(["train", "-c", str(cfg), "-o", str(out),
                             "--set", f"train.{key}={value}"])
            if code == 1:
                assert not out.exists(), key
            else:
                assert code == 0, key
                assert (out / metrics).read_bytes() != (base / metrics).read_bytes(), key

    @pytest.mark.parametrize("jobs", ["0", "-3", "x", "1.5"])
    def test_jobs_below_one_exit_code(self, tmp_path, capsys, jobs):
        cfg, _ = write_config(tmp_path)
        assert cli.main(["train", "-c", str(cfg), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--jobs" in err
        assert not (tmp_path / "out").exists()

    def test_validation_error_exit_code(self, tmp_path):
        cfg, _ = write_config(tmp_path, methods=[{"kind": "nonsense"}])
        assert cli.main(["train", "-c", str(cfg)]) == 1

    def test_unknown_key_exit_code(self, tmp_path):
        cfg, _ = write_config(tmp_path, train={"steps": 10, "bogus": 1})
        assert cli.main(["train", "-c", str(cfg)]) == 1

    @pytest.mark.parametrize("override, key", [
        ("held_out=3", "config.held_out"),
        ("seeds=2", "config.seeds"),
        ("seeds=[1.5]", "config.seeds"),
        ('seeds=[1, "x"]', "config.seeds"),
        ("seeds=[0,,1]", "config.seeds"),
        (f"seeds=[{10 ** 22}]", "config.seeds"),
        (f"seeds=[{2 ** 64}]", "config.seeds"),
        ("seeds.x=1", "seeds.x"),
        ("train.lr=nan", "config.train.lr must be"),
        ("train.lr=NaN", "config.train.lr must be"),
        ("train.steps=\"10\"", "config.train.steps must be"),
        ("methods.0=1", "methods.0"),
        ("train.hidden_dims=[0]", "config.train.hidden_dims[0] must be"),
        ("train.hidden_dims=5", "config.train.hidden_dims must be"),
        ("train.hidden_dims=[2.5]", "config.train.hidden_dims[0] must be"),
        ("suite.n_classes=\"3\"", "config.suite.n_classes must be"),
        ("methods=[{\"kind\": \"kd_ce\", \"ramp_steps\": \"x\"}]",
         "config.methods[0].ramp_steps must be"),
        ("methods=[1]", "config.methods[0]"),
        ('methods=[{"kind": []}]', "config.methods[0].kind must be"),
        ("methods={\"kind\": \"erm\"}", "config.methods must be"),
        ("train=5", "config.train"),
        ("suite=5", "config.suite"),
        ("train.seed=7", "config.train.seed"),
        ("alpha_grid=5", "config.alpha_grid"),
        ("train.batch_per_domain=100000", "config.train.batch_per_domain"),
    ])
    def test_malformed_override_exit_code(self, tmp_path, capsys, override, key):
        cfg, _ = write_config(tmp_path)
        assert cli.main(["train", "-c", str(cfg), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("top", ["[1, 2]", "5", "null", "\"erm\"", "a directory"])
    def test_non_object_config_exit_code(self, tmp_path, capsys, top):
        cfg = tmp_path / "config.json"
        if top == "a directory":
            cfg.mkdir()
            error = f"error: cannot read config file {cfg}: Is a directory"
        else:
            cfg.write_text(top)
            error = "error: config must be a JSON object"
        assert cli.main(["train", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(error)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("csv_path", ["5", "\"missing.csv\""])
    def test_bad_csv_path_exit_code(self, tmp_path, capsys, csv_path):
        # An integer path would otherwise be opened as a file descriptor.
        cfg, _ = write_config(tmp_path)
        assert cli.main(["train", "-c", str(cfg), "--set", f'suite={{"csv": {csv_path}}}']) == 1
        assert capsys.readouterr().err.startswith("error: config.suite.csv")

    @pytest.mark.parametrize("command", ["gen", "train", "compare", "sweep"])
    @pytest.mark.parametrize("override, key", [("suite.n_domains=9", "config.suite.n_domains"),
                                               ('suite.lable_column="y"',
                                                "config.suite.lable_column")])
    def test_csv_suite_takes_no_other_key(self, tmp_path, capsys, command, override, key):
        merged, _ = write_suite_csv(tmp_path)
        cfg, _ = write_config(tmp_path, suite={"csv": str(merged)})
        capsys.readouterr()
        assert cli.main([command, "-c", str(cfg), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} is not read")
        assert not (tmp_path / "out").exists()

    def test_failed_run_json_write_leaves_no_run_json(self, tmp_path, monkeypatch):
        _, config = write_config(tmp_path)
        fail_run_json_write(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            execute_job(config, "erm")
        rdir = tmp_path / "out" / "erm" / "seed0" / "heldout2"
        assert sorted(p.name for p in rdir.iterdir()) == ["metrics.csv", "target.ckpt"]

    def test_failed_checkpoint_write_leaves_no_checkpoint(self, tmp_path, monkeypatch):
        _, config = write_config(tmp_path)
        contiguous = np.ascontiguousarray
        calls = []

        def convert_then_fail(a, *args, **kw):
            if kw.get("dtype") == "<f8":
                calls.append(1)
                if len(calls) == 2:      # the header and the first weight are written
                    raise OSError("disk full")
            return contiguous(a, *args, **kw)

        monkeypatch.setattr(np, "ascontiguousarray", convert_then_fail)
        with pytest.raises(OSError, match="disk full"):
            execute_job(config, "erm")
        rdir = tmp_path / "out" / "erm" / "seed0" / "heldout2"
        assert sorted(p.name for p in rdir.iterdir()) == ["metrics.csv"]

    def test_agg_dyn_run_directory_holds_its_predictor(self, tmp_path):
        # The expert checkpoints and weighting.ckpt rebuild the selected predictor: it
        # scores the held-out domain as run.json records.
        cfg, config = write_config(tmp_path, methods=[{"kind": "agg_dyn"}])
        assert cli.main(["train", "-c", str(cfg)]) == 0
        rdir = tmp_path / "out" / "agg_dyn" / "seed0" / "heldout2"
        info = json.loads((rdir / "run.json").read_text())
        weighting = mm.load_checkpoint(rdir / "weighting.ckpt")
        assert (weighting.role, weighting.step) == ("weighting", info["selected_step"])
        experts = [mm.load_checkpoint(rdir / f"expert{i}.ckpt").arrays for i in range(2)]
        held = cli.build_suite(config, seed=0)[2]
        probs = tr.aggregate_predict(tr.AGG_DYN, experts, weighting.arrays, held.features)
        assert float(np.mean(probs.argmax(axis=1) == held.labels)) == info["ood_accuracy"]

    def test_specs_are_built_once_per_seed_and_method(self, tmp_path, monkeypatch):
        # 1 seed x 4 held-out domains x 3 methods is 12 jobs. The config check builds each
        # seed's train config, each method and the suite spec once, into the plan; no job
        # builds one.
        counts, build_spec = Counter(), cli.build_spec
        monkeypatch.setattr(cli, "build_spec",
                            lambda path, *args: counts.update([path]) or build_spec(path, *args))
        cfg, _ = write_config(tmp_path, held_out="all", train={"steps": 4, "eval_every": 2},
                              methods=[{"kind": "erm"}, {"kind": "lfme"}, {"kind": "lfme_guid"}])
        assert cli.main(["train", "-c", str(cfg), "--set", "suite.n_domains=3"]) == 0
        assert len(list((tmp_path / "out").glob("*/seed0/heldout*/run.json"))) == 12
        assert counts == {"config.train": 1, "config.suite": 1, "config.methods[0]": 1,
                          "config.methods[1]": 1, "config.methods[2]": 1}

    def test_csv_suite_is_read_once_per_command(self, tmp_path, monkeypatch):
        # A CSV suite does not depend on the seed: the plan reads it once for 3 seeds, in
        # train and again in analyze.
        merged, _ = write_suite_csv(tmp_path)
        cfg, _ = write_config(tmp_path, suite={"csv": str(merged)}, seeds=[0, 1, 2],
                              train={"steps": 4, "eval_every": 2})
        reads, load = [], cli.load_csv_suite
        monkeypatch.setattr(cli, "load_csv_suite", lambda path: reads.append(1) or load(path))
        assert cli.main(["train", "-c", str(cfg)]) == 0
        assert len(reads) == 1
        assert cli.main(["analyze", str(tmp_path / "out")]) == 0
        assert len(reads) == 2
        assert len(list((tmp_path / "out" / "analysis").glob("*_hist_probs.csv"))) == 3

    @pytest.mark.parametrize("override, message", [
        ("train.eval_every=0", "config.train.eval_every must be an integer >= 1, got 0"),
        ("train.lr=-1", "config.train.lr must be a finite number >= 0, got -1"),
        ("train.probe_per_domain=0",
         "config.train.probe_per_domain must be an integer >= 1, got 0"),
        ("train.weight_decay=-1", "config.train.weight_decay must be a finite number >= 0, got -1"),
        ("train.optimizer=\"x\"", "config.train.optimizer must be 'adam' or 'sgd', got 'x'"),
        ("train.hidden_dims=[4, 0]", "config.train.hidden_dims[1] must be an integer >= 1, got 0"),
        ('methods=[{"kind": "kd_ce", "ramp_steps": -5}]',
         "config.methods[0].ramp_steps must be an integer >= 0, got -5"),
        ('methods=[{"kind": "erm"}, {"kind": "lfme", "alpha_half": -1}]',
         "config.methods[1].alpha_half must be a finite number >= 0, got -1"),
        ('methods=[{"kind": "erm"}, {"kind": "ls", "ls_epsilon": 1}]',
         "config.methods[1].ls_epsilon must be a finite number >= 0 and < 1, got 1"),
        ("suite.n_domains=1", "config.suite.n_domains must be an integer >= 2, got 1"),
        ("suite.n_classes=1", "config.suite.n_classes must be an integer >= 2, got 1"),
        ("suite.n_per_domain=9", "config.suite.n_per_domain must be an integer >= 10, got 9"),
        ("suite.seed=-1", "config.suite.seed must be an integer >= 0, got -1"),
        ("suite.noise=0", "config.suite.noise must be a finite number > 0, got 0"),
        ("suite.n_classes=true", "config.suite.n_classes must be an integer >= 2, got True"),
        (f"suite.noise={10 ** 22}", f"config.suite.noise is out of range, got {10 ** 22}"),
        ("suite.d_inv=1", "config.suite.d_inv must be >= n_classes - 1 = 2 to hold "
                          "the class simplex, got 1"),
        ("suite.d_spu=4", "config.suite.d_spu must be in [0, d_inv] = [0, 3] for "
                          "orthonormal rotations, got 4"),
    ])
    def test_bad_value_names_its_key_and_value(self, tmp_path, capsys, override, message):
        cfg, _ = write_config(tmp_path)
        assert cli.main(["train", "-c", str(cfg), "--set", override]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, path, value", declared_field_cases())
    def test_each_declared_field_names_its_path_and_value(self, tmp_path, capsys, override,
                                                          path, value):
        cfg, _ = write_config(tmp_path)
        assert cli.main(["train", "-c", str(cfg), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} must be ") and err.endswith(f", got {value!r}\n")
        assert not (tmp_path / "out").exists()

    def test_checkpoint_round_trip_on_probe(self, tmp_path):
        cfg, config = write_config(tmp_path)
        cli.main(["train", "-c", str(cfg)])
        ck = mm.load_checkpoint(tmp_path / "out" / "erm" / "seed0" / "heldout2" / "target.ckpt")
        assert [a.shape for a in ck.arrays] == [(6, 64), (64,), (64, 64), (64,), (64, 3), (3,)]
        x = np.random.default_rng(0).normal(size=(4, 6))
        a = mm.forward_array(ck.arrays, x)
        b = mm.forward_array(ck.arrays, x)
        assert np.array_equal(a, b)


class TestCompare:
    def test_summary(self, tmp_path, capsys):
        cfg, config = write_config(tmp_path, methods=[{"kind": "erm"}], seeds=[0])
        cli.main(["train", "-c", str(cfg)])
        assert cli.main(["compare", "-c", str(cfg)]) == 0
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["method", "domain2", "Avg"]
        assert rows[1][0] == "erm"
        # single seed: the recorded mean equals the run value and std is 0
        metrics = read_metrics(tmp_path / "out" / "erm" / "seed0" / "heldout2" / "metrics.csv")
        ood = [float(r["value"]) for r in metrics if r["metric"] == "ood_accuracy"][0]
        assert abs(float(rows[1][1]) - ood) < 5e-5
        assert (tmp_path / "out" / "summary.md").exists()

    def test_generates_no_suite(self, tmp_path, monkeypatch):
        # The held-out ids of a synthetic suite come from its spec.
        cfg, _ = write_config(tmp_path, held_out="all", train={"steps": 4, "eval_every": 2})
        assert cli.main(["train", "-c", str(cfg)]) == 0
        builds, real = [], cli.generate_suite
        monkeypatch.setattr(cli, "generate_suite", lambda spec: builds.append(1) or real(spec))
        assert cli.main(["compare", "-c", str(cfg)]) == 0
        assert builds == []
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            assert next(csv.reader(f)) == ["method", "domain0", "domain1", "domain2", "Avg"]

    def test_missing_runs_reported(self, tmp_path, capsys):
        cfg, config = write_config(tmp_path, methods=[{"kind": "erm"}, {"kind": "ls"}])
        cli.main(["train", "-c", str(cfg), "--set", 'methods=[{"kind": "erm"}]'])
        capsys.readouterr()
        assert cli.main(["compare", "-c", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert "missing run" in err and "ls" in err

    def test_run_without_run_json_is_missing(self, tmp_path, capsys, monkeypatch):
        # A run directory is complete only once it holds run.json.
        cfg, config = write_config(tmp_path, methods=[{"kind": "erm"}, {"kind": "ls"}])
        assert cli.main(["train", "-c", str(cfg), "--set", 'methods=[{"kind": "erm"}]']) == 0
        with monkeypatch.context() as patch:
            fail_run_json_write(patch)
            with pytest.raises(OSError, match="disk full"):
                execute_job(config, "ls")
        rdir = cli.run_dir(tmp_path / "out", "ls", 0, 2)
        assert sorted(p.name for p in rdir.iterdir()) == ["metrics.csv", "target.ckpt"]
        capsys.readouterr()
        assert cli.main(["compare", "-c", str(cfg)]) == 0
        assert "missing run: ls seed=0 held_out=2" in capsys.readouterr().err
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            assert list(csv.reader(f))[2] == ["ls", "", ""]


class TestAnalyze:
    def test_histograms_and_entropy(self, tmp_path, capsys):
        cfg, config = write_config(tmp_path, methods=[{"kind": "lfme", "alpha_half": 1.0}])
        cli.main(["train", "-c", str(cfg)])
        assert cli.main(["analyze", str(tmp_path / "out")]) == 0
        adir = tmp_path / "out" / "analysis"
        hist = list(adir.glob("*hist_probs.csv"))
        assert hist
        with open(hist[0], newline="") as f:
            rows = list(csv.DictReader(f))
        total = sum(int(r["count"]) for r in rows)
        # histogram over every validation prediction entry of both sources
        n_val = sum(len(ds.val_idx) for ds in
                    [d for d in _suite_from(config) if d.domain_id != 2])
        assert total == n_val * 3
        assert (adir / "entropy_summary.csv").exists()
        assert list(adir.glob("*lfme*_rescale.csv"))

    def test_alpha_zero_notice(self, tmp_path, capsys):
        cfg, config = write_config(tmp_path, methods=[{"kind": "lfme", "alpha_half": 0.0}])
        cli.main(["train", "-c", str(cfg)])
        capsys.readouterr()
        assert cli.main(["analyze", str(tmp_path / "out")]) == 0
        assert "no rescale trace" in capsys.readouterr().err

    def test_csv_suite_histograms(self, tmp_path):
        # A suite read from a CSV is built for analysis like a generated one.
        merged, suite = write_suite_csv(tmp_path)
        cfg, _ = write_config(tmp_path, suite={"csv": str(merged)})
        assert cli.main(["train", "-c", str(cfg)]) == 0
        assert cli.main(["analyze", str(tmp_path / "out")]) == 0
        adir = tmp_path / "out" / "analysis"
        for tag in ("logits", "probs"):
            with open(adir / f"erm_seed0_heldout2_hist_{tag}.csv", newline="") as f:
                total = sum(int(r["count"]) for r in csv.DictReader(f))
            assert total == sum(len(ds.val_idx) for ds in suite[:2]) * 3

    def test_unbuildable_suite_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # A relative suite.csv resolves against the working directory, so analyze run
        # from elsewhere cannot build the suite: exit 1 before analysis/ is made.
        merged, _ = write_suite_csv(tmp_path)
        monkeypatch.chdir(tmp_path)
        cfg, _ = write_config(tmp_path, suite={"csv": merged.name}, output="tree")
        assert cli.main(["train", "-c", str(cfg)]) == 0
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        capsys.readouterr()
        assert cli.main(["analyze", "../tree"]) == 1
        assert capsys.readouterr().err.startswith("error: config.suite.csv: [Errno 2]")
        assert not (tmp_path / "tree" / "analysis").exists()

    @pytest.mark.parametrize("tree, config_json, error", [
        ("empty", None, "config file not found"),
        ("sweep", None, "config file not found"),   # each alpha<value>/ holds its own config
        ("empty", "train's", "no completed runs found"),
        ("train", None, "config file not found"),
        ("train", "a directory", "cannot read config file"),
        ("train", "{", "config is not valid JSON"),
        ("train", "[1, 2]", "config must be a JSON object"),
    ], ids=["empty", "sweep", "config only", "no config", "config dir", "invalid json",
            "json list"])
    def test_no_completed_runs_exit_code(self, tmp_path, capsys, tree, config_json, error):
        # analyze reads the runs that the root's config.json lists: without a readable JSON
        # object there, or with none of its runs complete, it exits 1 and writes nothing.
        root = tmp_path / "out"
        cfg, _ = write_config(tmp_path, alpha_grid=[0.0], train={"steps": 4})
        if tree == "empty":
            root.mkdir()
        else:
            assert cli.main([tree, "-c", str(cfg)]) == 0
        path = root / "config.json"
        path.unlink(missing_ok=True)
        if config_json == "a directory":
            path.mkdir()
        elif config_json is not None:
            path.write_text(cfg.read_text() if config_json == "train's" else config_json)
        capsys.readouterr()
        assert cli.main(["analyze", str(root)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not (root / "analysis").exists()

    @pytest.mark.parametrize("change", ["suite.d_spu=2", "suite.noise=2.0"])
    def test_reads_only_the_runs_its_config_lists(self, tmp_path, change):
        # A retrain of ls on another suite into the same output leaves the erm run in the
        # tree, but config.json now lists only ls. No histogram may come from the erm run:
        # it was trained on another suite (with another d_spu, one its checkpoint cannot read).
        cfg, _ = write_config(tmp_path, train={"steps": 4})
        out = tmp_path / "out"
        assert cli.main(["train", "-c", str(cfg)]) == 0
        assert cli.main(["train", "-c", str(cfg), "--set", 'methods=[{"kind": "ls"}]',
                         "--set", change]) == 0
        assert (cli.run_dir(out, "erm", 0, 2) / "run.json").exists()
        assert cli.main(["analyze", str(out)]) == 0
        adir = out / "analysis"
        assert sorted(p.name for p in adir.iterdir()) == [
            "entropy_summary.csv", "ls_seed0_heldout2_hist_logits.csv",
            "ls_seed0_heldout2_hist_probs.csv"]
        with open(adir / "entropy_summary.csv", newline="") as f:
            assert [row[:3] for row in csv.reader(f)] == [
                ["method", "seed", "held_out_domain"], ["ls", "0", "2"]]

    def test_each_seed_suite_built_once(self, tmp_path, monkeypatch):
        cfg, _ = write_config(tmp_path, seeds=[0, 1], held_out="all")
        assert cli.main(["train", "-c", str(cfg)]) == 0
        real, seeds_built = cli.generate_suite, []

        def counting(spec):
            seeds_built.append(spec.seed)
            return real(spec)

        monkeypatch.setattr(cli, "generate_suite", counting)
        out = tmp_path / "out"
        run_dirs = sorted(p.parent for p in out.glob("*/seed*/heldout*/run.json"))
        assert len(run_dirs) == 6
        assert cli.main(["analyze", str(out)]) == 0
        assert sorted(seeds_built) == [0, 1]
        # Each run directory analysed alone, on a suite of its own, gives the same bytes.
        combined = {p.name: p.read_bytes() for p in (out / "analysis").iterdir()}
        alone_names = set()
        for i, rdir in enumerate(run_dirs):
            alone = tmp_path / f"alone{i}"
            shutil.copytree(rdir, alone / rdir.relative_to(out))
            shutil.copy(out / "config.json", alone / "config.json")
            assert cli.main(["analyze", str(alone)]) == 0
            for p in (alone / "analysis").iterdir():
                if p.name != "entropy_summary.csv":
                    alone_names.add(p.name)
                    assert p.read_bytes() == combined[p.name]
        assert alone_names == set(combined) - {"entropy_summary.csv"}

def _suite_from(config):
    from lfme_lab.domains import SuiteSpec, generate_suite
    suite_cfg = dict(config["suite"])
    suite_cfg["seed"] = config["seeds"][0]
    return generate_suite(SuiteSpec(**suite_cfg))


class TestConfigHandling:
    def test_round_trip_identity(self, tmp_path):
        cfg, config = write_config(tmp_path)
        loaded = cli.load_config(_Args(config=str(cfg))).config
        text = json.dumps(loaded, sort_keys=True)
        reparsed = json.loads(text)
        assert json.dumps(reparsed, sort_keys=True) == text

    def test_set_override(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        loaded = cli.load_config(_Args(config=str(cfg), set=["train.steps=99",
                                                             "suite.noise=0.7"])).config
        assert loaded["train"]["steps"] == 99
        assert loaded["suite"]["noise"] == 0.7

    @pytest.mark.parametrize("command", ["train", "compare", "gen", "sweep"])
    @pytest.mark.parametrize("override, key", [
        ("held_out=[9]", "config.held_out must be"),     # the suite's ids are 0..2
        (f"suite.noise={10 ** 22}", "noise"),
        (f"suite.n_classes={10 ** 22}", "n_classes"),
        (f"seeds=[{10 ** 22}]", "seed"),
        ("output=5", "config.output"),
        ('output=""', "config.output"),
        ('methods=[{"kind": 0}]', "kind"),
        ("sedes=[5]", "unknown config key 'sedes'"),
    ])
    def test_every_command_rejects_a_malformed_value(self, tmp_path, capsys, monkeypatch,
                                                     command, override, key):
        # Run in tmp_path, so a relative output such as "5" would land there.
        cfg, _ = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "-c", str(cfg), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["gen", "train", "compare", "sweep"])
    def test_empty_output_flag_exit_code(self, tmp_path, capsys, monkeypatch, command):
        cfg, _ = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "-c", str(cfg), "-o", ""]) == 1
        assert capsys.readouterr().err.startswith("error: config.output must be")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_each_command_takes_only_its_options(self):
        # --set is the one way to set a config value; train adds --jobs.
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {name: sorted(o for a in p._actions for o in a.option_strings)
                   for name, p in subparsers.choices.items()}
        common = ["--config", "--help", "--output", "--set", "-c", "-h", "-o"]
        assert options == {"gen": common, "compare": common, "sweep": common,
                           "train": sorted(common + ["--jobs"]),
                           "analyze": ["--help", "-h"]}

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["train", "--bogus"],
                                      ["train", "--alpha-half", "1"], ["analyze"]],
                             ids=["no-command", "unknown-command", "unknown-option",
                                  "alpha-half", "no-run-dir"])
    def test_usage_error_exit_code(self, capsys, argv):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "usage: lfme" in err

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]], ids=["lfme", "train"])
    def test_help_exit_code(self, capsys, argv):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: lfme")

    @pytest.mark.parametrize("command", ["gen", "train", "compare", "sweep"])
    def test_sections_are_checked_once_per_command(self, tmp_path, monkeypatch, command):
        cfg, _ = write_config(tmp_path, alpha_grid=[0.0], train={"steps": 4})
        calls, validate_config = [], cli.validate_config
        monkeypatch.setattr(cli, "validate_config",
                            lambda config: calls.append(1) or validate_config(config))
        # compare finds no finished runs and exits 1 after reading the config.
        assert cli.main([command, "-c", str(cfg)]) == (1 if command == "compare" else 0)
        assert len(calls) == 1

    @pytest.mark.parametrize("override, key", [
        ({"sedes": [1]}, "unknown config key 'sedes'"),
        ({"train": 5}, "config.train must be an object"),
        ({"suite": []}, "config.suite must be an object"),
        ({"methods": {"kind": "erm"}}, "config.methods must be"),
        ({"methods": ["erm"]}, "config.methods[0] must be an object"),
        ({"output": ""}, "config.output must be"),
    ])
    def test_library_config_gets_the_cli_errors(self, override, key):
        # A dict built in code, as perfbench's pooled workload builds one, is checked
        # as a config file is.
        config = {"suite": {"seed": 0}, "train": {"steps": 4}, "methods": [{"kind": "erm"}],
                  "seeds": [0], "held_out": "all", **override}
        with pytest.raises(cli.CliError) as err:
            cli.validate_config(config)
        assert key in str(err.value)

    def test_library_config_is_completed(self):
        config = {"suite": {"seed": 0}, "methods": "all", "held_out": "last"}
        cli.validate_config(config)
        assert config["methods"] == cli.ALL_METHODS_PRESET
        assert config["methods"] is not cli.ALL_METHODS_PRESET
        for key in ("train", "seeds", "output", "alpha_grid"):
            assert config[key] == cli.CONFIG_DEFAULTS[key]
        for key in ("train", "seeds", "alpha_grid"):     # copies: a caller's edit stays its own
            assert config[key] is not cli.CONFIG_DEFAULTS[key]
        assert list(config) == ["suite", "methods", "held_out", "train", "seeds", "output",
                                "alpha_grid"]

    def test_all_methods_preset_is_every_kind_but_lfme_guid(self):
        # lfme_guid trains an lfme teacher first, so "all" leaves it out.
        kinds = [m["kind"] for m in cli.ALL_METHODS_PRESET]
        assert len(kinds) == len(set(kinds))
        assert set(kinds) == set(tr.METHODS) - {tr.LFME_GUID}

    def test_sweep_grid_rows(self, tmp_path):
        cfg, config = write_config(tmp_path, alpha_grid=[0.0, 1.0])
        assert cli.main(["sweep", "-c", str(cfg)]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2


class TestSweep:
    """``sweep`` runs lfme at each grid value as ``train`` jobs under ``<output>/alpha<value>``."""

    def sweep(self, tmp_path):
        cfg, _ = write_config(tmp_path, held_out="all", alpha_grid=[0.0, 1.0])
        assert cli.main(["sweep", "-c", str(cfg)]) == 0
        return cfg, tmp_path / "out"

    def test_alpha_zero_row_is_erm(self, tmp_path):
        # ERM == LFME at alpha 0, through the CLI: the row equals train's erm accuracies.
        cfg, out = self.sweep(tmp_path)
        rows = read_metrics(out / "sweep.csv")
        assert [r["alpha_half"] for r in rows] == ["0.0", "1.0"]
        erm_out = tmp_path / "erm_out"
        assert cli.main(["train", "-c", str(cfg), "-o", str(erm_out)]) == 0
        erm = [json.loads((cli.run_dir(erm_out, "erm", 0, h) / "run.json").read_text())
               ["ood_accuracy"] for h in range(3)]
        assert [float(rows[0][f"ood_acc_domain{h}"]) for h in range(3)] == erm
        assert float(rows[0]["mean_ood_accuracy"]) == float(np.mean(erm))

    def test_rerun_is_byte_identical_and_each_point_is_a_train_output(self, tmp_path):
        cfg, out = self.sweep(tmp_path)

        def files():
            return {p.relative_to(out): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}
        first = files()
        assert {p for p in first if p.name == "run.json"} == {
            cli.run_dir(Path(f"alpha{a}"), "lfme", 0, h) / "run.json"
            for a in ("0.0", "1.0") for h in range(3)}
        assert cli.main(["sweep", "-c", str(cfg)]) == 0
        assert files() == first

        point = out / "alpha1.0"
        assert cli.main(["compare", "-c", str(point / "config.json"), "-o", str(point)]) == 0
        with open(point / "summary.csv", newline="") as f:
            summary = list(csv.reader(f))
        swept = read_metrics(out / "sweep.csv")[1]
        assert summary[1][0] == "lfme"
        assert [float(v) for v in summary[1][1:4]] == pytest.approx(
            [float(swept[f"ood_acc_domain{h}"]) for h in range(3)], abs=5e-5)

    def test_each_group_builds_its_suite_once(self, tmp_path, monkeypatch):
        # The default grid of 7 values over 4 held-out domains is one plan on one seed:
        # it builds that seed's suite once, and its 4 (seed, held-out) groups build none.
        real, builds = cli.generate_suite, []
        monkeypatch.setattr(cli, "generate_suite", lambda spec: builds.append(1) or real(spec))
        assert cli.main(["sweep", "--set", "train.steps=5", "-o", str(tmp_path / "out")]) == 0
        assert len(builds) == 1

    def test_alpha_grid_is_read_once(self, tmp_path, monkeypatch):
        calls, alpha_grid = [], cli.alpha_grid
        monkeypatch.setattr(cli, "alpha_grid", lambda config: calls.append(1) or alpha_grid(config))
        cfg, _ = write_config(tmp_path, alpha_grid=[0.0, 1.0], train={"steps": 4})
        assert cli.main(["sweep", "-c", str(cfg)]) == 0
        assert len(calls) == 1

    def test_held_out_last_is_honoured(self, tmp_path):
        cfg, _ = write_config(tmp_path, alpha_grid=[0.0, 1.0])     # held_out "last"
        assert cli.main(["sweep", "-c", str(cfg)]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as f:
            header = next(csv.reader(f))
        assert header == ["alpha_half", "mean_ood_accuracy", "ood_acc_domain2"]
        assert not (tmp_path / "out" / "alpha0.0" / "lfme" / "seed0" / "heldout0").exists()

    @pytest.mark.parametrize("command, override, key", [
        ("train", 'methods=[{"kind": "lfme", "alpha_half": 0.01}, '
                  '{"kind": "lfme", "alpha_half": 10}]', "'lfme' is listed twice"),
        ("sweep", 'methods=[{"kind": "erm"}, {"kind": "erm"}]', "'erm' is listed twice"),
        ("train", "held_out=[1, 1]", "config.held_out"),
        ("train", "seeds=[1, 1]", "config.seeds"),
        ("sweep", "seeds=[0, 0]", "config.seeds"),
        ("train", "held_out=[]", "config.held_out"),
        ("sweep", "held_out=[]", "config.held_out"),
        ("sweep", "alpha_grid=[]", "config.alpha_grid"),
        ("sweep", 'alpha_grid=["x"]', "config.alpha_grid"),
        ("sweep", "alpha_grid=5", "config.alpha_grid"),
        ("sweep", "alpha_grid=[0, 1, -1]", "config.alpha_grid"),
        ("sweep", "alpha_grid=[1, 1.0]", "config.alpha_grid"),
        ("sweep", "alpha_grid=[NaN]", "config.alpha_grid"),
        ("sweep", "alpha_grid=[true]", "config.alpha_grid"),
        ("sweep", "sedes=[5]", "unknown config key 'sedes'"),
    ])
    def test_bad_config_exit_code(self, tmp_path, capsys, command, override, key):
        cfg, _ = write_config(tmp_path)
        assert cli.main([command, "-c", str(cfg), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "out").exists()


class _Args:
    def __init__(self, config=None, set=None):
        self.config = config
        self.set = set
        self.output = None
