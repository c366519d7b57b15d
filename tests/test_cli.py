import csv
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from lfme_lab import cli
from lfme_lab import models as mm
from lfme_lab import train as tr
from lfme_lab.domains import load_csv_suite


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
        cfg, config = write_config(tmp_path)
        cli.main(["gen", "-c", str(cfg)])
        from lfme_lab.domains import SuiteSpec, generate_suite
        suite = generate_suite(SuiteSpec(**config["suite"]))
        merged = tmp_path / "all.csv"
        lines = []
        for i, f in enumerate(sorted((tmp_path / "out").glob("domain_*.csv"))):
            text = f.read_text().splitlines()
            lines.extend(text if i == 0 else text[1:])
        merged.write_text("\n".join(lines) + "\n")
        loaded = load_csv_suite(merged, "domain", "label")
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

    def test_env_seed_override(self, tmp_path):
        cfg, config = write_config(tmp_path)
        env = dict(os.environ)
        os.environ["LFME_SEED"] = "7"
        try:
            cli.main(["train", "-c", str(cfg)])
        finally:
            os.environ.clear()
            os.environ.update(env)
        assert (tmp_path / "out" / "erm" / "seed7").exists()
        assert not (tmp_path / "out" / "erm" / "seed0").exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        # Both sides train on one BLAS thread: these runs are below train.SERIAL_BLAS_MADDS.
        # test_train.TestBlasThreads compares 1 against 2 threads.
        methods = [{"kind": "erm"}, {"kind": "lfme"}]
        cfg, _ = write_config(tmp_path, seeds=[0, 1], methods=methods)
        assert cli.main(["train", "-c", str(cfg)]) == 0
        cfg2, _ = write_config(tmp_path, seeds=[0, 1], methods=methods,
                               output=str(tmp_path / "out2"))
        assert cli.main(["train", "-c", str(cfg2), "--jobs", "2"]) == 0

        def run_files(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.glob("*/seed*/heldout*/*"))}
        serial, par = run_files(tmp_path / "out"), run_files(tmp_path / "out2")
        names = {p.name for p in serial}
        assert {"metrics.csv", "experts.csv", "rescale.csv", "target.ckpt",
                "expert0.ckpt", "expert1.ckpt", "run.json"} <= names
        assert len(serial) == 2 * (3 + 7)     # 2 seeds x (erm 3 files + lfme 7 files)
        assert serial.keys() == par.keys()
        for rel in serial:
            assert serial[rel] == par[rel], rel

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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_blas_threads(self, tmp_path, monkeypatch, jobs):
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
        cfg, _ = write_config(tmp_path, held_out="all", train={"steps": 10, "eval_every": 5})
        assert cli.main(["train", "-c", str(cfg), "--jobs", str(jobs)]) == 0
        seen = [int(p.read_text()) for p in counts.iterdir()]
        assert len(seen) == 3
        if jobs == 1:
            assert seen == [before] * 3
        else:
            assert seen == [max(1, len(os.sched_getaffinity(0)) // jobs)] * 3
        assert get_threads() == before

    @pytest.mark.parametrize("jobs", ["0", "-3"])
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
        (f"seeds=[{10 ** 22}]", "config.seeds"),
        (f"seeds=[{2 ** 64}]", "config.seeds"),
        ("seeds.x=1", "seeds.x"),
        ("train.lr=nan", "lr"),
        ("train.lr=NaN", "lr"),
        ("train.steps=\"10\"", "steps"),
        ("methods.0=1", "methods.0"),
        ("train.hidden_dims=[0]", "hidden_dims"),
        ("train.hidden_dims=5", "hidden_dims"),
        ("train.hidden_dims=[2.5]", "hidden_dims"),
        ("suite.n_classes=\"3\"", "n_classes"),
        ("methods=[{\"kind\": \"kd_ce\", \"ramp_steps\": \"x\"}]", "ramp_steps"),
        ("methods=[1]", "config.methods[0]"),
        ('methods=[{"kind": []}]', "method kind"),
        ("methods={\"kind\": \"erm\"}", "config.methods must be"),
        ("train=5", "config.train"),
        ("suite=5", "config.suite"),
    ])
    def test_malformed_override_exit_code(self, tmp_path, capsys, override, key):
        cfg, _ = write_config(tmp_path)
        assert cli.main(["train", "-c", str(cfg), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("top", ["[1, 2]", "5", "null", "\"erm\""])
    def test_non_object_config_exit_code(self, tmp_path, capsys, top):
        cfg = tmp_path / "config.json"
        cfg.write_text(top)
        assert cli.main(["train", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: config must be a JSON object")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["1,x", "1.5", "0,,1"])
    def test_bad_seeds_flag_exit_code(self, tmp_path, capsys, seeds):
        cfg, _ = write_config(tmp_path)
        assert cli.main(["train", "-c", str(cfg), "--seeds", seeds]) == 1
        assert capsys.readouterr().err.startswith("error: --seeds must be")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("csv_path", ["5", "\"missing.csv\""])
    def test_bad_csv_path_exit_code(self, tmp_path, capsys, csv_path):
        # An integer path would otherwise be opened as a file descriptor.
        cfg, _ = write_config(tmp_path)
        assert cli.main(["train", "-c", str(cfg), "--set", f"suite.csv={csv_path}"]) == 1
        assert capsys.readouterr().err.startswith("error: config.suite.csv")

    def test_failed_run_json_write_leaves_no_run_json(self, tmp_path, monkeypatch):
        _, config = write_config(tmp_path)
        fail_run_json_write(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            cli.execute_job(config, {"kind": "erm"}, 0, 2)
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
            cli.execute_job(config, {"kind": "erm"}, 0, 2)
        rdir = tmp_path / "out" / "erm" / "seed0" / "heldout2"
        assert sorted(p.name for p in rdir.iterdir()) == ["metrics.csv"]

    def test_checkpoint_round_trip_on_probe(self, tmp_path):
        cfg, config = write_config(tmp_path)
        cli.main(["train", "-c", str(cfg)])
        ck = mm.load_checkpoint(tmp_path / "out" / "erm" / "seed0" / "heldout2" / "target.ckpt")
        model = ck.to_model()
        x = np.random.default_rng(0).normal(size=(4, 6))
        a = mm.forward_array(model, x)
        b = mm.forward_array(ck.to_model(), x)
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

    def test_missing_runs_reported(self, tmp_path, capsys):
        cfg, config = write_config(tmp_path, methods=[{"kind": "erm"}, {"kind": "ls"}])
        cli.main(["train", "-c", str(cfg), "--method", "erm"])
        capsys.readouterr()
        assert cli.main(["compare", "-c", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert "missing run" in err and "ls" in err

    def test_run_without_run_json_is_missing(self, tmp_path, capsys, monkeypatch):
        # A run directory is complete only once it holds run.json.
        cfg, config = write_config(tmp_path, methods=[{"kind": "erm"}, {"kind": "ls"}])
        assert cli.main(["train", "-c", str(cfg), "--method", "erm"]) == 0
        with monkeypatch.context() as patch:
            fail_run_json_write(patch)
            with pytest.raises(OSError, match="disk full"):
                cli.execute_job(config, {"kind": "ls"}, 0, 2)
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
        loaded = cli.load_config(_Args(config=str(cfg)))
        text = json.dumps(loaded, sort_keys=True)
        reparsed = json.loads(text)
        assert json.dumps(reparsed, sort_keys=True) == text

    def test_set_override(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        loaded = cli.load_config(_Args(config=str(cfg), set=["train.steps=99",
                                                             "suite.noise=0.7"]))
        assert loaded["train"]["steps"] == 99
        assert loaded["suite"]["noise"] == 0.7

    def test_all_methods_take_alpha_half(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        args = _Args(config=str(cfg), set=['methods="all"'])
        args.alpha_half = 0.5
        loaded = cli.load_config(args)
        assert len(loaded["methods"]) == len(cli.ALL_METHODS_PRESET) > 1
        assert all(m["alpha_half"] == 0.5 for m in loaded["methods"])

    @pytest.mark.parametrize("command", ["train", "compare", "gen"])
    @pytest.mark.parametrize("override, key", [
        (f"suite.noise={10 ** 22}", "noise"),
        (f"suite.n_classes={10 ** 22}", "n_classes"),
        (f"seeds=[{10 ** 22}]", "seed"),
        ("output=5", "config.output"),
        ('methods=[{"kind": 0}]', "kind"),
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
        ("sweep", "alpha_grid=[]", "config.alpha_grid"),
        ("sweep", 'alpha_grid=["x"]', "config.alpha_grid"),
        ("sweep", "alpha_grid=5", "config.alpha_grid"),
        ("sweep", "alpha_grid=[0, 1, -1]", "config.alpha_grid"),
        ("sweep", "alpha_grid=[1, 1.0]", "config.alpha_grid"),
        ("sweep", "alpha_grid=[NaN]", "config.alpha_grid"),
        ("sweep", "alpha_grid=[true]", "config.alpha_grid"),
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
        self.method = None
        self.alpha_half = None
        self.seeds = None
        self.steps = None
        self.output = None
