"""End-to-end acceptance battery.

The trend checks (rescale-factor sign, generalization gaps, ordering,
hard-sample ratios) all share one 10-seed battery of full training runs on the
default synthetic suite, built once per session.
"""
import csv
import json
import math
import os
import time
import warnings

import numpy as np
import pytest

from lfme_lab import analysis as an
from lfme_lab import autodiff as ad
from lfme_lab import cli
from lfme_lab import models as mm
from lfme_lab import train as tr
from lfme_lab.domains import SuiteSpec, generate_suite, one_hot

pytestmark = pytest.mark.acceptance

N_SEEDS = 10
ALPHAS = (0.01, 1.0, 10.0)


# ---------------------------------------------------------------------------
# shared 10-seed battery
# ---------------------------------------------------------------------------

def _ratio_means(run, hard_idx, easy_idx):
    hard, easy = [], []
    for ev in run.evals:
        if ev.probe_probs is None:
            continue
        r = an.classification_ratio_rows(ev.probe_probs, run.probe.y)
        hard.append(r[hard_idx].mean())
        easy.append(r[easy_idx].mean())
    return float(np.mean(hard)), float(np.mean(easy))


def _aggregate_accuracies(run, held):
    sel = run.selected
    out = {}
    for kind in (tr.AGG_AVG, tr.AGG_MS, tr.AGG_CONF, tr.AGG_DYN):
        probs = tr.aggregate_predict(kind, sel.expert_params, sel.weighting_params, held.features)
        out[kind] = float(np.mean(probs.argmax(axis=1) == held.labels))
    return out


def _battery_seed(seed):
    """One battery seed: six full runs on the default suite, reduced to trend inputs."""
    suite = generate_suite(SuiteSpec(seed=seed))
    sources, held = suite[:-1], suite[-1]
    cfg = tr.TrainConfig(seed=seed)
    runs = {"erm": tr.train_run(sources, tr.MethodSpec("erm"), cfg, held_out=held)}
    for a in ALPHAS:
        runs[f"lfme@{a}"] = tr.train_run(
            sources, tr.MethodSpec("lfme", alpha_half=a), cfg, held_out=held)
    runs["erm_plus"] = tr.train_run(
        sources, tr.MethodSpec("erm_plus", alpha_half=1.0), cfg, held_out=held)
    agg_run = tr.train_run(sources, tr.MethodSpec(tr.AGG_DYN), cfg, held_out=held)

    lfme = runs["lfme@1.0"]
    erm = runs["erm"]
    warmup = cfg.steps // 10
    f_points = [ev.rescale_f for ev in lfme.evals
                if ev.rescale_f is not None and ev.step >= warmup]
    hard_idx, easy_idx = an.split_hard_easy(lfme.expert_probe_losses)
    lf_hard, lf_easy = _ratio_means(lfme, hard_idx, easy_idx)
    erm_hard, erm_easy = _ratio_means(erm, hard_idx, easy_idx)
    return {
        "ood": {name: r.ood_accuracy for name, r in runs.items()},
        "agg_ood": _aggregate_accuracies(agg_run, held),
        "f_points": f_points,
        "entropy": {"lfme": lfme.selected.val_entropy,
                    "erm": erm.selected.val_entropy},
        "logit_sum": lfme.selected.probe_logit_sum,
        "in_domain": {
            "erm": erm.selected.mean_val_acc,
            "experts": float(np.mean(list(lfme.selected.expert_val_acc.values()))),
            "lfme": lfme.selected.mean_val_acc,
        },
        "ratio": {"lfme_hard": lf_hard, "lfme_easy": lf_easy,
                  "erm_hard": erm_hard, "erm_easy": erm_easy},
    }


@pytest.fixture(scope="session")
def battery():
    t0 = time.time()
    per_seed = list(cli.map_jobs(_battery_seed, range(N_SEEDS),
                                 len(os.sched_getaffinity(0))))
    return {"seeds": per_seed, "elapsed": time.time() - t0}


def _mean(battery_data, *keys):
    vals = []
    for row in battery_data["seeds"]:
        v = row
        for k in keys:
            v = v[k]
        vals.append(v)
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# 1. closed-form gradient of the guided loss
# ---------------------------------------------------------------------------

class TestGradientIdentity:
    def test_guided_loss_gradient_matches_closed_form(self):
        rng = np.random.default_rng(7)
        t0 = time.time()
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(2, 11))
            b = int(rng.integers(1, 5))
            alpha_half = float(rng.uniform(0.005, 5.0))
            z = rng.normal(size=(b, k))
            q_exp = tr.softmax_np(rng.normal(size=(b, k)))
            y = rng.integers(0, k, size=b)
            y1h = one_hot(y, k)

            t_z = ad.parameter(z)
            loss = tr.target_loss(tr.MethodSpec(tr.LFME, alpha_half=alpha_half), t_z,
                                  {"y": y1h, "q_expert": q_exp})
            ad.backward(loss)
            got = t_z.grad * b          # per-sample gradient
            want = tr.softmax_np(z) - y1h + 2.0 * alpha_half * (z - q_exp)
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst < 1e-10
        assert time.time() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. finite-difference audit of every op plus a full composite
# ---------------------------------------------------------------------------

def _fd_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = fn(x)
        flat[i] = old - eps
        lo = fn(x)
        flat[i] = old
        g.reshape(-1)[i] = (hi - lo) / (2 * eps)
    return g


class TestFiniteDifference:
    def test_all_ops_and_composite_pass_central_difference(self):
        rng = np.random.default_rng(11)
        t0 = time.time()
        checked = 0
        while checked < 200:
            b, k, h = (int(rng.integers(2, 5)) for _ in range(3))
            x = rng.normal(size=(b, h))
            w1 = rng.normal(size=(h, h)) * 0.5
            w2 = rng.normal(size=(h, k)) * 0.5
            bias = rng.normal(size=k) * 0.1
            q_ref = tr.softmax_np(rng.normal(size=(b, k)))
            y1h = one_hot(rng.integers(0, k, size=b), k)

            def run(w1v):
                t = ad.Tensor(w1v, requires_grad=True)
                z = ad.mlp(ad.Tensor(x), [t, ad.Tensor(w2)],
                           [ad.Tensor(np.zeros(h)), ad.Tensor(bias)])
                loss = ad.add(ad.cross_entropy(ad.softmax(z), y1h),
                              ad.scale(ad.mse(z, ad.tensor(q_ref)), 0.7))
                return t, loss

            t, loss = run(w1)
            ad.backward(loss)
            num = _fd_grad(lambda v: run(v)[1].data.item(), w1.copy())
            denom = max(np.abs(num).max(), 1e-8)
            assert np.abs(t.grad - num).max() / denom < 1e-4
            checked += 1
        assert time.time() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3. degenerate-hyperparameter runs collapse onto the plain baseline
# ---------------------------------------------------------------------------

def _canonical_metrics(path):
    """Metrics file bytes with the method-name column blanked."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f)]
    return "\n".join(",".join(["_"] + r[1:]) for r in rows)


class TestReductions:
    def test_zero_weight_variants_emit_identical_target_metrics(self, tmp_path):
        t0 = time.time()
        config = {
            "suite": {"n_domains": 3, "n_classes": 5, "n_per_domain": 300,
                      "d_inv": 6, "d_spu": 6, "spurious_strength": 0.9,
                      "noise": 0.75, "seed": 0},
            "train": {"steps": 200, "eval_every": 50, "batch_per_domain": 16},
            "methods": [{"kind": "erm"},
                        {"kind": "lfme", "alpha_half": 0.0},
                        {"kind": "erm_plus", "alpha_half": 0.0},
                        {"kind": "ls", "ls_epsilon": 0.0}],
            "seeds": [0, 1, 2],
            "held_out": "last",
            "output": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["train", "-c", str(cfg_path)]) == 0
        for seed in config["seeds"]:
            base = _canonical_metrics(
                tmp_path / "out" / "erm" / f"seed{seed}" / "heldout3" / "metrics.csv")
            for name in ("lfme", "erm_plus", "ls"):
                other = _canonical_metrics(
                    tmp_path / "out" / name / f"seed{seed}" / "heldout3" / "metrics.csv")
                assert other == base, f"{name} seed {seed} diverged from erm"
        assert time.time() - t0 < 120.0


# ---------------------------------------------------------------------------
# 4. rescale-factor algebra and the training-trend sign
# ---------------------------------------------------------------------------

class TestRescaleFactor:
    def test_algebra_and_negative_trend(self, battery):
        rng = np.random.default_rng(3)
        qe = np.sort(rng.uniform(0, 1, size=10_000))
        for alpha in (0.05, 1.0, 7.5):
            q_star, z_star = 0.6, rng.uniform(-1, 2)
            f = np.array([an.rescale_gt(q_star, v, z_star, alpha) for v in qe])
            fp = np.array([an.rescale_nongt(q_star, v, float(z_star), alpha)
                           for v in qe])
            assert np.all(np.diff(f) > 0)
            assert np.all(np.diff(fp) > 0)
        for _ in range(100):
            others = rng.normal(size=4)
            sum_others = float(others.sum())
            z_star = 1.0 - sum_others          # logits sum to one by construction
            q_star, qe_star, alpha = rng.uniform(0.05, 0.9), rng.uniform(0, 1), 1.3
            f = an.rescale_gt(q_star, qe_star, z_star, alpha)
            fp = an.rescale_nongt(q_star, qe_star, sum_others, alpha)
            assert f == fp

        points = [f for row in battery["seeds"] for f in row["f_points"]]
        frac_negative = np.mean([f < 0 for f in points])
        assert battery["elapsed"] < 1800.0
        assert frac_negative >= 0.9, (
            f"post-warmup mean rescale factor negative at only "
            f"{frac_negative:.0%} of probe points")


# ---------------------------------------------------------------------------
# 5. guided training smooths the output distribution
# ---------------------------------------------------------------------------

class TestSmoothing:
    def test_entropy_rises_and_logit_sums_stay_near_one(self, battery):
        ent_wins = sum(row["entropy"]["lfme"] > row["entropy"]["erm"]
                       for row in battery["seeds"])
        sum_hits = sum(0.6 <= row["logit_sum"] <= 1.4 for row in battery["seeds"])
        assert ent_wins >= 8, f"entropy higher in only {ent_wins}/{N_SEEDS} seeds"
        assert sum_hits >= 8, f"logit sums in band in only {sum_hits}/{N_SEEDS} seeds"


# ---------------------------------------------------------------------------
# 6. out-of-domain accuracy gaps and weight insensitivity
# ---------------------------------------------------------------------------

class TestGeneralization:
    def test_guided_methods_beat_baseline_and_weight_is_benign(self, battery):
        erm = _mean(battery, "ood", "erm")
        lfme = _mean(battery, "ood", "lfme@1.0")
        ermp = _mean(battery, "ood", "erm_plus")
        spread = max(_mean(battery, "ood", f"lfme@{a}") for a in ALPHAS) \
            - min(_mean(battery, "ood", f"lfme@{a}") for a in ALPHAS)
        assert spread < 0.04, f"guidance-weight spread {spread:.3f}"
        assert lfme - erm >= 0.02, (
            f"guided gain {100 * (lfme - erm):+.2f} pts (erm {erm:.3f}, lfme {lfme:.3f})")
        assert ermp - erm >= 0.01, (
            f"one-hot-regression gain {100 * (ermp - erm):+.2f} pts")


# ---------------------------------------------------------------------------
# 7. in-domain accuracy ordering
# ---------------------------------------------------------------------------

class TestInDomainOrdering:
    def test_baseline_below_experts_below_guided(self, battery):
        erm = _mean(battery, "in_domain", "erm")
        experts = _mean(battery, "in_domain", "experts")
        lfme = _mean(battery, "in_domain", "lfme")
        assert experts - erm >= -0.005, f"experts {experts:.4f} < erm {erm:.4f}"
        assert lfme - experts >= -0.005, f"guided {lfme:.4f} < experts {experts:.4f}"


# ---------------------------------------------------------------------------
# 8. aggregating experts at inference does not beat the baseline (soft)
# ---------------------------------------------------------------------------

class TestAggregationBaselines:
    def test_no_aggregation_clearly_beats_baseline(self, battery):
        erm = _mean(battery, "ood", "erm")
        for kind in (tr.AGG_AVG, tr.AGG_MS, tr.AGG_CONF, tr.AGG_DYN):
            acc = _mean(battery, "agg_ood", kind)
            if acc > erm + 0.01:
                warnings.warn(
                    f"{kind} out-of-domain {acc:.3f} exceeds baseline {erm:.3f} "
                    f"by more than 1 point", stacklevel=1)


# ---------------------------------------------------------------------------
# 9. hard-sample classification ratio
# ---------------------------------------------------------------------------

class TestHardSampleRatio:
    def test_guided_wins_on_hard_samples_and_ties_on_easy(self, battery):
        wins = sum(row["ratio"]["lfme_hard"] > row["ratio"]["erm_hard"]
                   for row in battery["seeds"])
        easy_gap = abs(_mean(battery, "ratio", "lfme_easy")
                       - _mean(battery, "ratio", "erm_easy"))
        assert wins >= 8, f"hard-sample ratio higher in only {wins}/{N_SEEDS} seeds"
        assert easy_gap < 0.05, f"easy-sample ratio gap {easy_gap:.3f}"


# ---------------------------------------------------------------------------
# 10. determinism and binary round-trips
# ---------------------------------------------------------------------------

class TestDeterminismAndIO:
    def test_rerun_is_byte_identical_and_checkpoints_round_trip(self, tmp_path):
        config = {
            "suite": {"n_domains": 2, "n_classes": 4, "n_per_domain": 200,
                      "d_inv": 4, "d_spu": 4, "spurious_strength": 0.9,
                      "noise": 0.75, "seed": 5},
            "train": {"steps": 120, "eval_every": 40, "batch_per_domain": 16},
            "methods": [{"kind": "lfme", "alpha_half": 1.0}],
            "seeds": [5],
            "held_out": "last",
            "output": str(tmp_path / "a"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["train", "-c", str(cfg_path)]) == 0
        config["output"] = str(tmp_path / "b")
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["train", "-c", str(cfg_path)]) == 0
        rel = "lfme/seed5/heldout2/metrics.csv"
        first = (tmp_path / "a" / rel).read_bytes()
        second = (tmp_path / "b" / rel).read_bytes()
        assert first == second

        ckpt = tmp_path / "a" / "lfme" / "seed5" / "heldout2" / "target.ckpt"
        model = mm.load_checkpoint(ckpt).arrays
        probe = np.random.default_rng(0).normal(size=(32, 8))
        before = mm.forward_array(model, probe)
        mm.save_checkpoint(model, tmp_path / "copy.ckpt", role="target", index=0,
                           step=0, seed=5)
        again = mm.load_checkpoint(tmp_path / "copy.ckpt").arrays
        after = mm.forward_array(again, probe)
        assert np.array_equal(before, after)
