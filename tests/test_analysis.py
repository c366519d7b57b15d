import numpy as np
import pytest

from lfme_lab import analysis as an
from lfme_lab import train as tr
from lfme_lab.domains import SuiteSpec, generate_suite
from oracles import classification_ratio


class TestRescaleFactors:
    def test_alpha_zero_is_one(self):
        assert an.rescale_gt(0.5, 0.9, 1.0, 0.0) == 1.0
        assert an.rescale_nongt(0.5, 0.9, 0.3, 0.0) == 1.0

    def test_gt_substitution(self):
        assert abs(an.rescale_gt(0.8, 0.9, 1.0, 1.0) - 0.5) < 1e-15

    def test_gt_negative_case(self):
        assert abs(an.rescale_gt(0.8, 0.4, 1.2, 1.0) - (-3.0)) < 1e-12

    def test_nongt_substitution(self):
        assert abs(an.rescale_nongt(0.8, 0.9, 0.0, 1.0) - 0.5) < 1e-15

    def test_equal_when_logits_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = rng.uniform(-1, 2, 5)
            z = z - (z.sum() - 1.0) / 5          # force sum(z) == 1
            q = tr.softmax_np(z[None, :])[0]
            qe_star = float(rng.uniform(0, 1))
            alpha = float(rng.uniform(0.01, 10))
            star = int(rng.integers(5))
            f = an.rescale_gt(q[star], qe_star, z[star], alpha)
            fp = an.rescale_nongt(q[star], qe_star, z.sum() - z[star], alpha)
            assert abs(f - fp) < 1e-9

    def test_monotone_in_expert_confidence(self):
        grid = np.linspace(0.0, 1.0, 101)
        f_vals = [an.rescale_gt(0.6, qe, 0.8, 2.0) for qe in grid]
        fp_vals = [an.rescale_nongt(0.6, qe, 0.3, 2.0) for qe in grid]
        assert np.all(np.diff(f_vals) > 0)
        assert np.all(np.diff(fp_vals) > 0)

    def test_saturated_probability_rejected(self):
        with pytest.raises(an.AnalysisError):
            an.rescale_gt(1.0, 0.5, 0.5, 1.0)
        with pytest.raises(an.AnalysisError):
            an.rescale_nongt(1.0 - 1e-12, 0.5, 0.5, 1.0)


class TestEntropy:
    def test_one_hot_zero(self):
        assert an.entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_uniform(self):
        assert abs(an.entropy(np.full(4, 0.25)) - np.log(4)) < 1e-12

    def test_matches_oracle_on_rows(self):
        rng = np.random.default_rng(1)
        q = tr.softmax_np(rng.normal(size=(10, 6)))
        for row in q:
            assert abs(an.entropy(row) - (-(row * np.log(row)).sum())) < 1e-12
        assert abs(an.entropy(q) - np.mean([-(r * np.log(r)).sum() for r in q])) < 1e-12


def ratio(p, star) -> float:
    """``classification_ratio_rows`` of the one row ``p``."""
    return float(an.classification_ratio_rows(np.array([p]), np.array([star]))[0])


class TestClassificationRatio:
    def test_max_gives_one(self):
        assert ratio([0.1, 0.7, 0.2], 1) == 1.0

    def test_min_gives_zero(self):
        assert ratio([0.1, 0.7, 0.2], 0) == 0.0

    def test_hand_normalization(self):
        assert abs(ratio([0.5, 0.3, 0.2], 1) - 1.0 / 3.0) < 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        probs = rng.random((20, 6))
        stars = rng.integers(6, size=20)
        a = rng.uniform(0.1, 5, size=(20, 1))
        b = rng.uniform(-3, 3, size=(20, 1))
        assert np.allclose(an.classification_ratio_rows(probs, stars),
                           an.classification_ratio_rows(a * probs + b, stars),
                           rtol=0.0, atol=1e-9)

    def test_constant_row_is_nan(self):
        assert np.isnan(ratio([0.25] * 4, 0))

    def test_rows_match_one_row_oracle(self):
        rng = np.random.default_rng(4)
        probs = tr.softmax_np(rng.normal(size=(30, 5)))
        stars = rng.integers(5, size=30)
        rows = an.classification_ratio_rows(probs, stars)
        assert rows.tolist() == [classification_ratio(p, s) for p, s in zip(probs, stars)]

    def test_oracle_rejects_a_constant_row(self):
        with pytest.raises(an.AnalysisError):
            classification_ratio(np.full(4, 0.25), 0)


class TestSplitHardEasy:
    def test_tie_by_index(self):
        hard, easy = an.split_hard_easy(np.ones(6))
        assert hard.tolist() == [0, 1]
        assert easy.tolist() == [0, 1]

    def test_ceil_count(self):
        hard, easy = an.split_hard_easy(np.array([3.0, 1.0, 2.0]))
        assert len(hard) == 1 and hard[0] == 0
        assert len(easy) == 1 and easy[0] == 1

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(3)
        losses = rng.random(30)
        hard, easy = an.split_hard_easy(losses)
        order = np.argsort(-losses, kind="stable")
        assert set(hard) == set(order[:10])
        assert set(easy) == set(np.argsort(losses, kind="stable")[:10])


class TestHarness:
    def suite(self):
        return generate_suite(SuiteSpec(n_domains=2, n_classes=3, n_per_domain=200,
                                        d_inv=3, d_spu=3, spurious_strength=0.8,
                                        noise=0.4, seed=5))

    def config(self):
        return tr.TrainConfig(steps=60, eval_every=30, batch_per_domain=16, seed=5)

    def test_constant_model_accuracy_is_majority_prior(self):
        # A model predicting one class scores the class prior of that class.
        suite = self.suite()
        held = suite[-1]
        from lfme_lab import models as mm
        model = mm.init_mlp([6, 3], seed=0)
        model.weights[0].data[:] = 0.0
        model.biases[0].data[:] = np.array([10.0, 0.0, 0.0])
        acc = tr.accuracy([p.data for p in model.parameters()], held.features, held.labels)
        assert acc == float(np.mean(held.labels == 0))

    def test_report_traces(self):
        suite = self.suite()
        sources = suite[:2]
        run = tr.train_run(sources, tr.MethodSpec(tr.LFME, alpha_half=1.0),
                           self.config(), held_out=suite[2])
        rep = an.report_from_run(run)
        assert all(np.isfinite(ev.rescale_f) and np.isfinite(ev.rescale_fp) for ev in run.evals)
        assert len(rep.ratio_hard_trace) == len(run.evals)
        assert all(0.0 <= r <= 1.0 for r in rep.ratio_hard_trace)
