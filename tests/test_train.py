import gc
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from lfme_lab import analysis as an
from lfme_lab import autodiff as ad
from lfme_lab import models as mm
from lfme_lab import train as tr
from lfme_lab.domains import SuiteSpec, generate_suite, make_batches, one_hot


def small_suite(seed=21, **kw):
    base = dict(n_domains=3, n_classes=4, n_per_domain=300, d_inv=4, d_spu=4,
                spurious_strength=0.8, noise=0.4, seed=seed)
    base.update(kw)
    return generate_suite(SuiteSpec(**base))


def quick_config(**kw):
    base = dict(steps=120, eval_every=40, batch_per_domain=16, seed=3)
    base.update(kw)
    return tr.TrainConfig(**base)


def guided_loss(kind, z, y, alpha_half=1.0, ls_epsilon=0.1, hard_weight_beta=1.0, **guides):
    """``train.target_loss`` for one kind, with ``y`` and the given guide arrays."""
    method = tr.MethodSpec(kind, alpha_half=alpha_half, ls_epsilon=ls_epsilon,
                           hard_weight_beta=hard_weight_beta)
    return tr.target_loss(method, z, {"y": y, **guides})


class TestLosses:
    @staticmethod
    def expert_term(z, y):
        return tr.loss_expert(ad.cross_entropy_rows(ad.softmax(ad.tensor(z)), y))

    def test_expert_loss_huge_margin(self):
        z = np.array([[[50.0, 0.0, 0.0]]])
        y = one_hot(np.array([0]), 3)[None]
        assert self.expert_term(z, y).item() < 1e-12

    def test_expert_loss_zero_logits(self):
        z = np.array([[[0.0, 0.0, 0.0]]])
        y = one_hot(np.array([1]), 3)[None]
        assert abs(self.expert_term(z, y).item() - np.log(3)) < 1e-12

    def test_expert_loss_matches_composition(self):
        # The sum over experts of each expert's sum(cross_entropy_rows) * (1/B),
        # added left to right, as separate per-expert terms add up.
        rng = np.random.default_rng(0)
        z = rng.normal(size=(3, 6, 5))
        y = one_hot(rng.integers(5, size=18), 5).reshape(3, 6, 5)
        direct = self.expert_term(z, y).item()
        terms = [ad.scale(ad.sum_all(ad.cross_entropy_rows(ad.softmax(ad.tensor(z[m])), y[m])),
                          1.0 / 6) for m in range(3)]
        composed = ad.add(ad.add(terms[0], terms[1]), terms[2]).item()
        assert direct == composed

    def test_lfme_alpha_zero_is_erm(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 3))
        y = one_hot(rng.integers(3, size=4), 3)
        qe = tr.softmax_np(rng.normal(size=(4, 3)))
        assert (guided_loss(tr.LFME, ad.tensor(z), y, alpha_half=0.0, q_expert=qe).item()
                == ad.cross_entropy(ad.softmax(ad.tensor(z)), y).item())

    def test_lfme_guidance_vanishes_at_equality(self):
        qe = np.array([[0.7, 0.3]])
        y = one_hot(np.array([0]), 2)
        full = guided_loss(tr.LFME, ad.tensor(qe), y, alpha_half=5.0, q_expert=qe).item()
        cla = ad.cross_entropy(ad.softmax(ad.tensor(qe)), y).item()
        assert abs(full - cla) < 1e-15

    def test_lfme_hand_value(self):
        z = ad.tensor([[1.0, 0.0]])
        y = one_hot(np.array([0]), 2)
        qe = np.array([[0.8, 0.2]])
        expected = -np.log(np.e / (np.e + 1)) + 0.08
        loss = guided_loss(tr.LFME, z, y, alpha_half=1.0, q_expert=qe).item()
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 0.3932616875182228) < 1e-12

    def test_lfme_misaligned_shapes(self):
        with pytest.raises(ad.ShapeError):
            guided_loss(tr.LFME, ad.tensor(np.zeros((2, 3))), one_hot(np.zeros(2, dtype=int), 3),
                        q_expert=np.zeros((3, 3)))

    def test_erm_plus_hand_value(self):
        z = ad.tensor([[0.0, 0.0]])
        y = one_hot(np.array([0]), 2)
        assert abs(guided_loss(tr.ERM_PLUS, z, y, alpha_half=1.0).item()
                   - (np.log(2) + 1.0)) < 1e-12

    def test_erm_plus_reductions(self):
        y = one_hot(np.array([0]), 2)
        z = ad.tensor([[1.0, 0.0]])
        cla = ad.cross_entropy(ad.softmax(z), np.asarray(y)).item()
        assert guided_loss(tr.ERM_PLUS, z, y, alpha_half=0.0).item() == cla
        z_onehot = ad.tensor([[1.0, 0.0]])
        guid = guided_loss(tr.ERM_PLUS, z_onehot, y, alpha_half=1.0).item() - cla
        assert guid == 0.0

    def test_ls_values(self):
        y = one_hot(np.array([0]), 2)
        z = ad.tensor([[0.0, 0.0]])
        assert abs(guided_loss(tr.LS, z, y, ls_epsilon=0.2).item() - np.log(2)) < 1e-12
        rng = np.random.default_rng(2)
        z2 = ad.tensor(rng.normal(size=(3, 2)))
        y2 = one_hot(rng.integers(2, size=3), 2)
        assert (guided_loss(tr.LS, z2, y2, ls_epsilon=0.0).item()
                == ad.cross_entropy(ad.softmax(ad.tensor(z2.data)), y2).item())

    def test_kd_variants(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(2, 3))
        y = one_hot(rng.integers(3, size=2), 3)
        ze = rng.normal(size=(2, 3))
        qe = tr.softmax_np(ze)
        cla = ad.cross_entropy(ad.softmax(ad.tensor(z)), y).item()
        # identical logits: zz guidance vanishes
        y2 = one_hot(np.zeros(2, dtype=int), 3)
        same = guided_loss(tr.KD_ZZ, ad.tensor(ze), y2, z_expert=ze, q_expert=qe,
                           alpha_half=1.0).item()
        base = ad.cross_entropy(ad.softmax(ad.tensor(ze)), y2).item()
        assert abs(same - base) < 1e-15
        # weight 0 reduces every kind to the plain loss
        for kind in (tr.KD_ZZ, tr.KD_QZ, tr.KD_QQ):
            assert guided_loss(kind, ad.tensor(z), y, z_expert=ze, q_expert=qe,
                               alpha_half=0.0).item() == cla

    def test_kd_qq_hand_value(self):
        z = np.log(np.array([[0.6, 0.4]]))
        q = tr.softmax_np(z)
        assert np.allclose(q, [[0.6, 0.4]])
        qe = np.array([[0.5, 0.5]])
        y = one_hot(np.array([0]), 2)
        cla = ad.cross_entropy(ad.softmax(ad.tensor(z)), y).item()
        total = guided_loss(tr.KD_QQ, ad.tensor(z), y, z_expert=z, q_expert=qe,
                            alpha_half=1.0).item()
        assert abs((total - cla) - 0.02) < 1e-12

    def test_kd_ce_ramp(self):
        assert tr.kd_weight(1.0, 0, 100) == 0.0
        assert tr.kd_weight(1.0, 50, 100) == 0.5
        assert tr.kd_weight(1.0, 500, 100) == 1.0
        assert tr.kd_weight(0.7, 10, None) == 0.7

    def test_kd_ce_at_step_zero_is_cla(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(3, 4))
        y = one_hot(rng.integers(4, size=3), 4)
        qe = tr.softmax_np(rng.normal(size=(3, 4)))
        wt = tr.kd_weight(1.0, 0, 200)
        got = guided_loss(tr.KD_CE, ad.tensor(z), y, q_expert=qe, kd_ce_weight=wt).item()
        assert got == ad.cross_entropy(ad.softmax(ad.tensor(z)), y).item()

    def test_self_guid_value_and_detach(self):
        y = one_hot(np.array([0]), 2)
        z = ad.tensor([[0.0, 0.0]])
        cla = ad.cross_entropy(ad.softmax(z), y).item()
        assert abs((guided_loss(tr.SELF_GUID, z, y, alpha_half=1.0).item() - cla) - 0.5) < 1e-15
        z = ad.parameter(np.array([[0.8, -0.3]]))
        ad.backward(guided_loss(tr.SELF_GUID, z, y, alpha_half=1.0))
        # the guidance gradient flows only through the logit branch: d/dz of ||z - c||^2
        q = tr.softmax_np(z.data)
        assert np.allclose(z.grad, (q - y) + 2 * (z.data - q), rtol=0, atol=1e-14)

    def test_lfme_guid(self):
        assert tr.METHODS[tr.LFME_GUID].guidance == ("q", "q_teacher")
        z = ad.tensor([[0.0, 0.0]])
        y = one_hot(np.array([0]), 2)
        cla = ad.cross_entropy(ad.softmax(z), y).item()
        total = guided_loss(tr.LFME_GUID, z, y, q_teacher=np.array([[0.0, 1.0]]), alpha_half=1.0)
        assert abs((total.item() - cla) - 0.5) < 1e-15
        rng = np.random.default_rng(5)
        z = ad.tensor(rng.normal(size=(4, 3)))
        y = one_hot(rng.integers(3, size=4), 3)
        a, b = tr.softmax_np(z.data), tr.softmax_np(rng.normal(size=(4, 3)))
        cla = ad.cross_entropy(ad.softmax(z), y).item()
        assert guided_loss(tr.LFME_GUID, z, y, q_teacher=a, alpha_half=1.0).item() == cla
        total = guided_loss(tr.LFME_GUID, z, y, q_teacher=b, alpha_half=1.0).item()
        assert abs((total - cla) - ((a - b) ** 2).sum() / 4) < 1e-15

    def test_guidance_pair_table(self):
        assert {k: m.guidance for k, m in tr.METHODS.items() if m.guidance} == {
            tr.LFME: ("z", "q_expert"), tr.ERM_PLUS: ("z", "y"),
            tr.KD_ZZ: ("z", "z_expert"), tr.KD_QZ: ("q", "z_expert"),
            tr.KD_QQ: ("q", "q_expert"), tr.SELF_GUID: ("z", "q"),
            tr.LFME_GUID: ("q", "q_teacher"),
            tr.ERMP_W_EXPT: ("z", "y"), tr.ERMP_W_SELF: ("z", "y"),
        }

    def test_method_table_columns(self):
        def kinds(column):
            return {k for k, m in tr.METHODS.items() if getattr(m, column)}
        aggregation = {tr.AGG_AVG, tr.AGG_MS, tr.AGG_CONF, tr.AGG_DYN}
        assert kinds("aggregate") == aggregation and kinds("weighting") == {tr.AGG_DYN}
        assert kinds("experts") == aggregation | {tr.LFME, tr.KD_ZZ, tr.KD_QZ, tr.KD_QQ,
                                                  tr.KD_CE, tr.ERMP_W_EXPT}
        assert tr.METHOD_KINDS == tuple(tr.METHODS)

    @pytest.mark.parametrize("kind", sorted(k for k, m in tr.METHODS.items() if m.guidance))
    def test_guidance_pairs_match_formula(self, kind):
        # cross_entropy(q, y) + alpha_half * ||a - b||^2 / B, with (a, b) from the table
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 4))
        y = one_hot(rng.integers(4, size=5), 4)
        q = tr.softmax_np(z)
        guides = {"z_expert": rng.normal(size=(5, 4)),
                  "q_expert": tr.softmax_np(rng.normal(size=(5, 4))),
                  "q_teacher": tr.softmax_np(rng.normal(size=(5, 4)))}
        named = {**guides, "y": y, "z": z, "q": q}
        a, b = tr.METHODS[kind].guidance
        expected = (-(y * np.log(q)).sum() / 5 + 0.7 * ((named[a] - named[b]) ** 2).sum() / 5)
        got = guided_loss(kind, ad.tensor(z), y, alpha_half=0.7, hard_weight_beta=0.0, **guides)
        assert abs(got.item() - expected) < 1e-12

    def test_hard_weights(self):
        assert np.allclose(tr.hard_weights(np.ones(5), 2.0), 1.0)
        assert np.allclose(tr.hard_weights(np.array([0.3, 1.7]), 0.0), 1.0)
        w = tr.hard_weights(np.array([0.0, 2.0]), 1.0)
        assert abs(w[0] - 0.1) < 1e-7 and abs(w[1] - 2.0) < 1e-7
        with pytest.raises(tr.ConfigError):
            tr.hard_weights(np.array([]), 1.0)


class TestGradientIdentity:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = int(rng.integers(2, 11))
            z = ad.parameter(rng.uniform(-3, 3, (1, k)))
            y = one_hot(rng.integers(k, size=1), k)
            qe = tr.softmax_np(rng.normal(size=(1, k)))
            alpha = float(rng.uniform(0.01, 10))
            loss = guided_loss(tr.LFME, z, y, alpha_half=alpha / 2.0, q_expert=qe)
            ad.backward(loss)
            q = tr.softmax_np(z.data)
            expected = q - y + alpha * (z.data - qe)
            assert np.max(np.abs(z.grad - expected)) < 1e-10


class TestOptimizers:
    def test_zero_lr_no_change(self):
        for cls in (tr.SgdMomentum, tr.Adam):
            p = ad.parameter(np.array([1.0, -2.0]))
            opt = cls([p], lr=0.0)
            p.grad[...] = [5.0, -3.0]
            opt.step()
            assert np.array_equal(p.data, [1.0, -2.0])

    def test_adam_first_step(self):
        p = ad.parameter(np.array([0.0]))
        opt = tr.Adam([p], lr=0.1)
        p.grad[...] = [1.0]
        opt.step()
        # first-step update is -lr * g/(|g| + eps) ~ -lr
        assert abs(p.data[0] + 0.1) < 1e-7

    def test_sgd_momentum_two_steps(self):
        p = ad.parameter(np.array([0.0]))
        opt = tr.SgdMomentum([p], lr=0.1)
        p.grad[...] = [1.0]
        opt.step()
        assert abs(p.data[0] + 0.1) < 1e-15          # v=1
        p.grad[...] = [1.0]
        opt.step()
        assert abs(p.data[0] + 0.1 + 0.19) < 1e-15   # v=1.9

    def test_weight_decay_coupled(self):
        p = ad.parameter(np.array([2.0]))
        opt = tr.SgdMomentum([p], lr=1.0, weight_decay=0.5)
        p.grad[...] = [0.0]
        opt.step()
        assert abs(p.data[0] - 1.0) < 1e-15


class RefSgdMomentum:
    """Per-tensor SGD with momentum: the formulas the flat optimizer must match bitwise."""

    def __init__(self, params, lr, weight_decay=0.0, momentum=0.9):
        self.params, self.lr, self.weight_decay, self.momentum = params, lr, weight_decay, momentum
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self):
        for p, v in zip(self.params, self.velocity):
            g = p.grad + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= self.lr * v


class RefAdam:
    """Per-tensor Adam: the formulas the flat optimizer must match bitwise."""

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.beta1, self.beta2, self.eps, self.t = beta1, beta2, eps, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def joint_models():
    return [mm.init_mlp([5, 7, 3], seed=60), mm.init_mlp([5, 4, 6, 3], seed=61)]


def joint_loss(models, step):
    rng = np.random.default_rng([62, step])
    x = ad.tensor(rng.normal(size=(9, 5)))
    y = one_hot(rng.integers(3, size=9), 3)
    loss = None
    for model in models:
        term = ad.cross_entropy(ad.softmax(mm.forward(model, x)), y)
        loss = term if loss is None else ad.add(loss, term)
    return loss


class TestFlatOptimizers:
    @pytest.mark.parametrize("flat_cls, ref_cls, kw", [
        (tr.Adam, RefAdam, dict(lr=0.05, weight_decay=1e-2)),
        (tr.SgdMomentum, RefSgdMomentum, dict(lr=0.05, weight_decay=1e-2)),
    ])
    def test_bitwise_equal_to_per_tensor_reference(self, flat_cls, ref_cls, kw):
        flat_models, ref_models = joint_models(), joint_models()
        flat_params = [p for m in flat_models for p in m.parameters()]
        ref_params = [p for m in ref_models for p in m.parameters()]
        assert len({p.data.shape for p in flat_params}) >= 5
        opt, ref = flat_cls(flat_params, **kw), ref_cls(ref_params, **kw)
        for step in range(25):
            for p in ref_params:
                p.grad = None
            opt.update(joint_loss(flat_models, step))
            ad.backward(joint_loss(ref_models, step))
            ref.step()
            assert all(np.shares_memory(p.grad, opt.grad) for p in flat_params)
            for a, b in zip(flat_params, ref_params):
                assert np.array_equal(a.data, b.data)
        assert not np.array_equal(flat_params[0].data, joint_models()[0].weights[0].data)
        opt.release()
        assert all(p.grad is None for p in flat_params)

    def test_parameters_become_views_of_one_buffer(self):
        params = [p for m in joint_models() for p in m.parameters()]
        before = [p.data.copy() for p in params]
        opt = tr.Adam(params, lr=0.1)
        assert opt.data.size == sum(a.size for a in before)
        for p, a in zip(params, before):
            assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)
            assert np.array_equal(p.data, a) and not p.grad.any()

    def test_duplicate_parameter_rejected(self):
        p = ad.parameter(np.ones(2))
        for cls in (tr.SgdMomentum, tr.Adam):
            with pytest.raises(ValueError, match="twice"):
                cls([p, ad.parameter(np.ones(1)), p], lr=0.1)

    @pytest.mark.parametrize("cls", [tr.SgdMomentum, tr.Adam])
    def test_step_allocates_at_most_one_parameter_sized_buffer(self, cls):
        params = [ad.parameter(np.ones((100, 50))), ad.parameter(np.ones(50))]
        opt = cls(params, lr=0.1, weight_decay=0.01)
        for _ in range(2):
            for p in params:
                p.grad[...] = 1.0
            tracemalloc.start()
            try:
                opt.step()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < opt.data.nbytes + 1024


class TestStackedExperts:
    """The stacked expert path against the per-expert 2-D path it replaces."""

    DIMS = [8, 16, 12, 4]

    def experts(self):
        return [mm.init_mlp(self.DIMS, [5, 12, i]) for i in range(3)]

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_joint_step_equals_per_expert_steps_bitwise(self, optimizer):
        sources = small_suite(n_domains=4)[:3]
        k, b = sources[0].n_classes, 16
        per_expert = self.experts()
        stacked = mm.stack_models(self.experts())
        config = quick_config(optimizer=optimizer, lr=0.05, weight_decay=1e-2)
        opt_s = tr.make_optimizer(stacked.parameters(), config)
        opt_e = tr.make_optimizer([p for e in per_expert for p in e.parameters()], config)
        from lfme_lab.domains import make_batches
        for step in range(3):
            batch = make_batches(sources, b, seed=0, step=step)
            z = mm.forward(stacked, ad.tensor(batch.xs))
            loss = tr.loss_expert(ad.cross_entropy_rows(ad.softmax(z), one_hot(batch.y_all, k)
                                                        .reshape(3, b, k)))
            ref, zs = None, []
            for i, e in enumerate(per_expert):
                z_i = mm.forward(e, ad.tensor(batch.xs[i]))
                rows_i = ad.cross_entropy_rows(ad.softmax(z_i), one_hot(batch.ys[i], k))
                term = ad.scale(ad.sum_all(rows_i), 1.0 / b)
                ref = term if ref is None else ad.add(ref, term)
                zs.append(z_i.data)
            for opt in (opt_s, opt_e):
                opt.zero_grad()
            ad.backward(loss)
            ad.backward(ref)
            assert np.array_equal(z.data, np.stack(zs))
            assert loss.item() == ref.item()
            for i, e in enumerate(per_expert):
                for ps, pe in zip(stacked.parameters(), e.parameters()):
                    assert np.array_equal(ps.grad[i], pe.grad)
            opt_s.step()
            opt_e.step()
            for i, e in enumerate(per_expert):
                for ps, pe in zip(stacked.parameters(), e.parameters()):
                    assert np.array_equal(ps.data[i], pe.data)

    def test_views_follow_steps_and_recorded_copies_do_not(self):
        stacked = mm.stack_models(self.experts())
        opt = tr.Adam(stacked.parameters(), lr=0.05)
        views = mm.unstack(stacked)
        recorded = [v.param_arrays() for v in views]        # as EvalPoint.expert_params
        before = [[a.copy() for a in arrays] for arrays in recorded]
        rng = np.random.default_rng(3)
        for p in stacked.parameters():
            p.grad[...] = rng.normal(size=p.data.shape)
        opt.step()
        for i, view in enumerate(views):
            for ps, pv, old in zip(stacked.parameters(), view.parameters(), before[i]):
                assert np.array_equal(pv.data, ps.data[i])
                assert not np.array_equal(pv.data, old)
        for arrays, old in zip(recorded, before):
            for a, o in zip(arrays, old):
                assert np.array_equal(a, o)

    def test_run_records_each_eval_points_experts(self):
        suite = small_suite()
        run = tr.train_run(suite[:3], tr.MethodSpec(tr.LFME), quick_config(steps=3, eval_every=1))
        first, *later = [ev.expert_params for ev in run.evals]
        assert len(first) == 3 and [a.shape for a in first[0]] == [
            (8, 64), (64,), (64, 64), (64,), (64, 4), (4,)]
        for params in later:
            assert not np.array_equal(params[0][0], first[0][0])
        assert not np.array_equal(later[0][0][0], later[1][0][0])


class TestAggregation:
    def experts(self, n=3, dims=(4, 8, 3), seed0=30):
        return [mm.init_mlp(list(dims), seed=seed0 + i) for i in range(n)]

    def test_identical_experts_degenerate(self):
        e = mm.init_mlp([4, 8, 3], seed=40)
        experts = [e, e, e]
        w = mm.init_mlp([4, 8, 3], seed=41)
        x = np.random.default_rng(0).normal(size=(5, 4))
        single = tr.softmax_np(mm.forward_array(e, x))
        for kind in (tr.AGG_AVG, tr.AGG_MS, tr.AGG_CONF, tr.AGG_DYN):
            out = tr.aggregate_predict(kind, experts, w, x)
            assert np.allclose(out, single, atol=1e-12)

    def test_avg_of_opposites(self):
        probs = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]

        class Fake:
            def __init__(self, p):
                self.p = p
        # Exercise the averaging rule directly on softmax outputs.
        out = np.mean(probs, axis=0)
        assert np.allclose(out, [[0.5, 0.5]])

    def test_conf_picks_lowest_entropy(self):
        experts = self.experts()
        x = np.random.default_rng(1).normal(size=(6, 4))
        probs = np.stack([tr.softmax_np(mm.forward_array(e, x)) for e in experts])
        ent = np.stack([an.entropy_rows(p) for p in probs])
        out = tr.aggregate_predict(tr.AGG_CONF, experts, None, x)
        for b in range(6):
            assert np.array_equal(out[b], probs[ent[:, b].argmin(), b])

    def test_ms_architecture_mismatch(self):
        bad = [mm.init_mlp([4, 8, 3], 0), mm.init_mlp([4, 16, 3], 1)]
        with pytest.raises(tr.ConfigError, match="mismatch"):
            tr.aggregate_predict(tr.AGG_MS, bad, None, np.zeros((1, 4)))

    def test_dyn_weights_probabilities(self):
        experts = self.experts()
        w = mm.init_mlp([4, 8, 3], seed=50)
        x = np.random.default_rng(2).normal(size=(4, 4))
        out = tr.aggregate_predict(tr.AGG_DYN, experts, w, x)
        weights = tr.softmax_np(mm.forward_array(w, x))
        probs = np.stack([tr.softmax_np(mm.forward_array(e, x)) for e in experts])
        expected = sum(weights[:, i:i + 1] * probs[i] for i in range(3))
        assert np.allclose(out, expected, atol=1e-12)
        assert np.allclose(out.sum(axis=1), 1.0)


class TestTrainLoop:
    @pytest.mark.parametrize("kind", [tr.LFME, tr.AGG_DYN])
    def test_step_graphs_leave_no_cycles(self, kind):
        suite = small_suite()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            tr.train_run(suite[:3], tr.MethodSpec(kind), quick_config(steps=100, eval_every=50),
                         held_out=suite[3])
            gc.collect()
            left = [o for o in gc.garbage if isinstance(o, (ad.Tensor, ad.GraphTape))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert left == []

    def test_erm_deterministic(self):
        suite = small_suite()
        cfg = quick_config()
        a = tr.train_run(suite[:3], tr.MethodSpec(tr.ERM), cfg, held_out=suite[3])
        b = tr.train_run(suite[:3], tr.MethodSpec(tr.ERM), cfg, held_out=suite[3])
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert a.ood_accuracy == b.ood_accuracy
        for ea, eb in zip(a.evals, b.evals):
            assert ea.val_acc == eb.val_acc

    @pytest.fixture(scope="class")
    def erm_run(self):
        suite = small_suite()
        return tr.run_method(suite[:3], tr.MethodSpec(tr.ERM), quick_config(), held_out=suite[3])

    @pytest.mark.parametrize("kind", [k for k in tr.METHOD_KINDS
                                      if k != tr.ERM and not tr.METHODS[k].aggregate])
    def test_lfme_alpha_zero_matches_erm_bitwise(self, erm_run, kind):
        # Every guidance or smoothing weight at zero collapses a kind onto ERM, bitwise.
        suite = small_suite()
        method = tr.MethodSpec(kind, alpha_half=0.0, ls_epsilon=0.0, hard_weight_beta=0.0)
        run = tr.run_method(suite[:3], method, quick_config(), held_out=suite[3])
        assert np.array_equal(erm_run.target_loss_trace, run.target_loss_trace)
        assert erm_run.ood_accuracy == run.ood_accuracy
        assert len(erm_run.evals) == len(run.evals)
        for ea, eb in zip(erm_run.evals, run.evals):
            assert ea.val_acc == eb.val_acc and ea.train_acc == eb.train_acc
            assert ea.val_entropy == eb.val_entropy
            assert np.array_equal(ea.target_params[0], eb.target_params[0])

    def test_expert_gradients_blocked_from_guidance(self):
        # One manual joint step: the guidance term must leave expert grads at zero.
        suite = small_suite()
        sources = suite[:3]
        k = sources[0].n_classes
        experts = [mm.init_mlp([8, 8, k], seed=i) for i in range(3)]
        target = mm.init_mlp([8, 8, k], seed=9)
        from lfme_lab.domains import make_batches
        batch = make_batches(sources, 8, seed=0, step=0)
        q_parts = []
        for i, e in enumerate(experts):
            z_i = mm.forward(e, ad.tensor(batch.xs[i]))
            q_parts.append(ad.softmax(z_i).data)
        qe = np.concatenate(q_parts)
        z = mm.forward(target, ad.tensor(batch.x_all))
        guid = ad.scale(ad.mse(z, ad.tensor(qe)), 1.0)
        ad.backward(guid)
        for e in experts:
            for p in e.parameters():
                assert p.grad is None
        assert target.weights[0].grad is not None

    def test_single_step_matches_hand_update(self):
        # 1-sample, single linear layer, plain SGD: check the closed form.
        x = np.array([[1.0, 2.0]])
        y = one_hot(np.array([0]), 2)
        qe = np.array([[0.9, 0.1]])
        alpha_half = 0.5
        model = mm.init_mlp([2, 2], seed=1)
        opt = tr.SgdMomentum(model.parameters(), lr=0.1)
        w0 = model.weights[0].data.copy()
        z = mm.forward(model, ad.tensor(x))
        z_val = z.data.copy()
        loss = guided_loss(tr.LFME, z, y, alpha_half=alpha_half, q_expert=qe)
        ad.backward(loss)
        q = tr.softmax_np(z_val)
        dz = q - y + 2 * alpha_half * (z_val - qe)
        expected_wgrad = x.T @ dz
        assert np.allclose(model.weights[0].grad, expected_wgrad, atol=1e-12)
        opt.step()
        assert np.allclose(model.weights[0].data, w0 - 0.1 * expected_wgrad, atol=1e-15)

    def test_erm_learns_separable_suite(self):
        suite = small_suite(noise=0.05, d_spu=0, spurious_strength=1.0)
        cfg = quick_config(steps=400, eval_every=100)
        run = tr.train_run(suite[:3], tr.MethodSpec(tr.ERM), cfg)
        assert run.selected.mean_val_acc >= 0.99

    def test_loss_trace_decreases(self):
        suite = small_suite(noise=0.05, d_spu=0, spurious_strength=1.0)
        cfg = quick_config(steps=400, eval_every=100)
        run = tr.train_run(suite[:3], tr.MethodSpec(tr.ERM), cfg)
        smooth = np.convolve(run.loss_trace, np.ones(50) / 50, mode="valid")
        assert smooth[-1] < smooth[0]

    def test_weighted_beta_zero_matches_erm_plus(self):
        suite = small_suite()
        cfg = quick_config()
        plus = tr.train_run(suite[:3], tr.MethodSpec(tr.ERM_PLUS, alpha_half=0.5), cfg)
        wself = tr.train_run(suite[:3], tr.MethodSpec(tr.ERMP_W_SELF, alpha_half=0.5,
                                                      hard_weight_beta=0.0), cfg)
        assert np.array_equal(plus.target_loss_trace, wself.target_loss_trace)

    def test_weighted_single_step_hand_check(self):
        # B=2 toy: weighted per-sample loss must equal sum(w_i * l_i) / 2.
        z = ad.parameter(np.array([[2.0, 0.0], [0.0, 1.0]]))
        y = one_hot(np.array([0, 0]), 2)
        v = ad.add(ad.cross_entropy_rows(ad.softmax(z), y),
                   ad.scale(ad.sq_norm_rows(z, y), 0.5))
        w = tr.hard_weights(v.data, 1.0)
        loss = ad.weighted_mean(v, w).item()
        assert abs(loss - float((v.data * w).sum() / 2)) < 1e-15

    def test_aggregation_run(self):
        suite = small_suite()
        cfg = quick_config()
        run = tr.train_run(suite[:3], tr.MethodSpec(tr.AGG_DYN), cfg, held_out=suite[3])
        assert run.ood_accuracy is not None
        assert run.selected.target_params is None
        assert run.selected.weighting_params is not None

    @pytest.mark.parametrize("spec, bad", [
        (tr.MethodSpec, {"kind": "nonsense"}), (tr.MethodSpec, {"kind": "ls", "ls_epsilon": 1.0}),
        (tr.MethodSpec, {"kind": "lfme", "alpha_half": -1.0}),
        (tr.TrainConfig, {"optimizer": "rmsprop"}), (tr.TrainConfig, {"steps": 0}),
        (tr.TrainConfig, {"hidden_dims": [4, 0]}), (tr.TrainConfig, {"lr": float("nan")}),
    ], ids=["kind", "ls_epsilon", "alpha_half", "optimizer", "steps", "hidden_dims", "lr"])
    def test_invalid_spec_raises_when_built(self, spec, bad):
        with pytest.raises(tr.ConfigError):
            spec(**bad)

    @pytest.mark.parametrize("n_sources, batch, match", [
        (1, 16, "at least 2 source domains, got 1"),
        (3, 10_000, r"batch_per_domain 10000 exceeds the \d+ train rows of source domain0"),
    ], ids=["one-source", "oversized-batch"])
    def test_sources_are_checked_before_the_run_starts(self, monkeypatch, n_sources, batch,
                                                       match):
        def fail(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(tr, "make_batches", fail)
        monkeypatch.setattr(mm, "init_mlp", fail)
        suite = small_suite()
        with pytest.raises(tr.ConfigError, match=match):
            tr.train_run(suite[:n_sources], tr.MethodSpec(tr.LFME),
                         quick_config(batch_per_domain=batch))

    def test_lfme_guid_needs_teacher(self):
        suite = small_suite()
        with pytest.raises(tr.ConfigError, match="teacher"):
            tr.train_run(suite[:3], tr.MethodSpec(tr.LFME_GUID), quick_config())

    def test_run_method_lfme_guid(self):
        suite = small_suite()
        cfg = quick_config(steps=60, eval_every=30)
        run = tr.run_method(suite[:3], tr.MethodSpec(tr.LFME_GUID, alpha_half=1.0), cfg,
                            held_out=suite[3])
        assert run.ood_accuracy is not None


class TestRunLifecycle:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("kind", [tr.LFME, tr.AGG_DYN])
    def test_last_evaluation_runs_without_the_optimizer(self, monkeypatch, kind, optimizer):
        made, seen = [], []
        make_optimizer, evaluate = tr.make_optimizer, tr._evaluate

        def recording_make_optimizer(params, config):
            opt = make_optimizer(params, config)
            made.append((weakref.ref(opt), opt.params))
            return opt

        def recording_evaluate(step, *args):
            # Every optimizer the run made: the experts' and the head's.
            seen.append((step, [ref() is not None for ref, _ in made],
                         [p.grad is None for _, params in made for p in params]))
            return evaluate(step, *args)

        monkeypatch.setattr(tr, "make_optimizer", recording_make_optimizer)
        monkeypatch.setattr(tr, "_evaluate", recording_evaluate)
        suite = small_suite()
        run = tr.train_run(suite[:3], tr.MethodSpec(kind), quick_config(
            steps=6, eval_every=2, optimizer=optimizer), held_out=suite[3])
        assert len(made) == 2
        assert [step for step, _, _ in seen] == [1, 3, 5]
        for _, live, grad_none in seen[:-1]:
            assert all(live) and not any(grad_none)
        _, live, grad_none = seen[-1]
        assert not any(live) and all(grad_none)
        assert run.ood_accuracy is not None

    @pytest.mark.parametrize("kind", [tr.LFME, tr.AGG_DYN])
    def test_each_steps_activations_die_in_its_backward(self, monkeypatch, kind):
        # One group of weakrefs per backward: the hidden activations the training
        # forward before it saved. A step that trains its experts runs two, the
        # experts' and then the head's; a group closes when its backward returns.
        groups, closed_alive_at_forward, alive_at_eval = [[]], [], []
        mlp, forward, backward, evaluate = ad.mlp, mm.forward, ad.backward, tr._evaluate

        def alive(closed):
            return sum(ref() is not None for group in closed for ref in group)

        def recording_mlp(x, weights, biases):
            out = mlp(x, weights, biases)
            if out.backward_fn is not None:
                fn = out.backward_fn
                saved = fn.__closure__[fn.__code__.co_freevars.index("saved")].cell_contents
                groups[-1].extend(weakref.ref(h_in) for h_in, _ in saved[1:])
            return out

        def recording_forward(model, x):
            closed_alive_at_forward.append(alive(groups[:-1]))
            return forward(model, x)

        def recording_backward(loss):
            backward(loss)
            groups.append([])

        def recording_evaluate(step, *args):
            alive_at_eval.append(alive(groups))
            return evaluate(step, *args)

        monkeypatch.setattr(ad, "mlp", recording_mlp)
        monkeypatch.setattr(mm, "forward", recording_forward)
        monkeypatch.setattr(ad, "backward", recording_backward)
        monkeypatch.setattr(tr, "_evaluate", recording_evaluate)
        suite = small_suite()
        tr.train_run(suite[:3], tr.MethodSpec(kind), quick_config(steps=6, eval_every=2),
                     held_out=suite[3])
        assert len(groups) == 2 * 6 + 1
        assert all(len(g) == len(tr.DEFAULT_HIDDEN) for g in groups[:-1])
        assert len(closed_alive_at_forward) > 12 and not any(closed_alive_at_forward)
        assert alive_at_eval == [0, 0, 0]

    def test_teacher_run_is_freed_before_the_guided_run(self, monkeypatch):
        runs, dead_at_start = [], []
        train_run = tr.train_run

        def recording_train_run(*args, **kwargs):
            dead_at_start.append([ref() is None for ref in runs])
            result = train_run(*args, **kwargs)
            runs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(tr, "train_run", recording_train_run)
        suite = small_suite()
        tr.run_method(suite[:3], tr.MethodSpec(tr.LFME_GUID), quick_config(steps=4, eval_every=2),
                      held_out=suite[3])
        assert dead_at_start == [[], [True]]


def reference_expert_probe_losses(run, sources):
    """Each selected expert, rebuilt from its record, on its own domain's probe rows."""
    probe, losses = run.probe, np.zeros(len(run.probe.y))
    for e, ds in zip(run.selected_expert_models(), sources):
        mask = probe.domain_ids == ds.domain_id
        q = np.maximum(tr.softmax_np(mm.forward_array(e, probe.x[mask])), ad.LOG_FLOOR)
        losses[mask] = -(one_hot(probe.y[mask], ds.n_classes) * np.log(q)).sum(axis=1)
    return losses


class TestScoring:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("kind", [tr.LFME, tr.KD_QQ, tr.ERMP_W_EXPT, tr.AGG_AVG, tr.AGG_DYN])
    def test_expert_probe_losses_match_the_rebuilt_experts(self, kind, optimizer):
        # At lr 0.05 the selected point is an earlier one in 9 of these 10 runs.
        suite = small_suite()
        run = tr.train_run(suite[:3], tr.MethodSpec(kind), quick_config(
            steps=60, eval_every=10, lr=0.05, optimizer=optimizer), held_out=suite[3])
        with tr.blas_threads(1):
            expected = reference_expert_probe_losses(run, suite[:3])
        assert run.expert_probe_losses.shape == (len(run.probe.y),)
        assert np.array_equal(run.expert_probe_losses, expected)

    # lfme scores with the target alone; agg_dyn with 3 expert copies and the weighting net.
    @pytest.mark.parametrize("kind, expert_builds, n_models", [(tr.LFME, 0, 1), (tr.AGG_DYN, 1, 4)])
    def test_scoring_reads_only_the_records(self, monkeypatch, kind, expert_builds, n_models):
        # After the last evaluation only the held-out rows are forwarded, by models
        # built from the selected record, with the flat data buffers of both
        # optimizers, the experts' and the head's, already dead.
        buffers, evals_done, forwards, builds = [], [], [], []
        make_optimizer, evaluate = tr.make_optimizer, tr._evaluate
        forward_array = mm.forward_array
        selected_expert_models = tr.RunResult.selected_expert_models

        def recording_make_optimizer(params, config):
            opt = make_optimizer(params, config)
            buffers.append(weakref.ref(opt.data))
            return opt

        def recording_evaluate(step, *args):
            out = evaluate(step, *args)
            evals_done.append(step)
            return out

        def recording_forward_array(model, x):
            forwards.append((len(evals_done), x, all(ref() is None for ref in buffers)))
            return forward_array(model, x)

        def recording_selected_expert_models(run):
            builds.append(len(evals_done))
            return selected_expert_models(run)

        monkeypatch.setattr(tr, "make_optimizer", recording_make_optimizer)
        monkeypatch.setattr(tr, "_evaluate", recording_evaluate)
        monkeypatch.setattr(mm, "forward_array", recording_forward_array)
        monkeypatch.setattr(tr.RunResult, "selected_expert_models",
                            recording_selected_expert_models)
        suite = small_suite()
        run = tr.train_run(suite[:3], tr.MethodSpec(kind), quick_config(steps=6, eval_every=2),
                           held_out=suite[3])
        assert evals_done == [1, 3, 5] and len(buffers) == 2
        scoring = [(x, dead) for n, x, dead in forwards if n == 3]
        assert len(scoring) == n_models
        assert all(x is suite[3].features and dead for x, dead in scoring)
        assert builds == [3] * expert_builds
        assert run.ood_accuracy is not None


class TestPerStepGuides:
    """Which guides a step builds from the experts' logits, by call counts that grow
    with ``steps`` only for work done at every step."""

    @staticmethod
    def calls(monkeypatch, kind, steps):
        """Calls of ``train.softmax_np`` and ``autodiff.cross_entropy_rows`` in a run
        that replays its experts and evaluates once, at its last step."""
        suite, config = small_suite(), quick_config(steps=steps, eval_every=steps)
        tr.train_run(suite[:3], tr.MethodSpec(kind), config)     # records the experts
        counts = Counter()
        with monkeypatch.context() as patch:
            for owner, name in ((tr, "softmax_np"), (ad, "cross_entropy_rows")):
                def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)
                patch.setattr(owner, name, counted)
            tr.train_run(suite[:3], tr.MethodSpec(kind), config)
        return counts

    def growth(self, monkeypatch, kind):
        """How much each count grows from a 4-step to an 8-step run."""
        short, long = (self.calls(monkeypatch, kind, steps) for steps in (4, 8))
        return {name: long[name] - short[name] for name in ("softmax_np", "cross_entropy_rows")}

    def test_weighting_net_reads_no_expert_guide(self, monkeypatch):
        assert self.growth(monkeypatch, tr.AGG_DYN) == {"softmax_np": 0, "cross_entropy_rows": 0}

    def test_only_hard_weighting_reads_the_expert_row_losses(self, monkeypatch):
        assert self.growth(monkeypatch, tr.LFME)["cross_entropy_rows"] == 0
        # Each step: the target's row losses and the experts' row losses it is weighted by.
        assert self.growth(monkeypatch, tr.ERMP_W_EXPT)["cross_entropy_rows"] == 2 * 4


@pytest.fixture
def blas_get():
    calls = tr.blas_thread_calls()
    if calls is None:
        pytest.skip("numpy has no OpenBLAS loaded")
    return calls[0]


class TestBlasThreads:
    # hidden (128, 128) at 3 x 32 rows: 1.57M multiply-adds, which OpenBLAS splits.
    WIDE = dict(hidden_dims=(128, 128), batch_per_domain=32)

    def threads_seen(self, monkeypatch, get, config, fail_at=None):
        """The BLAS thread count at each step of an erm run, read inside the loop."""
        seen = []

        def recording_make_batches(sources, batch_per_domain, seed, step):
            if step == fail_at:
                raise RuntimeError("stop mid-run")
            seen.append(get())
            return make_batches(sources, batch_per_domain, seed, step)

        monkeypatch.setattr(tr, "make_batches", recording_make_batches)
        suite = small_suite()
        tr.train_run(suite[:3], tr.MethodSpec(tr.ERM), config, held_out=suite[3])
        return seen

    def test_madds_of_default_and_wide_steps(self):
        assert tr.step_matmul_madds(3, tr.TrainConfig(), [12, 64, 64, 5]) == 393_216
        assert tr.step_matmul_madds(3, tr.TrainConfig(**self.WIDE), [12, 128, 128, 5]) \
            == 1_572_864
        assert 393_216 < tr.SERIAL_BLAS_MADDS <= 1_572_864

    def test_default_run_steps_on_one_thread(self, monkeypatch, blas_get):
        with tr.blas_threads(2):
            seen = self.threads_seen(monkeypatch, blas_get, tr.TrainConfig(steps=4, eval_every=2))
            assert seen == [1] * 4
            assert blas_get() == 2

    def test_wide_run_keeps_callers_count(self, monkeypatch, blas_get):
        with tr.blas_threads(2):
            config = tr.TrainConfig(steps=4, eval_every=2, **self.WIDE)
            assert self.threads_seen(monkeypatch, blas_get, config) == [2] * 4
            assert blas_get() == 2

    def test_callers_count_restored_after_a_raise(self, monkeypatch, blas_get):
        with tr.blas_threads(2):
            with pytest.raises(RuntimeError, match="mid-run"):
                self.threads_seen(monkeypatch, blas_get, tr.TrainConfig(steps=4), fail_at=2)
            assert blas_get() == 2

    @pytest.mark.parametrize("kind", [tr.ERM, tr.LFME])
    def test_results_do_not_depend_on_thread_count(self, blas_get, kind):
        suite = small_suite()
        config = quick_config(steps=60, eval_every=30, **self.WIDE)
        runs = []
        for n in (1, 2):
            tr._expert_memo.clear()         # both runs train their experts
            with tr.blas_threads(n):
                assert blas_get() == n
                runs.append(tr.train_run(suite[:3], tr.MethodSpec(kind), config,
                                         held_out=suite[3]))
        a, b = runs
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert a.ood_accuracy == b.ood_accuracy
        for ea, eb in zip(a.evals, b.evals):
            for pa, pb in zip(ea.target_params, eb.target_params):
                assert np.array_equal(pa, pb)
            for xa, xb in zip(ea.expert_params or [], eb.expert_params or []):
                assert all(np.array_equal(pa, pb) for pa, pb in zip(xa, xb))
