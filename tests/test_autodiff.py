import weakref

import numpy as np
import pytest

from lfme_lab import autodiff as ad


def finite_difference(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a flat array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        g.ravel()[i] = (hi - lo) / (2 * h)
    return g


def check_grad(build_loss, arrays, rel_tol=1e-4):
    tensors = [ad.parameter(a.copy()) for a in arrays]
    loss = build_loss(*tensors)
    ad.backward(loss)
    for i, t in enumerate(tensors):
        def f(arr, i=i):
            args = [ad.tensor(x.data) for x in tensors]
            args[i] = ad.tensor(arr)
            return build_loss(*args).item()

        expected = finite_difference(f, t.data.copy())
        denom = np.maximum(np.abs(expected), 1e-3)
        assert np.max(np.abs(t.grad - expected) / denom) < rel_tol


def zero_bias(n):
    return ad.tensor(np.zeros(n))


def affine(x, w, b):
    """A one-layer ``ad.mlp``: the affine map ``x @ w + b``."""
    return ad.mlp(x, [w], [b])


class TestMatmul:
    """The product part of a one-layer ``ad.mlp``, with a zero bias."""

    def test_identity(self):
        a = ad.tensor(np.eye(2))
        b = ad.tensor([[2.0, 3.0], [4.0, 5.0]])
        assert np.array_equal(affine(a, b, zero_bias(2)).data, b.data)

    def test_hand_expansion(self):
        out = affine(ad.tensor([[1.0, 2.0]]), ad.tensor([[3.0], [4.0]]), zero_bias(1))
        assert out.data.tolist() == [[11.0]]

    def test_zero_annihilates(self):
        out = affine(ad.tensor([[0.0]]), ad.tensor([[123.0, -4.0]]), zero_bias(2))
        assert np.all(out.data == 0.0)

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            affine(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 2))), zero_bias(2))

    def test_backward(self):
        a = ad.parameter(np.arange(6.0).reshape(2, 3))
        b = ad.parameter(np.arange(12.0).reshape(3, 4))
        loss = ad.sum_all(affine(a, b, zero_bias(4)))
        ad.backward(loss)
        g = np.ones((2, 4))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)


class TestLinear:
    def test_bias_added_to_every_row(self):
        out = affine(ad.tensor(np.zeros((3, 2))), ad.tensor(np.ones((2, 2))),
                     ad.tensor([1.5, -2.0]))
        assert out.data.tolist() == [[1.5, -2.0]] * 3

    def test_stack_equals_slices_bitwise(self):
        rng = np.random.default_rng(7)
        x, w, b = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 6))
        g = rng.normal(size=(3, 5, 6))
        tx, tw, tb = ad.parameter(x), ad.parameter(w), ad.parameter(b)
        out = affine(tx, tw, tb)
        out.grad = g
        out.backward_fn(out)
        for i in range(3):
            sx, sw, sb = ad.parameter(x[i]), ad.parameter(w[i]), ad.parameter(b[i])
            sout = affine(sx, sw, sb)
            sout.grad = g[i]
            sout.backward_fn(sout)
            assert np.array_equal(out.data[i], sout.data)
            for stacked, single in ((tx, sx), (tw, sw), (tb, sb)):
                assert np.array_equal(stacked.grad[i], single.grad)

    @pytest.mark.parametrize("xs, ws, bs", [
        ((2, 5, 4), (3, 4, 6), (3, 6)),         # member counts differ
        ((5, 4), (3, 4, 6), (3, 6)),            # 2-D input, stacked weights
        ((3, 5, 4), (3, 4, 6), (6,)),           # unstacked bias
        ((3, 5, 4), (3, 4, 6), (3, 5)),         # bias width
        ((5, 4), (4, 6), (5,)),
    ])
    def test_shape_mismatch(self, xs, ws, bs):
        with pytest.raises(ad.ShapeError, match="mlp layer 0 shapes incompatible"):
            affine(ad.tensor(np.ones(xs)), ad.tensor(np.ones(ws)), ad.tensor(np.ones(bs)))


def mlp_arrays(rng, dims, lead):
    """Input, weights and biases for an MLP of layer ``dims``, optionally stacked."""
    x = rng.normal(size=(*lead, 6, dims[0]))
    ws = [rng.normal(size=(*lead, a, b)) for a, b in zip(dims[:-1], dims[1:])]
    bs = [rng.normal(size=(*lead, b)) for b in dims[1:]]
    return x, ws, bs


def saved_hidden(out):
    """Weakrefs to the hidden activations an ``ad.mlp`` result saved for its backward."""
    fn = out.backward_fn
    saved = fn.__closure__[fn.__code__.co_freevars.index("saved")].cell_contents
    return [weakref.ref(h_in) for h_in, _ in saved[1:]]


def mlp_reference(x, ws, bs, g):
    """Per-layer numpy forward and backward of a ReLU MLP (relu on the pre-activation)."""
    pres, h = [], x
    for i, (w, b) in enumerate(zip(ws, bs)):
        pre = h @ w
        pre += b if b.ndim == 1 else b[:, None]
        pres.append(pre)
        h = np.maximum(pre, 0.0) if i < len(ws) - 1 else pre
    out, gws, gbs = h, [None] * len(ws), [None] * len(ws)
    for i in reversed(range(len(ws))):
        h_in = x if i == 0 else np.maximum(pres[i - 1], 0.0)
        gws[i], gbs[i] = h_in.mT @ g, g.sum(axis=-2)
        g = g @ ws[i].mT
        if i > 0:
            g = g * (pres[i - 1] > 0.0)
    return out, g, gws, gbs


class TestMlp:
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "stacked"])
    @pytest.mark.parametrize("dims", [[4, 5], [4, 7, 5], [4, 7, 8, 5]], ids=["1", "2", "3"])
    def test_matches_per_layer_reference_bitwise(self, dims, lead):
        rng = np.random.default_rng(12)
        x, ws, bs = mlp_arrays(rng, dims, lead)
        g = rng.normal(size=(*lead, 6, dims[-1]))
        tx = ad.parameter(x.copy())
        tws, tbs = [ad.parameter(w) for w in ws], [ad.parameter(b) for b in bs]
        out = ad.mlp(tx, tws, tbs)
        out.grad = g
        out.backward_fn(out)
        ref_out, ref_gx, ref_gws, ref_gbs = mlp_reference(x, ws, bs, g)
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(tx.grad, ref_gx)
        for t, ref in zip(tws + tbs, ref_gws + ref_gbs):
            assert np.array_equal(t.grad, ref)
        assert np.array_equal(tx.data, x)

    def test_constant_input_gets_no_grad(self):
        rng = np.random.default_rng(13)
        x, ws, bs = mlp_arrays(rng, [4, 7, 5], ())
        tx, tws, tbs = ad.tensor(x), [ad.parameter(w) for w in ws], [ad.parameter(b) for b in bs]
        ad.backward(ad.sum_all(ad.mlp(tx, tws, tbs)))
        _, _, ref_gws, ref_gbs = mlp_reference(x, ws, bs, np.ones((6, 5)))
        assert tx.grad is None
        for t, ref in zip(tws + tbs, ref_gws + ref_gbs):
            assert np.array_equal(t.grad, ref)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "stacked"])
    @pytest.mark.parametrize("dims", [[4, 5], [4, 7, 5], [4, 7, 8, 5]], ids=["1", "2", "3"])
    def test_backward_frees_what_the_op_saved(self, dims, lead):
        rng = np.random.default_rng(14)
        x, ws, bs = mlp_arrays(rng, dims, lead)
        tx = ad.parameter(x.copy())
        tws, tbs = [ad.parameter(w) for w in ws], [ad.parameter(b) for b in bs]
        out = ad.mlp(tx, tws, tbs)
        closure, hidden = weakref.ref(out.backward_fn), saved_hidden(out)
        assert len(hidden) == len(dims) - 2 and all(ref() is not None for ref in hidden)
        loss = ad.sum_all(out)
        ad.backward(loss)
        assert closure() is None and not any(ref() is not None for ref in hidden)
        assert out.backward_fn is None and loss.backward_fn is None
        ref_out, ref_gx, ref_gws, ref_gbs = mlp_reference(x, ws, bs, np.ones_like(out.data))
        assert np.array_equal(out.data, ref_out) and np.array_equal(out.grad, np.ones_like(ref_out))
        assert np.array_equal(tx.grad, ref_gx)
        for t, ref in zip(tws + tbs, ref_gws + ref_gbs):
            assert np.array_equal(t.grad, ref)
        with pytest.raises(ad.GraphError, match="already consumed"):
            ad.backward(loss)
        with pytest.raises(ad.GraphError, match="already consumed"):
            ad.sum_all(out)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "stacked"])
    def test_each_layer_input_dies_once_its_grads_are_computed(self, monkeypatch, lead):
        rng = np.random.default_rng(15)
        x, ws, bs = mlp_arrays(rng, [4, 7, 8, 6, 5], lead)
        tws, tbs = [ad.parameter(w) for w in ws], [ad.parameter(b) for b in bs]
        out = ad.mlp(ad.tensor(x), tws, tbs)
        hidden, seen = saved_hidden(out), {}
        accumulate_grad = ad.Tensor.accumulate_grad

        def recording_accumulate_grad(t, g):
            seen[id(t)] = [ref() is not None for ref in hidden]
            accumulate_grad(t, g)

        monkeypatch.setattr(ad.Tensor, "accumulate_grad", recording_accumulate_grad)
        ad.backward(ad.sum_all(out))
        # Hidden activation j is layer j+1's input: alive at layer i only if j < i.
        assert [seen[id(w)] for w in tws] == [[j < i for j in range(3)] for i in range(4)]

    def test_bias_count_must_match(self):
        w = ad.tensor(np.ones((4, 5)))
        with pytest.raises(ValueError):
            ad.mlp(ad.tensor(np.ones((2, 4))), [w], [])

    def test_later_layer_shape_mismatch_named(self):
        x, w, b = np.ones((2, 4)), np.ones((4, 5)), np.ones(5)
        with pytest.raises(ad.ShapeError, match=r"mlp layer 1 .*\(2, 5\) x \(4, 5\)"):
            ad.mlp(ad.tensor(x), [ad.tensor(w), ad.tensor(w)], [ad.tensor(b), ad.tensor(b)])


class TestSumRows:
    def test_values_and_gradient(self):
        t = ad.parameter(np.arange(6.0).reshape(2, 3))
        out = ad.sum_rows(t)
        assert out.data.tolist() == [3.0, 12.0]
        ad.backward(ad.sum_all(ad.scale(out, 0.5)))
        assert np.array_equal(t.grad, np.full((2, 3), 0.5))


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(ad.tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_direct_values(self):
        out = ad.softmax(ad.tensor([[1.0, 2.0, 3.0]])).data[0]
        e = np.exp([1.0, 2.0, 3.0])
        assert np.allclose(out, e / e.sum(), atol=1e-12)
        assert np.allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-7)

    def test_stability(self):
        out = ad.softmax(ad.tensor([[0.0, -1000.0]])).data[0]
        assert np.all(np.isfinite(out))
        assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        q = ad.softmax(ad.tensor(rng.normal(size=(20, 7)) * 5)).data
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((q > 0) & (q < 1))

    def test_nonfinite_rejected(self):
        with pytest.raises(ad.NumericError):
            ad.softmax(ad.tensor([[np.inf, 0.0]]))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        y = np.array([[1.0, 0.0]])
        assert ad.cross_entropy(ad.tensor(y), y).item() == 0.0

    def test_uniform(self):
        q = ad.tensor(np.full((1, 4), 0.25))
        y = np.array([[0.0, 1.0, 0.0, 0.0]])
        assert abs(ad.cross_entropy(q, y).item() - np.log(4)) < 1e-12

    def test_half(self):
        q = ad.tensor([[0.5, 0.3, 0.2]])
        y = np.array([[1.0, 0.0, 0.0]])
        assert abs(ad.cross_entropy(q, y).item() - 0.6931471805599453) < 1e-12

    @pytest.mark.parametrize("op", [ad.cross_entropy, ad.cross_entropy_rows])
    def test_target_shape_checked(self, op):
        q = ad.tensor([[0.5, 0.5], [0.25, 0.75]])
        y = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ad.ShapeError):
            op(q, y[:1])
        with pytest.raises(ad.ShapeError):
            op(q, y[:, :1])

    def test_soft_targets(self):
        q = ad.tensor([[0.5, 0.3, 0.2]])
        t = np.array([[0.2, 0.3, 0.5]])
        expected = -(0.2 * np.log(0.5) + 0.3 * np.log(0.3) + 0.5 * np.log(0.2))
        assert abs(ad.cross_entropy(q, t).item() - expected) < 1e-12

    def test_log_floor(self):
        q = ad.tensor([[0.0, 1.0]])
        y = np.array([[1.0, 0.0]])
        out = ad.cross_entropy(q, y).item()
        assert np.isfinite(out)
        assert abs(out - -np.log(ad.LOG_FLOOR)) < 1e-9


class TestMse:
    def test_equal(self):
        a = ad.tensor([[1.0, 2.0]])
        assert ad.mse(a, ad.tensor([[1.0, 2.0]])).item() == 0.0

    def test_unit_displacement(self):
        assert ad.mse(ad.tensor([1.0, 0.0]), ad.tensor([0.0, 0.0])).item() == 1.0

    def test_hand_value(self):
        assert ad.mse(ad.tensor([1.0, 2.0]), ad.tensor([0.0, 0.0])).item() == 5.0

    def test_batch_normalization(self):
        a = ad.tensor(np.ones((4, 3)))
        b = ad.tensor(np.zeros((4, 3)))
        assert ad.mse(a, b).item() == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.mse(ad.tensor([1.0]), ad.tensor([[1.0]]))

    def test_backward_analytic(self):
        z = ad.parameter(np.array([[1.0, -2.0, 0.5]]))
        c = ad.tensor([[0.0, 1.0, 0.0]])
        ad.backward(ad.mse(z, c))
        assert np.allclose(z.grad, 2 * (z.data - c.data))


class TestDetach:
    def test_blocks_gradients(self):
        w = ad.parameter(np.array([[1.0, 2.0]]))
        upstream = affine(ad.tensor([[3.0], [4.0]]), w, zero_bias(2))
        loss = ad.mse(ad.parameter(np.zeros((2, 2))), ad.detach(upstream))
        ad.backward(loss)
        assert w.grad is None

    def test_idempotent_and_bitwise(self):
        t = ad.parameter(np.array([1.0, -0.0, 3.5]))
        d = ad.detach(t)
        assert np.array_equal(d.data, t.data)
        d2 = ad.detach(d)
        assert np.array_equal(d2.data, d.data)
        assert not d2.requires_grad and d2.backward_fn is None


class TestBackward:
    def test_sum_gives_ones(self):
        t = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.sum_all(t))
        assert np.array_equal(t.grad, np.ones((2, 3)))

    def test_non_scalar_rejected(self):
        t = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ad.GraphError):
            ad.backward(ad.add(t, t))

    def test_accumulates(self):
        t = ad.parameter(np.ones(3))
        ad.backward(ad.sum_all(t))
        loss2 = ad.sum_all(t)
        ad.backward(loss2)
        assert np.array_equal(t.grad, 2 * np.ones(3))

    def test_second_backward_on_a_graph_raises(self):
        t = ad.parameter(np.ones(3))
        loss = ad.sum_all(ad.scale(t, 2.0))
        ad.backward(loss)
        with pytest.raises(ad.GraphError, match="already consumed"):
            ad.backward(loss)
        assert np.array_equal(t.grad, [2.0, 2.0, 2.0])

    def test_op_on_a_consumed_result_raises(self):
        t = ad.parameter(np.ones(3))
        h = ad.scale(t, 2.0)
        ad.backward(ad.sum_all(h))
        with pytest.raises(ad.GraphError, match="already consumed"):
            ad.sum_all(h)

    def test_two_live_graphs(self):
        w = ad.parameter(np.array([[1.0, -2.0], [0.5, 3.0]]))
        x = ad.tensor([[1.0, 2.0]])
        first = ad.sum_all(ad.scale(affine(x, w, zero_bias(2)), 1.0))
        second = ad.sum_all(ad.scale(affine(x, w, zero_bias(2)), 3.0))
        ad.backward(second)
        assert np.array_equal(w.grad, [[3.0, 3.0], [6.0, 6.0]])
        ad.backward(first)
        assert np.array_equal(w.grad, [[4.0, 4.0], [8.0, 8.0]])

    def test_tape_is_creation_order_of_op_results(self):
        a, b = ad.parameter(np.ones(2)), ad.parameter(np.ones(2))
        ra = ad.scale(a, 1.0)
        sa = ad.scale(ra, 2.0)
        rb = ad.scale(b, 1.0)
        assert ad.GraphTape.trace(sa).nodes == [ra, sa]
        assert ad.GraphTape.trace(rb).nodes == [rb]
        joined = ad.add(sa, rb)
        loss = ad.sum_all(joined)
        assert ad.GraphTape.trace(loss).nodes == [ra, sa, rb, joined, loss]
        assert all(n.tape is loss.tape for n in (ra, sa, rb, joined))
        assert ad.GraphTape.trace(a).nodes == []
        assert ad.add(ad.tensor(np.ones(2)), ad.tensor(np.ones(2))).tape is None

    def test_first_contribution_is_copied(self):
        a, b = ad.parameter(np.ones(2)), ad.parameter(np.ones(2))
        ra, rb = ad.scale(a, 1.0), ad.scale(b, 1.0)
        ad.backward(ad.sum_all(ad.add(ra, rb)))
        assert not np.shares_memory(ra.grad, rb.grad)
        assert np.array_equal(a.grad, [1.0, 1.0]) and np.array_equal(b.grad, [1.0, 1.0])

    def test_determinism(self):
        def once():
            rng = np.random.default_rng(42)
            w = ad.parameter(rng.normal(size=(4, 3)))
            x = ad.tensor(rng.normal(size=(5, 4)))
            q = ad.softmax(affine(x, w, zero_bias(3)))
            y = np.eye(3)[rng.integers(3, size=5)]
            loss = ad.cross_entropy(q, y)
            ad.backward(loss)
            return loss.item(), w.grad.copy()

        l1, g1 = once()
        l2, g2 = once()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestFiniteDifferences:
    """Central-difference checks over every op with random small tensors."""

    def test_matmul(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m, k, n = rng.integers(1, 8, size=3)
            a = rng.uniform(-2, 2, (m, k))
            b = rng.uniform(-2, 2, (k, n))
            c = rng.uniform(-2, 2, (m, n))
            check_grad(lambda ta, tb: ad.mse(affine(ta, tb, zero_bias(n)), ad.tensor(c)),
                       [a, b])

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "stacked"])
    def test_linear(self, lead):
        rng = np.random.default_rng(8)
        for _ in range(5):
            b, d, h = rng.integers(1, 6, size=3)
            x = rng.uniform(-2, 2, (*lead, b, d))
            w = rng.uniform(-2, 2, (*lead, d, h))
            bias = rng.uniform(-2, 2, (*lead, h))
            c = rng.uniform(-2, 2, (*lead, b, h))
            check_grad(lambda tx, tw, tb: ad.mse(affine(tx, tw, tb), ad.tensor(c)),
                       [x, w, bias])

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "stacked"])
    @pytest.mark.parametrize("dims", [[3, 4], [3, 5, 4], [3, 5, 4, 4]], ids=["1", "2", "3"])
    def test_mlp(self, dims, lead):
        rng = np.random.default_rng(15)
        for _ in range(3):
            x, ws, bs = mlp_arrays(rng, dims, lead)
            c = rng.normal(size=(*lead, 6, dims[-1]))
            n = len(ws)
            check_grad(lambda tx, *ps: ad.mse(ad.mlp(tx, ps[:n], ps[n:]), ad.tensor(c)),
                       [x, *ws, *bs])

    def test_stacked_cross_entropy_rows(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            m, b, k = rng.integers(1, 4), rng.integers(1, 6), rng.integers(2, 6)
            q = rng.uniform(0.2, 1.0, (m, b, k))
            y = np.eye(k)[rng.integers(k, size=(m, b))]
            c = rng.uniform(-1, 1, (m, b))
            check_grad(lambda t: ad.mse(ad.cross_entropy_rows(t, y), ad.tensor(c)), [q])

    def test_sum_rows(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            m, b = rng.integers(1, 5, size=2)
            a = rng.uniform(-2, 2, (m, b))
            c = rng.uniform(-2, 2, m)
            check_grad(lambda t: ad.mse(ad.sum_rows(t), ad.tensor(c)), [a])

    def test_softmax(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            b, k = rng.integers(1, 8), rng.integers(2, 8)
            z = rng.uniform(-2, 2, (b, k))
            coeff = rng.uniform(-1, 1, (b, k))
            # mse against a constant: a non-uniform upstream gradient 2(q - coeff)/b
            check_grad(lambda t: ad.mse(ad.softmax(t), ad.tensor(coeff)), [z])

    def test_cross_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            b, k = rng.integers(1, 8), rng.integers(2, 8)
            z = rng.uniform(-2, 2, (b, k))
            y = np.eye(k)[rng.integers(k, size=b)]
            check_grad(lambda t: ad.cross_entropy(ad.softmax(t), y), [z])
            soft = ad.softmax_np(rng.uniform(-2, 2, (b, k)))
            check_grad(lambda t: ad.cross_entropy(ad.softmax(t), soft), [z])

    def test_mse(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            b, k = rng.integers(1, 8), rng.integers(2, 8)
            a1 = rng.uniform(-2, 2, (b, k))
            a2 = rng.uniform(-2, 2, (b, k))
            check_grad(lambda t1, t2: ad.mse(t1, t2), [a1, a2])

    def test_relu_bias_composite(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(-2, 2, (4, 3))
            w = rng.uniform(-2, 2, (3, 5)) + 0.05
            b = rng.uniform(-2, 2, 5)
            y = np.eye(5)[rng.integers(5, size=4)]
            check_grad(
                lambda tw, tb: ad.cross_entropy(ad.softmax(ad.mlp(
                    ad.tensor(x), [tw, ad.tensor(np.eye(5))], [tb, zero_bias(5)])), y),
                [w, b])

    def test_per_sample_rows(self):
        rng = np.random.default_rng(6)
        z = rng.uniform(-2, 2, (5, 4))
        y = np.eye(4)[rng.integers(4, size=5)]
        w = rng.uniform(0.5, 2.0, 5)
        check_grad(
            lambda t: ad.weighted_mean(
                ad.add(ad.cross_entropy_rows(ad.softmax(t), y), ad.sq_norm_rows(t, y)), w),
            [z])
