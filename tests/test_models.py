import tracemalloc

import numpy as np
import pytest

from lfme_lab import autodiff as ad
from lfme_lab import models as mm


def arrays(model):
    """The model's parameter list [w0, b0, w1, b1, ...], the form evaluation reads."""
    return [p.data for p in model.parameters()]


class TestInit:
    def test_deterministic_in_seed(self):
        a = mm.init_mlp([3, 8, 4], seed=7)
        b = mm.init_mlp([3, 8, 4], seed=7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = mm.init_mlp([3, 8, 4], seed=7)
        b = mm.init_mlp([3, 8, 4], seed=8)
        assert not np.array_equal(a.weights[0].data, b.weights[0].data)

    def test_biases_zero(self):
        m = mm.init_mlp([5, 4, 3], seed=0)
        for b in m.biases:
            assert np.all(b.data == 0.0)

    def test_weight_bound(self):
        m = mm.init_mlp([2, 4, 3], seed=1)
        bound = np.sqrt(3.0)
        assert np.all(np.abs(m.weights[0].data) < bound)
        assert np.all(np.abs(m.weights[1].data) < np.sqrt(6.0 / 4))

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            mm.init_mlp([], seed=0)
        with pytest.raises(ValueError):
            mm.init_mlp([3], seed=0)
        with pytest.raises(ValueError):
            mm.init_mlp([3, 0, 2], seed=0)


class TestForward:
    def test_forward_array_builds_no_tape(self, monkeypatch):
        m = mm.init_mlp([4, 6, 3], seed=2)
        x = np.random.default_rng(3).normal(size=(5, 4))
        expected = mm.forward(m, ad.tensor(x)).data

        def no_tape(self):
            raise AssertionError("a tape was created")

        monkeypatch.setattr(ad.GraphTape, "__init__", no_tape)
        assert np.array_equal(mm.forward_array(arrays(m), x), expected)
        with pytest.raises(AssertionError, match="a tape was created"):
            mm.forward(m, ad.tensor(x))

    def test_forward_adds_one_tape_node(self):
        m = mm.init_mlp([4, 6, 6, 3], seed=2)
        z = mm.forward(m, ad.tensor(np.ones((5, 4))))
        assert ad.GraphTape.trace(z).nodes == [z]

    def test_forward_backward_peak_memory(self):
        """Backward keeps the post-ReLU activations only: no pre-ReLU copies and no
        per-layer gradient copies, so one step peaks below 6 activation-sized arrays."""
        rows = 768
        m = mm.init_mlp([64, 512, 512, 10], seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(rows, 64))
        y = np.eye(10)[rng.integers(10, size=rows)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ad.backward(ad.cross_entropy(ad.softmax(mm.forward(m, ad.tensor(x))), y))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (rows * 512 * 8) < 6.0

    def test_zero_input_zero_logits(self):
        m = mm.init_mlp([4, 8, 3], seed=2)
        out = mm.forward_array(arrays(m), np.zeros((5, 4)))
        assert np.all(out == 0.0)

    def test_single_linear_layer(self):
        m = mm.init_mlp([3, 2], seed=3)
        m.biases[0].data = np.array([0.5, -0.5])
        x = np.array([[1.0, 2.0, 3.0]])
        expected = x @ m.weights[0].data + m.biases[0].data
        assert np.array_equal(mm.forward_array(arrays(m), x), expected)

    def test_empty_batch(self):
        m = mm.init_mlp([4, 8, 3], seed=4)
        out = mm.forward_array(arrays(m), np.zeros((0, 4)))
        assert out.shape == (0, 3)

    def test_feature_width_mismatch(self):
        m = mm.init_mlp([4, 3], seed=0)
        with pytest.raises(ad.ShapeError):
            mm.forward_array(arrays(m), np.zeros((2, 5)))

    def test_pure(self):
        m = mm.init_mlp([4, 8, 3], seed=5)
        x = np.random.default_rng(0).normal(size=(6, 4))
        assert np.array_equal(mm.forward_array(arrays(m), x), mm.forward_array(arrays(m), x))

    @pytest.mark.parametrize("shapes", [
        [(4, 8), (8,), (6, 3), (3,)],               # 8 -> 6 does not chain
        [(4, 8), (7,)],                             # bias width differs from the weight's
        [(2, 4, 8), (2, 8)],                        # a stacked pair on an unstacked batch
    ])
    def test_layers_that_do_not_chain_rejected(self, shapes):
        with pytest.raises(ad.ShapeError):
            mm.forward_array([np.zeros(s) for s in shapes], np.zeros((5, 4)))


class TestStack:
    def test_stacked_forward_matches_each_members_slices(self):
        models = [mm.init_mlp([4, 8, 3], seed=s) for s in (1, 2, 3)]
        stacked = mm.stack_models(models)
        assert stacked.weights[0].data.shape == (3, 4, 8)
        assert stacked.biases[1].data.shape == (3, 3)
        x = np.random.default_rng(0).normal(size=(3, 5, 4))
        logits = mm.forward_array(arrays(stacked), x)
        for i, m in enumerate(models):
            member = [p.data[i] for p in stacked.parameters()]
            for a, b in zip(arrays(m), member):
                assert np.array_equal(a, b)
            assert np.array_equal(logits[i], mm.forward_array(member, x[i]))
            assert np.array_equal(logits[i], mm.forward_array(arrays(m), x[i]))

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError, match="cannot stack"):
            mm.stack_models([mm.init_mlp([4, 8, 3], 0), mm.init_mlp([4, 6, 3], 1)])

    def test_stacked_model_needs_stacked_input(self):
        stacked = mm.stack_models([mm.init_mlp([4, 3], seed=s) for s in (1, 2)])
        with pytest.raises(ad.ShapeError):
            mm.forward_array(arrays(stacked), np.zeros((5, 4)))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        m = mm.init_mlp([4, 8, 3], seed=6)
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(arrays(m), path, role="expert", index=2, step=10, seed=6)
        ck = mm.load_checkpoint(path)
        assert ck.role == "expert" and ck.index == 2 and ck.step == 10 and ck.seed == 6
        assert ck.layer_dims == [4, 8, 3]
        assert [a.shape for a in ck.arrays] == [(4, 8), (8,), (8, 3), (3,)]
        for a, b in zip(arrays(m), ck.arrays):
            assert np.array_equal(a, b)

    def test_round_trip_preserves_forward(self, tmp_path):
        m = mm.init_mlp([5, 16, 4], seed=7)
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(arrays(m), path)
        loaded = mm.load_checkpoint(path).arrays
        x = np.random.default_rng(1).normal(size=(8, 5))
        assert np.array_equal(mm.forward_array(arrays(m), x), mm.forward_array(loaded, x))

    @pytest.mark.parametrize("shapes", [
        [(4, 8)],                                   # a weight without its bias
        [(4, 8), (8,), (6, 3), (3,)],               # 8 -> 6 does not chain
        [(4, 8), (7,)],                             # bias width differs from the weight's
        [(2, 4, 8), (2, 8)],                        # a stacked pair
        [(4, 0), (0,)],                             # zero width
        [],
    ])
    def test_shapes_that_do_not_chain_rejected(self, tmp_path, shapes):
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="chain"):
            mm.save_checkpoint([np.zeros(s) for s in shapes], path)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file(self, tmp_path):
        m = mm.init_mlp([4, 8, 3], seed=8)
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(arrays(m), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(mm.CheckpointError, match="payload"):
            mm.load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        m = mm.init_mlp([4, 3], seed=8)
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(arrays(m), path)
        path.write_bytes(path.read_bytes() + b"xtra")
        with pytest.raises(mm.CheckpointError, match="trailing"):
            mm.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(mm.CheckpointError, match="magic"):
            mm.load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        m = mm.init_mlp([4, 3], seed=9)
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(arrays(m), path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(mm.CheckpointError, match="version"):
            mm.load_checkpoint(path)
