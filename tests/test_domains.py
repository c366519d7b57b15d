import numpy as np
import pytest

from lfme_lab import domains
from lfme_lab.domains import (DataError, DomainDataset, SuiteSpec, generate_suite,
                              load_csv_suite, make_batches, one_hot)
from oracles import spurious_label_correlation


def small_spec(**kw):
    base = dict(n_domains=3, n_classes=4, n_per_domain=400, d_inv=4, d_spu=4,
                spurious_strength=0.8, noise=0.4, seed=11)
    base.update(kw)
    return SuiteSpec(**base)


class TestGenerate:
    def test_shapes_and_labels(self):
        suite = generate_suite(small_spec())
        assert len(suite) == 4
        for ds in suite:
            assert ds.features.shape == (400, 8)
            assert ds.labels.min() >= 0 and ds.labels.max() < 4

    def test_deterministic(self):
        a = generate_suite(small_spec())
        b = generate_suite(small_spec())
        for da, db in zip(a, b):
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.labels, db.labels)
            assert np.array_equal(da.train_idx, db.train_idx)

    def test_correlation_tracks_strength(self):
        for rho in (0.0, 0.5, 0.9):
            spec = small_spec(spurious_strength=rho, n_per_domain=2000)
            for ds in generate_suite(spec)[:3]:
                assert abs(spurious_label_correlation(spec, ds) - rho) < 0.05

    def test_separable_when_noise_vanishes(self):
        spec = small_spec(noise=1e-4, d_spu=0, spurious_strength=1.0)
        held = generate_suite(spec)[-1]
        means = domains._class_means(spec.n_classes, spec.d_inv)
        d2 = ((held.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assert np.all(d2.argmin(axis=1) == held.labels)

    def test_held_out_rotation_differs(self):
        *source_rots, held_rot = domains._rotations(small_spec())
        assert len(source_rots) == 3
        for rot in source_rots:
            assert np.linalg.norm(held_rot - rot) > 0.1

    def test_stratified_split(self):
        suite = generate_suite(small_spec())
        for ds in suite:
            assert len(np.intersect1d(ds.train_idx, ds.val_idx)) == 0
            assert len(ds.train_idx) + len(ds.val_idx) == len(ds.labels)
            for k in range(ds.n_classes):
                total = int(np.sum(ds.labels == k))
                in_val = int(np.sum(ds.labels[ds.val_idx] == k))
                assert abs(in_val - 0.2 * total) <= 1

    def test_invalid_spec(self):
        # A spec checks itself when built, so an invalid one never reaches generate_suite.
        for bad in ({"spurious_strength": 1.5}, {"noise": 0.0}, {"n_domains": 1}, {"seed": -1}):
            with pytest.raises(DataError):
                small_spec(**bad)


class TestCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_two_rows_two_domains(self, tmp_path):
        p = self.write(tmp_path, "f0,f1,domain,label\n1.0,2.0,a,0\n3.0,4.0,b,1\n")
        suite = load_csv_suite(p)
        assert len(suite) == 2
        assert all(len(ds.labels) == 1 for ds in suite)

    def test_standardization(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["f0,f1,domain,label"]
        for i in range(60):
            lines.append(f"{rng.normal(3):.6f},{rng.normal(-2, 5):.6f},d{i % 2},{i % 3}")
        p = self.write(tmp_path, "\n".join(lines) + "\n")
        suite = load_csv_suite(p)
        pooled = np.concatenate([ds.features for ds in suite])
        assert np.all(np.abs(pooled.mean(axis=0)) < 1e-9)
        assert np.allclose(pooled.std(axis=0), 1.0)

    def test_non_numeric_cell(self, tmp_path):
        p = self.write(tmp_path, "f0,domain,label\nx,a,0\n2.0,b,1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv_suite(p)

    def test_missing_columns(self, tmp_path):
        p = self.write(tmp_path, "f0,f1\n1.0,2.0\n")
        with pytest.raises(DataError, match="missing columns"):
            load_csv_suite(p)

    def test_label_gap_rejected(self, tmp_path):
        p = self.write(tmp_path, "f0,domain,label\n1.0,a,0\n2.0,b,2\n")
        with pytest.raises(DataError, match="contiguous"):
            load_csv_suite(p)

    def test_single_domain_rejected(self, tmp_path):
        p = self.write(tmp_path, "f0,domain,label\n1.0,a,0\n2.0,a,1\n")
        with pytest.raises(DataError, match="2 distinct domains"):
            load_csv_suite(p)


class TestBatches:
    def suite(self):
        return generate_suite(small_spec())[:3]

    def test_concatenation_structure(self):
        sources = self.suite()
        batch = make_batches(sources, 4, seed=0, step=0)
        assert batch.x_all.shape == (12, 8)
        assert np.array_equal(np.concatenate(batch.ys), batch.y_all)

    def test_epoch_disjoint(self):
        sources = self.suite()
        n_train = len(sources[0].train_idx)
        b = 16
        seen = []
        for step in range(n_train // b):
            batch = make_batches(sources, b, seed=5, step=step)
            x0 = batch.xs[0]
            keys = [tuple(row) for row in x0]
            seen.extend(keys)
        assert len(seen) == len(set(seen))

    def test_deterministic(self):
        sources = self.suite()
        a = make_batches(sources, 8, seed=9, step=123)
        b = make_batches(sources, 8, seed=9, step=123)
        assert np.array_equal(a.x_all, b.x_all)
        assert np.array_equal(a.y_all, b.y_all)

    def test_wraps_after_exhaustion(self):
        sources = self.suite()
        n_train = len(sources[0].train_idx)
        batch = make_batches(sources, 16, seed=9, step=10 * n_train)
        assert batch.x_all.shape[0] == 48

    def test_cached_shuffles_equal_fresh_ones_across_an_epoch_wrap(self):
        warm = self.suite()
        n_train = len(warm[0].train_idx)
        b = 48
        assert n_train % b != 0
        wrap = n_train // b                     # this step's batch spans epochs 0 and 1
        for step in (wrap - 1, wrap, wrap + 1, 2 * wrap + 2):
            got = make_batches(warm, b, seed=4, step=step)
            fresh = make_batches(self.suite(), b, seed=4, step=step)
            assert np.array_equal(got.xs, fresh.xs) and np.array_equal(got.ys, fresh.ys)
        for ds in warm:
            assert list(ds.epoch_perms) == [(4, 1), (4, 2)]      # the two newest epochs
            for (seed, epoch), perm in ds.epoch_perms.items():
                oracle = np.random.default_rng([seed, 104729, ds.domain_id, epoch]).permutation(
                    ds.train_idx)
                assert np.array_equal(perm, oracle)
                assert not perm.flags.writeable
                with pytest.raises(ValueError):
                    perm[0] = 0

    def test_suites_never_share_cached_shuffles(self):
        a = generate_suite(small_spec(seed=11))[:3]
        b = generate_suite(small_spec(seed=12))[:3]
        assert [ds.domain_id for ds in a] == [ds.domain_id for ds in b]
        make_batches(a, 8, seed=0, step=0)
        got = make_batches(b, 8, seed=0, step=0)
        fresh = make_batches(generate_suite(small_spec(seed=12))[:3], 8, seed=0, step=0)
        assert np.array_equal(got.xs, fresh.xs)
        for da, db in zip(a, b):
            assert da.epoch_perms is not db.epoch_perms
            assert not np.array_equal(da.epoch_perms[(0, 0)], db.epoch_perms[(0, 0)])


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2]), 3)
        assert out.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    def test_out_of_range(self):
        with pytest.raises(DataError):
            one_hot(np.array([3]), 3)
