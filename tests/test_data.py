"""Unit tests for dataset generation, sharding, batching, and persistence."""

import numpy as np

from fedasync.data import (
    DATA_DOMAIN,
    WORKER_DOMAIN,
    domain_rng,
    gen_classification,
    gen_regression,
    partition_non_iid,
    sample_minibatch,
    save_dataset,
    train_eval_split,
    worker_rng,
)
from fedasync.numerics import LogisticObjective


def _planted(n_samples, dim, seed):
    """The planted vector of ``gen_regression(n_samples, dim, _, seed)``,
    redrawn by its draw law: features first, then the vector."""
    rng = domain_rng(seed, DATA_DOMAIN)
    rng.standard_normal((n_samples, dim))
    return rng.standard_normal(dim)


class TestStreams:
    def test_same_triple_same_draws(self):
        a = domain_rng(3, DATA_DOMAIN, 0).standard_normal(16)
        b = domain_rng(3, DATA_DOMAIN, 0).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_domains_are_independent(self):
        a = domain_rng(3, DATA_DOMAIN, 0).standard_normal(16)
        b = domain_rng(3, WORKER_DOMAIN, 0).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_indices_are_independent(self):
        a = worker_rng(3, 0).standard_normal(16)
        b = worker_rng(3, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_worker_rng_is_worker_domain(self):
        a = worker_rng(9, 4).standard_normal(8)
        b = domain_rng(9, WORKER_DOMAIN, 4).standard_normal(8)
        np.testing.assert_array_equal(a, b)


class TestGenRegression:
    def test_shapes_and_metadata(self):
        ds = gen_regression(50, 7, 0.1, seed=0)
        assert ds.features.shape == (50, 7)
        assert ds.targets.shape == (50,)
        assert ds.task == "regression"

    def test_deterministic(self):
        a = gen_regression(30, 4, 0.2, seed=5)
        b = gen_regression(30, 4, 0.2, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_zero_noise_planted_vector_interpolates(self):
        ds = gen_regression(40, 6, 0.0, seed=1)
        residual = ds.features @ _planted(40, 6, seed=1) - ds.targets
        np.testing.assert_array_equal(residual, np.zeros(40))

    def test_least_squares_recovers_planted_vector(self):
        # 1000 x 10 with noise_std=0.1: the normal-equations solution
        # sits within 0.05 of the planted vector per coordinate
        ds = gen_regression(1000, 10, 0.1, seed=2)
        w_hat, *_ = np.linalg.lstsq(ds.features, ds.targets, rcond=None)
        assert np.max(np.abs(w_hat - _planted(1000, 10, seed=2))) < 0.05


class TestGenClassification:
    def test_shapes_and_balance(self):
        ds = gen_classification(120, 6, 3, sep=3.0, seed=0)
        assert ds.features.shape == (120, 6)
        assert ds.n_classes == 3
        counts = np.bincount(ds.targets, minlength=3)
        np.testing.assert_array_equal(counts, [40, 40, 40])

    def test_deterministic(self):
        a = gen_classification(60, 5, 2, sep=2.0, seed=9)
        b = gen_classification(60, 5, 2, sep=2.0, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_wide_separation_is_learnable(self):
        # sep=100 blobs barely overlap; a short gradient descent run
        # should classify essentially everything correctly
        ds = gen_classification(200, 4, 2, sep=100.0, seed=3)
        obj = LogisticObjective(4)
        w = np.zeros(4)
        for _ in range(200):
            w = w - 0.1 * obj.grad(w, ds.features, ds.targets)
        assert obj.accuracy(w, ds.features, ds.targets) >= 0.99


class TestPartition:
    @staticmethod
    def _coverage(shards, n):
        all_idx = np.concatenate([s.indices for s in shards])
        return np.sort(all_idx), n

    def test_single_device_gets_everything(self):
        ds = gen_classification(40, 4, 2, sep=2.0, seed=0)
        shards = partition_non_iid(ds, 1, 1, seed=0)
        assert len(shards) == 1
        np.testing.assert_array_equal(shards[0].indices, np.arange(40))
        np.testing.assert_array_equal(shards[0].features, ds.features)

    def test_shards_partition_the_dataset(self):
        for cpd in (1, 2, 4):
            ds = gen_classification(160, 8, 4, sep=2.0, seed=1)
            shards = partition_non_iid(ds, 4, cpd, seed=1)
            got, n = self._coverage(shards, 160)
            np.testing.assert_array_equal(got, np.arange(n))

    def test_label_histogram_bounded_by_skew(self):
        # 160 samples, 8 classes, perfectly balanced: blocks align with
        # class boundaries, so each of 4 devices sees exactly 2 labels
        ds = gen_classification(160, 8, 8, sep=2.0, seed=2)
        shards = partition_non_iid(ds, 4, 2, seed=2)
        for shard in shards:
            hist = np.bincount(shard.targets, minlength=8)
            assert np.count_nonzero(hist) <= 2

    def test_devices_see_disjoint_label_ranges(self):
        ds = gen_classification(160, 8, 8, sep=2.0, seed=2)
        shards = partition_non_iid(ds, 4, 2, seed=2)
        seen = [set(np.unique(s.targets)) for s in shards]
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                assert not (seen[i] & seen[j])

    def test_degenerate_skew_is_uniform_split(self):
        ds = gen_classification(101, 6, 3, sep=2.0, seed=4)
        shards = partition_non_iid(ds, 4, 3, seed=4)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1
        got, n = self._coverage(shards, 101)
        np.testing.assert_array_equal(got, np.arange(n))

    def test_regression_skew_orders_target_means(self):
        ds = gen_regression(200, 3, 0.0, seed=5)
        shards = partition_non_iid(ds, 5, 1, seed=5)
        means = [float(np.mean(s.targets)) for s in shards]
        assert means == sorted(means)

    def test_regression_zero_knob_is_uniform(self):
        ds = gen_regression(100, 3, 0.1, seed=6)
        shards = partition_non_iid(ds, 3, 0, seed=6)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_skewed_path_is_seed_independent(self):
        ds = gen_classification(160, 8, 8, sep=2.0, seed=2)
        a = partition_non_iid(ds, 4, 2, seed=0)
        b = partition_non_iid(ds, 4, 2, seed=99)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.indices, sb.indices)


class TestSampleMinibatch:
    def test_singleton_shard_returns_that_sample(self):
        ds = gen_regression(5, 2, 0.0, seed=0)
        shard = partition_non_iid(ds, 5, 0, seed=0)[0]
        assert len(shard) == 1
        features, targets = sample_minibatch(shard, 1, np.random.default_rng(0), steps=1)
        np.testing.assert_array_equal(features[0], shard.features)
        np.testing.assert_array_equal(targets[0], shard.targets)

    def test_same_stream_state_same_batch(self):
        ds = gen_regression(50, 3, 0.1, seed=1)
        shard = partition_non_iid(ds, 2, 0, seed=1)[0]
        a, _ = sample_minibatch(shard, 8, np.random.default_rng(42), steps=1)
        b, _ = sample_minibatch(shard, 8, np.random.default_rng(42), steps=1)
        np.testing.assert_array_equal(a[0], b[0])

    def test_batch_rows_come_from_the_shard(self):
        ds = gen_regression(50, 3, 0.1, seed=1)
        shard = partition_non_iid(ds, 2, 0, seed=1)[1]
        features, _ = sample_minibatch(shard, 16, np.random.default_rng(7), steps=1)
        pool = {tuple(row) for row in shard.features}
        for row in features[0]:
            assert tuple(row) in pool

    def test_single_generator_call(self):
        # one batch draws and advances the stream exactly as one
        # integers(size=batch_size) call, the documented draw law
        ds = gen_regression(50, 3, 0.1, seed=1)
        shard = partition_non_iid(ds, 2, 0, seed=1)[0]
        rng_a = np.random.default_rng(5)
        features, _ = sample_minibatch(shard, 8, rng_a, steps=1)
        after_a = rng_a.standard_normal(4)
        rng_b = np.random.default_rng(5)
        idx = rng_b.integers(0, len(shard), size=8)
        after_b = rng_b.standard_normal(4)
        np.testing.assert_array_equal(features[0], shard.features[idx])
        np.testing.assert_array_equal(after_a, after_b)


class TestTrainEvalSplit:
    def test_sizes_and_disjointness(self):
        ds = gen_classification(100, 5, 2, sep=2.0, seed=0)
        train, eval_set = train_eval_split(ds, 0.2, seed=0)
        assert len(train) == 80
        assert len(eval_set) == 20
        train_rows = {tuple(r) for r in train.features}
        eval_rows = {tuple(r) for r in eval_set.features}
        assert not (train_rows & eval_rows)

    def test_deterministic(self):
        ds = gen_regression(60, 4, 0.1, seed=1)
        a_train, a_eval = train_eval_split(ds, 0.25, seed=1)
        b_train, b_eval = train_eval_split(ds, 0.25, seed=1)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_eval.targets, b_eval.targets)


class TestSaveLoad:
    def test_regression_round_trip_bit_exact(self, tmp_path):
        ds = gen_regression(25, 4, 0.3, seed=8)
        path = tmp_path / "reg.txt"
        save_dataset(ds, str(path))
        back = np.loadtxt(path, ndmin=2)
        np.testing.assert_array_equal(back[:, 1:], ds.features)
        np.testing.assert_array_equal(back[:, 0], ds.targets)
        assert path.read_text().startswith("# task=regression n_samples=25 dim=4 n_classes=0\n")

    def test_classification_round_trip(self, tmp_path):
        ds = gen_classification(30, 5, 3, sep=2.0, seed=8)
        path = tmp_path / "cls.txt"
        save_dataset(ds, str(path))
        back = np.loadtxt(path, ndmin=2)
        np.testing.assert_array_equal(back[:, 1:], ds.features)
        np.testing.assert_array_equal(back[:, 0].astype(np.int64), ds.targets)
        assert path.read_text().startswith("# task=classification n_samples=30 dim=5 n_classes=3\n")
