"""Unit tests for the local training loop and its configuration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedasync.data import (
    Shard,
    gen_classification,
    gen_regression,
    partition_non_iid,
    sample_minibatch,
    worker_rng,
)
from fedasync.numerics import LogisticObjective, MlpObjective, QuadraticObjective
from fedasync.worker import (
    DivergenceError,
    LocalUpdate,
    WorkerConfig,
    choose_steps,
    local_train,
    skip_task,
    train_round,
)


def _shard(n=80, dim=2, seed=0):
    ds = gen_regression(n, dim, 0.1, seed=seed)
    return partition_non_iid(ds, 1, 0, seed=seed)[0]


def _problem(kind, n):
    """An objective and a one-device shard of ``n`` samples (dim 3)."""
    if kind == "quadratic":
        return QuadraticObjective(3), _shard(n=n, dim=3, seed=n)
    classes = 2 if kind == "logistic" else 3
    ds = gen_classification(n, 3, classes, 2.0, seed=n)
    shard = partition_non_iid(ds, 1, classes, seed=n)[0]
    if kind == "logistic":
        return LogisticObjective(3, l2=0.01), shard
    return MlpObjective(3, 5, 3), shard


def _reference(objective, shard, anchor, cfg, rng):
    """The documented recursion, one ``sample_minibatch`` call and one
    finiteness check per step: the reference ``local_train`` must equal."""
    steps = int(rng.integers(cfg.h_min, cfg.h_max + 1))
    x = np.array(anchor, dtype=np.float64)
    for h in range(steps):
        if cfg.batch_size is None:
            X, y = shard.features, shard.targets
        else:
            features, targets = sample_minibatch(shard, cfg.batch_size, rng, steps=1)
            X, y = features[0], targets[0]
        g = objective.grad(x, X, y)
        if cfg.rho != 0.0:
            g = g + cfg.rho * (x - anchor)
        if not np.all(np.isfinite(g)):
            raise DivergenceError(h)
        x -= cfg.gamma * g
        if not np.all(np.isfinite(x)):
            raise DivergenceError(h)
    return x, steps


class TestWorkerConfig:
    def test_defaults_valid(self):
        cfg = WorkerConfig(gamma=0.1)
        assert cfg.rho == 0.0
        assert (cfg.h_min, cfg.h_max) == (1, 1)
        assert cfg.batch_size is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": -0.1},
            {"gamma": float("nan")},
            {"gamma": 0.1, "rho": -1.0},
            {"gamma": 0.1, "h_min": 0},
            {"gamma": 0.1, "h_min": 5, "h_max": 4},
            {"gamma": 0.1, "batch_size": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkerConfig(**kwargs)


class TestChooseSteps:
    def test_degenerate_range(self):
        cfg = WorkerConfig(gamma=0.1, h_min=10, h_max=10)
        assert choose_steps(cfg, np.random.default_rng(0)) == 10

    def test_draw_consumed_even_when_range_degenerate(self):
        # the draw matches a direct rng.integers(10, 11) call; neither call
        # moves the stream (see test_degenerate_range_leaves_stream_untouched)
        cfg = WorkerConfig(gamma=0.1, h_min=10, h_max=10)
        rng_a = np.random.default_rng(3)
        choose_steps(cfg, rng_a)
        rng_b = np.random.default_rng(3)
        rng_b.integers(10, 11)
        np.testing.assert_array_equal(
            rng_a.standard_normal(4), rng_b.standard_normal(4)
        )

    def test_degenerate_range_leaves_stream_untouched(self):
        cfg = WorkerConfig(gamma=0.1, h_min=10, h_max=10)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert choose_steps(cfg, rng) == 10
        assert rng.bit_generator.state == before

    def test_uniform_over_inclusive_range(self):
        cfg = WorkerConfig(gamma=0.1, h_min=5, h_max=20)
        rng = np.random.default_rng(17)
        draws = np.array([choose_steps(cfg, rng) for _ in range(100_000)])
        assert draws.min() == 5
        assert draws.max() == 20
        # U{5..20}: mean 12.5, var (16^2 - 1)/12; 3 sigma of the sample mean
        sigma_mean = np.sqrt(255.0 / 12.0 / 100_000)
        assert abs(draws.mean() - 12.5) < 3.0 * sigma_mean


class TestLocalTrain:
    def test_zero_gamma_freezes_iterate(self):
        shard = _shard()
        obj = QuadraticObjective(2)
        anchor = np.array([1.0, -2.0])
        cfg = WorkerConfig(gamma=0.0, rho=0.01, h_min=3, h_max=9, batch_size=8)
        upd = local_train(obj, shard, anchor, tau=5, cfg=cfg, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(upd.params, anchor)
        assert 3 <= upd.local_iters <= 9
        assert upd.tau == 5

    def test_single_full_batch_step_is_plain_gradient_descent(self):
        shard = _shard()
        obj = QuadraticObjective(2)
        anchor = np.array([0.5, 0.5])
        cfg = WorkerConfig(gamma=0.2, rho=0.0, h_min=1, h_max=1, batch_size=None)
        upd = local_train(obj, shard, anchor, tau=0, cfg=cfg, rng=np.random.default_rng(1))
        expected = anchor - 0.2 * obj.grad(anchor, shard.features, shard.targets)
        np.testing.assert_array_equal(upd.params, expected)
        assert upd.local_iters == 1

    def test_five_step_replay_matches_scripted_recursion(self):
        # independent re-execution of the documented draw law and update
        shard = _shard(seed=3)
        obj = QuadraticObjective(2)
        anchor = np.array([2.0, -1.0])
        cfg = WorkerConfig(gamma=0.1, rho=0.01, h_min=5, h_max=5, batch_size=4)
        upd = local_train(obj, shard, anchor, tau=2, cfg=cfg, rng=np.random.default_rng(9))

        rng = np.random.default_rng(9)
        steps = int(rng.integers(5, 6))
        x = anchor.copy()
        for _ in range(steps):
            features, targets = sample_minibatch(shard, 4, rng, steps=1)
            g = obj.grad(x, features[0], targets[0]) + 0.01 * (x - anchor)
            x = x - 0.1 * g
        np.testing.assert_allclose(upd.params, x, atol=1e-12, rtol=0.0)

    def test_full_batch_consumes_only_the_step_draw(self):
        shard = _shard()
        obj = QuadraticObjective(2)
        cfg = WorkerConfig(gamma=0.05, rho=0.0, h_min=4, h_max=4, batch_size=None)
        rng_a = np.random.default_rng(11)
        local_train(obj, shard, np.zeros(2), tau=0, cfg=cfg, rng=rng_a)
        rng_b = np.random.default_rng(11)
        rng_b.integers(4, 5)
        np.testing.assert_array_equal(
            rng_a.standard_normal(3), rng_b.standard_normal(3)
        )

    def test_stronger_pull_ends_closer_to_anchor(self):
        # larger rho contracts the local run toward its starting point
        shard = _shard(seed=4)
        obj = QuadraticObjective(2)
        anchor = np.array([3.0, 3.0])
        dists = []
        for rho in (0.0, 0.1, 1.0, 10.0):
            cfg = WorkerConfig(gamma=0.05, rho=rho, h_min=10, h_max=10, batch_size=8)
            upd = local_train(
                obj, shard, anchor, tau=0, cfg=cfg, rng=np.random.default_rng(21)
            )
            dists.append(float(np.linalg.norm(upd.params - anchor)))
        assert dists == sorted(dists, reverse=True)

    def test_anchor_not_mutated(self):
        shard = _shard()
        obj = QuadraticObjective(2)
        anchor = np.array([1.0, 1.0])
        cfg = WorkerConfig(gamma=0.1, rho=0.5, h_min=3, h_max=3, batch_size=4)
        local_train(obj, shard, anchor, tau=0, cfg=cfg, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(anchor, [1.0, 1.0])

    def test_divergent_step_size_raises_with_iteration(self):
        shard = _shard(seed=5)
        obj = QuadraticObjective(2)
        cfg = WorkerConfig(gamma=1e6, rho=0.0, h_min=300, h_max=300, batch_size=None)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                local_train(
                    obj, shard, np.ones(2), tau=0, cfg=cfg, rng=np.random.default_rng(0)
                )
        assert 0 <= err.value.iteration < 300


class TestProximalStep:
    """The pull term ``rho * (x - anchor)`` of each local step, on the
    whole shard (``batch_size`` None, so no draw from the stream)."""

    @staticmethod
    def _whole(X, y):
        return Shard(features=X, targets=y, indices=np.arange(len(y)))

    def test_rho_zero_is_plain_gradient(self):
        obj = QuadraticObjective(3)
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        anchor = rng.standard_normal(3)
        cfg = WorkerConfig(gamma=0.1, rho=0.0, h_min=3, h_max=3)
        upd = local_train(obj, self._whole(X, y), anchor, 0, cfg, rng)
        x = anchor.copy()
        for _ in range(3):
            x = x - 0.1 * obj.grad(x, X, y)
        np.testing.assert_array_equal(upd.params, x)

    def test_at_anchor_is_plain_gradient(self):
        # the first step starts at the anchor, where the pull term is 0
        obj = QuadraticObjective(3)
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        anchor = rng.standard_normal(3)
        cfg = WorkerConfig(gamma=0.1, rho=5.0)
        upd = local_train(obj, self._whole(X, y), anchor, 0, cfg, rng)
        np.testing.assert_array_equal(upd.params, anchor - 0.1 * obj.grad(anchor, X, y))

    def test_one_dimensional_hand_value(self):
        # one sample (a=1, b=1), gamma=1, rho=2, anchor 0.5. Step 1: data
        # grad 0.5 - 1 = -0.5, pull 0, so x = 1. Step 2: data grad 0, pull
        # 2 * (1 - 0.5) = 1, so x = 0.
        obj = QuadraticObjective(1)
        shard = self._whole(np.array([[1.0]]), np.array([1.0]))
        cfg = WorkerConfig(gamma=1.0, rho=2.0, h_min=2, h_max=2)
        upd = local_train(obj, shard, np.array([0.5]), 0, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(upd.params, [0.0])


class TestFusedTask:
    """``local_train`` draws a task's batches at once and checks
    finiteness once; both must be invisible against the per-step recursion."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["quadratic", "logistic", "mlp"]),
        n=st.integers(3, 60),
        batch_size=st.one_of(st.none(), st.integers(1, 9)),
        h_min=st.integers(1, 4),
        extra=st.integers(0, 6),
        rho=st.sampled_from([0.0, 0.01, 0.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_per_step_recursion(
        self, kind, n, batch_size, h_min, extra, rho, seed
    ):
        objective, shard = _problem(kind, n)
        anchor = np.random.default_rng(seed).standard_normal(objective.dim)
        cfg = WorkerConfig(
            gamma=0.1, rho=rho, h_min=h_min, h_max=h_min + extra, batch_size=batch_size
        )
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        upd = local_train(objective, shard, anchor, tau=0, cfg=cfg, rng=rng_a)
        x, steps = _reference(objective, shard, anchor, cfg, rng_b)
        np.testing.assert_array_equal(upd.params, x)
        assert upd.local_iters == steps
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @staticmethod
    def _diverging(objective, shard, cfg_of, target):
        """An anchor and config whose reference run diverges at step ``target``."""
        rng = np.random.default_rng(0)
        base = rng.standard_normal(objective.dim)
        for scale in (1.0, 1e200, 1e308):
            for gamma in np.logspace(0.0, 300.0, 301):
                cfg = cfg_of(float(gamma))
                try:
                    _reference(objective, shard, scale * base, cfg, np.random.default_rng(5))
                except DivergenceError as err:
                    if err.iteration == target:
                        return scale * base, cfg
        raise AssertionError(f"no grid point diverges at step {target}")

    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    @pytest.mark.parametrize("target", [0, 4, 8])
    def test_divergence_reports_the_reference_step(self, kind, target):
        objective, shard = _problem(kind, 40)

        def cfg_of(gamma):
            return WorkerConfig(gamma=gamma, rho=0.01, h_min=9, h_max=9, batch_size=3)

        with np.errstate(over="ignore", invalid="ignore"):
            anchor, cfg = self._diverging(objective, shard, cfg_of, target)
            kept = anchor.copy()
            rng = np.random.default_rng(5)
            with pytest.raises(DivergenceError) as err:
                local_train(objective, shard, anchor, tau=0, cfg=cfg, rng=rng)
        assert err.value.iteration == target
        np.testing.assert_array_equal(anchor, kept)
        # draw law: the step count, then all nine batches, whatever step diverged
        law = np.random.default_rng(5)
        law.integers(9, 10)
        for _ in range(9):
            sample_minibatch(shard, 3, law, steps=1)
        assert rng.bit_generator.state == law.bit_generator.state

    def test_full_batch_divergence_reports_the_reference_step(self):
        objective, shard = _problem("quadratic", 40)

        def cfg_of(gamma):
            return WorkerConfig(gamma=gamma, h_min=6, h_max=6, batch_size=None)

        with np.errstate(over="ignore", invalid="ignore"):
            anchor, cfg = self._diverging(objective, shard, cfg_of, 3)
            with pytest.raises(DivergenceError) as err:
                local_train(objective, shard, anchor, 0, cfg, np.random.default_rng(5))
        assert err.value.iteration == 3

    @pytest.mark.parametrize("batch_size", [50, None])
    @pytest.mark.parametrize("gamma, step", [(1e30, 11), (1e60, 5), (1e150, 2)])
    def test_mlp_divergence_step_is_pinned(self, batch_size, gamma, step):
        # the step indices the per-step kernel gave before the iterate was
        # bound to the step kernel once per task
        obj = MlpObjective(10, 16, 3)
        rng = np.random.default_rng(23)
        X, y = rng.standard_normal((60, 10)), rng.integers(0, 3, 60)
        anchor = rng.standard_normal(obj.dim)
        cfg = WorkerConfig(gamma=gamma, rho=0.005, h_min=12, h_max=12, batch_size=batch_size)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            local_train(obj, Shard(X, y, np.arange(60)), anchor, 0, cfg, np.random.default_rng(7))
        assert err.value.iteration == step


class TestLocalUpdate:
    def test_params_are_read_only(self):
        upd = LocalUpdate(params=np.zeros(3), tau=0, worker_id=1, local_iters=2)
        with pytest.raises(ValueError):
            upd.params[0] = 1.0

    def test_worker_stream_reproducibility(self):
        shard = _shard(seed=6)
        obj = QuadraticObjective(2)
        cfg = WorkerConfig(gamma=0.1, rho=0.005, h_min=2, h_max=6, batch_size=4)
        a = local_train(obj, shard, np.zeros(2), tau=0, cfg=cfg, rng=worker_rng(0, 3))
        b = local_train(obj, shard, np.zeros(2), tau=0, cfg=cfg, rng=worker_rng(0, 3))
        np.testing.assert_array_equal(a.params, b.params)
        assert a.local_iters == b.local_iters


class TestSkipTask:
    @pytest.mark.parametrize("batch_size", [None, 1, 7])
    @pytest.mark.parametrize("h_min, h_max", [(3, 3), (1, 9)])
    def test_leaves_the_stream_where_local_train_does(self, batch_size, h_min, h_max):
        objective, shard = _problem("mlp", 40)
        cfg = WorkerConfig(gamma=0.1, rho=0.01, h_min=h_min, h_max=h_max, batch_size=batch_size)
        anchor = np.random.default_rng(0).standard_normal(objective.dim) * 0.1
        for seed in range(10):
            trained, skipped = worker_rng(seed, 1), worker_rng(seed, 1)
            for _ in range(3):  # consecutive tasks on one stream
                local_train(objective, shard, anchor, 0, cfg, trained)
                skip_task(shard, cfg, skipped)
                assert trained.bit_generator.state == skipped.bit_generator.state


def _round_shards(k, d, classes, equal=True, seed=0):
    """``k`` shards of random rows, 30 each or of 20, 23, 26, ... rows;
    class ids in ``[0, classes)``, or real targets when ``classes`` is 0."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(k):
        m = 30 if equal else 20 + 3 * r
        y = rng.integers(0, classes, m) if classes else rng.standard_normal(m)
        out.append(Shard(rng.standard_normal((m, d)), y, np.arange(m)))
    return out


def _sequential(objective, shards, anchor, cfg, rngs):
    """The reference round: one ``local_train`` per device, in order."""
    return [local_train(objective, s, anchor, 0, cfg, g, worker_id=r)
            for r, (s, g) in enumerate(zip(shards, rngs))]


def _streams(k, seed=3):
    return [worker_rng(seed, r) for r in range(k)]


class TestTrainRound:
    """``train_round`` steps the devices of a round as one stack; each row
    must be the device's ``local_train`` result, bit for bit."""

    @staticmethod
    def _same_bits(stack, steps, updates):
        assert stack.shape == (len(updates), updates[0].params.size)
        assert [row.tobytes() for row in stack] == [u.params.tobytes() for u in updates]
        assert steps == [u.local_iters for u in updates]

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    @pytest.mark.parametrize("hidden", [1, 4, 105])
    @pytest.mark.parametrize("classes", [2, 3, 8])
    @pytest.mark.parametrize(
        "batch_size, equal", [(1, False), (20, False), (None, True), (None, False)]
    )
    def test_mlp_rows_equal_sequential_local_train(self, k, hidden, classes, batch_size, equal):
        obj = MlpObjective(5, hidden, classes)
        shards = _round_shards(k, 5, classes, equal, seed=k * hidden * classes)
        anchor = np.random.default_rng(hidden).standard_normal(obj.dim) * 0.5
        cfg = WorkerConfig(gamma=0.3, rho=0.05, h_min=6, h_max=6, batch_size=batch_size)
        updates = _sequential(obj, shards, anchor, cfg, _streams(k))
        stack, steps = train_round(obj, shards, anchor, cfg, _streams(k))
        self._same_bits(stack, steps, updates)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize(
        "batch_size, equal", [(1, False), (7, False), (None, True), (None, False)]
    )
    def test_linear_rows_equal_sequential_local_train(self, kind, batch_size, equal):
        obj = QuadraticObjective(4) if kind == "quadratic" else LogisticObjective(4, l2=0.01)
        shards = _round_shards(3, 4, 0 if kind == "quadratic" else 2, equal, seed=1)
        anchor = np.random.default_rng(2).standard_normal(4)
        cfg = WorkerConfig(gamma=0.1, rho=0.7, h_min=5, h_max=5, batch_size=batch_size)
        updates = _sequential(obj, shards, anchor, cfg, _streams(3))
        stack, steps = train_round(obj, shards, anchor, cfg, _streams(3))
        self._same_bits(stack, steps, updates)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    @pytest.mark.parametrize("batch_size", [None, 1, 7])
    @pytest.mark.parametrize("h_min, h_max", [(3, 3), (1, 9)])
    def test_every_stream_ends_where_sequential_training_leaves_it(
        self, kind, batch_size, h_min, h_max
    ):
        objective, shard = _problem(kind, 40)
        shards = [shard] * 4
        anchor = np.random.default_rng(0).standard_normal(objective.dim) * 0.1
        cfg = WorkerConfig(gamma=0.1, rho=0.01, h_min=h_min, h_max=h_max, batch_size=batch_size)
        sequential, stacked = _streams(4), _streams(4)
        for _ in range(3):  # consecutive rounds on the same streams
            updates = _sequential(objective, shards, anchor, cfg, sequential)
            stack, steps = train_round(objective, shards, anchor, cfg, stacked)
            self._same_bits(stack, steps, updates)
            assert [g.bit_generator.state for g in stacked] == [
                g.bit_generator.state for g in sequential
            ]

    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_second_of_three_diverging_raises_its_step(self, kind):
        # device 1's shard holds one infinite feature: its gradient turns
        # non-finite at the first step whose batch draws that row (step 4
        # on its stream), while devices 0 and 2 train to finite models
        obj = QuadraticObjective(3) if kind == "quadratic" else MlpObjective(3, 4, 3)
        shards = _round_shards(3, 3, 0 if kind == "quadratic" else 3, seed=4)
        shards[1].features[5, 2] = np.inf
        anchor = np.random.default_rng(5).standard_normal(obj.dim)
        cfg = WorkerConfig(gamma=0.1, rho=0.01, h_min=12, h_max=12, batch_size=4)
        with np.errstate(all="ignore"):
            for r in (0, 2):
                alone = local_train(obj, shards[r], anchor, 0, cfg, _streams(3)[r])
                assert np.isfinite(alone.params).all()
            with pytest.raises(DivergenceError) as sequential:
                _sequential(obj, shards, anchor, cfg, _streams(3))
            with pytest.raises(DivergenceError) as stacked:
                train_round(obj, shards, anchor, cfg, _streams(3))
        assert stacked.value.iteration == sequential.value.iteration == 4

    def test_anchor_is_kept(self):
        obj = MlpObjective(5, 4, 3)
        shards = _round_shards(2, 5, 3)
        cfg = WorkerConfig(gamma=0.1, h_min=2, h_max=2, batch_size=3)
        anchor = np.ones(obj.dim)
        train_round(obj, shards, anchor, cfg, _streams(2))
        np.testing.assert_array_equal(anchor, np.ones(obj.dim))
