"""Unit tests for both simulation modes, the delay model, and problem setup."""

import gc
import heapq
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

import fedasync.simulator as simulator
from fedasync.data import SERVER_DOMAIN, delay_rng, domain_rng, worker_rng
from fedasync.server import ServerConfig, ServerState, StaleUpdateError, apply_update, plan_triggers
from fedasync.simulator import (
    DelayModel,
    ExperimentConfig,
    RunFailure,
    build_problem,
    run_fedasync_latency,
    run_fedasync_sampled,
)
from fedasync.worker import DivergenceError, WorkerConfig, local_train
from one_shot import loss_grad
from watch import watching


TASKS = ["quadratic", "logistic", "mlp", "wide-mlp"]


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _task_cfg(task, **over):
    if task == "wide-mlp":  # fedavg-mlp-rounds' network: 800 training rows, hidden=105
        return _cfg(task="mlp", n_classes=4, hidden=105, n_samples=1000, dim=10, **over)
    return _cfg(task=task, n_classes=2 if task == "logistic" else 3, hidden=4, **over)


def _cfg(**over):
    base = dict(
        task="quadratic",
        n_workers=4,
        total_epochs=30,
        server=ServerConfig(alpha=0.6, max_staleness=4),
        worker=WorkerConfig(gamma=0.1, rho=0.005, h_min=2, h_max=5, batch_size=8),
        n_samples=80,
        dim=5,
        seed=0,
        eval_every=1,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestDelayModel:
    def test_constant_kind_consumes_no_randomness(self):
        dm = DelayModel(compute_means=[2.0], network_mean=0.5, kind="constant")
        rng = np.random.default_rng(0)
        assert dm.draw(0, rng) == 2.5
        np.testing.assert_array_equal(
            rng.standard_normal(3), np.random.default_rng(0).standard_normal(3)
        )

    def test_uniform_kind_bounded_by_twice_mean(self):
        dm = DelayModel(compute_means=[1.0], network_mean=0.0, kind="uniform")
        rng = np.random.default_rng(1)
        draws = [dm.draw(0, rng) for _ in range(2000)]
        assert 0.0 <= min(draws) and max(draws) <= 2.0
        assert abs(np.mean(draws) - 1.0) < 0.05

    def test_exponential_kind_mean(self):
        dm = DelayModel(compute_means=[3.0], network_mean=0.0, kind="exponential")
        rng = np.random.default_rng(2)
        draws = [dm.draw(0, rng) for _ in range(5000)]
        assert abs(np.mean(draws) - 3.0) < 0.2

    def test_per_worker_means(self):
        dm = DelayModel(compute_means=[1.0, 10.0], network_mean=0.0, kind="constant")
        assert dm.compute_mean_for(0) == 1.0
        assert dm.compute_mean_for(1) == 10.0
        assert dm.compute_mean_for(2) == 1.0  # wraps

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            DelayModel(kind="gamma")

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError, match="means"):
            DelayModel(compute_means=[1.0, -1.0])

    @pytest.mark.parametrize("means", [1.0, []])
    def test_bare_float_or_empty_list_rejected(self, means):
        with pytest.raises(ValueError, match="one or more values"):
            DelayModel(compute_means=means)


class TestExperimentConfig:
    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="task"):
            _cfg(task="svm")

    def test_logistic_must_be_binary(self):
        with pytest.raises(ValueError, match="binary"):
            _cfg(task="logistic", n_classes=3)


class TestBuildProblem:
    def test_quadratic_shapes_and_zero_start(self):
        problem = build_problem(_cfg())
        assert problem.train.features.shape == (64, 5)
        assert problem.eval_set.features.shape == (16, 5)
        assert len(problem.shards) == 4
        np.testing.assert_array_equal(problem.x0, np.zeros(5))

    def test_mlp_start_is_seeded_gaussian(self):
        cfg = _cfg(task="mlp", n_classes=3, dim=5, hidden=4, n_samples=60)
        a = build_problem(cfg)
        b = build_problem(cfg)
        assert a.x0.shape == (a.objective.dim,)
        assert np.any(a.x0 != 0.0)
        np.testing.assert_array_equal(a.x0, b.x0)

    @pytest.mark.parametrize("task", TASKS)
    def test_record_is_a_fresh_loss_grad_and_accuracy(self, task):
        # make_record evaluates through the binding made once per problem
        problem = build_problem(_task_cfg(task))
        obj, train, held = problem.objective, problem.train, problem.eval_set
        state = ServerState.create(np.random.default_rng(1).standard_normal(obj.dim))
        rec = simulator.make_record(problem, state, 2.5)
        loss, g = loss_grad(obj, state.params, train.features, train.targets)
        assert _bits(rec.loss) == _bits(loss)
        assert _bits(rec.grad_norm_sq) == _bits(np.dot(g, g))
        assert rec.accuracy == obj.accuracy(state.params, held.features, held.targets)
        assert (rec.epoch, rec.gradients, rec.sim_time) == (0, 0, 2.5)

    @pytest.mark.parametrize("task", TASKS)
    def test_alternating_models_each_get_fresh_bits(self, task):
        # nothing of one row stays in the bound buffers to change the next
        problem = build_problem(_task_cfg(task))
        obj, train, held = problem.objective, problem.train, problem.eval_set
        rng = np.random.default_rng(3)
        models = [rng.standard_normal(obj.dim) * scale for scale in (0.1, 1.0)]
        for i in range(6):
            params = models[i % 2]
            ref_loss, ref_g = loss_grad(obj, params, train.features, train.targets)
            rec = simulator.make_record(problem, ServerState.create(params), 0.0)
            assert _bits(rec.loss) == _bits(ref_loss)
            assert _bits(rec.grad_norm_sq) == _bits(np.dot(ref_g, ref_g))
            assert rec.accuracy == obj.accuracy(params, held.features, held.targets)
            loss, g = problem.evaluate(params)
            assert _bits(loss) == _bits(ref_loss) and _bits(g) == _bits(ref_g)

    def test_wide_mlp_row_peaks_below_one_activation_array(self):
        # the n x hidden work arrays of both splits are bound once, so a
        # row allocates none, not even the held-out split's
        problem = build_problem(_task_cfg("wide-mlp"))
        n, hidden = problem.eval_set.features.shape[0], problem.objective.hidden
        assert (problem.train.features.shape[0], n, hidden) == (800, 200, 105)
        state = ServerState.create(problem.x0.copy())
        tracemalloc.start()
        try:
            simulator.make_record(problem, state, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * hidden * 8

    def test_bound_buffers_are_freed_with_their_problem(self):
        cfg = _task_cfg("wide-mlp")
        tracemalloc.start()
        try:
            problem = build_problem(cfg)
            n, hidden = problem.train.features.shape[0], problem.objective.hidden
            held = tracemalloc.get_traced_memory()[0]
            del problem
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert freed >= 2 * n * hidden * 8

    def test_bound_targets_are_read_only_and_kept_by_a_run(self):
        cfg = _cfg(task="mlp", n_classes=3, hidden=4, total_epochs=20)
        problem = build_problem(cfg)
        bound = inspect.getclosurevars(problem.evaluate).nonlocals
        onehot, labels = bound["t"], bound["labels"]
        kept = onehot.copy(), labels.copy()
        assert not onehot.flags.writeable and not labels.flags.writeable
        np.testing.assert_array_equal(onehot, problem.objective.prepare(problem.train.targets))
        np.testing.assert_array_equal(labels, problem.train.targets)
        run_fedasync_latency(cfg, problem)
        assert onehot.tobytes() == kept[0].tobytes() and labels.tobytes() == kept[1].tobytes()

    def test_shards_cover_training_split(self):
        problem = build_problem(_cfg())
        got = np.sort(np.concatenate([s.indices for s in problem.shards]))
        np.testing.assert_array_equal(got, np.arange(64))


class TestSampledMode:
    def test_deterministic_records_and_params(self):
        a = run_fedasync_sampled(_cfg())
        b = run_fedasync_sampled(_cfg())
        assert [r.cells() for r in a.records] == [r.cells() for r in b.records]
        np.testing.assert_array_equal(a.final_params, b.final_params)

    def test_epochs_gap_free_and_staleness_bounded(self):
        result = run_fedasync_sampled(_cfg(total_epochs=50))
        epochs = [r.epoch for r in result.records]
        assert epochs == list(range(51))
        assert all(r.staleness <= 4 for r in result.records)
        assert result.state.epoch == 50

    def test_gradient_budget_within_step_bounds(self):
        cfg = _cfg(total_epochs=40)
        result = run_fedasync_sampled(cfg)
        total = result.state.n_gradients
        assert 40 * cfg.worker.h_min <= total <= 40 * cfg.worker.h_max
        grads = [r.gradients for r in result.records]
        assert grads == sorted(grads)

    def test_zero_bound_matches_sequential_scripted_loop(self):
        cfg = _cfg(server=ServerConfig(alpha=0.6, max_staleness=0), total_epochs=25)
        result = run_fedasync_sampled(cfg)

        problem = build_problem(cfg)
        state = ServerState.create(problem.x0)
        server_stream = domain_rng(cfg.seed, SERVER_DOMAIN)
        streams = [worker_rng(cfg.seed, w) for w in range(cfg.n_workers)]
        for _ in range(cfg.total_epochs):
            s = int(server_stream.integers(0, 1))
            w = int(server_stream.integers(0, cfg.n_workers))
            assert s == 0
            upd = local_train(
                problem.objective,
                problem.shards[w],
                state.params,
                state.epoch,
                cfg.worker,
                streams[w],
                worker_id=w,
            )
            apply_update(state, cfg.server, upd)
        np.testing.assert_array_equal(result.final_params, state.params)

    def test_base_model_is_staleness_epochs_back(self):
        # alpha=1 makes each committed model equal the incoming one, so a
        # trajectory plus the history window can be checked directly
        cfg = _cfg(
            server=ServerConfig(alpha=1.0, max_staleness=3),
            total_epochs=20,
        )
        with watching() as (models, _):
            result = run_fedasync_sampled(cfg)
        assert len(models) == 20
        np.testing.assert_array_equal(models[-1], result.final_params)

    def test_eval_every_schedule(self):
        cfg = _cfg(total_epochs=30, eval_every=7)
        result = run_fedasync_sampled(cfg)
        assert [r.epoch for r in result.records] == [0, 7, 14, 21, 28, 30]

    def test_divergence_becomes_run_failure_with_partial_records(self):
        cfg = _cfg(
            worker=WorkerConfig(gamma=1e6, rho=0.0, h_min=200, h_max=200, batch_size=None),
            total_epochs=10,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RunFailure) as err:
                run_fedasync_sampled(cfg)
        assert err.value.records[0].epoch == 0
        assert err.value.epoch >= 0

    def test_sampled_staleness_never_exceeds_epoch(self):
        cfg = _cfg(server=ServerConfig(alpha=0.6, max_staleness=16), total_epochs=40)
        result = run_fedasync_sampled(cfg)
        for rec in result.records[1:]:
            assert rec.staleness < rec.epoch or rec.staleness == 0


class TestLatencyMode:
    def test_deterministic(self):
        cfg = _cfg(delay=DelayModel(kind="exponential"))
        a = run_fedasync_latency(cfg)
        b = run_fedasync_latency(cfg)
        assert [r.cells() for r in a.records] == [r.cells() for r in b.records]
        np.testing.assert_array_equal(a.final_params, b.final_params)

    def test_serialized_single_worker_matches_sampled(self):
        shared = dict(
            n_workers=1,
            total_epochs=25,
            server=ServerConfig(alpha=0.6, max_staleness=0),
        )
        sampled = run_fedasync_sampled(_cfg(**shared))
        latency = run_fedasync_latency(
            _cfg(delay=DelayModel(kind="constant"), **shared)
        )
        np.testing.assert_array_equal(sampled.final_params, latency.final_params)
        assert [r.staleness for r in latency.records] == [0] * 26

    def test_a_task_trains_from_the_committed_model_itself(self, monkeypatch):
        # dispatch keeps (state.epoch, state.params): no copy of the model
        cfg = _cfg(
            n_workers=4,
            total_epochs=40,
            server=ServerConfig(alpha=0.5, max_staleness=2),
            delay=DelayModel(kind="exponential"),
        )
        committed, anchors = {}, []

        def watched_apply(state, server_cfg, upd):
            committed.setdefault(state.epoch, state.params)
            alpha_t = apply_update(state, server_cfg, upd)
            committed[state.epoch] = state.params
            return alpha_t

        def watched_train(objective, shard, anchor, tau, wcfg, rng, worker_id=0):
            anchors.append((tau, anchor))
            return local_train(objective, shard, anchor, tau, wcfg, rng, worker_id)

        monkeypatch.setattr(simulator, "apply_update", watched_apply)
        monkeypatch.setattr(simulator, "local_train", watched_train)
        result = run_fedasync_latency(cfg)
        assert len(anchors) == cfg.total_epochs
        assert all(anchor is committed[tau] for tau, anchor in anchors)
        assert {tau for tau, _ in anchors} != {0}
        assert result.final_params is result.state.params

    def test_zero_bound_round_robin_matches_scripted_loop(self):
        cfg = _cfg(
            n_workers=3,
            total_epochs=21,
            server=ServerConfig(alpha=0.7, max_staleness=0),
            delay=DelayModel(kind="constant"),
        )
        with watching() as (_, applied):
            result = run_fedasync_latency(cfg)

        problem = build_problem(cfg)
        state = ServerState.create(problem.x0)
        streams = [worker_rng(cfg.seed, w) for w in range(3)]
        for t in range(cfg.total_epochs):
            w = t % 3
            upd = local_train(
                problem.objective,
                problem.shards[w],
                state.params,
                state.epoch,
                cfg.worker,
                streams[w],
                worker_id=w,
            )
            apply_update(state, cfg.server, upd)
        np.testing.assert_array_equal(result.final_params, state.params)
        assert [w for w, _ in applied] == [t % 3 for t in range(21)]

    def test_staleness_bounded_and_epochs_gap_free(self):
        cfg = _cfg(
            n_workers=6,
            total_epochs=60,
            server=ServerConfig(alpha=0.5, max_staleness=3),
            delay=DelayModel(compute_means=[1.0], network_mean=0.2, kind="exponential"),
        )
        with watching() as (_, applied):
            result = run_fedasync_latency(cfg)
        assert [r.epoch for r in result.records] == list(range(61))
        assert all(s <= 3 for _, s in applied)
        assert len(applied) == 60

    def test_sim_time_nondecreasing_and_positive(self):
        cfg = _cfg(total_epochs=20)
        result = run_fedasync_latency(cfg)
        times = [r.sim_time for r in result.records]
        assert times[0] == 0.0
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert times[-1] > 0.0

    def test_slow_worker_accumulates_more_staleness(self):
        # bound chosen high enough that even the slow worker's pushes
        # land, so the comparison sees every update
        cfg = _cfg(
            n_workers=4,
            total_epochs=150,
            server=ServerConfig(alpha=0.5, max_staleness=100),
            worker=WorkerConfig(gamma=0.05, rho=0.005, h_min=1, h_max=2, batch_size=8),
            delay=DelayModel(
                compute_means=[5.0, 1.0, 1.0, 1.0],
                network_mean=0.0,
                kind="constant",
            ),
        )
        with watching() as (_, applied):
            result = run_fedasync_latency(cfg)
        assert result.state.n_rejected == 0
        by_worker = {w: [] for w in range(4)}
        for w, s in applied:
            by_worker[w].append(s)
        assert all(by_worker[w] for w in range(4))
        slow = np.mean(by_worker[0])
        fast = np.mean(by_worker[1] + by_worker[2] + by_worker[3])
        assert slow > fast


def _train_at_dispatch(cfg):
    """The latency schedule with every task trained when it is dispatched,
    rejected or not: ``(state, apply_log)`` after the run."""
    problem = build_problem(cfg)
    state = ServerState.create(problem.x0)
    streams = [worker_rng(cfg.seed, w) for w in range(cfg.n_workers)]
    delays = [delay_rng(cfg.seed, w) for w in range(cfg.n_workers)]
    heap, seq, idle, cursor, log = [], itertools.count(), set(range(cfg.n_workers)), 0, []

    def dispatch(now):
        nonlocal cursor
        chosen, cursor = plan_triggers(sorted(idle), len(heap), cfg.server.max_staleness, cursor)
        for w in chosen:
            idle.discard(w)
            tau, params = state.epoch, state.params
            upd = local_train(
                problem.objective, problem.shards[w], params, tau, cfg.worker, streams[w], w
            )
            heapq.heappush(heap, (now + cfg.delay.draw(w, delays[w]), next(seq), w, upd))

    dispatch(0.0)
    while heap and state.epoch < cfg.total_epochs:
        now, _, w, upd = heapq.heappop(heap)
        idle.add(w)
        try:
            apply_update(state, cfg.server, upd)
        except StaleUpdateError:
            dispatch(now)
            continue
        log.append((w, state.last_staleness))
        if state.epoch < cfg.total_epochs:
            dispatch(now)
    return state, log


class TestTrainAtLanding:
    """A latency task trains when its push lands and is accepted; a
    rejected push only makes its task's draws."""

    # worker 0 is slow, so every one of its pushes lands stale
    SLOW = dict(
        n_workers=4,
        total_epochs=100,
        server=ServerConfig(alpha=0.5, max_staleness=2),
        delay=DelayModel(compute_means=[20.0, 1.0, 1.0, 1.0], network_mean=0.0, kind="constant"),
    )

    @pytest.mark.parametrize(
        "over",
        [
            dict(n_workers=6, total_epochs=80, server=ServerConfig(alpha=0.5, max_staleness=1)),
            dict(n_workers=6, total_epochs=80, worker=WorkerConfig(gamma=0.1, h_min=2, h_max=4)),
            SLOW,
        ],
    )
    def test_same_run_as_training_at_dispatch(self, monkeypatch, over):
        cfg = _cfg(**{"delay": DelayModel(kind="exponential"), **over})
        calls = []

        def counted(objective, shard, anchor, tau, wcfg, rng, worker_id=0):
            calls.append(worker_id)
            return local_train(objective, shard, anchor, tau, wcfg, rng, worker_id)

        monkeypatch.setattr(simulator, "local_train", counted)
        with watching() as (_, applied):
            result = run_fedasync_latency(cfg)
        state, log = _train_at_dispatch(cfg)
        assert result.state.n_rejected == state.n_rejected > 0
        assert applied == log
        assert result.final_params.tobytes() == state.params.tobytes()
        assert calls == [w for w, _ in log]  # one local_train per applied epoch

    def test_diverging_push_fails_the_run_where_it_lands(self, monkeypatch):
        # worker 2 is dispatched at epoch 0; its first accepted push lands
        # at epoch 22, after stale ones
        cfg = _cfg(n_workers=6, total_epochs=80, server=ServerConfig(alpha=0.5, max_staleness=3))
        with watching() as (_, log):
            run_fedasync_latency(cfg)
        first = [w for w, _ in log].index(2)
        assert first == 22

        def diverging(objective, shard, anchor, tau, wcfg, rng, worker_id=0):
            if worker_id == 2:
                raise DivergenceError(0)
            return local_train(objective, shard, anchor, tau, wcfg, rng, worker_id)

        monkeypatch.setattr(simulator, "local_train", diverging)
        with pytest.raises(RunFailure) as err:
            run_fedasync_latency(cfg)
        assert err.value.epoch == first
        assert [r.epoch for r in err.value.records] == list(range(first + 1))

    def test_stale_push_cannot_fail_the_run(self, monkeypatch):
        cfg = _cfg(**self.SLOW)
        with watching() as (_, applied):
            clean = run_fedasync_latency(cfg)
        assert clean.state.n_rejected > 0 and 0 not in [w for w, _ in applied]

        def diverging(objective, shard, anchor, tau, wcfg, rng, worker_id=0):
            if worker_id == 0:
                raise DivergenceError(0)
            return local_train(objective, shard, anchor, tau, wcfg, rng, worker_id)

        monkeypatch.setattr(simulator, "local_train", diverging)
        result = run_fedasync_latency(cfg)
        assert [r.cells() for r in result.records] == [r.cells() for r in clean.records]
        assert result.state.n_rejected == clean.state.n_rejected


class TestConvergenceSanity:
    def test_async_run_reaches_one_percent_of_initial_loss(self):
        # the standing asynchronous setup converges on the quadratic:
        # 10 devices, bound 4, gamma 0.1, rho 0.005, alpha 0.6, T=2000
        cfg = ExperimentConfig(
            task="quadratic",
            n_workers=10,
            total_epochs=2000,
            server=ServerConfig(alpha=0.6, max_staleness=4),
            worker=WorkerConfig(gamma=0.1, rho=0.005, h_min=5, h_max=15, batch_size=20),
            n_samples=1000,
            dim=10,
            seed=0,
            eval_every=500,
        )
        result = run_fedasync_sampled(cfg)
        initial = result.records[0].loss
        final = result.records[-1].loss
        assert final < 0.01 * initial
        assert 2000 * 5 <= result.state.n_gradients <= 2000 * 15
