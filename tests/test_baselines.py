"""Unit tests for the synchronous-rounds and single-stream baselines."""

import numpy as np
import pytest

from fedasync.baselines import FedAvgConfig, run_fedavg, run_serial_sgd
from fedasync.server import ServerConfig
from fedasync.simulator import (
    ExperimentConfig,
    RunFailure,
    RunLoop,
    build_problem,
    run_fedasync_sampled,
)
from fedasync.worker import WorkerConfig
from watch import watching


def _cfg(**over):
    base = dict(
        task="quadratic",
        n_workers=4,
        total_epochs=30,
        server=ServerConfig(alpha=0.6, max_staleness=4),
        worker=WorkerConfig(gamma=0.1, rho=0.005, h_min=2, h_max=6, batch_size=8),
        n_samples=80,
        dim=5,
        seed=0,
        eval_every=1,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestFedAvgConfig:
    def test_defaults(self):
        favg = FedAvgConfig()
        assert favg.k == 10
        assert favg.local_steps is None

    @pytest.mark.parametrize(
        "kwargs", [{"k": 0}, {"k": -1}, {"local_steps": 0}]
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FedAvgConfig(**kwargs)


class TestFedAvg:
    def test_too_many_selected_rejected(self):
        cfg = _cfg(n_workers=3)
        with pytest.raises(ValueError, match="n_workers"):
            run_fedavg(cfg, favg=FedAvgConfig(k=5))

    def test_single_device_single_step_is_gradient_descent(self):
        cfg = _cfg(
            n_workers=1,
            total_epochs=20,
            worker=WorkerConfig(gamma=0.1, rho=0.0, h_min=1, h_max=1, batch_size=None),
        )
        result = run_fedavg(cfg, favg=FedAvgConfig(k=1, local_steps=1))

        problem = build_problem(cfg)
        x = problem.x0.copy()
        X, y = problem.train.features, problem.train.targets
        for _ in range(20):
            x = x - 0.1 * problem.objective.grad(x, X, y)
        np.testing.assert_array_equal(result.final_params, x)

    def test_identical_shards_average_equals_any_single_run(self):
        # same shard, same stream seed per worker is impossible, so use
        # full-batch single-step updates: every worker computes the same
        # deterministic step and the mean equals that step
        cfg = _cfg(
            n_workers=3,
            total_epochs=5,
            classes_per_device=0,
            worker=WorkerConfig(gamma=0.05, rho=0.0, h_min=1, h_max=1, batch_size=None),
        )
        problem = build_problem(cfg)
        same = problem.shards[0]
        for w in (1, 2):
            problem.shards[w] = type(same)(
                device_id=w,
                features=same.features,
                targets=same.targets,
                indices=same.indices,
            )
        result = run_fedavg(cfg, problem=problem, favg=FedAvgConfig(k=3, local_steps=1))

        x = problem.x0.copy()
        X, y = same.features, same.targets
        for _ in range(5):
            x = x - 0.05 * problem.objective.grad(x, X, y)
        np.testing.assert_allclose(result.final_params, x, rtol=1e-12)

    def test_round_converges_on_quadratic(self):
        # 10 devices, all participating, 10 local steps, 200 rounds
        cfg = ExperimentConfig(
            task="quadratic",
            n_workers=10,
            total_epochs=200,
            server=ServerConfig(alpha=0.6, max_staleness=4),
            worker=WorkerConfig(gamma=0.1, rho=0.005, h_min=10, h_max=10, batch_size=20),
            n_samples=1000,
            dim=10,
            seed=0,
            eval_every=50,
        )
        result = run_fedavg(cfg, favg=FedAvgConfig(k=10, local_steps=10))
        assert result.records[-1].loss < 0.01 * result.records[0].loss

    def test_gradient_accounting(self):
        cfg = _cfg(total_epochs=12)
        result = run_fedavg(cfg, favg=FedAvgConfig(k=3, local_steps=4))
        assert result.state.n_gradients == 12 * 3 * 4
        assert [r.epoch for r in result.records] == list(range(13))

    def test_each_averaged_model_is_read_only(self, monkeypatch):
        committed = []
        step = RunLoop.step

        def watched_step(run, sim_time):
            committed.append(run.state.params)
            step(run, sim_time)

        monkeypatch.setattr(RunLoop, "step", watched_step)
        result = run_fedavg(_cfg(total_epochs=4), favg=FedAvgConfig(k=2))
        assert len(committed) == 4
        assert all(not params.flags.writeable for params in committed)
        assert result.final_params is committed[-1]

    def test_rounds_keep_no_model_history(self):
        # nothing reads a FedAvg history, so memory must not grow with rounds
        result = run_fedavg(_cfg(total_epochs=12), favg=FedAvgConfig(k=2))
        assert list(result.state.history) == [0]

    def test_default_local_steps_is_range_midpoint(self):
        cfg = _cfg(total_epochs=3)  # h_min=2, h_max=6 -> midpoint 4
        result = run_fedavg(cfg, favg=FedAvgConfig(k=2))
        assert result.state.n_gradients == 3 * 2 * 4

    def test_deterministic(self):
        cfg = _cfg(total_epochs=15)
        a = run_fedavg(cfg, favg=FedAvgConfig(k=2))
        b = run_fedavg(cfg, favg=FedAvgConfig(k=2))
        assert [r.cells() for r in a.records] == [r.cells() for r in b.records]
        np.testing.assert_array_equal(a.final_params, b.final_params)


class TestSerialSgd:
    def test_zero_step_size_freezes_loss(self):
        cfg = _cfg(
            total_epochs=10,
            worker=WorkerConfig(gamma=0.0, rho=0.0, h_min=1, h_max=1, batch_size=8),
        )
        result = run_serial_sgd(cfg)
        losses = {r.loss for r in result.records}
        assert len(losses) == 1

    def test_loss_drops_across_seeds(self):
        for seed in range(10):
            cfg = _cfg(total_epochs=60, seed=seed)
            result = run_serial_sgd(cfg)
            assert result.records[-1].loss < result.records[0].loss

    def test_one_gradient_per_step(self):
        cfg = _cfg(total_epochs=25)
        result = run_serial_sgd(cfg)
        assert result.state.n_gradients == 25
        assert [r.gradients for r in result.records] == list(range(26))

    def test_deterministic(self):
        cfg = _cfg(total_epochs=30)
        a = run_serial_sgd(cfg)
        b = run_serial_sgd(cfg)
        assert [r.cells() for r in a.records] == [r.cells() for r in b.records]

    def test_matches_degenerate_async_run(self):
        # one worker, zero staleness bound, full mixing: the asynchronous
        # loop collapses onto the single-stream baseline stream-for-stream
        shared = dict(
            n_workers=1,
            total_epochs=100,
            server=ServerConfig(alpha=1.0, max_staleness=0),
            worker=WorkerConfig(gamma=0.1, rho=0.0, h_min=1, h_max=1, batch_size=8),
        )
        with watching() as (sgd, _):
            run_serial_sgd(_cfg(**shared))
        with watching() as (fed, _):
            run_fedasync_sampled(_cfg(**shared))
        assert len(sgd) == len(fed) == 100
        for a, b in zip(sgd, fed):
            np.testing.assert_array_equal(a, b)

    def test_divergence_becomes_run_failure(self):
        # growth factor ~ gamma per step, so 1e40 overflows within 10 steps
        cfg = _cfg(
            total_epochs=10,
            worker=WorkerConfig(gamma=1e40, rho=0.0, h_min=1, h_max=1, batch_size=None),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RunFailure):
                run_serial_sgd(cfg)
