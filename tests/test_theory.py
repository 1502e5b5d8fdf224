"""An independent oracle for the quadratic runs.

With one worker, ``batch_size`` full and ``h_min == h_max == H``, a
``fedasync-sampled`` run on the quadratic task is a linear recursion in
the error ``e = x - x*``, where ``x*`` is the least-squares solution of the
training split (the worker's shard). One local step from the anchor
``e_a`` maps ``e`` to ``B e + gamma rho e_a`` with ``B = I - gamma (A + rho
I)`` and ``A = X^T X / n``, so the whole task is ``M e_a`` with ``M = B^H +
gamma rho sum_{j<H} B^j``. The server mixes ``e_{t+1} = (1 - w_t) e_t + w_t
M e_{t-s_t}``, with ``s_t`` the staleness that row ``t + 1`` reports and
``w_t`` the paper's weight ``alpha * s(s_t)``, and the loss on the training
split is ``L* + e^T A e / 2``.

This test predicts every loss row from the config and the ``staleness``
column alone, with its own weights and matrices, and shares no code with
the objectives, the worker or the server (Xie et al., arXiv 1903.03934).

With several workers on skewed shards, the same holds shard by shard.
Worker ``w`` steps on its own ``A_w`` and ``b_w = X_w^T y_w / n_w``, so its
task is the affine map ``e_a -> M_w e_a + d_w``: ``M_w`` is ``M`` built from
``A_w``, and ``d_w = M_w x* + c_w - x*``, with ``c_w = gamma sum_{j<H} B_w^j
b_w``, is how far its shard pulls from the split's optimum. The mix takes
the worker of each apply, as ``tests/watch.py`` records it, and predicts
every loss row of both asynchronous simulators.
"""

import numpy as np
import pytest

from fedasync.server import ServerConfig
from fedasync.simulator import (
    DelayModel,
    ExperimentConfig,
    build_problem,
    run_fedasync_latency,
    run_fedasync_sampled,
)
from fedasync.worker import WorkerConfig
from watch import watching

# the largest relative error allowed in the predicted gap to the optimum,
# checked on rows whose gap is above GAP_FLOOR; below it the loss value's
# own rounding (about 1e-18 at a loss near 5e-3) is the larger error
REL_TOL = 1e-7
GAP_FLOOR = 1e-10


def _weight(cfg: ServerConfig, s: int) -> float:
    """The staleness-weighted mixing weight, from the paper's formulas."""
    if cfg.strategy == "constant":
        factor = 1.0
    elif cfg.strategy == "polynomial":
        factor = (s + 1) ** -cfg.poly_a
    else:
        factor = 1.0 if s <= cfg.hinge_b else 1.0 / (cfg.hinge_a * (s - cfg.hinge_b) + 1.0)
    return cfg.alpha * factor


def _task(cfg: ExperimentConfig, X, y, x_star):
    """``(M, d)`` of one task on the shard ``(X, y)``, in the error ``e``."""
    n, d = X.shape
    w = cfg.worker
    B = np.eye(d) - w.gamma * (X.T @ X / n + w.rho * np.eye(d))
    powers = sum(np.linalg.matrix_power(B, j) for j in range(w.h_max))
    M = np.linalg.matrix_power(B, w.h_max) + w.gamma * w.rho * powers
    c = w.gamma * powers @ (X.T @ y / n)
    return M, M @ x_star + c - x_star


def _predicted_gaps(cfg: ExperimentConfig, X, y, staleness, shards=None, workers=None):
    """``L*`` and the predicted gap ``loss - L*`` of every row. Row ``t + 1``
    applies the task of worker ``workers[t]`` on its shard ``shards[w]``;
    by default one worker holds the whole split ``(X, y)``."""
    n = len(X)
    A = X.T @ X / n
    x_star = np.linalg.solve(A, X.T @ y / n)
    l_star = 0.5 * np.sum((X @ x_star - y) ** 2) / n
    tasks = [_task(cfg, *shard, x_star) for shard in (shards or [(X, y)])]
    workers = workers or [0] * (len(staleness) - 1)
    errors = [-x_star]  # x0 is zeros
    for s, w in zip(staleness[1:], workers):
        a = _weight(cfg.server, s)
        M, drift = tasks[w]
        errors.append((1.0 - a) * errors[-1] + a * (M @ errors[-1 - s] + drift))
    return l_star, np.array([0.5 * e @ A @ e for e in errors])


def _config(strategy, max_staleness):
    return ExperimentConfig(
        task="quadratic",
        n_workers=1,
        total_epochs=200,
        server=ServerConfig(alpha=0.6, strategy=strategy, max_staleness=max_staleness),
        worker=WorkerConfig(gamma=0.1, rho=0.005, h_min=5, h_max=5, batch_size=None),
        n_samples=200,
        dim=10,
        seed=7,
        eval_every=1,
    )


@pytest.mark.parametrize("strategy", ["constant", "polynomial", "hinge"])
@pytest.mark.parametrize("max_staleness", [0, 2, 8])
def test_every_loss_row_is_predicted(strategy, max_staleness):
    cfg = _config(strategy, max_staleness)
    problem = build_problem(cfg)
    records = run_fedasync_sampled(cfg, problem).records
    assert [r.epoch for r in records] == list(range(cfg.total_epochs + 1))
    staleness = [r.staleness for r in records]
    assert all(0 <= s <= min(max_staleness, t - 1) for t, s in enumerate(staleness) if t)
    if max_staleness:
        assert max(staleness) == max_staleness  # stale bases were really used
    l_star, gaps = _predicted_gaps(cfg, problem.train.features, problem.train.targets, staleness)
    measured = np.array([r.loss for r in records]) - l_star
    checked = gaps > GAP_FLOOR
    assert checked.sum() >= 50
    rel = np.abs(measured[checked] - gaps[checked]) / gaps[checked]
    assert rel.max() <= REL_TOL, f"worst row {np.argmax(rel)}: relative error {rel.max():.3g}"


def _skewed_config(strategy, n_workers):
    return ExperimentConfig(
        task="quadratic",
        n_workers=n_workers,
        total_epochs=150,
        server=ServerConfig(alpha=0.6, strategy=strategy, max_staleness=3, hinge_b=1),
        worker=WorkerConfig(gamma=0.1, rho=0.005, h_min=5, h_max=5, batch_size=None),
        n_samples=200,
        dim=10,
        classes_per_device=1,
        seed=7,
        eval_every=1,
        delay=DelayModel(compute_means=[1.0, 2.5, 0.7, 4.0], network_mean=0.1),
    )


@pytest.mark.parametrize("strategy", ["constant", "polynomial", "hinge"])
@pytest.mark.parametrize(
    "runner, n_workers",
    [(run_fedasync_sampled, 4), (run_fedasync_latency, 3)],
    ids=["sampled", "latency"],
)
def test_every_loss_row_of_skewed_workers_is_predicted(runner, n_workers, strategy):
    cfg = _skewed_config(strategy, n_workers)
    problem = build_problem(cfg)
    with watching() as (_, applied):
        records = runner(cfg, problem).records
    assert [r.epoch for r in records] == list(range(cfg.total_epochs + 1))
    staleness = [r.staleness for r in records]
    workers = [w for w, _ in applied]
    assert sorted(set(workers)) == list(range(n_workers))
    assert max(staleness) >= 2  # stale pulls were really trained from
    shards = [(shard.features, shard.targets) for shard in problem.shards]
    X, y = problem.train.features, problem.train.targets
    l_star, gaps = _predicted_gaps(cfg, X, y, staleness, shards, workers)
    measured = np.array([r.loss for r in records]) - l_star
    assert gaps.min() > GAP_FLOOR  # skewed shards keep the mix away from x*
    rel = np.abs(measured - gaps) / gaps
    assert rel.max() <= REL_TOL, f"worst row {np.argmax(rel)}: relative error {rel.max():.3g}"
