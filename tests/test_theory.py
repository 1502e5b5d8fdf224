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
"""

import numpy as np
import pytest

from fedasync.server import ServerConfig
from fedasync.simulator import ExperimentConfig, build_problem, run_fedasync_sampled
from fedasync.worker import WorkerConfig

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


def _predicted_gaps(cfg: ExperimentConfig, X, y, staleness):
    """``L*`` and the predicted gap ``loss - L*`` of every row."""
    n, d = X.shape
    A = X.T @ X / n
    x_star = np.linalg.solve(A, X.T @ y / n)
    l_star = 0.5 * np.sum((X @ x_star - y) ** 2) / n
    w = cfg.worker
    B = np.eye(d) - w.gamma * (A + w.rho * np.eye(d))
    M = np.linalg.matrix_power(B, w.h_max) + w.gamma * w.rho * sum(
        np.linalg.matrix_power(B, j) for j in range(w.h_max)
    )
    errors = [-x_star]  # x0 is zeros
    for s in staleness[1:]:
        a = _weight(cfg.server, s)
        errors.append((1.0 - a) * errors[-1] + a * (M @ errors[-1 - s]))
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
