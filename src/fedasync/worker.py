"""Local training loop run by each device.

A worker pulls the current global model, runs a random number of
regularized SGD steps on its own shard, and sends back the resulting
parameters together with the epoch the pull happened at. The same
function drives the in-process simulators and the TCP worker process.
The devices of a FedAvg round, which all pull one model, train together
as one stack (:func:`train_round`), with the same draws and bits.
Neither checks its inputs again: :class:`WorkerConfig` is checked when
it is built, and every shard of a checked experiment is non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fedasync.data import Shard, minibatch_indices, sample_minibatch
from fedasync.numerics import Objective
from fedasync.rules import FINITE_NONNEGATIVE, at_least, optional, validate


class DivergenceError(RuntimeError):
    """Raised when a local step produces a non-finite gradient or iterate."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite value at local step {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class WorkerConfig:
    """Hyperparameters of the local solver.

    Attributes
    ----------
    gamma : float
        Local SGD step size, >= 0 (0 freezes the iterate, occasionally
        useful as a control).
    rho : float
        Weight of the proximal pull toward the pulled global model, >= 0.
    h_min, h_max : int
        Bounds on the number of local steps; each run draws the count
        uniformly from ``{h_min, ..., h_max}``.
    batch_size : int or None
        Minibatch size (>= 1, sampled with replacement); None means every
        step uses the whole shard deterministically, with no draw from
        the sampling stream.
    """

    gamma: float = field(metadata=FINITE_NONNEGATIVE)
    rho: float = field(default=0.0, metadata=FINITE_NONNEGATIVE)
    h_min: int = field(default=1, metadata=at_least(1))
    h_max: int = 1
    batch_size: int | None = field(default=None, metadata=optional(at_least(1)))

    def __post_init__(self):
        validate(self)
        if broken := self.conflicts(**vars(self)):
            raise ValueError("\n".join(broken))

    @staticmethod
    def conflicts(h_min, h_max, **_) -> list[str]:
        """The rules across fields that these values break: the step range is not empty."""
        return [f"need h_min <= h_max, got ({h_min}, {h_max})"] if h_min > h_max else []


@dataclass
class LocalUpdate:
    """Result of one local run, as pushed back to the server.

    ``tau`` is the server epoch at which the model was pulled;
    ``params`` is marked read-only because the server mixes it into
    shared state.
    """

    params: np.ndarray
    tau: int
    worker_id: int
    local_iters: int

    def __post_init__(self):
        self.params.setflags(write=False)


def choose_steps(cfg: WorkerConfig, rng: np.random.Generator) -> int:
    """Number of local steps: one ``rng.integers(h_min, h_max + 1)`` draw.

    When ``h_min == h_max`` numpy returns the one value without touching
    the bit generator, so a degenerate range consumes nothing from the
    stream (every FedAvg and serial-SGD task draws from such a range).
    """
    return int(rng.integers(cfg.h_min, cfg.h_max + 1))


def skip_task(shard: Shard, cfg: WorkerConfig, rng: np.random.Generator) -> None:
    """Advance ``rng`` past exactly the draws :func:`local_train` makes on
    ``shard``, the step count and then the minibatch indices, and train
    nothing: the task of a push that is rejected when it lands."""
    steps = choose_steps(cfg, rng)
    if cfg.batch_size is not None:
        minibatch_indices(len(shard), cfg.batch_size, rng, steps)


def local_train(
    objective: Objective,
    shard: Shard,
    anchor: np.ndarray,
    tau: int,
    cfg: WorkerConfig,
    rng: np.random.Generator,
    worker_id: int = 0,
) -> LocalUpdate:
    """Run one regularized local SGD pass starting from ``anchor``.

    Each step takes a minibatch gradient plus ``rho * (x - anchor)``, the
    anchor staying fixed at the pulled model for the whole run. Draw law:
    one step-count draw, then one minibatch draw per step (none when
    ``batch_size`` is None), made as one ``sample_minibatch(...,
    steps=steps)`` call that holds ``steps * batch_size * dim`` floats;
    :func:`skip_task` makes the same draws. The targets of all the steps
    are prepared for the gradient kernel (``objective.prepare``) at once.

    The anchor is a committed model, or a pull the worker's session has
    checked, so it is not checked again. Finiteness is checked once, on
    the final iterate; a non-finite result is replayed step by step on
    the same batches to find the step that diverged.

    Raises
    ------
    DivergenceError
        If the gradient or the iterate stops being finite.
    """
    steps = choose_steps(cfg, rng)
    if cfg.batch_size is None:
        batches = [(shard.features, objective.prepare(shard.targets))] * steps
    else:
        X, y = sample_minibatch(shard, cfg.batch_size, rng, steps)
        batches = list(zip(X, objective.prepare(y)))
    x = _descend(objective, anchor.copy(), anchor, batches, cfg)
    # Exact without per-step checks: a non-finite gradient makes the
    # iterate non-finite in the same step (x -= gamma * g, and 0 * inf
    # is NaN), and under that update a non-finite coordinate never
    # becomes finite again. So the final iterate is finite exactly when
    # every gradient and iterate along the way was.
    if not np.isfinite(x).all():
        _descend(objective, anchor.copy(), anchor, batches, cfg, checked=True)
    return LocalUpdate(params=x, tau=tau, worker_id=worker_id, local_iters=steps)


def train_round(
    objective: Objective,
    shards: list[Shard],
    anchor: np.ndarray,
    cfg: WorkerConfig,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, list[int]]:
    """The local tasks of ``k`` devices that start from one pulled model:
    a ``(k, dim)`` stack whose row ``r`` is the ``params`` of
    ``local_train(objective, shards[r], anchor, ..., cfg, rngs[r])``, bit
    for bit, and the ``k`` step counts. Each device makes
    :func:`local_train`'s draws from its own stream.

    When ``k > 1``, ``h_min == h_max`` and the batches share a shape (a
    ``batch_size`` is set, or the shards are of one length), the tasks
    train as one stack: the batches are stacked as ``(steps, k, batch,
    d)``, the targets are prepared once, and every kernel call serves all
    ``k`` iterates. Each row runs the same arithmetic in the same order
    as a task alone (see :func:`fedasync.numerics._gemm`). A stacked row
    that ends non-finite is replayed alone, checked, as
    :func:`local_train` replays a task, so the first diverging device in
    the given order raises the step that :func:`local_train` would.
    Otherwise each device runs :func:`local_train` in turn: one device
    (serial SGD) trains faster by ``.dot`` than as a stack of one.
    """
    k = len(shards)
    if k == 1 or cfg.h_min != cfg.h_max or (
        cfg.batch_size is None and len({len(shard) for shard in shards}) > 1
    ):
        updates = [local_train(objective, s, anchor, 0, cfg, g) for s, g in zip(shards, rngs)]
        return np.array([u.params for u in updates]), [u.local_iters for u in updates]
    # the one value h_min: a degenerate range consumes no draw
    steps = [choose_steps(cfg, rng) for rng in rngs]
    if cfg.batch_size is None:
        X, y = np.stack([s.features for s in shards]), np.stack([s.targets for s in shards])
        batches = [(X, objective.prepare(y))] * steps[0]
    else:
        draws = [sample_minibatch(s, cfg.batch_size, g, steps[0]) for s, g in zip(shards, rngs)]
        features, targets = zip(*draws)
        X, y = np.stack(features, axis=1), np.stack(targets, axis=1)
        batches = list(zip(X, objective.prepare(y)))
    x = _descend(objective, np.repeat(anchor[None], k, axis=0), anchor, batches, cfg)
    for r in np.flatnonzero(~np.isfinite(x).all(axis=1)):
        row = [(Xh[r], th[r]) for Xh, th in batches]
        _descend(objective, anchor.copy(), anchor, row, cfg, checked=True)
    return x, steps


def _descend(
    objective: Objective,
    x: np.ndarray,
    anchor: np.ndarray,
    batches: list[tuple[np.ndarray, np.ndarray]],
    cfg: WorkerConfig,
    checked: bool = False,
) -> np.ndarray:
    """The local SGD steps from ``x``, a copy of ``anchor`` or a ``(k,
    dim)`` stack of copies, which every step updates in place, one step
    per ``(X, t)`` batch of features and prepared targets.

    ``checked`` raises ``DivergenceError`` at the first step whose
    gradient or iterate is not finite. The step kernel is unchecked
    (see :func:`local_train` for why the anchor is trusted), bound once
    to the iterate.
    """
    # 0-d arrays: numpy scales by them without converting a Python float
    gamma, rho = np.array(cfg.gamma), np.array(cfg.rho)
    step, prox = objective._step_kernel(x), cfg.rho != 0.0
    for h, (X, t) in enumerate(batches):
        g = step(x, X, t)
        if prox:
            g += rho * (x - anchor)
        if checked and not np.isfinite(g).all():
            raise DivergenceError(h)
        g *= gamma
        x -= g
        if checked and not np.isfinite(x).all():
            raise DivergenceError(h)
    return x
