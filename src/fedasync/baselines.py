"""Reference training loops the asynchronous protocol is compared against.

Both baselines reuse the same local solver and evaluation path as the
asynchronous runs so any difference in the curves comes from the
aggregation rule, not from incidental implementation drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from fedasync.data import SERVER_DOMAIN, Shard, domain_rng, worker_rng
from fedasync.rules import at_least, optional, validate
from fedasync.simulator import (
    ExperimentConfig,
    Problem,
    RunLoop,
    RunResult,
    build_problem,
    drive,
    make_record,  # not called here; bench/tracing.py patches it in every runner module
)
from fedasync.server import ServerState
from fedasync.worker import local_train


@dataclass
class FedAvgConfig:
    """Round structure of the synchronous baseline: ``k`` devices per
    round, each taking ``local_steps`` steps. ``local_steps`` of None
    inherits the midpoint of the experiment's local step range. The
    number of rounds is always the experiment's ``total_epochs``.
    """

    k: int = field(default=10, metadata=at_least(1))
    local_steps: int | None = field(default=None, metadata=optional(at_least(1)))

    def __post_init__(self):
        validate(self)


def run_fedavg(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    favg: FedAvgConfig | None = None,
) -> RunResult:
    """Synchronous rounds: sample ``k`` devices, average their results.

    Each of the ``cfg.total_epochs`` rounds, the server stream draws ``k``
    distinct devices; every one runs ``local_steps`` plain SGD steps (no
    proximal pull) from the current global model, and the new global
    model is the unweighted mean of what they send back, folded in
    device-id order. One round counts as one epoch in the metrics;
    ``alpha_t`` and ``staleness`` are not meaningful here and are
    recorded as 0.
    """
    if problem is None:
        problem = build_problem(cfg)
    if favg is None:
        favg = FedAvgConfig()
    k = favg.k
    if not 1 <= k <= cfg.n_workers:
        raise ValueError(f"need 1 <= k <= n_workers, got k={k}, n_workers={cfg.n_workers}")
    local_steps = favg.local_steps
    if local_steps is None:
        local_steps = (cfg.worker.h_min + cfg.worker.h_max) // 2
    lcfg = replace(cfg.worker, rho=0.0, h_min=local_steps, h_max=local_steps)
    state = ServerState.create(problem.x0)
    server_stream = domain_rng(cfg.seed, SERVER_DOMAIN)
    worker_streams = [worker_rng(cfg.seed, w) for w in range(cfg.n_workers)]

    def schedule():
        for rnd in range(1, cfg.total_epochs + 1):
            selected = sorted(
                int(w)
                for w in server_stream.choice(cfg.n_workers, size=k, replace=False)
            )
            results = []
            for w in selected:
                upd = local_train(
                    problem.objective,
                    problem.shards[w],
                    state.params,
                    state.epoch,
                    lcfg,
                    worker_streams[w],
                    worker_id=w,
                )
                results.append(upd)
            state.params = np.mean([u.params for u in results], axis=0)
            state.params.setflags(write=False)
            state.epoch = rnd
            state.n_gradients += sum(u.local_iters for u in results)
            yield 0.0

    return drive(RunLoop(cfg, problem, state), schedule())


def run_serial_sgd(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
) -> RunResult:
    """Single-stream SGD over the pooled training data: FedAvg with one
    device holding the whole training split, ``k=1`` and one local step
    per round (McMahan et al. 2017), so each epoch costs one gradient.

    The device draws from worker stream 0 like an asynchronous worker
    with ``h_min = h_max = 1``: one batch draw per epoch (none with
    ``batch_size`` None). The bytes are those of a loop of its own:
    ``np.mean`` over one vector returns it, except that it turns -0.0
    into +0.0, and no iterate is ever -0.0 (a run starts from zeros or
    Gaussian weights, and ``x -= gamma * g`` gives -0.0 only when ``x``
    is -0.0); ``server_stream.choice(1, 1)`` reads only the server
    stream, which serial SGD never used.
    """
    if problem is None:
        problem = build_problem(cfg)
    pooled = Shard(
        device_id=0,
        features=problem.train.features,
        targets=problem.train.targets,
        indices=np.arange(len(problem.train)),
    )
    return run_fedavg(
        replace(cfg, n_workers=1),
        replace(problem, shards=[pooled]),
        FedAvgConfig(k=1, local_steps=1),
    )
