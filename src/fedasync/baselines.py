"""Reference training loops the asynchronous protocol is compared against.

Both baselines reuse the same local solver and evaluation path as the
asynchronous runs so any difference in the curves comes from the
aggregation rule, not from incidental implementation drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from fedasync.worker import WorkerConfig, local_train


@dataclass
class FedAvgConfig:
    """Round structure of the synchronous baseline.

    ``rounds`` and ``local_steps`` of None inherit the experiment's
    epoch budget and the midpoint of its local step range.
    """

    k: int = field(default=10, metadata=at_least(1))
    rounds: int | None = field(default=None, metadata=optional(at_least(1)))
    local_steps: int | None = field(default=None, metadata=optional(at_least(1)))

    def __post_init__(self):
        validate(self)


def run_fedavg(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    favg: FedAvgConfig | None = None,
    record_trajectory: bool = False,
) -> RunResult:
    """Synchronous rounds: sample ``k`` devices, average their results.

    Each round the server stream draws ``k`` distinct devices; every one
    runs ``local_steps`` plain SGD steps (no proximal pull) from the
    current global model, and the new global model is the unweighted
    mean of what they send back, folded in device-id order. One round
    counts as one epoch in the metrics; ``alpha_t`` and ``staleness``
    are not meaningful here and are recorded as 0.
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
    rounds = favg.rounds if favg.rounds is not None else cfg.total_epochs
    lcfg = WorkerConfig(
        gamma=cfg.worker.gamma,
        rho=0.0,
        h_min=local_steps,
        h_max=local_steps,
        batch_size=cfg.worker.batch_size,
    )
    state = ServerState.create(problem.x0)
    server_stream = domain_rng(cfg.seed, SERVER_DOMAIN)
    worker_streams = [worker_rng(cfg.seed, w) for w in range(cfg.n_workers)]

    def schedule():
        for rnd in range(1, rounds + 1):
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
            state.epoch = rnd
            state.n_gradients += sum(u.local_iters for u in results)
            yield 0.0

    return drive(RunLoop(cfg, problem, state, record_trajectory, epochs=rounds), schedule())


def run_serial_sgd(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    record_trajectory: bool = False,
) -> RunResult:
    """Single-stream SGD over the pooled training data.

    Implemented as one local step per epoch through the shared solver,
    consuming worker stream 0 exactly like an asynchronous worker with
    ``h_min = h_max = 1`` would: the step-count draw over that one-value
    range leaves the stream untouched, so each epoch makes one batch
    draw (none with ``batch_size`` None). With one step per
    epoch the proximal term vanishes, so this is plain SGD; each epoch
    costs exactly one gradient.
    """
    if problem is None:
        problem = build_problem(cfg)
    lcfg = WorkerConfig(
        gamma=cfg.worker.gamma,
        rho=0.0,
        h_min=1,
        h_max=1,
        batch_size=cfg.worker.batch_size,
    )
    pooled = Shard(
        device_id=0,
        features=problem.train.features,
        targets=problem.train.targets,
        indices=np.arange(len(problem.train)),
    )
    state = ServerState.create(problem.x0)
    stream = worker_rng(cfg.seed, 0)

    def schedule():
        for step in range(1, cfg.total_epochs + 1):
            upd = local_train(
                problem.objective, pooled, state.params, state.epoch, lcfg, stream, 0
            )
            state.params = np.array(upd.params)
            state.epoch = step
            state.n_gradients += upd.local_iters
            yield 0.0

    return drive(RunLoop(cfg, problem, state, record_trajectory), schedule())
