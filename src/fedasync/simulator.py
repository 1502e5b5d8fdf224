"""Deterministic in-process execution of the asynchronous protocol.

:func:`drive` is the run loop of every in-process algorithm (these two
modes and the baselines): evaluation schedule, divergence handling and
the :class:`RunResult`. Each runner supplies only its scheduler, the
generator that decides which worker trains next and commits its update. The TCP server takes the same :class:`RunLoop`
step from its selector loop.

Two modes share all of the numeric machinery and differ only in how
staleness arises:

* ``sampled``: each epoch trains one uniformly chosen worker from a model
  drawn ``staleness`` epochs back out of the server's history, with
  ``staleness ~ U{0..min(max_staleness, epoch)}``. Cheap, and gives exact
  control over the staleness distribution.
* ``latency``: a discrete-event loop where each dispatched task finishes
  after per-worker compute plus network delays; staleness emerges from
  the overlap. Events are ordered by ``(time, sequence)`` so runs are
  reproducible tie for tie.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from fedasync.data import (
    Dataset,
    SERVER_DOMAIN,
    INIT_DOMAIN,
    Shard,
    delay_rng,
    domain_rng,
    gen_classification,
    gen_regression,
    partition_non_iid,
    train_eval_split,
    worker_rng,
)
from fedasync.metrics import MetricsRecord
from fedasync.numerics import (
    LogisticObjective,
    MlpObjective,
    Objective,
    QuadraticObjective,
)
from fedasync.rules import FINITE_NONNEGATIVE, FINITE_POSITIVE, at_least, bound, one_of, validate
from fedasync.server import (
    ServerConfig,
    ServerState,
    StaleUpdateError,
    admit,
    apply_update,
    plan_triggers,
)
from fedasync.worker import DivergenceError, WorkerConfig, local_train, skip_task

TASKS = ("quadratic", "logistic", "mlp")


class RunFailure(RuntimeError):
    """A run aborted mid-stream (numeric divergence).

    Carries the metrics gathered before the failure so callers can
    persist partial output with a failure marker.
    """

    def __init__(self, records, epoch: int, cause: BaseException):
        super().__init__(f"run failed at epoch {epoch}: {cause}")
        self.records = records
        self.epoch = epoch
        self.cause = cause


DELAY_KINDS = ("constant", "uniform", "exponential")


def _nonnegative_means(means) -> bool:
    return len(means) > 0 and all(FINITE_NONNEGATIVE["rule"].holds(m) for m in means)


@dataclass
class DelayModel:
    """Per-task latency: compute component plus network component.

    ``compute_means`` is a list of per-worker means, worker ``w`` taking
    entry ``w % len(compute_means)`` (one entry is a shared mean);
    ``kind`` selects the law both components follow: ``constant``
    (exactly the mean, no randomness), ``uniform`` (uniform on
    ``[0, 2 * mean]``), or ``exponential``. A mean of 0 makes that
    component identically zero. Each dispatch draws compute then
    network from the worker's delay stream; the constant law draws
    nothing.
    """

    compute_means: list[float] = field(
        default_factory=lambda: [1.0],
        metadata=bound("must be one or more values, each finite and >= 0", _nonnegative_means),
    )
    network_mean: float = field(default=0.1, metadata=FINITE_NONNEGATIVE)
    kind: str = field(default="exponential", metadata=one_of(DELAY_KINDS))

    def __post_init__(self):
        validate(self)

    def compute_mean_for(self, worker_id: int) -> float:
        return float(self.compute_means[worker_id % len(self.compute_means)])

    def _component(self, mean: float, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return mean
        if self.kind == "uniform":
            return float(rng.uniform(0.0, 2.0 * mean))
        return float(rng.exponential(mean))

    def draw(self, worker_id: int, rng: np.random.Generator) -> float:
        compute = self._component(self.compute_mean_for(worker_id), rng)
        network = self._component(self.network_mean, rng)
        return compute + network


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one run from a seed."""

    task: str = field(metadata=one_of(TASKS))
    n_workers: int = field(metadata=at_least(1))
    total_epochs: int = field(metadata=at_least(1))
    server: ServerConfig
    worker: WorkerConfig
    n_samples: int = field(default=1000, metadata=at_least(1))
    dim: int = field(default=10, metadata=at_least(1))
    n_classes: int = field(default=2, metadata=at_least(2))
    sep: float = field(default=3.0, metadata=FINITE_POSITIVE)
    noise_std: float = field(default=0.1, metadata=FINITE_NONNEGATIVE)
    hidden: int = field(default=16, metadata=at_least(1))
    eval_frac: float = field(default=0.2, metadata=bound("must be in (0, 1)", lambda f: 0 < f < 1))
    classes_per_device: int = field(default=0, metadata=at_least(0))
    seed: int = field(default=0, metadata=at_least(0))
    eval_every: int = field(default=1, metadata=at_least(1))
    delay: DelayModel = field(default_factory=DelayModel)

    def __post_init__(self):
        validate(self)
        if self.task == "logistic" and self.n_classes != 2:
            raise ValueError("logistic task is binary; set n_classes=2")


@dataclass
class Problem:
    """Materialized task: objective, splits, device shards, start point,
    ``evaluate``, the training split's ``objective.evaluator``, and
    ``score``, the held-out split's ``objective.scorer``. Both are bound
    once per problem, so that no evaluation row prepares targets or
    allocates work arrays again. Their buffers live as long as the problem."""

    objective: Objective
    train: Dataset
    eval_set: Dataset
    shards: list[Shard]
    x0: np.ndarray
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]]
    score: Callable[[np.ndarray], float | None]


@dataclass
class RunResult:
    records: list[MetricsRecord]
    final_params: np.ndarray
    state: ServerState


def generate_dataset(cfg: ExperimentConfig) -> Dataset:
    """The task's full synthetic dataset, before the evaluation split
    (``n_classes`` is 2 for the logistic task)."""
    if cfg.task == "quadratic":
        return gen_regression(cfg.n_samples, cfg.dim, cfg.noise_std, cfg.seed)
    return gen_classification(cfg.n_samples, cfg.dim, cfg.n_classes, cfg.sep, cfg.seed)


def build_problem(cfg: ExperimentConfig) -> Problem:
    """Generate data, split it, shard it, and pick the start point.

    The evaluation split is carved off before sharding so every device
    trains only on training rows. ``classes_per_device = 0`` means no
    skew for any task (mapped to the uniform split). Start point: zeros
    for the convex tasks, small seeded Gaussian weights for the network
    (zeros would freeze all hidden units into one).
    """
    full = generate_dataset(cfg)
    if cfg.task == "quadratic":
        objective: Objective = QuadraticObjective(cfg.dim)
    elif cfg.task == "logistic":
        objective = LogisticObjective(cfg.dim)
    else:
        objective = MlpObjective(cfg.dim, cfg.hidden, cfg.n_classes)
    train, eval_set = train_eval_split(full, cfg.eval_frac, cfg.seed)
    cpd = cfg.classes_per_device
    if cpd == 0 and full.task == "classification":
        cpd = full.n_classes
    shards = partition_non_iid(train, cfg.n_workers, cpd, cfg.seed)
    if cfg.task == "mlp":
        x0 = domain_rng(cfg.seed, INIT_DOMAIN).standard_normal(objective.dim) * 0.1
    else:
        x0 = np.zeros(objective.dim)
    evaluate = objective.evaluator(train.features, train.targets)
    score = objective.scorer(eval_set.features, eval_set.targets)
    return Problem(objective, train, eval_set, shards, x0, evaluate, score)


def make_record(problem: Problem, state: ServerState, sim_time: float) -> MetricsRecord:
    """Evaluate the server's model through the problem's bindings, unchecked:
    loss and gradient norm on the full training split by ``evaluate``
    (whose gradient is read here before the next row overwrites it),
    accuracy on the held-out split by ``score``; epoch, gradients,
    ``alpha_t`` and staleness as ``state`` holds them."""
    loss, g = problem.evaluate(state.params)
    return MetricsRecord(
        epoch=state.epoch,
        gradients=state.n_gradients,
        loss=loss,
        grad_norm_sq=float(np.dot(g, g)),
        accuracy=problem.score(state.params),
        alpha_t=state.last_alpha,
        staleness=state.last_staleness,
        sim_time=sim_time,
    )


class RunLoop:
    """The run loop's step, taken after each committed update by
    :func:`drive` and by the TCP server's selector loop. It
    evaluates the model at epoch 0, after every ``cfg.eval_every`` epochs
    and at the last epoch, ``cfg.total_epochs``. Every committed model of
    every algorithm passes through :meth:`step`."""

    def __init__(
        self,
        cfg: ExperimentConfig,
        problem: Problem,
        state: ServerState,
    ):
        self.problem, self.state, self.every = problem, state, cfg.eval_every
        self.last = cfg.total_epochs
        self.records = [make_record(problem, state, 0.0)]

    def step(self, sim_time: float) -> None:
        """Account for the update just committed to ``state`` at ``sim_time``."""
        state = self.state
        if state.epoch % self.every == 0 or state.epoch == self.last:
            self.records.append(make_record(self.problem, state, sim_time))

    def result(self) -> RunResult:
        return RunResult(self.records, self.state.params, self.state)


def drive(run: RunLoop, schedule: Iterator[float]) -> RunResult:
    """The server loop every in-process algorithm shares around its
    ``schedule``, a generator that commits one update to ``run.state`` per
    item and yields that update's ``sim_time``. A :class:`DivergenceError`
    raised by the scheduler becomes a :class:`RunFailure` carrying the
    rows so far."""
    try:
        for sim_time in schedule:
            run.step(sim_time)
    except DivergenceError as exc:
        raise RunFailure(run.records, run.state.epoch, exc) from exc
    return run.result()


def run_fedasync_sampled(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
) -> RunResult:
    """Sampled-staleness mode.

    Per epoch the server stream draws the staleness
    ``s ~ U{0..min(max_staleness, epoch)}``, then the device uniformly
    (both draws always happen, keeping the stream position
    config-independent). The device trains from the historical model
    ``s`` epochs back, so the update's staleness at application is
    exactly ``s``.
    """
    if problem is None:
        problem = build_problem(cfg)
    state = ServerState.create(problem.x0)
    server_stream = domain_rng(cfg.seed, SERVER_DOMAIN)
    worker_streams = [worker_rng(cfg.seed, w) for w in range(cfg.n_workers)]

    def schedule():
        for _ in range(cfg.total_epochs):
            hi = min(cfg.server.max_staleness, state.epoch)
            s = int(server_stream.integers(0, hi + 1))
            w = int(server_stream.integers(0, cfg.n_workers))
            base_epoch = state.epoch - s
            upd = local_train(
                problem.objective,
                problem.shards[w],
                state.history[base_epoch],
                base_epoch,
                cfg.worker,
                worker_streams[w],
                worker_id=w,
            )
            apply_update(state, cfg.server, upd)
            yield 0.0

    return drive(RunLoop(cfg, problem, state), schedule())


def run_fedasync_latency(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
) -> RunResult:
    """Discrete-event mode.

    Dispatch keeps at most ``max_staleness + 1`` tasks in flight. A task
    pulls at dispatch and its push lands after the drawn delay, in
    ``(time, sequence)`` order. A push the staleness rule (:func:`admit`)
    accepts is trained then, from its pull, and applied; one that diverges
    fails the run at that epoch. A staler push is rejected (counted on the
    server) and only makes its task's draws (:func:`skip_task`); the
    worker is dispatched again. A worker has one task in flight at most,
    so nothing draws from its stream between dispatch and landing.
    """
    if problem is None:
        problem = build_problem(cfg)
    state = ServerState.create(problem.x0)
    worker_streams = [worker_rng(cfg.seed, w) for w in range(cfg.n_workers)]
    delay_streams = [delay_rng(cfg.seed, w) for w in range(cfg.n_workers)]

    def schedule():
        heap: list[tuple[float, int, int, tuple[int, np.ndarray]]] = []  # pulls in flight
        seq = itertools.count()
        idle = set(range(cfg.n_workers))
        cursor = 0

        def dispatch(now: float):
            nonlocal cursor
            chosen, cursor = plan_triggers(
                sorted(idle), len(heap), cfg.server.max_staleness, cursor
            )
            for w in chosen:
                idle.discard(w)
                done = now + cfg.delay.draw(w, delay_streams[w])
                heapq.heappush(heap, (done, next(seq), w, (state.epoch, state.params)))

        dispatch(0.0)
        while heap and state.epoch < cfg.total_epochs:
            now, _, w, (tau, params) = heapq.heappop(heap)
            idle.add(w)
            shard, stream = problem.shards[w], worker_streams[w]
            try:
                admit(state, cfg.server, tau)
            except StaleUpdateError:
                skip_task(shard, cfg.worker, stream)
                dispatch(now)
                continue
            upd = local_train(problem.objective, shard, params, tau, cfg.worker, stream, w)
            apply_update(state, cfg.server, upd)
            yield now
            if state.epoch < cfg.total_epochs:
                dispatch(now)

    return drive(RunLoop(cfg, problem, state), schedule())
