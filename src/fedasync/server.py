"""Server-side state: staleness-weighted mixing and update admission.

The server's epoch counts applied updates. A worker's update carries the
epoch its model was pulled at; staleness is the difference at application
time. Updates staler than the configured bound are rejected and counted,
never mixed in, which is what keeps the delay bound true even when the
dispatch cap alone would let a slow worker be lapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fedasync.numerics import mix
from fedasync.rules import FINITE_POSITIVE, at_least, bound, one_of, validate
from fedasync.worker import LocalUpdate

STRATEGIES = ("constant", "polynomial", "hinge")


class ProtocolError(RuntimeError):
    """An update that is malformed rather than merely stale."""


class StaleUpdateError(RuntimeError):
    """An update older than the staleness bound; rejected, state untouched."""

    def __init__(self, staleness: int, limit: int):
        super().__init__(f"staleness {staleness} exceeds bound {limit}")
        self.staleness = staleness
        self.limit = limit


@dataclass(frozen=True)
class ServerConfig:
    """Mixing policy of the asynchronous server.

    Attributes
    ----------
    alpha : float
        Base mixing weight in ``(0, 1]``; the applied weight is
        ``alpha * staleness_weight(staleness)``.
    strategy : str
        ``"constant"``, ``"polynomial"`` or ``"hinge"``.
    poly_a : float
        Exponent of the polynomial family, > 0.
    hinge_a, hinge_b : float, int
        Slope and knee of the hinge family; weight stays 1 up to a
        staleness of ``hinge_b``.
    max_staleness : int
        Delay bound; updates with staleness above it are rejected. The
        latency scheduler also caps concurrent dispatches at
        ``max_staleness + 1`` (:func:`plan_triggers`); the TCP server
        gates dispatch instead.
    """

    alpha: float = field(metadata=bound("must be in (0, 1]", lambda a: 0.0 < a <= 1.0))
    strategy: str = field(default="constant", metadata=one_of(STRATEGIES))
    poly_a: float = field(default=0.5, metadata=FINITE_POSITIVE)
    hinge_a: float = field(default=10.0, metadata=FINITE_POSITIVE)
    hinge_b: int = field(default=4, metadata=at_least(0))
    max_staleness: int = field(default=0, metadata=at_least(0))

    def __post_init__(self):
        validate(self)


def decay_factor(cfg: ServerConfig, staleness: int) -> float:
    """The bare downweighting factor s in ``(0, 1]``.

    Families: constant 1; polynomial ``(staleness + 1) ** -poly_a``;
    hinge 1 up to ``hinge_b``, then ``1 / (hinge_a * (staleness -
    hinge_b) + 1)``. All give factor 1 at staleness 0 and none ever
    increases with staleness. Unchecked: no push is from a future epoch.
    """
    if cfg.strategy == "constant":
        return 1.0
    if cfg.strategy == "polynomial":
        return float((staleness + 1) ** -cfg.poly_a)
    if staleness <= cfg.hinge_b:
        return 1.0
    return float(1.0 / (cfg.hinge_a * (staleness - cfg.hinge_b) + 1.0))


def staleness_weight(cfg: ServerConfig, staleness: int) -> float:
    """Effective mixing weight: ``alpha`` scaled down by the decay factor."""
    return cfg.alpha * decay_factor(cfg, staleness)


@dataclass
class ServerState:
    """Mutable server state; single-writer by construction.

    A committed model is read-only: :meth:`create`, :func:`apply_update`
    and the FedAvg round each bind ``params`` to a new array and mark it
    not writable. So ``params`` is handed out by reference, to a worker
    that pulls it and to the run's result, and ``history``, which keeps
    the last ``max_staleness + 1`` models keyed by epoch for the
    sampled-staleness mode, holds the committed models themselves.
    """

    params: np.ndarray
    epoch: int = 0
    n_gradients: int = 0
    n_rejected: int = 0
    last_alpha: float = 0.0
    last_staleness: int = 0
    history: dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def create(cls, x0: np.ndarray) -> "ServerState":
        x0 = np.array(x0, dtype=np.float64)
        if x0.ndim != 1:
            raise ValueError(f"initial model must be 1-D, got shape {x0.shape}")
        x0.setflags(write=False)
        state = cls(params=x0)
        state.history[0] = x0
        return state


def admit(state: ServerState, cfg: ServerConfig, tau: int) -> int:
    """The staleness rule: the staleness ``epoch - tau`` of a push pulled
    at epoch ``tau``. Above ``max_staleness`` the push is rejected: counted
    in ``n_rejected`` and raised as :class:`StaleUpdateError`."""
    staleness = state.epoch - tau
    if staleness > cfg.max_staleness:
        state.n_rejected += 1
        raise StaleUpdateError(staleness, cfg.max_staleness)
    return staleness


def apply_update(state: ServerState, cfg: ServerConfig, upd: LocalUpdate) -> float:
    """Mix in one update; returns the mixing weight actually used.

    The update must be well formed (``0 <= tau <= epoch``, finite, the
    model's length, at least one step): :func:`fedasync.worker.local_train`
    makes it so in process, and the TCP server's session validates each
    decoded push before it gets here. What stays is the staleness rule
    (:func:`admit`; a rejection leaves the model untouched) and the mix:
    the model moves to a new read-only ``(1 - a_t) * x + a_t * x_new`` with
    ``a_t = staleness_weight(cfg, epoch - tau)``, the epoch advances by one,
    and the new model enters ``history`` by reference.
    """
    staleness = admit(state, cfg, upd.tau)
    alpha_t = staleness_weight(cfg, staleness)
    state.params = mix(state.params, upd.params, alpha_t)
    state.params.setflags(write=False)
    state.epoch += 1
    state.n_gradients += upd.local_iters
    state.last_alpha = alpha_t
    state.last_staleness = staleness
    state.history[state.epoch] = state.params
    state.history.pop(state.epoch - cfg.max_staleness - 1, None)
    return alpha_t


def plan_triggers(
    idle_workers: list[int], in_flight: int, max_staleness: int, cursor: int
) -> tuple[list[int], int]:
    """Pick which idle workers to dispatch next.

    Keeps at most ``max_staleness + 1`` runs outstanding and walks the
    idle set round-robin starting at ``cursor`` so no worker starves: the
    ids from ``cursor`` up first, then those below it, each in ascending
    order. Returns the workers to trigger and the advanced cursor, one past
    the largest id triggered.
    """
    free = max_staleness + 1 - in_flight
    if free <= 0 or not idle_workers:
        return [], cursor
    chosen = sorted(idle_workers, key=lambda w: (w < cursor, w))[:free]
    return chosen, max(chosen) + 1
