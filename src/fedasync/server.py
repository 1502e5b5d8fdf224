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


@dataclass
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
    increases with staleness.
    """
    if staleness < 0:
        raise ValueError(f"staleness must be >= 0, got {staleness}")
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

    ``history`` keeps the last ``max_staleness + 1`` models keyed by
    epoch so the sampled-staleness mode can hand out old bases.
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
        state = cls(params=x0)
        state.history[0] = x0.copy()
        return state

    def pull(self) -> tuple[int, np.ndarray]:
        """Snapshot ``(epoch, model copy)`` for a worker to train from."""
        return self.epoch, self.params.copy()


def apply_update(state: ServerState, cfg: ServerConfig, upd: LocalUpdate) -> float:
    """Admit one update; returns the mixing weight actually used.

    On success the model moves to ``(1 - a_t) * x + a_t * x_new`` with
    ``a_t = staleness_weight(cfg, epoch - tau)`` and the epoch
    advances by one. Updates staler than ``max_staleness`` raise
    :class:`StaleUpdateError` after bumping the rejection counter;
    structurally bad updates raise :class:`ProtocolError`. Neither
    failure touches the model.
    """
    if upd.tau < 0:
        raise ProtocolError(f"negative pull epoch {upd.tau}")
    if upd.tau > state.epoch:
        raise ProtocolError(
            f"pull epoch {upd.tau} is ahead of server epoch {state.epoch}"
        )
    if upd.params.shape != state.params.shape:
        raise ProtocolError(
            f"update has {upd.params.shape[0]} parameters, "
            f"server holds {state.params.shape[0]}"
        )
    if not np.all(np.isfinite(upd.params)):
        raise ProtocolError("update contains non-finite parameters")
    if upd.local_iters < 1:
        raise ProtocolError(f"update claims {upd.local_iters} local steps")
    staleness = state.epoch - upd.tau
    if staleness > cfg.max_staleness:
        state.n_rejected += 1
        raise StaleUpdateError(staleness, cfg.max_staleness)
    alpha_t = staleness_weight(cfg, staleness)
    state.params = mix(state.params, upd.params, alpha_t)
    state.epoch += 1
    state.n_gradients += upd.local_iters
    state.last_alpha = alpha_t
    state.last_staleness = staleness
    state.history[state.epoch] = state.params.copy()
    floor = state.epoch - cfg.max_staleness
    for old in [e for e in state.history if e < floor]:
        del state.history[old]
    return alpha_t


def plan_triggers(
    idle_workers: list[int], in_flight: int, max_staleness: int, cursor: int
) -> tuple[list[int], int]:
    """Pick which idle workers to dispatch next.

    Keeps at most ``max_staleness + 1`` runs outstanding and walks the
    idle set round-robin starting at ``cursor`` so no worker starves.
    Returns the workers to trigger and the advanced cursor.
    """
    if in_flight < 0 or max_staleness < 0:
        raise ValueError("in_flight and max_staleness must be >= 0")
    cap = max_staleness + 1
    free = cap - in_flight
    if free <= 0 or not idle_workers:
        return [], cursor
    ordered = sorted(idle_workers)
    start = 0
    for i, w in enumerate(ordered):
        if w >= cursor:
            start = i
            break
    rotated = ordered[start:] + ordered[:start]
    chosen = rotated[:free]
    new_cursor = (max(chosen) + 1) if chosen else cursor
    return chosen, new_cursor
