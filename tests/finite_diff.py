"""Central-difference gradients: an oracle for the analytic gradients,
independent of every kernel in ``fedasync.numerics``."""

import numpy as np


def finite_diff_grad(objective, params, X, y, eps=1e-6):
    """Central-difference gradient estimate, one coordinate at a time.

    Slow by construction; used as an independent check on the analytic
    gradients, never inside a training loop.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {params.shape}")
    if not np.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"eps must be a positive float, got {eps!r}")
    out = np.empty_like(params)
    probe = params.copy()
    for i in range(params.shape[0]):
        orig = probe[i]
        probe[i] = orig + eps
        hi = objective.loss(probe, X, y)
        probe[i] = orig - eps
        lo = objective.loss(probe, X, y)
        probe[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return out
