"""Objective functions and the small numeric kernel used everywhere else.

Parameter vectors are plain 1-D float64 numpy arrays. Every objective
exposes the same entry points (``loss``, ``grad``, ``loss_grad``,
``predict``, ``accuracy``) over a feature matrix ``X`` and a target vector
``y`` so the training loops never branch on the model family. Each
objective writes four kernels (``prepare``, ``_grad``, ``_loss_grad`` and
``predict``); :class:`Objective` derives the others (``loss``, ``grad``,
``loss_grad`` and ``accuracy``) from them once. The MLP kernel works in
place on the temporaries it makes, never on its inputs.

A local task binds its iterate to a step kernel once (for the MLP: the
weight views and one gradient vector), and a problem prepares its training
split's targets once (:meth:`Objective.targets`) for every evaluation.

At the problem sizes here numpy's per-call dispatch costs more than the
arithmetic, so the kernels call ``ndarray.dot`` (or ``np.dot(..., out=)``)
rather than ``@``: the same BLAS call with the same bits, without the
matmul ufunc's dispatch. For the same reason each kernel divides by its
row count as a 0-d float64 array (:func:`_row_count`), which numpy takes
without converting a Python scalar; the quotient's bits are the same.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cache

import numpy as np


@cache
def _row_count(n: int) -> np.ndarray:
    """``n`` as a read-only 0-d float64 array, made once per value. The
    values are row counts, so the cache stays as small as the data's
    distinct batch and set sizes."""
    count = np.array(float(n))
    count.setflags(write=False)
    return count


def _as_params(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {x.shape}")
    return x


def mix(current: np.ndarray, incoming: np.ndarray, alpha: float) -> np.ndarray:
    """Convex combination ``(1 - alpha) * current + alpha * incoming``,
    a new float64 vector; inputs are never modified.

    Unchecked: its one caller, :func:`fedasync.server.apply_update`,
    passes the server's model, an update already checked where it entered
    (in process by :func:`fedasync.worker.local_train`, over TCP by the
    server session), and an ``alpha`` the server configuration keeps in
    ``(0, 1]``.
    """
    return (1.0 - alpha) * current + alpha * incoming


class Objective(ABC):
    """Differentiable objective over (features, targets) batches.

    A subclass writes :meth:`prepare`, :meth:`_grad`, :meth:`_loss_grad`
    and :meth:`predict`; :meth:`loss`, :meth:`grad`, :meth:`loss_grad` and
    :meth:`accuracy` are derived from them here. Targets are prepared once
    per problem (the training split, for evaluation) and once per local
    task (its minibatches), never per step or per evaluation row.

    Attributes
    ----------
    dim : int
        Length of the parameter vector the objective expects.
    """

    dim: int

    def loss(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """Mean loss of ``params`` on the batch."""
        return self.loss_grad(params, X, y)[0]

    def grad(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`loss` with respect to ``params``."""
        return self._grad(self._check(params, X), X, self.prepare(y))

    def loss_grad(
        self, params: np.ndarray, X: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """The mean loss and ``grad(params, X, y)``, bit for bit, from one
        forward pass."""
        return self._loss_grad(self._check(params, X), X, *self.targets(y))

    @abstractmethod
    def prepare(self, y: np.ndarray) -> np.ndarray:
        """The targets in the form :meth:`_grad` takes. Elementwise (or
        rowwise) over ``y``, so a task prepares the targets of all its
        steps at once and hands the step kernel one slice per step, and a
        problem prepares its training split's once (:meth:`targets`)."""

    def targets(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(prepare(y), labels)``, the two forms of ``y`` that
        :meth:`_loss_grad` reads: the labels are ``y`` itself, and for a
        classifier that needs them, int64 class ids."""
        return self.prepare(y), y

    @abstractmethod
    def _grad(self, params: np.ndarray, X: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The gradient kernel without validation: ``params`` must already
        have passed :meth:`_check` against a feature matrix of ``X``'s width,
        and ``t`` is ``prepare(y)``. Returns a new array, the caller's to
        overwrite."""

    def _step_kernel(self, params: np.ndarray):
        """``step(params, X, t)``, bit for bit ``_grad(params, X, t)``, for a
        task that updates ``params`` in place and passes it to every call.
        Here it is :meth:`_grad` itself; the MLP binds its views to
        ``params`` once and ignores the first argument. The gradient it
        returns is the caller's until the next call."""
        return self._grad

    @abstractmethod
    def _loss_grad(
        self, params: np.ndarray, X: np.ndarray, t: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """:meth:`loss_grad` without validation, on ``targets(y)``."""

    @abstractmethod
    def predict(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Point predictions for each row of ``X``."""

    def accuracy(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> float | None:
        """Fraction of exact prediction matches; None for regression."""
        pred = self.predict(params, X)
        return float(np.mean(pred == np.asarray(y).astype(np.int64)))

    def _check(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        params = _as_params(params)
        if params.shape[0] != self.dim:
            raise ValueError(
                f"expected {self.dim} parameters, got {params.shape[0]}"
            )
        if X.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {X.shape}")
        return params


class QuadraticObjective(Objective):
    """Least-squares regression: ``loss = ||X @ w - y||^2 / (2 m)``.

    Convex and smooth, so it is the workhorse for convergence checks
    where the optimum is known in closed form.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)

    def _loss_grad(self, params, X, t, labels):
        r = X.dot(params) - t
        n = _row_count(X.shape[0])
        return float(0.5 * r.dot(r) / n), X.T.dot(r) / n

    def prepare(self, y):
        return y

    def _grad(self, params, X, t):
        return X.T.dot(X.dot(params) - t) / _row_count(X.shape[0])

    def predict(self, params, X):
        params = self._check(params, X)
        return X.dot(params)

    def accuracy(self, params, X, y):
        return None


class LogisticObjective(Objective):
    """Binary logistic regression over labels in ``{0, 1}``.

    ``loss = mean(log(1 + exp(-s * (X @ w)))) + l2/2 * ||w||^2`` where
    ``s = 2 y - 1``. The log-sum is evaluated via ``logaddexp`` so large
    margins never overflow.
    """

    def __init__(self, dim: int, l2: float = 0.0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not np.isfinite(l2) or l2 < 0.0:
            raise ValueError(f"l2 must be a finite nonnegative float, got {l2!r}")
        self.dim = int(dim)
        self.l2 = float(l2)

    def prepare(self, y):
        """The signs ``s = 2 y - 1``."""
        return 2.0 * np.asarray(y, dtype=np.float64) - 1.0

    def _loss_grad(self, params, X, t, labels):
        margins = t * X.dot(params)
        data = float(np.mean(np.logaddexp(0.0, -margins)))
        loss = data + 0.5 * self.l2 * float(np.dot(params, params))
        return loss, self._grad_at(params, X, t, margins)

    def _grad(self, params, X, t):
        return self._grad_at(params, X, t, t * X.dot(params))

    def _grad_at(self, params, X, s, margins):
        # d/dm log(1 + e^{-m}) = -sigmoid(-m); exponentiate only the
        # nonpositive branch so huge margins cannot overflow
        sig = np.empty_like(margins)
        pos = margins >= 0
        e = np.exp(-margins[pos])
        sig[pos] = e / (1.0 + e)
        sig[~pos] = 1.0 / (1.0 + np.exp(margins[~pos]))
        return -X.T.dot(s * sig) / _row_count(X.shape[0]) + self.l2 * params

    def predict(self, params, X):
        params = self._check(params, X)
        return (X.dot(params) > 0.0).astype(np.int64)


class MlpObjective(Objective):
    """One-hidden-layer tanh network with softmax cross-entropy.

    The parameter vector is the flat concatenation, in row-major order,
    of ``W1 (d_in x hidden)``, ``b1 (hidden)``, ``W2 (hidden x classes)``
    and ``b2 (classes)``. Targets are integer class ids in
    ``[0, classes)``.
    """

    def __init__(self, d_in: int, hidden: int, classes: int):
        if d_in < 1 or hidden < 1 or classes < 2:
            raise ValueError(
                f"need d_in >= 1, hidden >= 1, classes >= 2; "
                f"got ({d_in}, {hidden}, {classes})"
            )
        self.d_in = int(d_in)
        self.hidden = int(hidden)
        self.classes = int(classes)
        self.dim = d_in * hidden + hidden + hidden * classes + classes

    def _unpack(self, params: np.ndarray):
        """The views ``(W1, b1, W2, b2)`` of a vector of length ``dim``."""
        d, h, c = self.d_in, self.hidden, self.classes
        i, j, k = d * h, d * h + h, d * h + h + h * c
        return params[:i].reshape(d, h), params[i:j], params[j:k].reshape(h, c), params[k:]

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        """Overwrite ``logits`` with its row-wise log-softmax. The row max
        folds the columns of a transposed copy, fast for few columns. Only
        in a row holding both +0 and -0 can it keep another zero than
        ``maximum.reduce(axis=1)``, and there no output shows which."""
        logits -= np.maximum.reduce(np.ascontiguousarray(logits.T), axis=0)[:, None]
        logits -= np.log(np.add.reduce(np.exp(logits), axis=1, keepdims=True))
        return logits

    def _bind(self, params):
        """``(forward, backward)`` bound to ``params``: its ``W1, b1, W2,
        b2`` views and ``W2.T`` are made once, here, so both see in-place
        updates of ``params``, and ``backward`` writes every gradient block
        into one vector of its own, which it returns on every call."""
        W1, b1, W2, b2 = self._unpack(params)
        W2T = W2.T
        g = np.empty(self.dim)
        gW1, gb1, gW2, gb2 = self._unpack(g)

        def forward(X):
            """``(A1, logits)``: the hidden activations and the logits."""
            A1 = X.dot(W1)
            np.tanh(np.add(A1, b1, out=A1), out=A1)
            logits = A1.dot(W2)
            logits += b2
            return A1, logits

        def backward(X, A1, P, onehot):
            """The gradient from the hidden activations ``A1`` and the
            softmax ``P``, both of which it overwrites. Subtracting a
            one-hot row changes only the target's entry, since
            ``p - 0.0 == p``."""
            P -= onehot
            P /= _row_count(X.shape[0])
            np.dot(A1.T, P, out=gW2)
            np.add.reduce(P, axis=0, out=gb2)
            dZ1 = P.dot(W2T)
            A1 *= A1
            dZ1 *= np.subtract(1.0, A1, out=A1)
            np.dot(X.T, dZ1, out=gW1)
            np.add.reduce(dZ1, axis=0, out=gb1)
            return g

        return forward, backward

    def _step_kernel(self, params):
        forward, backward = self._bind(params)
        log_softmax = self._log_softmax

        def step(_params, X, t):
            A1, logits = forward(X)
            return backward(X, A1, np.exp(log_softmax(logits), out=logits), t)

        return step

    def _grad(self, params, X, t):
        return self._step_kernel(params)(params, X, t)

    def _loss_grad(self, params, X, t, labels):
        forward, backward = self._bind(params)
        A1, logits = forward(X)
        logp = self._log_softmax(logits)
        loss = float(-np.mean(logp[np.arange(logp.shape[0]), labels]))
        return loss, backward(X, A1, np.exp(logp, out=logp), t)

    def prepare(self, y):
        """One-hot rows: ``prepare(y)[..., j]`` is 1.0 where ``y == j``."""
        return np.eye(self.classes)[np.asarray(y).astype(np.int64)]

    def targets(self, y):
        labels = np.asarray(y).astype(np.int64)
        return self.prepare(labels), labels

    def predict(self, params, X):
        forward, _ = self._bind(self._check(params, X))
        return forward(X)[1].argmax(axis=1)
