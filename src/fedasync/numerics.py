"""Objective functions and the small numeric kernel used everywhere else.

Parameter vectors are plain 1-D float64 numpy arrays. Every objective is
used the same way over a feature matrix ``X`` and a target vector ``y``,
so the training loops never branch on the model family. Each objective
writes four kernels; :class:`Objective` binds them and derives from the
bindings the checked one-shot forms (``loss``, ``grad``, ``accuracy``),
which no run calls. A run calls exactly three callables, each bound once:

* the step kernel, ``_step_kernel(x)``, bound to a local task's iterate
  and called once per local step;
* ``evaluator(X, y)``, bound to a problem's training split and called
  once per evaluation row, for the loss and the gradient;
* ``scorer(X, y)``, bound to the problem's held-out split and called once
  per evaluation row, for the accuracy.

A binding prepares its targets once, and the MLP's allocate there the
work arrays that every call writes with ``out=`` (for the step: the
weight views and one gradient vector), so no step makes a view and no
row allocates an array the size of a split. A bound kernel returns its
own gradient vector, valid only until its next call. The MLP kernels
work in place on these temporaries, never on their inputs.

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


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, for the targets a binding keeps."""
    a = a.view()
    a.setflags(write=False)
    return a


def _class_ids(y) -> np.ndarray:
    """``y`` as int64 class ids, read-only, converted once per binding."""
    return _read_only(np.asarray(y).astype(np.int64))


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

    A subclass writes four kernels: :meth:`prepare`, the step kernel
    (:meth:`_step_kernel`, or ``_grad``, which is its default),
    :meth:`_eval_kernel` and :meth:`scorer`. :meth:`evaluator` binds the
    evaluation kernel, and :meth:`loss`, :meth:`grad` and :meth:`accuracy`
    are the checked one-shot forms of the two bindings.

    Attributes
    ----------
    dim : int
        Length of the parameter vector the objective expects.
    """

    dim: int

    def loss(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """Mean loss of ``params`` on the batch."""
        return self.evaluator(X, y)(self._check(params, X))[0]

    def grad(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`loss` with respect to ``params``."""
        return self.evaluator(X, y)(self._check(params, X))[1]

    def accuracy(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> float | None:
        """Fraction of exact prediction matches; None for regression."""
        return self.scorer(X, y)(self._check(params, X))

    @abstractmethod
    def prepare(self, y: np.ndarray) -> np.ndarray:
        """The targets in the form the step kernel takes. Elementwise (or
        rowwise) over ``y``, so a task prepares the targets of all its
        steps at once and hands the step kernel one slice per step, and a
        problem prepares its training split's once (:meth:`evaluator`)."""

    def evaluator(self, X: np.ndarray, y: np.ndarray):
        """``evaluate(params) -> (loss, grad)`` without validation, bound to
        one batch for many models: the targets are prepared once, read-only,
        and the MLP's work arrays are allocated once. The gradient may be
        the kernel's own vector (it is for the MLP), valid only until the
        next call."""
        return self._eval_kernel(X, _read_only(self.prepare(y)), y)

    @abstractmethod
    def _eval_kernel(self, X: np.ndarray, t: np.ndarray, y: np.ndarray):
        """:meth:`evaluator` on ``t = prepare(y)``, read-only."""

    @abstractmethod
    def scorer(self, X: np.ndarray, y: np.ndarray):
        """``score(params) -> accuracy | None`` without validation, bound to
        one batch for many models: the fraction of rows whose predicted
        class is ``y``'s, with the labels converted to int64 once; None
        for regression."""

    def _step_kernel(self, params: np.ndarray):
        """``step(params, X, t)``, the gradient on ``t = prepare(y)``, for a
        task that updates ``params`` in place and passes it to every call.
        Here it is the subclass's ``_grad``, which returns a new array; the
        MLP binds its views to ``params`` once and ignores the first
        argument. The gradient it returns is the caller's until the next
        call."""
        return self._grad

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

    def prepare(self, y):
        return y

    def _grad(self, params, X, t):
        return X.T.dot(X.dot(params) - t) / _row_count(X.shape[0])

    def _eval_kernel(self, X, t, y):
        n = _row_count(X.shape[0])

        def evaluate(params):
            r = X.dot(params) - t
            return float(0.5 * r.dot(r) / n), X.T.dot(r) / n

        return evaluate

    def scorer(self, X, y):
        return lambda params: None


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

    def _grad(self, params, X, t):
        return self._grad_at(params, X, t, t * X.dot(params))

    def _eval_kernel(self, X, t, y):
        def evaluate(params):
            margins = t * X.dot(params)
            data = float(np.mean(np.logaddexp(0.0, -margins)))
            loss = data + 0.5 * self.l2 * float(np.dot(params, params))
            return loss, self._grad_at(params, X, t, margins)

        return evaluate

    def _grad_at(self, params, X, s, margins):
        # d/dm log(1 + e^{-m}) = -sigmoid(-m); exponentiate only the
        # nonpositive branch so huge margins cannot overflow
        sig = np.empty_like(margins)
        pos = margins >= 0
        e = np.exp(-margins[pos])
        sig[pos] = e / (1.0 + e)
        sig[~pos] = 1.0 / (1.0 + np.exp(margins[~pos]))
        return -X.T.dot(s * sig) / _row_count(X.shape[0]) + self.l2 * params

    def scorer(self, X, y):
        """Class 1 where the margin ``X @ w`` is positive."""
        labels = _class_ids(y)
        return lambda params: float(np.mean((X.dot(params) > 0.0) == labels))


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

    def _forward(self, params, rows=None):
        """``forward(X) -> (A1, logits)``, the hidden activations and the
        logits, bound to the ``W1, b1, W2, b2`` views of ``params``, made
        once here so that it sees in-place updates of ``params``. With
        ``rows``, it writes both into arrays of its own for ``X`` of that
        many rows, and returns them on every call."""
        W1, b1, W2, b2 = self._unpack(params)
        A1_out = logits_out = None
        if rows is not None:
            A1_out = np.empty((rows, self.hidden))
            logits_out = np.empty((rows, self.classes))

        def forward(X):
            A1 = X.dot(W1, out=A1_out)
            np.tanh(np.add(A1, b1, out=A1), out=A1)
            logits = A1.dot(W2, out=logits_out)
            logits += b2
            return A1, logits

        return forward

    def _bind(self, params, rows=None):
        """``(forward, backward)`` bound to ``params`` (see :meth:`_forward`).
        ``backward`` writes every gradient block into one vector of its
        own, which it returns on every call; with ``rows``, it also writes
        the back-propagated array into one of its own."""
        W2T = self._unpack(params)[2].T
        g = np.empty(self.dim)
        gW1, gb1, gW2, gb2 = self._unpack(g)
        dZ1_out = None if rows is None else np.empty((rows, self.hidden))

        def backward(X, A1, P, onehot):
            """The gradient from the hidden activations ``A1`` and the
            softmax ``P``, both of which it overwrites. Subtracting a
            one-hot row changes only the target's entry, since
            ``p - 0.0 == p``."""
            P -= onehot
            P /= _row_count(X.shape[0])
            np.dot(A1.T, P, out=gW2)
            np.add.reduce(P, axis=0, out=gb2)
            dZ1 = P.dot(W2T, out=dZ1_out)
            A1 *= A1
            dZ1 *= np.subtract(1.0, A1, out=A1)
            np.dot(X.T, dZ1, out=gW1)
            np.add.reduce(dZ1, axis=0, out=gb1)
            return g

        return self._forward(params, rows), backward

    def _step_kernel(self, params):
        forward, backward = self._bind(params)
        log_softmax = self._log_softmax

        def step(_params, X, t):
            A1, logits = forward(X)
            return backward(X, A1, np.exp(log_softmax(logits), out=logits), t)

        return step

    def _eval_kernel(self, X, t, y):
        """Binds a parameter vector of its own and every work array to
        ``X``'s rows once; each call copies ``params`` in and writes them
        all again, so nothing of one call leaks into the next."""
        labels = _class_ids(y)
        bound = np.empty(self.dim)
        forward, backward = self._bind(bound, X.shape[0])
        log_softmax = self._log_softmax
        rows = np.arange(X.shape[0])

        def evaluate(params):
            np.copyto(bound, params)
            A1, logits = forward(X)
            logp = log_softmax(logits)
            loss = float(-np.mean(logp[rows, labels]))
            return loss, backward(X, A1, np.exp(logp, out=logp), t)

        return evaluate

    def scorer(self, X, y):
        """The class of the largest logit. Binds a parameter vector of its
        own and the forward pass's work arrays to ``X``'s rows once, as
        :meth:`_eval_kernel` does."""
        labels = _class_ids(y)
        bound = np.empty(self.dim)
        forward = self._forward(bound, X.shape[0])

        def score(params):
            np.copyto(bound, params)
            return float(np.mean(forward(X)[1].argmax(axis=1) == labels))

        return score

    def prepare(self, y):
        """One-hot rows: ``prepare(y)[..., j]`` is 1.0 where ``y == j``."""
        return np.eye(self.classes)[np.asarray(y).astype(np.int64)]
