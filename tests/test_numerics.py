"""Unit tests for the numeric kernel: mixing, finite differences, and
the three objective families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedasync.data import Shard, gen_classification, gen_regression, partition_non_iid
from fedasync.numerics import (
    LogisticObjective,
    MlpObjective,
    QuadraticObjective,
    mix,
)
from fedasync.worker import WorkerConfig, local_train
from finite_diff import finite_diff_grad
from one_shot import loss_grad

# one float64 ulp of relative slack for algebraic identities evaluated
# through the (1 - a) * x + a * y expression
ULP = 2.3e-16


class TestMix:
    def test_alpha_zero_returns_current(self):
        out = mix(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 0.0)
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_alpha_one_returns_incoming(self):
        out = mix(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 1.0)
        np.testing.assert_array_equal(out, [3.0, 4.0])

    def test_midpoint(self):
        out = mix(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 0.5)
        np.testing.assert_array_equal(out, [2.0, 3.0])

    def test_identical_inputs_fixed_point(self):
        # (1-a)*x + a*x can differ from x by one rounding step
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.standard_normal(12) * 100.0
            a = float(rng.uniform(0.0, 1.0))
            np.testing.assert_allclose(mix(x, x, a), x, rtol=ULP, atol=0.0)

    def test_stays_within_elementwise_envelope(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.standard_normal(9)
            y = rng.standard_normal(9)
            a = float(rng.uniform(0.0, 1.0))
            m = mix(x, y, a)
            scale = np.maximum(np.abs(x), np.abs(y)) + 1.0
            assert np.all(m >= np.minimum(x, y) - ULP * scale)
            assert np.all(m <= np.maximum(x, y) + ULP * scale)

    def test_inputs_not_mutated(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        mix(x, y, 0.25)
        np.testing.assert_array_equal(x, [1.0, 2.0])
        np.testing.assert_array_equal(y, [3.0, 4.0])


class TestFiniteDiff:
    def test_quadratic_matches_analytic(self):
        obj = QuadraticObjective(5)
        rng = np.random.default_rng(21)
        X = rng.standard_normal((40, 5))
        y = rng.standard_normal(40)
        for _ in range(5):
            x = rng.standard_normal(5)
            ga = obj.grad(x, X, y)
            gf = finite_diff_grad(obj, x, X, y)
            assert np.linalg.norm(ga - gf) <= 1e-5 * max(1.0, np.linalg.norm(ga))

    def test_zero_objective_gives_zero_vector(self):
        obj = QuadraticObjective(4)
        X = np.zeros((6, 4))
        y = np.zeros(6)
        np.testing.assert_allclose(
            finite_diff_grad(obj, np.zeros(4), X, y), np.zeros(4), atol=1e-12
        )

    def test_mlp_matches_analytic(self):
        obj = MlpObjective(4, 6, 3)
        rng = np.random.default_rng(22)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 3, size=30)
        x = rng.standard_normal(obj.dim) * 0.3
        ga = obj.grad(x, X, y)
        gf = finite_diff_grad(obj, x, X, y)
        assert np.linalg.norm(ga - gf) <= 1e-4 * max(1.0, np.linalg.norm(ga))

    def test_bad_eps_rejected(self):
        obj = QuadraticObjective(1)
        with pytest.raises(ValueError, match="eps"):
            finite_diff_grad(obj, np.zeros(1), np.ones((1, 1)), np.ones(1), eps=0.0)


class TestQuadraticObjective:
    def test_loss_formula(self):
        obj = QuadraticObjective(2)
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        w = np.array([1.0, 2.0])
        # residuals (0, 0, 0): exact fit
        assert obj.loss(w, X, y) == 0.0
        w2 = np.array([0.0, 0.0])
        # 0.5 * (1 + 4 + 9) / 3
        np.testing.assert_allclose(obj.loss(w2, X, y), 7.0 / 3.0, rtol=1e-15)

    def test_grad_is_normal_equations_residual(self):
        obj = QuadraticObjective(3)
        rng = np.random.default_rng(31)
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        w = rng.standard_normal(3)
        expected = X.T @ (X @ w - y) / 50
        np.testing.assert_array_equal(obj.grad(w, X, y), expected)

    def test_gradient_vanishes_at_least_squares_solution(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        w_star, *_ = np.linalg.lstsq(X, y, rcond=None)
        obj = QuadraticObjective(4)
        assert np.linalg.norm(obj.grad(w_star, X, y)) < 1e-10

    def test_no_accuracy_metric(self):
        obj = QuadraticObjective(2)
        assert obj.accuracy(np.zeros(2), np.zeros((1, 2)), np.zeros(1)) is None

    def test_wrong_param_length_rejected(self):
        obj = QuadraticObjective(2)
        with pytest.raises(ValueError, match="parameters"):
            obj.loss(np.zeros(3), np.zeros((1, 2)), np.zeros(1))


class TestLogisticObjective:
    def test_loss_at_origin_is_log_two(self):
        obj = LogisticObjective(3)
        rng = np.random.default_rng(41)
        X = rng.standard_normal((25, 3))
        y = rng.integers(0, 2, size=25)
        np.testing.assert_allclose(
            obj.loss(np.zeros(3), X, y), np.log(2.0), rtol=1e-15
        )

    def test_grad_matches_finite_differences(self):
        obj = LogisticObjective(4, l2=0.01)
        rng = np.random.default_rng(42)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 2, size=30)
        for _ in range(5):
            w = rng.standard_normal(4)
            ga = obj.grad(w, X, y)
            gf = finite_diff_grad(obj, w, X, y)
            assert np.linalg.norm(ga - gf) <= 1e-5 * max(1.0, np.linalg.norm(ga))

    def test_large_margins_do_not_overflow(self):
        obj = LogisticObjective(2)
        X = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
        y = np.array([1, 0])
        w = np.array([5.0, 0.0])
        assert np.isfinite(obj.loss(w, X, y))
        assert np.all(np.isfinite(obj.grad(w, X, y)))

    def test_perfect_separation_accuracy(self):
        obj = LogisticObjective(1)
        X = np.array([[2.0], [3.0], [-2.0], [-5.0]])
        y = np.array([1, 1, 0, 0])
        assert obj.accuracy(np.array([1.0]), X, y) == 1.0

    def test_l2_term_added_to_loss(self):
        rng = np.random.default_rng(43)
        X = rng.standard_normal((10, 2))
        y = rng.integers(0, 2, size=10)
        w = np.array([1.0, -2.0])
        plain = LogisticObjective(2).loss(w, X, y)
        ridged = LogisticObjective(2, l2=0.5).loss(w, X, y)
        np.testing.assert_allclose(ridged - plain, 0.25 * 5.0, rtol=1e-12)


class TestMlpObjective:
    def test_parameter_count(self):
        obj = MlpObjective(4, 6, 3)
        assert obj.dim == 4 * 6 + 6 + 6 * 3 + 3

    def test_grad_matches_finite_differences_at_several_points(self):
        obj = MlpObjective(3, 5, 4)
        rng = np.random.default_rng(51)
        X = rng.standard_normal((24, 3))
        y = rng.integers(0, 4, size=24)
        for _ in range(3):
            w = rng.standard_normal(obj.dim) * 0.4
            ga = obj.grad(w, X, y)
            gf = finite_diff_grad(obj, w, X, y)
            assert np.linalg.norm(ga - gf) <= 1e-4 * max(1.0, np.linalg.norm(ga))

    def test_loss_is_log_classes_under_symmetric_init(self):
        # zero weights give uniform class probabilities
        obj = MlpObjective(3, 4, 5)
        rng = np.random.default_rng(52)
        X = rng.standard_normal((12, 3))
        y = rng.integers(0, 5, size=12)
        np.testing.assert_allclose(
            obj.loss(np.zeros(obj.dim), X, y), np.log(5.0), rtol=1e-12
        )

    def test_extreme_logits_stay_finite(self):
        obj = MlpObjective(2, 3, 2)
        rng = np.random.default_rng(53)
        X = rng.standard_normal((8, 2)) * 50.0
        y = rng.integers(0, 2, size=8)
        w = rng.standard_normal(obj.dim) * 40.0
        assert np.isfinite(obj.loss(w, X, y))
        assert np.all(np.isfinite(obj.grad(w, X, y)))

    def test_predict_returns_class_ids(self):
        # each row's prediction is one of the four classes: the scores
        # against the four constant labellings count all ten rows
        obj = MlpObjective(2, 3, 4)
        rng = np.random.default_rng(54)
        X = rng.standard_normal((10, 2))
        params = rng.standard_normal(obj.dim)
        scores = [obj.scorer(X, np.full(10, c))(params) for c in range(4)]
        assert sum(round(10 * s) for s in scores) == 10


_OBJECTIVES = {
    "quadratic": lambda: QuadraticObjective(4),
    "logistic": lambda: LogisticObjective(4, l2=0.01),
    "mlp": lambda: MlpObjective(4, 5, 3),
}


def _targets(kind, rng, shape):
    if kind == "quadratic":
        return rng.standard_normal(shape)
    return rng.integers(0, 2 if kind == "logistic" else 3, size=shape)


def _mlp_grad_by_index(obj, params, X, y):
    """The MLP gradient with per-batch label constants: the softmax's
    target entries found by fancy indexing, ``ndarray.max``/``sum`` for
    the reductions."""
    W1, b1, W2, b2 = obj._unpack(params)
    A1 = np.tanh(X @ W1 + b1)
    logits = A1 @ W2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    P = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
    P[np.arange(X.shape[0]), np.asarray(y).astype(np.int64)] -= 1.0
    P /= X.shape[0]
    dZ1 = (P @ W2.T) * (1.0 - A1 * A1)
    gW1, gW2 = X.T @ dZ1, A1.T @ P
    return np.concatenate([gW1.ravel(), dZ1.sum(axis=0), gW2.ravel(), P.sum(axis=0)])


def _reference_loss(kind, obj, params, X, y):
    """Each objective's mean loss written out on its own, with per-batch
    label constants and ``ndarray.max``/``sum`` for the reductions."""
    if kind == "quadratic":
        r = X @ params - y
        return float(0.5 * np.dot(r, r) / X.shape[0])
    if kind == "logistic":
        margins = (2.0 * np.asarray(y, dtype=np.float64) - 1.0) * (X @ params)
        data = float(np.mean(np.logaddexp(0.0, -margins)))
        return data + 0.5 * obj.l2 * float(np.dot(params, params))
    W1, b1, W2, b2 = obj._unpack(params)
    logits = np.tanh(X @ W1 + b1) @ W2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-np.mean(logp[np.arange(X.shape[0]), np.asarray(y).astype(np.int64)]))


class TestPreparedTargets:
    """The evaluation binding and the step kernel on prepared targets are
    the same IEEE operations as a loss written out on its own and
    ``grad``: every result equal bit for bit."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        kind=st.sampled_from(sorted(_OBJECTIVES)),
        m=st.integers(1, 40),
        scale=st.sampled_from([0.0, 0.1, 1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_loss_grad_is_loss_and_grad(self, kind, m, scale, seed):
        obj = _OBJECTIVES[kind]()
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(obj.dim) * scale
        X = rng.standard_normal((m, 4))
        y = _targets(kind, rng, m)
        loss, g = loss_grad(obj, p, X, y)
        ref = np.float64(_reference_loss(kind, obj, p, X, y)).tobytes()
        assert np.float64(loss).tobytes() == ref
        assert np.float64(obj.loss(p, X, y)).tobytes() == ref
        assert g.tobytes() == obj.grad(p, X, y).tobytes()
        if kind == "mlp":
            assert g.tobytes() == _mlp_grad_by_index(obj, p, X, y).tobytes()

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        kind=st.sampled_from(sorted(_OBJECTIVES)),
        steps=st.integers(1, 6),
        batch=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_slices_of_a_task(self, kind, steps, batch, seed):
        # local_train prepares a (steps, batch) target array once and
        # hands the step kernel one slice per step
        obj = _OBJECTIVES[kind]()
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(obj.dim)
        X = rng.standard_normal((steps, batch, 4))
        y = _targets(kind, rng, (steps, batch))
        t, step = obj.prepare(y), obj._step_kernel(p)
        for h in range(steps):
            assert step(p, X[h], t[h]).tobytes() == obj.grad(p, X[h], y[h]).tobytes()

    @pytest.mark.parametrize("kind", sorted(_OBJECTIVES))
    def test_full_batch_shard(self, kind):
        # batch_size=full: the shard's targets are prepared once per task
        if kind == "quadratic":
            ds = gen_regression(60, 4, 0.1, seed=3)
        else:
            ds = gen_classification(60, 4, 2 if kind == "logistic" else 3, 2.0, seed=3)
        shard = partition_non_iid(ds, 2, 2, seed=3)[0]
        obj = _OBJECTIVES[kind]()
        p = np.random.default_rng(4).standard_normal(obj.dim)
        t = obj.prepare(shard.targets)
        got = obj._step_kernel(p)(p, shard.features, t)
        assert got.tobytes() == obj.grad(p, shard.features, shard.targets).tobytes()


class _ReferenceMlp:
    """The MLP kernel as it was before it worked in place: a fresh array
    from every operation and the gradient blocks joined by
    ``np.concatenate``."""

    def __init__(self, obj):
        self.obj = obj

    def _forward(self, params, X):
        W1, b1, W2, b2 = self.obj._unpack(params)
        A1 = np.tanh(X @ W1 + b1)
        return W2, A1, A1 @ W2 + b2

    @staticmethod
    def _log_softmax(logits):
        shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
        return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))

    @staticmethod
    def _backward(W2, X, A1, P, onehot):
        P -= onehot
        P /= X.shape[0]
        gW2 = A1.T @ P
        gb2 = np.add.reduce(P, axis=0)
        dZ1 = (P @ W2.T) * (1.0 - A1 * A1)
        gW1 = X.T @ dZ1
        gb1 = np.add.reduce(dZ1, axis=0)
        return np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2])

    def loss_grad(self, params, X, y):
        W2, A1, logits = self._forward(params, X)
        logp = self._log_softmax(logits)
        idx = np.asarray(y).astype(np.int64)
        loss = float(-np.mean(logp[np.arange(logp.shape[0]), idx]))
        return loss, self._backward(W2, X, A1, np.exp(logp), self.obj.prepare(y))

    def _grad(self, params, X, t):
        W2, A1, logits = self._forward(params, X)
        return self._backward(W2, X, A1, np.exp(self._log_softmax(logits)), t)

    def predict(self, params, X):
        return self._forward(params, X)[2].argmax(axis=1)


def _same_bits(a, b) -> bool:
    """Equal bit for bit, signed zeros included; a NaN matches any NaN,
    since which NaN a max keeps reaches no output (``repr`` of every NaN
    is ``nan``)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    same = (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))
    return a.shape == b.shape and bool(same.all())


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _with_specials(rng, values, share):
    """``values`` with about ``share`` of its entries replaced by ±0, ±inf
    or NaN."""
    values = values.copy()
    hit = rng.random(values.shape) < share
    values[hit] = rng.choice(_SPECIALS, size=int(hit.sum()))
    return values


class TestInPlaceMlpKernel:
    """The in-place MLP kernel against :class:`_ReferenceMlp`, bit for bit,
    with ±0, ±inf and NaN reaching the logits: zero feature rows and
    ``b1`` zeros give zero hidden rows, whose logits are ``b2`` plus a
    signed zero, and huge or special ``W2`` entries overflow or poison
    whole rows."""

    @staticmethod
    def _case(rng, classes, m, share):
        obj = MlpObjective(4, 5, classes)
        W1, b1, W2, b2 = obj._unpack(rng.standard_normal(obj.dim))
        b1 = _with_specials(rng, b1, share)
        W2 = _with_specials(rng, W2 * rng.choice([1.0, 1e300], size=W2.shape), share)
        b2 = _with_specials(rng, b2, 2 * share)
        params = np.concatenate([W1.ravel(), b1, W2.ravel(), b2])
        X = rng.standard_normal((m, 4)) * rng.choice([0.0, 1.0, 1e3], size=(m, 1))
        y = rng.integers(0, classes, size=m)
        return obj, params, X, y

    @np.errstate(all="ignore")
    def _check(self, obj, params, X, y):
        ref = _ReferenceMlp(obj)
        t = obj.prepare(y)
        kept = [a.copy() for a in (params, X, t)]
        loss, g = loss_grad(obj, params, X, y)
        ref_loss, ref_g = ref.loss_grad(params, X, y)
        assert _same_bits(loss, ref_loss)
        assert _same_bits(g, ref_g)
        step = obj._step_kernel(params)
        for _ in range(2):  # batch_size=full hands every step the same t
            assert _same_bits(step(params, X, t), ref._grad(params, X, t))
        # every row scores against the reference's predicted class
        assert obj.scorer(X, ref.predict(params, X))(params) == 1.0
        for before, after in zip(kept, (params, X, t)):
            assert _same_bits(before, after)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        classes=st.integers(2, 10),
        m=st.integers(1, 800),
        share=st.sampled_from([0.0, 0.2, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_reference_kernel(self, classes, m, share, seed):
        self._check(*self._case(np.random.default_rng(seed), classes, m, share))

    @pytest.mark.parametrize("classes", range(2, 11))
    def test_log_softmax_of_any_logits(self, classes):
        # the forward pass never makes a -0 logit (a matmul sums from +0),
        # so logits are drawn directly, with rows whose max is a zero of
        # either sign and whose other entries are -inf
        rng = np.random.default_rng(classes)
        for m in (1, 7, 800):
            for share in (0.2, 0.5, 0.9):
                logits = _with_specials(rng, rng.standard_normal((m, classes)), share)
                zero_max = rng.random(m) < 0.3
                logits[zero_max] = rng.choice(np.array([0.0, -0.0, -np.inf]), (zero_max.sum(), classes))
                with np.errstate(all="ignore"):
                    got = MlpObjective._log_softmax(logits.copy())
                    want = _ReferenceMlp._log_softmax(logits)
                assert _same_bits(got, want)


class TestBoundStepKernel:
    """A local task binds the iterate to the MLP step kernel once and steps
    it in place. Its final iterate must equal, bit for bit, a step loop
    that calls :class:`_ReferenceMlp` afresh at every step, with the
    update rule of ``local_train``: ``g += rho * (x - anchor)`` when
    ``rho`` is not 0, then ``g *= gamma`` and ``x -= g``. Nine classes
    take numpy's pairwise row sums."""

    @staticmethod
    def _reference(obj, shard, anchor, cfg, rng):
        steps = int(rng.integers(cfg.h_min, cfg.h_max + 1))
        if cfg.batch_size is None:
            batches = [(shard.features, shard.targets)] * steps
        else:
            idx = rng.integers(0, len(shard), size=(steps, cfg.batch_size))
            batches = zip(shard.features.take(idx, axis=0), shard.targets[idx])
        gamma, rho, x = np.array(cfg.gamma), np.array(cfg.rho), anchor.copy()
        for X, y in batches:
            g = _ReferenceMlp(obj)._grad(x, X, obj.prepare(y))
            if cfg.rho != 0.0:
                g += rho * (x - anchor)
            g *= gamma
            x -= g
        return x

    @pytest.mark.parametrize("d_in, hidden, classes, batch", [
        (10, 16, 3, 50), (10, 105, 4, 20), (3, 1, 2, 1), (5, 7, 9, 13),
    ])
    @pytest.mark.parametrize("rho", [0.0, 0.005])
    @pytest.mark.parametrize("full", [False, True])
    def test_task_matches_a_fresh_reference_step_loop(
        self, d_in, hidden, classes, batch, rho, full
    ):
        rng = np.random.default_rng(d_in * 1000 + hidden)
        obj = MlpObjective(d_in, hidden, classes)
        n = 3 * batch + 7
        shard = Shard(rng.standard_normal((n, d_in)), rng.integers(0, classes, n), np.arange(n))
        anchor = rng.standard_normal(obj.dim)
        cfg = WorkerConfig(
            gamma=0.5, rho=rho, h_min=6, h_max=9, batch_size=None if full else batch
        )
        seed = int(rng.integers(2**32))
        upd = local_train(obj, shard, anchor, 0, cfg, np.random.default_rng(seed))
        want = self._reference(obj, shard, anchor, cfg, np.random.default_rng(seed))
        assert upd.local_iters >= 6
        assert _same_bits(upd.params, want)


class _ReferenceQuadratic:
    """The quadratic kernel written with ``@`` and divided by the row count
    as a Python int."""

    def loss_grad(self, params, X, y):
        r = X @ params - y
        return float(0.5 * np.dot(r, r) / X.shape[0]), X.T @ r / X.shape[0]

    def _grad(self, params, X, t):
        return X.T @ (X @ params - t) / X.shape[0]


class _ReferenceLogistic:
    """The logistic kernel written with ``@`` and divided by the row count
    as a Python int."""

    def __init__(self, obj):
        self.obj = obj

    def loss_grad(self, params, X, y):
        s = self.obj.prepare(y)
        margins = s * (X @ params)
        data = float(np.mean(np.logaddexp(0.0, -margins)))
        loss = data + 0.5 * self.obj.l2 * float(np.dot(params, params))
        return loss, self._grad_at(params, X, s, margins)

    def _grad(self, params, X, t):
        return self._grad_at(params, X, t, t * (X @ params))

    def _grad_at(self, params, X, s, margins):
        sig = np.empty_like(margins)
        pos = margins >= 0
        e = np.exp(-margins[pos])
        sig[pos] = e / (1.0 + e)
        sig[~pos] = 1.0 / (1.0 + np.exp(margins[~pos]))
        return -(X.T @ (s * sig)) / X.shape[0] + self.obj.l2 * params

    def predict(self, params, X):
        return (X @ params > 0.0).astype(np.int64)


class TestDotKernels:
    """Every objective's step kernel, evaluation binding and (for the
    classifiers) held-out scorer, which call ``ndarray.dot`` and divide by
    a 0-d row count, against the same kernels written with ``@``, bit for
    bit, on C-ordered features and on transposed (F-ordered) views of
    them."""

    @staticmethod
    def _case(rng, kind, m, width, hidden, classes):
        if kind == "quadratic":
            obj, ref = QuadraticObjective(width), _ReferenceQuadratic()
            y = rng.standard_normal(m)
        elif kind == "logistic":
            obj = LogisticObjective(width, l2=rng.choice([0.0, 1e-3]))
            ref, y = _ReferenceLogistic(obj), rng.integers(0, 2, size=m)
        else:
            obj = MlpObjective(width, hidden, classes)
            ref, y = _ReferenceMlp(obj), rng.integers(0, classes, size=m)
        params = rng.standard_normal(obj.dim) * rng.choice([0.1, 1.0, 10.0])
        return obj, ref, params, rng.standard_normal((m, width)), y

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["quadratic", "logistic", "mlp"]),
        m=st.integers(1, 800),
        width=st.sampled_from([1, 2, 3, 10, 37, 64]),
        hidden=st.sampled_from([1, 4, 16, 33]),
        classes=st.integers(2, 10),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_matmul_reference(self, kind, m, width, hidden, classes, fortran, seed):
        obj, ref, params, X, y = self._case(
            np.random.default_rng(seed), kind, m, width, hidden, classes
        )
        if fortran:
            X = np.ascontiguousarray(X.T).T
        t = obj.prepare(y)
        loss, g = loss_grad(obj, params, X, y)
        ref_loss, ref_g = ref.loss_grad(params, X, y)
        assert _same_bits(loss, ref_loss)
        assert _same_bits(g, ref_g)
        assert _same_bits(obj._step_kernel(params)(params, X, t), ref._grad(params, X, t))
        if kind != "quadratic":  # every row scores against the reference's class
            assert obj.scorer(X, ref.predict(params, X))(params) == 1.0
