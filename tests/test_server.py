"""Unit tests for staleness weighting, update admission, and dispatch."""

import itertools

import numpy as np
import pytest

from fedasync.server import (
    ProtocolError,
    ServerConfig,
    ServerState,
    StaleUpdateError,
    apply_update,
    decay_factor,
    plan_triggers,
    staleness_weight,
)
from fedasync.simulator import ExperimentConfig, build_problem
from fedasync.transport import Push, _ServerSession
from fedasync.worker import LocalUpdate, WorkerConfig


def _upd(params, tau, iters=1, worker=0):
    return LocalUpdate(
        params=np.asarray(params, dtype=np.float64),
        tau=tau,
        worker_id=worker,
        local_iters=iters,
    )


def _refused(cfg, dim, push, match):
    """``apply_update`` trusts its input; a malformed push is refused where
    it enters, by the TCP server's session, on a quadratic run whose model
    is ``dim`` zeros. Asserts the refusal and that it left the state as it
    was."""
    run = ExperimentConfig(
        task="quadratic",
        n_workers=1,
        total_epochs=5,
        server=cfg,
        worker=WorkerConfig(gamma=0.1),
        n_samples=20,
        dim=dim,
    )
    session = _ServerSession(run, build_problem(run))
    with pytest.raises(ProtocolError, match=match):
        session._check(push, 0)
    assert session._commit(push, 0) is False
    state = session.state
    np.testing.assert_array_equal(state.params, np.zeros(dim))
    assert (state.epoch, state.n_gradients, state.n_rejected) == (0, 0, 0)


class TestServerConfig:
    def test_alpha_bounds(self):
        ServerConfig(alpha=1.0)
        ServerConfig(alpha=1e-9)
        for bad in (0.0, -0.5, 1.0001, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                ServerConfig(alpha=bad)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            ServerConfig(alpha=0.5, strategy="linear")

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(alpha=0.5, poly_a=0.0)
        with pytest.raises(ValueError):
            ServerConfig(alpha=0.5, hinge_a=-1.0)
        with pytest.raises(ValueError):
            ServerConfig(alpha=0.5, hinge_b=-1)
        with pytest.raises(ValueError):
            ServerConfig(alpha=0.5, max_staleness=-1)


class TestStalenessWeight:
    def test_constant_ignores_staleness(self):
        cfg = ServerConfig(alpha=0.9, strategy="constant")
        assert staleness_weight(cfg, 7) == 0.9
        assert staleness_weight(cfg, 0) == 0.9

    def test_polynomial_exact_value(self):
        cfg = ServerConfig(alpha=0.1, strategy="polynomial", poly_a=0.5)
        # (3 + 1)^-0.5 = 0.5, scaled by alpha
        assert abs(staleness_weight(cfg, 3) - 0.05) < 1e-15

    def test_hinge_flat_region_equals_constant(self):
        for alpha in (0.3, 0.6, 1.0):
            hinge = ServerConfig(
                alpha=alpha, strategy="hinge", hinge_a=10.0, hinge_b=4
            )
            const = ServerConfig(alpha=alpha, strategy="constant")
            for s in range(5):
                assert abs(staleness_weight(hinge, s) - staleness_weight(const, s)) < 1e-15

    def test_hinge_past_knee(self):
        cfg = ServerConfig(alpha=0.7, strategy="hinge", hinge_a=10.0, hinge_b=4)
        # 1 / (10 * (6 - 4) + 1) = 1/21
        assert abs(staleness_weight(cfg, 6) - 0.7 / 21.0) < 1e-15

    def test_every_family_is_one_at_zero_staleness(self):
        for strategy in ("constant", "polynomial", "hinge"):
            cfg = ServerConfig(alpha=0.42, strategy=strategy, hinge_b=0)
            assert abs(staleness_weight(cfg, 0) - 0.42) < 1e-15

    def test_factors_never_increase_with_staleness(self):
        for cfg in (
            ServerConfig(alpha=1.0, strategy="constant"),
            ServerConfig(alpha=1.0, strategy="polynomial", poly_a=0.5),
            ServerConfig(alpha=1.0, strategy="polynomial", poly_a=2.0),
            ServerConfig(alpha=1.0, strategy="hinge", hinge_a=10.0, hinge_b=4),
        ):
            factors = [decay_factor(cfg, s) for s in range(30)]
            assert all(a >= b for a, b in zip(factors, factors[1:]))
            assert factors[0] == 1.0
            assert all(0.0 < f <= 1.0 for f in factors)


class TestApplyUpdate:
    def test_fresh_update_is_plain_mix(self):
        cfg = ServerConfig(alpha=0.6, strategy="constant", max_staleness=3)
        state = ServerState.create(np.array([1.0, 2.0]))
        alpha_t = apply_update(state, cfg, _upd([3.0, 4.0], tau=0, iters=5))
        assert alpha_t == 0.6
        np.testing.assert_allclose(state.params, [0.4 * 1 + 0.6 * 3, 0.4 * 2 + 0.6 * 4])
        assert state.epoch == 1
        assert state.n_gradients == 5

    def test_hand_checked_polynomial_case(self):
        # alpha 0.5, poly a=1, staleness 1: weight 0.5 * 2^-1 = 0.25,
        # so from x=[0] with incoming [1] the model lands on [0.25]
        cfg = ServerConfig(alpha=0.5, strategy="polynomial", poly_a=1.0, max_staleness=4)
        state = ServerState.create(np.array([0.0]))
        apply_update(state, cfg, _upd([5.0], tau=0))
        state.params = np.array([0.0])  # isolate the second application
        alpha_t = apply_update(state, cfg, _upd([1.0], tau=0))
        assert alpha_t == 0.25
        np.testing.assert_allclose(state.params, [0.25], rtol=1e-15)

    def test_same_params_leave_model_unchanged(self):
        cfg = ServerConfig(alpha=0.37, max_staleness=0)
        state = ServerState.create(np.array([1.5, -2.5, 3.5]))
        before = state.params.copy()
        apply_update(state, cfg, _upd(before.copy(), tau=0))
        np.testing.assert_allclose(state.params, before, rtol=2.3e-16)
        assert state.epoch == 1

    def test_stale_update_rejected_counted_and_model_untouched(self):
        cfg = ServerConfig(alpha=0.6, max_staleness=1)
        state = ServerState.create(np.zeros(2))
        apply_update(state, cfg, _upd([1.0, 1.0], tau=0))
        apply_update(state, cfg, _upd([2.0, 2.0], tau=1))
        before = state.params.copy()
        with pytest.raises(StaleUpdateError) as err:
            apply_update(state, cfg, _upd([9.0, 9.0], tau=0))
        assert err.value.staleness == 2
        assert err.value.limit == 1
        np.testing.assert_array_equal(state.params, before)
        assert state.epoch == 2
        assert state.n_rejected == 1

    def test_staleness_at_bound_accepted(self):
        cfg = ServerConfig(alpha=0.5, max_staleness=2)
        state = ServerState.create(np.zeros(1))
        apply_update(state, cfg, _upd([1.0], tau=0))
        apply_update(state, cfg, _upd([1.0], tau=0))  # staleness 1
        alpha_t = apply_update(state, cfg, _upd([1.0], tau=0))  # staleness 2
        assert alpha_t == 0.5
        assert state.epoch == 3
        assert state.n_rejected == 0

    def test_future_tau_is_protocol_error(self):
        cfg = ServerConfig(alpha=0.5, max_staleness=4)
        _refused(cfg, 1, Push(0, tau=3, local_iters=1, params=np.ones(1)), "ahead")

    def test_negative_tau_is_protocol_error(self):
        cfg = ServerConfig(alpha=0.5)
        _refused(cfg, 1, Push(0, tau=-1, local_iters=1, params=np.ones(1)), "negative")

    def test_dimension_mismatch_is_protocol_error(self):
        cfg = ServerConfig(alpha=0.5)
        _refused(cfg, 2, Push(0, tau=0, local_iters=1, params=np.ones(1)), "parameters")

    def test_non_finite_update_is_protocol_error(self):
        cfg = ServerConfig(alpha=0.5)
        _refused(cfg, 2, Push(0, tau=0, local_iters=1, params=np.array([np.inf, 0.0])), "finite")

    def test_last_alpha_and_staleness_recorded(self):
        cfg = ServerConfig(alpha=0.8, strategy="polynomial", poly_a=1.0, max_staleness=5)
        state = ServerState.create(np.zeros(1))
        apply_update(state, cfg, _upd([1.0], tau=0))
        apply_update(state, cfg, _upd([1.0], tau=0))  # staleness 1
        assert state.last_staleness == 1
        assert state.last_alpha == 0.8 / 2.0


class TestHistory:
    def test_window_holds_last_bound_plus_one_epochs(self):
        cfg = ServerConfig(alpha=0.5, max_staleness=2)
        state = ServerState.create(np.zeros(1))
        for i in range(6):
            apply_update(state, cfg, _upd([float(i)], tau=state.epoch))
        assert sorted(state.history) == [4, 5, 6]

    def test_history_entries_are_the_committed_models(self):
        cfg = ServerConfig(alpha=1.0, max_staleness=3)
        state = ServerState.create(np.zeros(1))
        seen = {0: state.params.copy()}
        for i in range(4):
            apply_update(state, cfg, _upd([float(i + 1)], tau=state.epoch))
            seen[state.epoch] = state.params.copy()
        for epoch, params in state.history.items():
            np.testing.assert_array_equal(params, seen[epoch])

    @pytest.mark.parametrize("max_staleness", [0, 1, 4])
    def test_entries_are_the_committed_arrays_themselves(self, max_staleness):
        cfg = ServerConfig(alpha=0.5, max_staleness=max_staleness)
        state = ServerState.create(np.zeros(3))
        committed = {0: state.params}
        for i in range(max_staleness + 6):
            apply_update(state, cfg, _upd(np.full(3, float(i)), tau=state.epoch))
            committed[state.epoch] = state.params
            assert len(state.history) == min(state.epoch, max_staleness) + 1
        assert sorted(state.history) == list(range(state.epoch - max_staleness, state.epoch + 1))
        assert all(params is committed[epoch] for epoch, params in state.history.items())

    def test_history_snapshot_isolated_from_state(self):
        cfg = ServerConfig(alpha=0.5, max_staleness=2)
        state = ServerState.create(np.zeros(1))
        apply_update(state, cfg, _upd([4.0], tau=0))
        snap = state.history[1].copy()
        apply_update(state, cfg, _upd([8.0], tau=1))
        np.testing.assert_array_equal(state.history[1], snap)


class TestPull:
    def test_pull_is_epoch_and_read_only_model(self):
        # a worker pulls (state.epoch, state.params) by reference, and
        # cannot change the server's model through it
        state = ServerState.create(np.array([1.0, 2.0]))
        epoch, params = state.epoch, state.params
        assert epoch == 0
        with pytest.raises(ValueError, match="read-only"):
            params[0] = 99.0
        assert state.params[0] == 1.0


class TestCommittedModelsAreReadOnly:
    def test_create_copies_and_freezes_the_initial_model(self):
        x0 = np.array([1.0, 2.0])
        state = ServerState.create(x0)
        assert not state.params.flags.writeable
        assert state.history[0] is state.params
        x0[0] = 5.0  # the caller's array stays the caller's
        assert x0.flags.writeable and state.params[0] == 1.0

    def test_each_applied_model_is_read_only(self):
        cfg = ServerConfig(alpha=0.5, max_staleness=1)
        state = ServerState.create(np.zeros(2))
        for tau in range(3):
            apply_update(state, cfg, _upd([2.0, 4.0], tau=tau))
            assert not state.params.flags.writeable
        assert all(not m.flags.writeable for m in state.history.values())


class TestPlanTriggers:
    def test_zero_bound_serializes(self):
        chosen, cursor = plan_triggers([0, 1, 2], in_flight=0, max_staleness=0, cursor=0)
        assert chosen == [0]
        assert cursor == 1
        chosen, _ = plan_triggers([1, 2], in_flight=1, max_staleness=0, cursor=1)
        assert chosen == []

    def test_cap_reached_no_new_trigger(self):
        chosen, _ = plan_triggers([5, 6], in_flight=5, max_staleness=4, cursor=0)
        assert chosen == []

    def test_fills_free_slots_round_robin(self):
        chosen, cursor = plan_triggers([0, 1, 2, 3], in_flight=0, max_staleness=2, cursor=2)
        assert chosen == [2, 3, 0]
        assert cursor == 4

    def test_cursor_wraps(self):
        chosen, cursor = plan_triggers([0, 1], in_flight=0, max_staleness=0, cursor=5)
        assert chosen == [0]
        assert cursor == 1

    def test_empty_idle_set(self):
        chosen, cursor = plan_triggers([], in_flight=0, max_staleness=3, cursor=7)
        assert chosen == []
        assert cursor == 7

    def test_same_as_the_rotation_it_replaced(self):
        # every idle set within {0..5}, 0-4 tasks in flight, K 0-3, cursor 0-7
        def rotated(idle_workers, in_flight, max_staleness, cursor):
            free = max_staleness + 1 - in_flight
            if free <= 0 or not idle_workers:
                return [], cursor
            ordered = sorted(idle_workers)
            start = 0
            for i, w in enumerate(ordered):
                if w >= cursor:
                    start = i
                    break
            chosen = (ordered[start:] + ordered[:start])[:free]
            return chosen, (max(chosen) + 1) if chosen else cursor

        cases = 0
        for idle in itertools.product([False, True], repeat=6):
            workers = [w for w in range(6) if idle[w]]
            for in_flight, k, cursor in itertools.product(range(5), range(4), range(8)):
                args = (workers, in_flight, k, cursor)
                assert plan_triggers(*args) == rotated(*args), args
                cases += 1
        assert cases == 10240

    def test_no_worker_starves_under_rotation(self):
        # repeatedly dispatch one worker at a time; every worker appears
        idle = set(range(5))
        cursor = 0
        seen = []
        for _ in range(10):
            chosen, cursor = plan_triggers(sorted(idle), 0, 0, cursor)
            assert len(chosen) == 1
            seen.extend(chosen)
        assert set(seen) == set(range(5))
