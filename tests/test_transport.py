"""Wire-format and socket-loop tests for the process deployment mode."""

import logging
import re
import socket
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fedasync.transport as transport
from fedasync.cli import _run_net
from fedasync.server import ServerConfig
from fedasync.simulator import ExperimentConfig, RunFailure, run_fedasync_sampled
from fedasync.transport import (
    FrameError,
    OversizeFrameError,
    PullRequest,
    PullResponse,
    Push,
    PushAck,
    Shutdown,
    TransportServer,
    Trigger,
    UnknownTagError,
    decode,
    decode_frame,
    encode,
    read_message,
    send_message,
    worker_loop,
)
from fedasync.worker import DivergenceError, WorkerConfig


def _cfg(**over):
    base = dict(
        task="quadratic",
        n_workers=1,
        total_epochs=20,
        server=ServerConfig(alpha=0.6, max_staleness=0),
        worker=WorkerConfig(gamma=0.1, rho=0.005, h_min=3, h_max=7, batch_size=8),
        n_samples=80,
        dim=5,
        seed=0,
        eval_every=1,
    )
    base.update(over)
    return ExperimentConfig(**base)


def _sample_messages(rng, count):
    out = []
    for _ in range(count):
        kind = rng.integers(6)
        if kind == 0:
            out.append(Trigger(epoch=int(rng.integers(-(2**62), 2**62))))
        elif kind == 1:
            out.append(PullRequest(worker_id=int(rng.integers(0, 2**32))))
        elif kind == 2:
            dim = int(rng.integers(0, 65))
            out.append(
                PullResponse(epoch=int(rng.integers(0, 2**40)), params=rng.standard_normal(dim))
            )
        elif kind == 3:
            dim = int(rng.integers(0, 65))
            out.append(
                Push(
                    worker_id=int(rng.integers(0, 1000)),
                    tau=int(rng.integers(-5, 2**40)),
                    local_iters=int(rng.integers(0, 10**6)),
                    params=rng.standard_normal(dim) * 10.0 ** rng.integers(-300, 300),
                )
            )
        elif kind == 4:
            out.append(
                PushAck(accepted=bool(rng.integers(2)), current_epoch=int(rng.integers(0, 2**40)))
            )
        else:
            out.append(Shutdown())
    return out


class TestFrameLayout:
    def test_shutdown_bytes_pinned(self):
        assert encode(Shutdown()) == b"\x00\x00\x00\x01\x06"

    def test_pull_request_bytes_pinned(self):
        assert encode(PullRequest(worker_id=0)) == b"\x00\x00\x00\x09\x02" + b"\x00" * 8

    def test_trigger_layout(self):
        frame = encode(Trigger(epoch=258))
        assert frame[:4] == b"\x00\x00\x00\x09"
        assert frame[4] == 1
        assert frame[5:] == (258).to_bytes(8, "big")

    def test_vector_layout(self):
        msg = PullResponse(epoch=1, params=np.array([1.0, -2.0]))
        frame = encode(msg)
        # 1 tag + 8 epoch + 8 count + 16 elements
        assert frame[:4] == (33).to_bytes(4, "big")
        assert frame[13:21] == (2).to_bytes(8, "big")
        assert frame[21:29] == np.float64(1.0).tobytes()
        assert frame[29:37] == np.float64(-2.0).tobytes()

    def test_push_ack_boolean_byte(self):
        assert encode(PushAck(accepted=True, current_epoch=0))[5] == 1
        assert encode(PushAck(accepted=False, current_epoch=0))[5] == 0

    def test_encode_rejects_non_messages(self):
        with pytest.raises(TypeError):
            encode("not a message")


class TestRoundTrip:
    def test_every_kind_round_trips(self):
        samples = [
            Trigger(epoch=0),
            PullRequest(worker_id=3),
            PullResponse(epoch=5, params=np.array([0.5, -1.5, 3.25])),
            Push(worker_id=1, tau=4, local_iters=7, params=np.array([1e-300, 1e300])),
            PushAck(accepted=True, current_epoch=9),
            Shutdown(),
        ]
        for msg in samples:
            assert decode(encode(msg)) == msg

    def test_randomized_round_trip_bit_exact(self):
        rng = np.random.default_rng(4242)
        for msg in _sample_messages(rng, 1000):
            back = decode(encode(msg))
            assert back == msg
            if isinstance(msg, (PullResponse, Push)):
                assert back.params.tobytes() == np.asarray(msg.params).tobytes()

    def test_empty_vector_round_trips(self):
        msg = PullResponse(epoch=2, params=np.array([]))
        back = decode(encode(msg))
        assert back.epoch == 2
        assert back.params.shape == (0,)

    def test_million_element_vector_round_trips(self):
        rng = np.random.default_rng(7)
        msg = Push(worker_id=0, tau=1, local_iters=2, params=rng.standard_normal(10**6))
        back = decode(encode(msg))
        assert back.params.tobytes() == msg.params.tobytes()


class TestMalformedFrames:
    def test_unknown_tag(self):
        with pytest.raises(UnknownTagError):
            decode(b"\x00\x00\x00\x01\x2a")

    def test_zero_length(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x00\x00\x00\x00")

    def test_oversize_declared_length(self):
        with pytest.raises(OversizeFrameError):
            decode_frame(b"\xff\xff\xff\xff")

    def test_oversize_respects_custom_cap(self):
        frame = encode(PullResponse(epoch=0, params=np.zeros(16)))
        with pytest.raises(OversizeFrameError):
            decode_frame(frame, max_frame=32)
        assert decode_frame(frame) is not None

    def test_payload_too_short_for_field(self):
        # PullRequest with a 4-byte id where 8 are required
        frame = b"\x00\x00\x00\x05\x02" + b"\x00" * 4
        with pytest.raises(FrameError, match="too short"):
            decode(frame)

    def test_unconsumed_payload_bytes(self):
        frame = b"\x00\x00\x00\x0a\x01" + b"\x00" * 9
        with pytest.raises(FrameError, match="unconsumed"):
            decode(frame)

    def test_invalid_boolean_byte(self):
        frame = b"\x00\x00\x00\x0a\x05\x02" + b"\x00" * 8
        with pytest.raises(FrameError, match="boolean"):
            decode(frame)

    def test_vector_count_exceeds_payload(self):
        payload = (0).to_bytes(8, "big") + (10).to_bytes(8, "big") + np.float64(1.0).tobytes()
        frame = (1 + len(payload)).to_bytes(4, "big") + b"\x03" + payload
        with pytest.raises(FrameError, match="vector claims"):
            decode(frame)

    def test_truncated_prefixes_signal_needs_more(self):
        full = encode(Push(worker_id=2, tau=3, local_iters=4, params=np.arange(5.0)))
        for cut in range(len(full)):
            assert decode_frame(full[:cut]) is None

    def test_decode_rejects_incomplete(self):
        full = encode(Trigger(epoch=1))
        with pytest.raises(FrameError, match="incomplete"):
            decode(full[:-1])

    def test_decode_rejects_trailing_bytes(self):
        with pytest.raises(FrameError, match="trailing"):
            decode(encode(Shutdown()) + b"\x00")


class TestFrameStream:
    def test_consumes_one_frame_at_a_time(self):
        msgs = [Trigger(epoch=1), PullRequest(worker_id=2), Shutdown()]
        buf = b"".join(encode(m) for m in msgs)
        got = []
        while buf:
            out = decode_frame(buf)
            assert out is not None
            msg, used = out
            got.append(msg)
            buf = buf[used:]
        assert got == msgs

    def test_partial_tail_returns_none(self):
        buf = encode(Trigger(epoch=1)) + encode(Shutdown())[:-1]
        msg, used = decode_frame(buf)
        assert msg == Trigger(epoch=1)
        assert decode_frame(buf[used:]) is None


def _start_workers(server, cfg, n):
    host, port = server.start()
    results = [None] * n
    errors = []

    def go(w):
        try:
            results[w] = worker_loop((host, port), cfg, w, problem=server.problem)
        except Exception as exc:  # surfaced in the main thread
            errors.append((w, exc))

    threads = [threading.Thread(target=go, args=(w,)) for w in range(n)]
    for t in threads:
        t.start()
    result = server.wait(timeout=60)
    for t in threads:
        t.join(timeout=30)
    assert not errors, f"worker failures: {errors}"
    return result, results


class TestLoopback:
    def test_single_worker_matches_simulator(self):
        cfg = _cfg(total_epochs=40)
        server = TransportServer(cfg)
        net, loops = _start_workers(server, cfg, 1)
        sim = run_fedasync_sampled(cfg)
        np.testing.assert_array_equal(net.final_params, sim.final_params)
        assert net.state.n_gradients == sim.state.n_gradients
        theirs = [(r.epoch, r.gradients, r.loss) for r in sim.records]
        ours = [(r.epoch, r.gradients, r.loss) for r in net.records]
        assert ours == theirs
        assert loops[0] == (40, 40)

    def test_four_workers_converge_without_rejections(self):
        cfg = _cfg(
            n_workers=4,
            total_epochs=200,
            server=ServerConfig(alpha=0.6, max_staleness=3),
            worker=WorkerConfig(gamma=0.1, rho=0.005, h_min=5, h_max=5, batch_size=16),
            n_samples=400,
            dim=8,
        )
        server = TransportServer(cfg)
        result, loops = _start_workers(server, cfg, 4)
        assert result.state.n_rejected == 0
        assert result.records[-1].loss < 0.1 * result.records[0].loss
        # committed epochs are gap-free regardless of interleaving
        assert [r.epoch for r in result.records] == list(range(201))
        assert sum(acc for _, acc in loops) == 200

    def test_push_with_future_tau_is_refused(self):
        cfg = _cfg(total_epochs=1, worker=WorkerConfig(gamma=0.1, h_min=1, h_max=1))
        server = TransportServer(cfg)
        host, port = server.start()
        with socket.create_connection((host, port), timeout=30) as sock:
            msg = read_message(sock)
            assert isinstance(msg, Trigger)
            send_message(sock, PullRequest(worker_id=0))
            resp = read_message(sock)
            assert isinstance(resp, PullResponse)
            bad = Push(
                worker_id=0, tau=resp.epoch + 5, local_iters=1, params=resp.params
            )
            send_message(sock, bad)
            ack = read_message(sock)
            assert ack == PushAck(accepted=False, current_epoch=0)
            # the slot comes back; a well-formed retry completes the run
            msg = read_message(sock)
            assert isinstance(msg, Trigger)
            send_message(sock, PullRequest(worker_id=0))
            resp = read_message(sock)
            send_message(
                sock,
                Push(
                    worker_id=0,
                    tau=resp.epoch,
                    local_iters=1,
                    params=resp.params + 0.5,
                ),
            )
            ack = read_message(sock)
            assert ack.accepted and ack.current_epoch == 1
            assert isinstance(read_message(sock), Shutdown)
        result = server.wait(timeout=30)
        assert result.state.epoch == 1
        assert result.state.n_rejected == 0

    def test_disconnect_mid_task_releases_slot(self):
        # with K=0 there is a single task slot; a worker that vanishes
        # between pull and push must not wedge the run
        cfg = _cfg(n_workers=2, total_epochs=3)
        server = TransportServer(cfg)
        host, port = server.start()
        sock = socket.create_connection((host, port), timeout=30)
        assert isinstance(read_message(sock), Trigger)
        send_message(sock, PullRequest(worker_id=0))
        assert isinstance(read_message(sock), PullResponse)

        done = {}

        def survivor():
            done["loop"] = worker_loop((host, port), cfg, 1, problem=server.problem)

        t = threading.Thread(target=survivor)
        t.start()
        sock.close()
        result = server.wait(timeout=60)
        t.join(timeout=30)
        assert result.state.epoch == 3
        assert done["loop"] == (3, 3)


class TestOneSendPerExchange:
    def test_pipelined_client_gets_fin_after_shutdown(self):
        # the PullRequest sent with the last Push is never answered; the
        # server still reads it, and whatever comes after its Shutdown, so
        # the close is a FIN, not a reset
        cfg = _cfg(total_epochs=1, worker=WorkerConfig(gamma=0.1, h_min=1, h_max=1))
        server = TransportServer(cfg)
        host, port = server.start()
        with socket.create_connection((host, port), timeout=30) as sock:
            send_message(sock, PullRequest(worker_id=0))
            assert isinstance(read_message(sock), Trigger)
            resp = read_message(sock)
            assert isinstance(resp, PullResponse)
            push = Push(worker_id=0, tau=resp.epoch, local_iters=1, params=resp.params + 1.0)
            sock.sendall(encode(push) + encode(PullRequest(worker_id=0)))
            assert read_message(sock) == PushAck(accepted=True, current_epoch=1)
            assert isinstance(read_message(sock), Shutdown)
            assert sock.recv(1) == b""
            for _ in range(2):  # a reset would fail the second send
                send_message(sock, PullRequest(worker_id=0))
                time.sleep(0.05)
        assert server.wait(timeout=30).state.epoch == 1

    def test_one_worker_run_makes_one_send_per_update_each_way(self, monkeypatch):
        epochs = 20
        sends = {"server": 0, "worker": 0}
        original = socket.socket.sendall

        def spy(sock, *args, **kwargs):
            side = "server" if sock.getsockname()[1] == server._port else "worker"
            sends[side] += 1
            return original(sock, *args, **kwargs)

        monkeypatch.setattr(socket.socket, "sendall", spy)
        cfg = _cfg(total_epochs=epochs)
        server = TransportServer(cfg)
        _start_workers(server, cfg, 1)
        assert 0 < sends["worker"] <= epochs + 1
        assert 0 < sends["server"] <= epochs + 2


class TestNoDelay:
    def test_both_ends_set_tcp_nodelay(self, monkeypatch):
        # every read on either end records the socket's TCP_NODELAY flag
        seen = {}
        original = transport.read_message

        def spy(sock, *args, **kwargs):
            local, peer = sock.getsockname(), sock.getpeername()
            seen[(local, peer)] = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            return original(sock, *args, **kwargs)

        monkeypatch.setattr(transport, "read_message", spy)
        cfg = _cfg(total_epochs=3)
        server = TransportServer(cfg)
        _start_workers(server, cfg, 1)
        port = server._port
        server_side = [flag for (local, _), flag in seen.items() if local[1] == port]
        worker_side = [flag for (_, peer), flag in seen.items() if peer[1] == port]
        assert server_side and worker_side
        assert all(server_side) and all(worker_side)


@pytest.fixture
def fast_switching():
    """Switch threads far more often than the default 5 ms."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestDispatchGate:
    @pytest.mark.parametrize("max_staleness", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_honest_pushes_are_never_stale(self, max_staleness, seed, fast_switching):
        # more workers than the K+1 tasks a plain cap would allow in flight
        cfg = _cfg(
            n_workers=6,
            total_epochs=150,
            server=ServerConfig(alpha=0.6, max_staleness=max_staleness),
            worker=WorkerConfig(gamma=0.1, rho=0.005, h_min=1, h_max=6, batch_size=4),
            n_samples=120,
            seed=seed,
        )
        server = TransportServer(cfg)
        result, loops = _start_workers(server, cfg, 6)
        assert result.state.n_rejected == 0
        assert all(r.staleness <= max_staleness for r in result.records)
        assert [r.epoch for r in result.records] == list(range(151))
        assert sum(acc for _, acc in loops) == 150


class TestTeardown:
    def test_wait_leaves_no_server_thread_alive(self):
        before = set(threading.enumerate())
        cfg = _cfg(n_workers=2, total_epochs=10, server=ServerConfig(alpha=0.6, max_staleness=1))
        server = TransportServer(cfg)
        host, port = server.start()
        workers = [
            threading.Thread(
                target=worker_loop, args=((host, port), cfg, w), kwargs={"problem": server.problem}
            )
            for w in range(2)
        ]
        for t in workers:
            t.start()
        server.wait(timeout=60)
        left = [
            t for t in threading.enumerate() if t not in before and t not in workers and t.is_alive()
        ]
        for t in workers:
            t.join(timeout=30)
            assert not t.is_alive()
        assert left == []

    def test_wait_is_bounded_with_a_silent_peer(self):
        # a peer that holds a task and never answers delays teardown by at
        # most the socket timeout, and leaves no thread behind
        cfg = _cfg(n_workers=2, total_epochs=1, server=ServerConfig(alpha=0.6, max_staleness=1))
        before = set(threading.enumerate())
        server = TransportServer(cfg, socket_timeout=1.0)
        host, port = server.start()
        with socket.create_connection((host, port), timeout=30) as silent:
            assert isinstance(read_message(silent), Trigger)
            send_message(silent, PullRequest(worker_id=0))
            assert isinstance(read_message(silent), PullResponse)
            loop = worker_loop((host, port), cfg, 1, problem=server.problem)
            t0 = time.perf_counter()
            result = server.wait(timeout=60)
            assert time.perf_counter() - t0 < 10.0
            assert read_message(silent) is None
        assert loop == (1, 1)
        assert result.state.epoch == 1
        assert [t for t in threading.enumerate() if t not in before] == []

    def test_timeout_cuts_connections_at_once(self):
        cfg = _cfg(total_epochs=2)
        server = TransportServer(cfg)
        before = set(threading.enumerate())
        host, port = server.start()
        with socket.create_connection((host, port), timeout=30) as silent:
            _raw_task(silent)
            t0 = time.perf_counter()
            with pytest.raises(TimeoutError):
                server.wait(timeout=0.2)
            assert time.perf_counter() - t0 < 5.0
            assert read_message(silent) is None
        assert [t for t in threading.enumerate() if t not in before] == []

    def test_repeated_net_runs_keep_thread_count_flat(self):
        cfg = _cfg(n_workers=2, total_epochs=5, server=ServerConfig(alpha=0.6, max_staleness=1))
        _run_net(cfg)
        count = threading.active_count()
        for seed in range(1, 6):
            _run_net(replace(cfg, seed=seed))
        assert threading.active_count() == count


def _raw_task(sock, worker_id=0):
    """Take a Trigger and pull as ``worker_id``; returns the PullResponse."""
    assert isinstance(read_message(sock), Trigger)
    send_message(sock, PullRequest(worker_id=worker_id))
    resp = read_message(sock)
    assert isinstance(resp, PullResponse)
    return resp


class TestClientFieldValidation:
    def test_out_of_range_worker_id_is_refused(self):
        # a PullRequest claiming id 99 on a 1-worker server loses its connection
        cfg = _cfg(total_epochs=1, worker=WorkerConfig(gamma=0.1, h_min=1, h_max=1))
        server = TransportServer(cfg)
        host, port = server.start()
        with socket.create_connection((host, port), timeout=30) as sock:
            assert isinstance(read_message(sock), Trigger)
            send_message(sock, PullRequest(worker_id=99))
            assert read_message(sock) is None
        assert worker_loop((host, port), cfg, 0, problem=server.problem) == (1, 1)
        result = server.wait(timeout=30)
        assert result.state.epoch == 1
        assert result.state.n_gradients == 1

    def test_worker_id_held_by_another_connection_is_refused(self):
        cfg = _cfg(n_workers=2, total_epochs=1, server=ServerConfig(alpha=0.6, max_staleness=1))
        server = TransportServer(cfg)
        host, port = server.start()
        with socket.create_connection((host, port), timeout=30) as first:
            resp = _raw_task(first, worker_id=0)
            with socket.create_connection((host, port), timeout=30) as second:
                assert isinstance(read_message(second), Trigger)
                send_message(second, PullRequest(worker_id=0))
                assert read_message(second) is None
            send_message(
                first, Push(worker_id=0, tau=resp.epoch, local_iters=2, params=resp.params)
            )
            assert read_message(first) == PushAck(accepted=True, current_epoch=1)
            assert isinstance(read_message(first), Shutdown)
        result = server.wait(timeout=30)
        assert result.state.n_gradients == 2

    def test_push_with_foreign_worker_id_or_no_steps_leaves_model_untouched(self):
        cfg = _cfg(total_epochs=1, server=ServerConfig(alpha=0.5, max_staleness=0))
        server = TransportServer(cfg)
        x0 = server.problem.x0.copy()
        host, port = server.start()
        with socket.create_connection((host, port), timeout=30) as sock:
            bad = [
                dict(worker_id=12345, local_iters=-50),
                dict(worker_id=0, local_iters=-50),
                dict(worker_id=0, local_iters=0),
                dict(worker_id=12345, local_iters=3),
            ]
            for fields in bad:
                resp = _raw_task(sock)
                np.testing.assert_array_equal(resp.params, x0)
                send_message(sock, Push(tau=resp.epoch, params=resp.params + 1.0, **fields))
                assert read_message(sock) == PushAck(accepted=False, current_epoch=0)
            resp = _raw_task(sock)
            send_message(
                sock, Push(worker_id=0, tau=resp.epoch, local_iters=3, params=x0 + 1.0)
            )
            assert read_message(sock) == PushAck(accepted=True, current_epoch=1)
            assert isinstance(read_message(sock), Shutdown)
        result = server.wait(timeout=30)
        np.testing.assert_array_equal(result.final_params, x0 + 0.5)
        assert [r.gradients for r in result.records] == [0, 3]
        assert result.state.n_gradients == 3
        assert result.state.n_rejected == 0


class TestDisconnects:
    def test_clean_close_is_logged_as_disconnect(self, caplog):
        cfg = _cfg(n_workers=2, total_epochs=2)
        server = TransportServer(cfg)
        host, port = server.start()
        with caplog.at_level(logging.INFO, logger="fedasync.transport"):
            with socket.create_connection((host, port), timeout=30) as sock:
                _raw_task(sock, worker_id=0)
            assert worker_loop((host, port), cfg, 1, problem=server.problem) == (2, 2)
            server.wait(timeout=30)
        messages = [r.getMessage() for r in caplog.records]
        assert any("worker 0" in m and "disconnected" in m for m in messages)
        assert not any("NoneType" in m for m in messages)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_worker_divergence_ends_the_net_run(self):
        cfg = _cfg(
            n_workers=2,
            total_epochs=50,
            server=ServerConfig(alpha=0.6, max_staleness=1),
            worker=WorkerConfig(gamma=1e40, h_min=1, h_max=1, batch_size=None),
        )
        t0 = time.perf_counter()
        with pytest.raises(RunFailure) as err:
            _run_net(cfg)
        assert isinstance(err.value.cause, DivergenceError)
        assert err.value.epoch < cfg.total_epochs
        assert time.perf_counter() - t0 < 30.0

    def test_one_diverging_worker_ends_the_net_run(self, monkeypatch):
        cfg = _cfg(n_workers=2, total_epochs=100_000, server=ServerConfig(alpha=0.6, max_staleness=1))
        train = transport.local_train
        calls = {1: 0}

        def diverge_on_worker_1(*args, **kwargs):
            if kwargs["worker_id"] == 1:
                calls[1] += 1
                if calls[1] == 3:
                    raise DivergenceError("non-finite parameters")
            return train(*args, **kwargs)

        monkeypatch.setattr(transport, "local_train", diverge_on_worker_1)
        with pytest.raises(RunFailure) as err:
            _run_net(cfg)
        assert isinstance(err.value.cause, DivergenceError)
        assert err.value.epoch < 1_000


class TestWireDocs:
    def test_readme_table_lists_every_message(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Wire protocol\n", 1)[1].split("\n## ", 1)[0]
        rows = set(re.findall(r"^\| (\d+) \| (\w+) \|", section, flags=re.MULTILINE))
        assert rows == {(str(row.tag), cls.__name__) for cls, row in transport._LAYOUT.items()}
