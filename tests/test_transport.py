"""Wire-format and socket-loop tests for the process deployment mode."""

import gc
import itertools
import logging
import re
import socket
import struct
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedasync.transport as transport
from fedasync.cli import _run_net
from fedasync.server import ProtocolError, ServerConfig
from fedasync.simulator import ExperimentConfig, RunFailure, build_problem, run_fedasync_sampled
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
    worker_loop,
)
from fedasync.worker import DivergenceError, WorkerConfig
from messages import same_message


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
            assert same_message(decode(encode(msg)), msg)

    def test_randomized_round_trip_bit_exact(self):
        rng = np.random.default_rng(4242)
        for msg in _sample_messages(rng, 1000):
            assert same_message(decode(encode(msg)), msg)

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

    def test_truncated_push_ack_with_bad_boolean_byte(self):
        # the boolean byte is 0x02 and the epoch is 4 bytes short: which of
        # the two faults the text names is free, the class is not
        frame = b"\x00\x00\x00\x06\x05\x02" + b"\x00" * 4
        with pytest.raises(FrameError) as refused:
            decode(frame)
        assert type(refused.value) is FrameError

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


def _serve(server, timeout=60.0):
    """Bind ``server`` and run ``wait(timeout)`` on a thread the test owns.

    Returns the address and ``finish``, which joins that thread and
    returns what ``wait`` returned, or raises what it raised.
    """
    address = server.bind()
    out = {}

    def run():
        try:
            out["result"] = server.wait(timeout)
        except Exception as exc:  # raised again by finish()
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def finish():
        thread.join(timeout + 30)
        assert not thread.is_alive()
        if "error" in out:
            raise out["error"]
        return out["result"]

    return address, finish


class _Client:
    """A raw client: one socket and one ``_Buffer`` for the socket's life,
    on a run with ``dim`` parameters."""

    def __init__(self, address, timeout=30, dim=5):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.buf = transport._Buffer(dim)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()

    def send(self, *msgs):
        self.sock.sendall(b"".join(encode(m) for m in msgs))

    def read(self):
        return read_message(self.sock, self.buf)

    def task(self, worker_id=0):
        """Take a Trigger and pull as ``worker_id``; returns the PullResponse."""
        assert isinstance(self.read(), Trigger)
        self.send(PullRequest(worker_id=worker_id))
        resp = self.read()
        assert isinstance(resp, PullResponse)
        return resp


def _start_workers(server, cfg, n):
    address, finish = _serve(server)
    results = [None] * n
    errors = []

    def go(w):
        try:
            results[w] = worker_loop(address, cfg, w, problem=server.problem)
        except Exception as exc:  # surfaced in the main thread
            errors.append((w, exc))

    threads = [threading.Thread(target=go, args=(w,)) for w in range(n)]
    for t in threads:
        t.start()
    result = finish()
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
        address, finish = _serve(server)
        with _Client(address) as client:
            resp = client.task()
            bad = Push(worker_id=0, tau=resp.epoch + 5, local_iters=1, params=resp.params)
            client.send(bad)
            assert client.read() == PushAck(accepted=False, current_epoch=0)
            # the slot comes back; a well-formed retry completes the run
            resp = client.task()
            client.send(Push(worker_id=0, tau=resp.epoch, local_iters=1, params=resp.params + 0.5))
            ack = client.read()
            assert ack.accepted and ack.current_epoch == 1
            assert isinstance(client.read(), Shutdown)
        result = finish()
        assert result.state.epoch == 1
        assert result.state.n_rejected == 0

    def test_disconnect_mid_task_releases_slot(self):
        # with K=0 there is a single task slot; a worker that vanishes
        # between pull and push must not wedge the run
        cfg = _cfg(n_workers=2, total_epochs=3)
        server = TransportServer(cfg)
        address, finish = _serve(server)
        client = _Client(address)
        client.task()

        done = {}

        def survivor():
            done["loop"] = worker_loop(address, cfg, 1, problem=server.problem)

        t = threading.Thread(target=survivor)
        t.start()
        client.sock.close()
        result = finish()
        t.join(timeout=30)
        assert result.state.epoch == 3
        assert done["loop"] == (3, 3)


def _memory_run(cfg, cut=lambda data: [data]):
    """A 1-worker run of the two sans-IO sessions over in-memory buffers,
    with no socket: the server's ``_Conn`` has none. Each direction's
    bytes arrive in the pieces that ``cut`` makes of them. Returns the
    run's result and every byte the server wrote."""
    problem = build_problem(cfg)
    session = transport._ServerSession(cfg, problem)
    conn = transport._Conn(None, ("memory", 0), problem.x0.size)
    worker = transport._WorkerSession(cfg, 0, problem)
    wbuf = transport._Buffer(problem.x0.size)
    wbuf.put(PullRequest(worker_id=0))
    session.connect(conn)
    sent = bytearray()
    while not worker.done:
        for piece in cut(bytes(wbuf.outbox)):
            conn.buf.inbox += piece
            while conn.phase != transport._CLOSING and (msg := conn.buf.next()) is not None:
                session.receive(conn, msg)
        wbuf.outbox.clear()
        out = bytes(conn.buf.outbox)
        assert out, "the server owes the worker nothing, and the worker waits"
        conn.buf.outbox.clear()
        sent += out
        for piece in cut(out):
            wbuf.inbox += piece
            while not worker.done and (msg := wbuf.next()) is not None:
                for reply in worker.receive(msg):
                    wbuf.put(reply)
    session.drop(conn, EOFError())
    assert session.conns == []
    return session.run.result(), bytes(sent)


class TestSansIO:
    CFG = _cfg(total_epochs=20, eval_every=3)

    def test_in_memory_run_matches_the_socket_run_bit_for_bit(self):
        memory, sent = _memory_run(self.CFG)
        net = _run_net(self.CFG)
        assert [r.cells() for r in memory.records] == [r.cells() for r in net.records]
        assert memory.final_params.tobytes() == net.final_params.tobytes()
        assert sent.endswith(encode(Shutdown()))

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.integers(1, 64), min_size=1, max_size=12))
    def test_byte_splits_change_nothing(self, sizes):
        whole, whole_sent = _memory_run(self.CFG)
        sizes = itertools.cycle(sizes)

        def cut(data):
            pieces = []
            while data:
                n = next(sizes)
                pieces.append(data[:n])
                data = data[n:]
            return pieces

        split, split_sent = _memory_run(self.CFG, cut)
        assert [r.cells() for r in split.records] == [r.cells() for r in whole.records]
        assert split.final_params.tobytes() == whole.final_params.tobytes()
        assert split_sent == whole_sent

    def test_every_single_boundary_changes_nothing(self):
        # each flush, in either direction, arrives as data[:k] then data[k:],
        # for every k up to the longest flush of the run
        lengths = []
        whole, whole_sent = _memory_run(self.CFG, lambda data: lengths.append(len(data)) or [data])
        for k in range(1, max(lengths) + 1):
            split, split_sent = _memory_run(self.CFG, lambda data: [data[:k], data[k:]])
            assert [r.cells() for r in split.records] == [r.cells() for r in whole.records], k
            assert split.final_params.tobytes() == whole.final_params.tobytes(), k
            assert split_sent == whole_sent, k


class TestWaitingConnections:
    # K=0 and a raw client holds the only slot, so a second connection
    # waits at the gate; the server reads it all the same

    def test_eof_from_a_waiting_connection_is_seen_at_once(self, caplog):
        cfg = _cfg(n_workers=2, total_epochs=1)
        server = TransportServer(cfg, socket_timeout=60.0)
        with caplog.at_level(logging.INFO, logger="fedasync.transport"):
            address, finish = _serve(server)
            with _Client(address) as holder:
                resp = holder.task(worker_id=0)
                with _Client(address) as waiting:
                    waiting.send(PullRequest(worker_id=1))
                t0 = time.perf_counter()
                while not any(
                    "worker 1" in r.getMessage() and "disconnected" in r.getMessage()
                    for r in caplog.records
                ):
                    assert time.perf_counter() - t0 < 5.0, "the waiting EOF was not seen"
                    time.sleep(0.01)
                holder.send(Push(worker_id=0, tau=resp.epoch, local_iters=1, params=resp.params))
                assert holder.read() == PushAck(accepted=True, current_epoch=1)
                assert isinstance(holder.read(), Shutdown)
            assert finish().state.epoch == 1

    def test_a_push_from_a_waiting_connection_drops_it_at_once(self, caplog):
        cfg = _cfg(n_workers=2, total_epochs=3)
        server = TransportServer(cfg, socket_timeout=60.0)
        address, finish = _serve(server)
        with caplog.at_level(logging.WARNING, logger="fedasync.transport"):
            with _Client(address) as holder:
                holder.task(worker_id=0)
                with _Client(address, timeout=10) as waiting:
                    t0 = time.perf_counter()
                    waiting.send(Push(worker_id=1, tau=0, local_iters=1, params=np.zeros(5)))
                    assert waiting.sock.recv(1) == b""
                    assert time.perf_counter() - t0 < 3.0
        assert any("expected PullRequest, got Push" in r.getMessage() for r in caplog.records)
        assert worker_loop(address, cfg, 1, problem=server.problem) == (3, 3)
        assert finish().state.epoch == 3


class TestOneSendPerExchange:
    def test_pipelined_client_gets_fin_after_shutdown(self):
        # the PullRequest sent with the last Push is never answered; the
        # server still reads it, and whatever comes after its Shutdown, so
        # the close is a FIN, not a reset
        cfg = _cfg(total_epochs=1, worker=WorkerConfig(gamma=0.1, h_min=1, h_max=1))
        server = TransportServer(cfg)
        address, finish = _serve(server)
        with _Client(address) as client:
            client.send(PullRequest(worker_id=0))
            assert isinstance(client.read(), Trigger)
            resp = client.read()
            assert isinstance(resp, PullResponse)
            push = Push(worker_id=0, tau=resp.epoch, local_iters=1, params=resp.params + 1.0)
            client.send(push, PullRequest(worker_id=0))
            assert client.read() == PushAck(accepted=True, current_epoch=1)
            assert isinstance(client.read(), Shutdown)
            assert client.sock.recv(1) == b""
            for _ in range(2):  # a reset would fail the second send
                client.send(PullRequest(worker_id=0))
                time.sleep(0.05)
        assert finish().state.epoch == 1

    def test_one_worker_run_makes_one_send_per_update_each_way(self, monkeypatch):
        # the worker sends with sendall, the server's loop with send
        epochs = 20
        sends = {"server": 0, "worker": 0}

        def spy_on(name):
            original = getattr(socket.socket, name)

            def spy(sock, *args, **kwargs):
                side = "server" if sock.getsockname()[1] == server._port else "worker"
                sends[side] += 1
                return original(sock, *args, **kwargs)

            monkeypatch.setattr(socket.socket, name, spy)

        spy_on("send")
        spy_on("sendall")
        cfg = _cfg(total_epochs=epochs)
        server = TransportServer(cfg)
        _start_workers(server, cfg, 1)
        assert 0 < sends["worker"] <= epochs + 1
        assert 0 < sends["server"] <= epochs + 2


class TestNoDelay:
    def test_both_ends_set_tcp_nodelay(self, monkeypatch):
        # every read on either end records the socket's TCP_NODELAY flag;
        # the server's end is the one whose local port is the server's
        seen = {}
        original = socket.socket.recv

        def spy(sock, *args, **kwargs):
            seen[sock.getsockname()] = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            return original(sock, *args, **kwargs)

        monkeypatch.setattr(socket.socket, "recv", spy)
        cfg = _cfg(total_epochs=3)
        server = TransportServer(cfg)
        _start_workers(server, cfg, 1)
        port = server._port
        server_side = [flag for local, flag in seen.items() if local[1] == port]
        worker_side = [flag for local, flag in seen.items() if local[1] != port]
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
        # the loop runs in the thread that calls wait(); the workers are
        # the only other threads here
        before = set(threading.enumerate())
        cfg = _cfg(n_workers=2, total_epochs=10, server=ServerConfig(alpha=0.6, max_staleness=1))
        server = TransportServer(cfg)
        address = server.bind()
        workers = [
            threading.Thread(
                target=worker_loop, args=(address, cfg, w), kwargs={"problem": server.problem}
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
        address, finish = _serve(server)
        with _Client(address) as silent:
            silent.task()
            loop = worker_loop(address, cfg, 1, problem=server.problem)
            t0 = time.perf_counter()
            result = finish()
            assert time.perf_counter() - t0 < 10.0
            assert silent.read() is None
        assert loop == (1, 1)
        assert result.state.epoch == 1
        assert [t for t in threading.enumerate() if t not in before] == []

    def test_a_peer_that_never_sent_a_byte_does_not_delay_the_end(self):
        # it connects mid-run and waits at the gate behind the worker's
        # task (K=0); at the end it gets Shutdown and is closed at once,
        # not read for an EOF that never comes until socket_timeout
        cfg = _cfg(total_epochs=3000, eval_every=100)
        server = TransportServer(cfg, socket_timeout=3.0)
        address, finish = _serve(server)
        ended = {}

        def work():
            ended["loop"] = worker_loop(address, cfg, 0, problem=server.problem)
            ended["at"] = time.perf_counter()

        t = threading.Thread(target=work)
        t.start()
        t0 = time.perf_counter()
        while server.session.state.epoch < 1:
            assert time.perf_counter() - t0 < 30.0, "the run did not start"
            time.sleep(0.001)
        with socket.create_connection(address, timeout=10) as idle:
            result = finish()
            waited = time.perf_counter() - ended["at"]
            t.join(timeout=30)
            assert not t.is_alive()
            buf = transport._Buffer(5)
            assert isinstance(read_message(idle, buf), Shutdown)
            assert read_message(idle, buf) is None
        assert ended["loop"] == (3000, 3000)
        assert result.state.epoch == 3000
        assert waited < 1.0

    def test_silent_peer_drop_hands_its_slot_on(self):
        # the honest worker's push leaves it held at the gate behind the
        # silent peer's task, its PullRequest already read with the push;
        # the silent peer's drop must serve that PullRequest at once
        cfg = _cfg(n_workers=2, total_epochs=2, server=ServerConfig(alpha=0.6, max_staleness=1))
        server = TransportServer(cfg, socket_timeout=1.0)
        address, finish = _serve(server)
        with _Client(address) as silent:
            silent.task()
            t0 = time.perf_counter()
            loop = worker_loop(address, cfg, 1, problem=server.problem, socket_timeout=30)
            result = finish()
            assert time.perf_counter() - t0 < 10.0
            assert silent.read() is None
        assert loop == (2, 2)
        assert result.state.epoch == 2

    def test_failed_trigger_send_hands_the_slot_on(self, monkeypatch):
        # K=3, accept order: blocker, reset peer, honest worker, all given
        # a task at epoch 0. The blocker pushes and takes a task at epoch
        # 1; the reset peer pushes (epoch 2) and is held at the gate. The
        # honest push (epoch 3) gives the slot to the reset peer, ahead of
        # the honest worker. Sending that Trigger fails in the server's
        # flush, and the slot must pass on to the honest worker, whose
        # PullRequest came with its push and draws no further event.
        cfg = _cfg(
            n_workers=3,
            total_epochs=4,
            server=ServerConfig(alpha=0.6, max_staleness=3),
            worker=WorkerConfig(gamma=0.1, h_min=1, h_max=1),
        )
        pulled, go = threading.Event(), threading.Event()
        train = transport.local_train

        def held_until_go(*args, **kwargs):
            pulled.set()
            assert go.wait(timeout=30)
            return train(*args, **kwargs)

        monkeypatch.setattr(transport, "local_train", held_until_go)
        server = TransportServer(cfg, socket_timeout=30.0)
        address, finish = _serve(server)
        honest = {}
        with _Client(address) as blocker, _Client(address) as reset:
            assert blocker.read() == Trigger(epoch=0)
            assert reset.read() == Trigger(epoch=0)
            t = threading.Thread(
                target=lambda: honest.update(loop=worker_loop(address, cfg, 1, problem=server.problem))
            )
            t.start()
            assert pulled.wait(timeout=30)  # the honest worker holds its epoch-0 task
            for client, worker_id, epoch in ((blocker, 0, 1), (reset, 2, 2)):
                client.send(PullRequest(worker_id=worker_id))
                resp = client.read()
                client.send(Push(worker_id, resp.epoch, 1, resp.params))
                assert client.read() == PushAck(accepted=True, current_epoch=epoch)
            assert blocker.read() == Trigger(epoch=1)
            reset.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            reset.sock.close()  # a reset: the server learns of it when it sends
            t0 = time.perf_counter()
            go.set()
            t.join(timeout=60)
            assert time.perf_counter() - t0 < 10.0
        assert honest["loop"] == (2, 2)
        assert finish().state.epoch == 4

    def test_a_drop_in_flush_serves_a_connection_it_passed(self, monkeypatch):
        # K=1, accept order: early, late, both given epoch-0 tasks. early
        # pushes and is held at the gate behind late's task, its
        # PullRequest sent ahead. late's PullResponse send fails in the
        # server's flush, after flush has passed early; the drop grants
        # early, and its Trigger and PullResponse must go out at once
        cfg = _cfg(n_workers=2, total_epochs=2, server=ServerConfig(alpha=0.6, max_staleness=1))
        doomed = []
        send = transport._Buffer.send

        def failing_send(buf, sock):
            if sock.getpeername() in doomed:
                raise ConnectionResetError("reset by the test")
            send(buf, sock)

        monkeypatch.setattr(transport._Buffer, "send", failing_send)
        server = TransportServer(cfg, socket_timeout=30.0)
        address, finish = _serve(server)
        with _Client(address, timeout=10) as early, _Client(address) as late:
            resp = early.task(worker_id=0)
            assert late.read() == Trigger(epoch=0)
            early.send(Push(0, resp.epoch, 1, resp.params), PullRequest(worker_id=0))
            assert early.read() == PushAck(accepted=True, current_epoch=1)
            doomed.append(late.sock.getsockname())
            t0 = time.perf_counter()
            late.send(PullRequest(worker_id=1))
            assert early.read() == Trigger(epoch=1)
            resp = early.read()
            assert isinstance(resp, PullResponse) and resp.epoch == 1
            assert time.perf_counter() - t0 < 5.0
            early.send(Push(0, resp.epoch, 1, resp.params))
            assert early.read() == PushAck(accepted=True, current_epoch=2)
            assert isinstance(early.read(), Shutdown)
        assert finish().state.epoch == 2

    def test_timeout_cuts_connections_at_once(self):
        cfg = _cfg(total_epochs=2)
        server = TransportServer(cfg)
        before = set(threading.enumerate())
        address, finish = _serve(server, timeout=1.0)
        with _Client(address) as silent:
            silent.task()
            t0 = time.perf_counter()
            with pytest.raises(TimeoutError):
                finish()
            assert time.perf_counter() - t0 < 5.0
            assert silent.read() is None
        assert [t for t in threading.enumerate() if t not in before] == []

    def test_repeated_net_runs_keep_thread_count_flat(self):
        cfg = _cfg(n_workers=2, total_epochs=5, server=ServerConfig(alpha=0.6, max_staleness=1))
        _run_net(cfg)
        count = threading.active_count()
        for seed in range(1, 6):
            _run_net(replace(cfg, seed=seed))
        assert threading.active_count() == count


class TestOneLoop:
    def test_in_process_run_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = _cfg(n_workers=2, total_epochs=10, server=ServerConfig(alpha=0.6, max_staleness=1))
        assert _run_net(cfg).state.epoch == 10

    def test_a_peer_that_stops_reading_does_not_stall_the_others(self):
        # the stalled peer's PullResponse, 5.6 MB, is more than its receive
        # buffer and the server's send buffer (at most 4 MiB by default on
        # Linux) can hold; K leaves the other worker ungated
        cfg = _cfg(
            task="mlp",
            n_workers=2,
            total_epochs=3,
            server=ServerConfig(alpha=0.6, max_staleness=10),
            worker=WorkerConfig(gamma=0.1, h_min=1, h_max=1, batch_size=4),
            n_samples=40,
            dim=1000,
            hidden=700,
        )
        server = TransportServer(cfg, socket_timeout=60.0)
        address, finish = _serve(server)
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as stalled:
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
            stalled.settimeout(30)
            stalled.connect(address)
            stalled.sendall(encode(PullRequest(worker_id=0)))
            # wait, without reading, until the PullResponse has begun to arrive
            trigger_bytes = len(encode(Trigger(epoch=0)))
            while len(stalled.recv(1 << 16, socket.MSG_PEEK)) <= trigger_bytes:
                time.sleep(0.01)
            t0 = time.perf_counter()
            assert worker_loop(address, cfg, 1, problem=server.problem) == (3, 3)
            assert time.perf_counter() - t0 < 10.0
        assert finish().state.epoch == 3

    def test_no_socket_is_left_unclosed(self):
        unraisable = []
        hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                cfg = _cfg(
                    n_workers=2, total_epochs=5, server=ServerConfig(alpha=0.6, max_staleness=1)
                )
                _run_net(cfg)
                cfg = _cfg(total_epochs=5)
                server = TransportServer(cfg)
                address, finish = _serve(server)
                worker_loop(address, cfg, 0, problem=server.problem)
                finish()
                gc.collect()
        finally:
            sys.unraisablehook = hook
        assert [u.exc_value for u in unraisable] == []


class TestClientFieldValidation:
    def test_out_of_range_worker_id_is_refused(self):
        # a PullRequest claiming id 99 on a 1-worker server loses its connection
        cfg = _cfg(total_epochs=1, worker=WorkerConfig(gamma=0.1, h_min=1, h_max=1))
        server = TransportServer(cfg)
        address, finish = _serve(server)
        with _Client(address) as client:
            assert isinstance(client.read(), Trigger)
            client.send(PullRequest(worker_id=99))
            assert client.read() is None
        assert worker_loop(address, cfg, 0, problem=server.problem) == (1, 1)
        result = finish()
        assert result.state.epoch == 1
        assert result.state.n_gradients == 1

    def test_worker_id_held_by_another_connection_is_refused(self):
        cfg = _cfg(n_workers=2, total_epochs=1, server=ServerConfig(alpha=0.6, max_staleness=1))
        server = TransportServer(cfg)
        address, finish = _serve(server)
        with _Client(address) as first:
            resp = first.task(worker_id=0)
            with _Client(address) as second:
                assert isinstance(second.read(), Trigger)
                second.send(PullRequest(worker_id=0))
                assert second.read() is None
            first.send(Push(worker_id=0, tau=resp.epoch, local_iters=2, params=resp.params))
            assert first.read() == PushAck(accepted=True, current_epoch=1)
            assert isinstance(first.read(), Shutdown)
        result = finish()
        assert result.state.n_gradients == 2

    def test_push_with_foreign_worker_id_or_no_steps_leaves_model_untouched(self):
        cfg = _cfg(total_epochs=1, server=ServerConfig(alpha=0.5, max_staleness=0))
        server = TransportServer(cfg)
        x0 = server.problem.x0.copy()
        address, finish = _serve(server)
        with _Client(address) as client:
            bad = [
                dict(worker_id=12345, local_iters=-50),
                dict(worker_id=0, local_iters=-50),
                dict(worker_id=0, local_iters=0),
                dict(worker_id=12345, local_iters=3),
            ]
            for fields in bad:
                resp = client.task()
                np.testing.assert_array_equal(resp.params, x0)
                client.send(Push(tau=resp.epoch, params=resp.params + 1.0, **fields))
                assert client.read() == PushAck(accepted=False, current_epoch=0)
            resp = client.task()
            client.send(Push(worker_id=0, tau=resp.epoch, local_iters=3, params=x0 + 1.0))
            assert client.read() == PushAck(accepted=True, current_epoch=1)
            assert isinstance(client.read(), Shutdown)
        result = finish()
        np.testing.assert_array_equal(result.final_params, x0 + 0.5)
        assert [r.gradients for r in result.records] == [0, 3]
        assert result.state.n_gradients == 3
        assert result.state.n_rejected == 0

    def test_oversize_frame_drops_its_connection_at_the_header(self):
        # the largest legal frame on a dim-5 run is a 77-byte Push; a header
        # declaring 10 MiB is refused before its body, and only its
        # connection is dropped
        cfg = _cfg(n_workers=2, total_epochs=3)
        server = TransportServer(cfg, socket_timeout=60.0)
        address, finish = _serve(server)
        with _Client(address, timeout=10) as client:
            client.task(worker_id=0)
            t0 = time.perf_counter()
            client.sock.sendall((10 << 20).to_bytes(4, "big") + b"\x04" + bytes(100))
            assert client.sock.recv(1) == b""
            assert time.perf_counter() - t0 < 5.0
        assert worker_loop(address, cfg, 1, problem=server.problem) == (3, 3)
        assert finish().state.epoch == 3


def _with_entry(params, value):
    out = params + 1.0
    out[2] = value
    return out


# Pushes that _ServerSession._check refuses, built from the PullResponse
# they answer, with the text of the refusal it logs
_MALFORMED_PUSHES = {
    "nan-entry": (lambda r: Push(0, r.epoch, 1, _with_entry(r.params, np.nan)), "non-finite"),
    "inf-entry": (lambda r: Push(0, r.epoch, 1, _with_entry(r.params, np.inf)), "non-finite"),
    "negative-tau": (lambda r: Push(0, -1, 1, r.params + 1.0), "negative pull epoch -1"),
    "tau-ahead": (lambda r: Push(0, r.epoch + 1, 1, r.params + 1.0), "ahead of server epoch 0"),
    "one-element-short": (lambda r: Push(0, r.epoch, 1, r.params[:-1] + 1.0), "has 4 parameters"),
}


class TestMalformedPushes:
    # apply_update trusts its input; the session refuses these where they
    # are decoded, and the connection carries on
    @pytest.mark.parametrize("kind", list(_MALFORMED_PUSHES))
    def test_refused_and_nothing_changes(self, kind, caplog):
        build, logged = _MALFORMED_PUSHES[kind]
        cfg = _cfg(total_epochs=1, server=ServerConfig(alpha=0.5, max_staleness=0))
        server = TransportServer(cfg)
        x0 = server.problem.x0.copy()
        with caplog.at_level(logging.ERROR, logger="fedasync.transport"):
            address, finish = _serve(server)
            with _Client(address) as client:
                client.send(build(client.task()))
                assert client.read() == PushAck(accepted=False, current_epoch=0)
                resp = client.task()
                np.testing.assert_array_equal(resp.params, x0)
                client.send(Push(0, resp.epoch, 3, x0 + 1.0))
                assert client.read() == PushAck(accepted=True, current_epoch=1)
                assert isinstance(client.read(), Shutdown)
            result = finish()
        assert any(
            "protocol error from worker 0" in r.getMessage() and logged in r.getMessage()
            for r in caplog.records
        )
        np.testing.assert_array_equal(result.final_params, x0 + 0.5)
        assert [r.gradients for r in result.records] == [0, 3]
        assert result.state.n_rejected == 0


class TestForeignModels:
    # a server whose config is not the worker's: its PullResponse is refused
    # before any training, and the worker sends nothing after its PullRequest.
    # A longer vector than the problem's overruns the frame cap, whose
    # refusal names the cause.
    @pytest.mark.parametrize(
        "params, error, match",
        [
            (np.zeros(3), ProtocolError, "server sent 3 parameters, this worker's problem has 5"),
            (
                np.zeros(8),
                OversizeFrameError,
                r"server's frame is longer than any frame of this worker's problem "
                r"\(5 parameters\), so the configs differ \(declared length 81 exceeds cap 73\)",
            ),
            (np.array([0.0, 0.0, np.nan, 0.0, 0.0]), ProtocolError, "non-finite"),
            (np.array([0.0, np.inf, 0.0, 0.0, 0.0]), ProtocolError, "non-finite"),
        ],
    )
    def test_worker_refuses_a_pull_response_that_is_not_its_problems(
        self, params, error, match
    ):
        cfg = _cfg()
        heard = bytearray()

        def fake_server(listener):
            conn, _ = listener.accept()
            with conn:
                conn.sendall(encode(Trigger(epoch=0)) + encode(PullResponse(0, params)))
                while chunk := conn.recv(4096):
                    heard.extend(chunk)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(30)
            server = threading.Thread(target=fake_server, args=(listener,))
            server.start()
            try:
                with pytest.raises(error, match=match):
                    worker_loop(listener.getsockname(), cfg, 0, socket_timeout=30)
            finally:
                server.join(timeout=30)
        assert not server.is_alive()
        assert bytes(heard) == encode(PullRequest(worker_id=0))


class TestLongTimeouts:
    @pytest.mark.parametrize("timeout", [3e6, 1e300])
    def test_a_wait_longer_than_the_selector_takes_is_taken_in_parts(self, timeout):
        # epoll refuses a timeout of 2**31 ms (about 24.8 days) or more
        server = TransportServer(_cfg(total_epochs=3))
        server.bind()
        server.attach_worker(0)
        assert server.wait(timeout=timeout).state.epoch == 3


class TestDisconnects:
    def test_clean_close_is_logged_as_disconnect(self, caplog):
        cfg = _cfg(n_workers=2, total_epochs=2)
        server = TransportServer(cfg)
        with caplog.at_level(logging.INFO, logger="fedasync.transport"):
            address, finish = _serve(server)
            with _Client(address) as client:
                client.task(worker_id=0)
            assert worker_loop(address, cfg, 1, problem=server.problem) == (2, 2)
            finish()
        messages = [r.getMessage() for r in caplog.records]
        assert any("worker 0" in m and "disconnected" in m for m in messages)
        assert not any("NoneType" in m for m in messages)

    def test_wait_ends_at_once_when_every_worker_is_gone(self):
        cfg = _cfg(total_epochs=5)
        server = TransportServer(cfg)
        address, finish = _serve(server, timeout=10)
        with _Client(address) as client:
            resp = client.task(worker_id=0)
            client.send(Push(worker_id=0, tau=resp.epoch, local_iters=1, params=resp.params))
            assert client.read() == PushAck(accepted=True, current_epoch=1)
        t0 = time.perf_counter()
        with pytest.raises(ConnectionError, match="at epoch 1 of 5"):
            finish()
        assert time.perf_counter() - t0 < 5.0

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
