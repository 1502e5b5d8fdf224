"""TCP wire protocol and process-level server/worker loops.

Frame layout: a 4-byte big-endian length covering everything after the
length field, a 1-byte tag, then the payload. Integers are 8-byte
big-endian, booleans one byte, parameter vectors an 8-byte big-endian
element count followed by the elements as little-endian IEEE-754
doubles. This layout is normative: tests pin exact byte sequences.

The server keeps the single-writer discipline of the in-process modes:
every connection handler funnels pushes into one queue consumed by one
updater thread, and model pulls hand out atomic (epoch, params)
snapshots. Handlers never touch the model directly.
"""

from __future__ import annotations

import logging
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from fedasync.data import worker_rng
from fedasync.metrics import MetricsRecord
from fedasync.server import (
    ProtocolError,
    ServerState,
    StaleUpdateError,
    apply_update,
)
from fedasync.simulator import (
    ExperimentConfig,
    Problem,
    RunResult,
    _baseline_record,
    build_problem,
    make_record,
)
from fedasync.worker import LocalUpdate, local_train

log = logging.getLogger("fedasync.transport")

MAX_FRAME_BYTES = 256 * 1024 * 1024  # guard against absurd declared lengths
_CUT_GRACE_S = 5.0  # teardown: time for cut connections and the updater to exit

_LEN = struct.Struct(">I")
_INT = struct.Struct(">q")
_CNT = struct.Struct(">Q")

TAG_TRIGGER = 1
TAG_PULL_REQUEST = 2
TAG_PULL_RESPONSE = 3
TAG_PUSH = 4
TAG_PUSH_ACK = 5
TAG_SHUTDOWN = 6


class FrameError(RuntimeError):
    """Structurally invalid frame: bad length, bad field, junk payload."""


class UnknownTagError(FrameError):
    """Frame carries a tag outside the protocol's table."""


class OversizeFrameError(FrameError):
    """Declared frame length exceeds the configured maximum."""


@dataclass(frozen=True)
class Trigger:
    epoch: int


@dataclass(frozen=True)
class PullRequest:
    worker_id: int


@dataclass(eq=False)
class PullResponse:
    epoch: int
    params: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, PullResponse)
            and self.epoch == other.epoch
            and np.array_equal(self.params, other.params)
        )


@dataclass(eq=False)
class Push:
    worker_id: int
    tau: int
    local_iters: int
    params: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, Push)
            and self.worker_id == other.worker_id
            and self.tau == other.tau
            and self.local_iters == other.local_iters
            and np.array_equal(self.params, other.params)
        )


@dataclass(frozen=True)
class PushAck:
    accepted: bool
    current_epoch: int


@dataclass(frozen=True)
class Shutdown:
    pass


Message = Trigger | PullRequest | PullResponse | Push | PushAck | Shutdown


def _enc_vector(params: np.ndarray) -> bytes:
    params = np.asarray(params, dtype=np.float64)
    return _CNT.pack(params.shape[0]) + params.astype("<f8", copy=False).tobytes()


def encode(msg: Message) -> bytes:
    """Serialize one message to a complete frame."""
    if isinstance(msg, Trigger):
        tag, payload = TAG_TRIGGER, _INT.pack(msg.epoch)
    elif isinstance(msg, PullRequest):
        tag, payload = TAG_PULL_REQUEST, _INT.pack(msg.worker_id)
    elif isinstance(msg, PullResponse):
        tag, payload = TAG_PULL_RESPONSE, _INT.pack(msg.epoch) + _enc_vector(msg.params)
    elif isinstance(msg, Push):
        tag = TAG_PUSH
        payload = (
            _INT.pack(msg.worker_id)
            + _INT.pack(msg.tau)
            + _INT.pack(msg.local_iters)
            + _enc_vector(msg.params)
        )
    elif isinstance(msg, PushAck):
        tag = TAG_PUSH_ACK
        payload = (b"\x01" if msg.accepted else b"\x00") + _INT.pack(msg.current_epoch)
    elif isinstance(msg, Shutdown):
        tag, payload = TAG_SHUTDOWN, b""
    else:
        raise TypeError(f"not a protocol message: {type(msg).__name__}")
    return _LEN.pack(1 + len(payload)) + bytes([tag]) + payload


class _Cursor:
    """Sequential field reader over one frame's payload."""

    def __init__(self, payload: memoryview):
        self.buf = payload
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise FrameError(
                f"payload too short: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def read_int(self) -> int:
        return _INT.unpack(self.take(8))[0]

    def read_bool(self) -> bool:
        b = self.take(1)[0]
        if b not in (0, 1):
            raise FrameError(f"invalid boolean byte 0x{b:02x}")
        return bool(b)

    def read_vector(self) -> np.ndarray:
        (count,) = _CNT.unpack(self.take(8))
        if count * 8 > len(self.buf) - self.pos:
            raise FrameError(
                f"vector claims {count} elements but only "
                f"{(len(self.buf) - self.pos) // 8} fit in the payload"
            )
        raw = self.take(count * 8)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def finish(self):
        if self.pos != len(self.buf):
            raise FrameError(
                f"length mismatch: {len(self.buf) - self.pos} unconsumed payload bytes"
            )


def _decode_body(body: memoryview) -> Message:
    tag = body[0]
    cur = _Cursor(body[1:])
    if tag == TAG_TRIGGER:
        msg: Message = Trigger(epoch=cur.read_int())
    elif tag == TAG_PULL_REQUEST:
        msg = PullRequest(worker_id=cur.read_int())
    elif tag == TAG_PULL_RESPONSE:
        msg = PullResponse(epoch=cur.read_int(), params=cur.read_vector())
    elif tag == TAG_PUSH:
        msg = Push(
            worker_id=cur.read_int(),
            tau=cur.read_int(),
            local_iters=cur.read_int(),
            params=cur.read_vector(),
        )
    elif tag == TAG_PUSH_ACK:
        msg = PushAck(accepted=cur.read_bool(), current_epoch=cur.read_int())
    elif tag == TAG_SHUTDOWN:
        msg = Shutdown()
    else:
        raise UnknownTagError(f"unknown message tag 0x{tag:02x}")
    cur.finish()
    return msg


def decode_frame(
    buf: bytes | bytearray | memoryview, max_frame: int = MAX_FRAME_BYTES
) -> tuple[Message, int] | None:
    """Decode the first complete frame in ``buf``.

    Returns ``(message, bytes_consumed)``, or ``None`` when the buffer
    holds only part of a frame (the needs-more-bytes signal). Raises
    :class:`FrameError` subclasses for structurally bad frames.
    """
    view = memoryview(buf)
    if len(view) < 4:
        return None
    (length,) = _LEN.unpack(view[:4])
    if length > max_frame:
        raise OversizeFrameError(f"declared length {length} exceeds cap {max_frame}")
    if length < 1:
        raise FrameError("declared length 0 leaves no room for a tag")
    if len(view) < 4 + length:
        return None
    msg = _decode_body(view[4 : 4 + length])
    return msg, 4 + length


def decode(data: bytes, max_frame: int = MAX_FRAME_BYTES) -> Message:
    """Decode exactly one complete frame; trailing bytes are an error."""
    out = decode_frame(data, max_frame)
    if out is None:
        raise FrameError(f"incomplete frame: have {len(data)} bytes")
    msg, used = out
    if used != len(data):
        raise FrameError(f"{len(data) - used} trailing bytes after frame")
    return msg


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly n bytes; None on clean EOF at a frame boundary."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise FrameError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_message(sock: socket.socket, max_frame: int = MAX_FRAME_BYTES) -> Message | None:
    """Read one framed message from a socket; None on clean EOF."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > max_frame:
        raise OversizeFrameError(f"declared length {length} exceeds cap {max_frame}")
    if length < 1:
        raise FrameError("declared length 0 leaves no room for a tag")
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("connection closed between header and body")
    return _decode_body(memoryview(body))


def send_message(sock: socket.socket, msg: Message) -> None:
    sock.sendall(encode(msg))


def _no_delay(sock: socket.socket) -> socket.socket:
    """Turn off Nagle's algorithm. Every exchange is a small frame that the
    peer must answer before the next one; with Nagle on, a frame written
    right after another (PushAck then Trigger) waits for the peer's
    delayed ACK, about 40 ms on Linux."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _cut(sock: socket.socket) -> None:
    """Shut a socket down both ways, waking any thread blocked on it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class TransportServer:
    """Accepts worker connections and runs the protocol to T epochs.

    One thread per connection exchanges Trigger / PullRequest /
    PullResponse / Push / PushAck in lock step. A connection is bound to
    the worker id of its first PullRequest; ids out of range or held by
    another live connection are refused, and a Push that names another
    worker or fewer than one local step is a protocol error.

    Dispatch is gated so that an honest push is never stale: a Trigger
    goes out only when nothing is in flight, or when
    ``epoch - min(trigger epochs in flight) + len(in flight) <= K``.
    The oldest task in flight has then waited ``epoch - min`` epochs and
    at most ``len(in flight)`` other tasks, the new one included, can be
    applied before it. When every task in flight was triggered at the
    current epoch the gate is the ``K + 1`` cap on concurrent tasks.
    Otherwise it is stricter: the server waits on the oldest task in
    flight, so a slow worker holds the others back (as in stale
    synchronous parallel) instead of having its late push rejected.

    Pushes go through a queue to the single updater thread, which is
    the only mutator of the model. When the epoch counter reaches
    ``total_epochs`` every connection receives Shutdown.
    """

    _STOP = object()

    def __init__(
        self,
        cfg: ExperimentConfig,
        problem: Problem | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = MAX_FRAME_BYTES,
        socket_timeout: float = 120.0,
    ):
        self.cfg = cfg
        self.problem = problem if problem is not None else build_problem(cfg)
        self.state = ServerState.create(self.problem.x0)
        self.records: list[MetricsRecord] = [_baseline_record(self.problem)]
        self.max_frame = max_frame
        self.socket_timeout = socket_timeout
        self._host, self._port = host, port
        self._lock = threading.Lock()
        self._slots = threading.Condition(self._lock)
        self._in_flight: list[int] = []  # trigger epochs of the tasks in flight
        self._bound: set[int] = set()  # worker ids held by live connections
        self._done = False
        self._queue: queue.Queue = queue.Queue()
        self._done_event = threading.Event()
        self._listener: socket.socket | None = None
        self._handlers: list[tuple[threading.Thread, socket.socket]] = []
        self._accept_thread: threading.Thread | None = None
        self._updater_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, begin accepting, and return the actual (host, port)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen()
        self._listener = listener
        self._host, self._port = listener.getsockname()
        self._updater_thread = threading.Thread(target=self._updater, daemon=True)
        self._updater_thread.start()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self._host, self._port

    def stop(self) -> None:
        """End the run early: no further Triggers, and ``wait`` returns."""
        with self._slots:
            self._done = True
            self._slots.notify_all()
        self._done_event.set()

    def wait(self, timeout: float | None = None) -> RunResult:
        """Block until T epochs are applied (or ``stop``), tear down, report.

        When it returns, every thread the server started has ended. On
        timeout the run is stopped and torn down before TimeoutError is
        raised.
        """
        if not self._done_event.wait(timeout):
            self.stop()
            self._teardown(grace=0.0)
            raise TimeoutError(f"run did not finish within {timeout} s")
        self._teardown(grace=self.socket_timeout)
        with self._lock:
            final = self.state.params.copy()
        return RunResult(
            records=self.records, final_params=final, state=self.state, trajectory=None
        )

    def _teardown(self, grace: float) -> None:
        """Join every server thread under one deadline. Connections get
        ``grace`` seconds to finish their task and take their Shutdown;
        those still open then are cut."""
        assert self._listener is not None
        assert self._accept_thread is not None and self._updater_thread is not None
        now = time.monotonic()
        cut_at, deadline = now + grace, now + grace + _CUT_GRACE_S

        def until(t: float) -> float:
            return max(0.0, t - time.monotonic())

        _cut(self._listener)  # close() alone does not wake accept() on Linux
        self._listener.close()
        self._accept_thread.join(until(deadline))
        for t, _ in self._handlers:
            t.join(until(cut_at))
        for t, conn in self._handlers:
            if t.is_alive():
                _cut(conn)
        for t, _ in self._handlers:
            t.join(until(deadline))
        self._queue.put(self._STOP)
        self._updater_thread.join(until(deadline))

    # -- threads -----------------------------------------------------------

    def _accept_loop(self):
        assert self._listener is not None
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener shut down during teardown
            _no_delay(conn).settimeout(self.socket_timeout)
            t = threading.Thread(target=self._handle, args=(conn, addr), daemon=True)
            self._handlers.append((t, conn))
            t.start()

    def _may_trigger(self) -> bool:
        """The dispatch gate (see the class docstring); lock held."""
        flight = self._in_flight
        return not flight or (
            self.state.epoch - min(flight) + len(flight) <= self.cfg.server.max_staleness
        )

    def _bind(self, worker_id: int) -> int:
        with self._lock:
            if not 0 <= worker_id < self.cfg.n_workers:
                raise ProtocolError(
                    f"worker id {worker_id} out of range for {self.cfg.n_workers} workers"
                )
            if worker_id in self._bound:
                raise ProtocolError(f"worker id {worker_id} is held by another connection")
            self._bound.add(worker_id)
        return worker_id

    def _expect(self, conn: socket.socket, kind: type):
        msg = read_message(conn, self.max_frame)
        if msg is None:
            raise EOFError
        if not isinstance(msg, kind):
            raise FrameError(f"expected {kind.__name__}, got {type(msg).__name__}")
        return msg

    def _handle(self, conn: socket.socket, addr):
        worker_id: int | None = None  # bound at the first PullRequest
        task: int | None = None  # trigger epoch of this connection's task in flight
        try:
            with conn:
                while True:
                    with self._slots:
                        while not self._done and not self._may_trigger():
                            self._slots.wait()
                        if self._done:
                            break
                        task = self.state.epoch
                        self._in_flight.append(task)
                    send_message(conn, Trigger(epoch=task))
                    pull = self._expect(conn, PullRequest)
                    if worker_id is None:
                        worker_id = self._bind(pull.worker_id)
                    elif pull.worker_id != worker_id:
                        raise ProtocolError(
                            f"PullRequest names worker {pull.worker_id} on a "
                            f"connection bound to worker {worker_id}"
                        )
                    with self._lock:
                        snap_epoch, snap_params = self.state.pull()
                    send_message(conn, PullResponse(epoch=snap_epoch, params=snap_params))
                    push = self._expect(conn, Push)
                    verdict: queue.Queue = queue.Queue(maxsize=1)
                    self._queue.put((push, worker_id, verdict))
                    accepted, current_epoch = verdict.get()
                    with self._slots:
                        self._in_flight.remove(task)
                        task = None
                        self._slots.notify_all()
                    send_message(conn, PushAck(accepted=accepted, current_epoch=current_epoch))
                try:
                    send_message(conn, Shutdown())
                except OSError:
                    pass
        except EOFError:
            log.info("worker %s at %s disconnected", worker_id, addr)
        except (OSError, FrameError, ProtocolError) as exc:
            # mid-task drops abandon the task; its slot goes back below
            log.warning("connection %s dropped: %s", addr, exc)
        finally:
            with self._slots:
                if task is not None:
                    self._in_flight.remove(task)
                    self._slots.notify_all()
                if worker_id is not None:
                    self._bound.discard(worker_id)

    def _updater(self):
        cfg = self.cfg
        while True:
            item = self._queue.get()
            if item is self._STOP:
                return
            push, worker_id, verdict = item
            with self._lock:
                if self._done:
                    verdict.put((False, self.state.epoch))
                    continue
                try:
                    if push.worker_id != worker_id:
                        raise ProtocolError(
                            f"push names worker {push.worker_id} on a connection "
                            f"bound to worker {worker_id}"
                        )
                    upd = LocalUpdate(
                        params=np.array(push.params, dtype=np.float64),
                        tau=push.tau,
                        worker_id=push.worker_id,
                        local_iters=push.local_iters,
                    )
                    alpha_t = apply_update(self.state, cfg.server, upd)
                    accepted = True
                except StaleUpdateError as exc:
                    log.info("rejected stale push from worker %s: %s", worker_id, exc)
                    accepted = False
                except ProtocolError as exc:
                    log.error("protocol error from worker %s: %s", worker_id, exc)
                    accepted = False
                epoch = self.state.epoch
                snap = self.state.params.copy()
                gradients = self.state.n_gradients
                last_alpha = self.state.last_alpha
                last_staleness = self.state.last_staleness
                if accepted and epoch >= cfg.total_epochs:
                    self._done = True
                    self._slots.notify_all()
            if accepted and (
                epoch % cfg.eval_every == 0 or epoch == cfg.total_epochs
            ):
                self.records.append(
                    make_record(
                        self.problem,
                        snap,
                        epoch=epoch,
                        gradients=gradients,
                        alpha_t=last_alpha,
                        staleness=last_staleness,
                        sim_time=0.0,
                    )
                )
            verdict.put((accepted, epoch))
            if self._done:
                self._done_event.set()


def serve(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    on_listening=None,
    timeout: float | None = None,
) -> RunResult:
    """Run a server to completion; convenience wrapper over TransportServer.

    ``on_listening(host, port)`` fires once the socket is bound, which is
    how a parent process learns an OS-assigned port.
    """
    server = TransportServer(cfg, problem=problem, host=host, port=port)
    bound_host, bound_port = server.start()
    if on_listening is not None:
        on_listening(bound_host, bound_port)
    return server.wait(timeout)


def worker_loop(
    address: tuple[str, int],
    cfg: ExperimentConfig,
    worker_id: int,
    problem: Problem | None = None,
    max_frame: int = MAX_FRAME_BYTES,
    socket_timeout: float = 120.0,
) -> tuple[int, int]:
    """Serve one device: cycle Trigger → pull → train → push until Shutdown.

    The worker rebuilds the same problem from the shared config, trains
    on its own shard, and draws from the same per-worker stream as the
    in-process modes, so a loopback run is numerically interchangeable
    with a simulated one. Returns (pushes sent, pushes accepted).
    """
    if problem is None:
        problem = build_problem(cfg)
    if not 0 <= worker_id < cfg.n_workers:
        raise ValueError(f"worker_id {worker_id} out of range for {cfg.n_workers} workers")
    shard = problem.shards[worker_id]
    stream = worker_rng(cfg.seed, worker_id)
    pushes = accepted = 0
    with _no_delay(socket.create_connection(address, timeout=socket_timeout)) as sock:
        while True:
            msg = read_message(sock, max_frame)
            if msg is None or isinstance(msg, Shutdown):
                break
            if not isinstance(msg, Trigger):
                raise FrameError(f"expected Trigger, got {type(msg).__name__}")
            send_message(sock, PullRequest(worker_id=worker_id))
            resp = read_message(sock, max_frame)
            if not isinstance(resp, PullResponse):
                raise FrameError(f"expected PullResponse, got {type(resp).__name__}")
            upd = local_train(
                problem.objective,
                shard,
                resp.params,
                resp.epoch,
                cfg.worker,
                stream,
                worker_id=worker_id,
            )
            send_message(
                sock,
                Push(
                    worker_id=worker_id,
                    tau=upd.tau,
                    local_iters=upd.local_iters,
                    params=np.asarray(upd.params),
                ),
            )
            ack = read_message(sock, max_frame)
            if not isinstance(ack, PushAck):
                raise FrameError(f"expected PushAck, got {type(ack).__name__}")
            pushes += 1
            accepted += int(ack.accepted)
    return pushes, accepted
