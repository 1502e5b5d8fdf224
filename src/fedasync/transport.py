"""TCP wire protocol and process-level server/worker loops.

Frame layout: a 4-byte big-endian length covering everything after the
length field, a 1-byte tag, then the message's fields in order. Integers
are 8-byte big-endian, booleans one byte, parameter vectors an 8-byte
big-endian element count followed by the elements as little-endian
IEEE-754 doubles. :data:`_LAYOUT` states each message's tag and fields
once; :func:`encode` and every decode path read it. This layout is
normative: tests pin exact byte sequences.

Write-behind: each end keeps a per-connection :class:`_Buffer`. Frames
written to it leave together, in one ``sendall``, just before that end's
next socket read or the server's next gate wait would block; neither end
blocks holding unsent output, and the server never sends holding its
lock. With the worker's PullRequest sent ahead, an update costs one send
each way: Push and PullRequest, then PushAck, Trigger and PullResponse.

The connection handler that reads a push applies it and takes the run
loop's step (:class:`fedasync.simulator.RunLoop`) under the server lock,
so the model has one writer at a time, as in the in-process modes.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fedasync.data import worker_rng
from fedasync.server import ProtocolError, ServerState, StaleUpdateError, apply_update
from fedasync.simulator import (
    ExperimentConfig,
    Problem,
    RunLoop,
    RunResult,
    build_problem,
    make_record,  # not called here; bench/tracing.py patches it in every runner module
)
from fedasync.worker import LocalUpdate, local_train

log = logging.getLogger("fedasync.transport")

MAX_FRAME_BYTES = 256 * 1024 * 1024  # guard against absurd declared lengths
_CUT_GRACE_S = 5.0  # teardown: time for cut connections to exit
_RECV_BYTES = 1 << 16  # what one buffered read asks the socket for

_LEN = struct.Struct(">I")
_CNT = struct.Struct(">Q")


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


class _Layout(NamedTuple):
    tag: int
    fixed: struct.Struct  # the fields before any vector, in field order; "B" is a boolean
    vector: bool  # the last field is a parameter vector


# The wire format, one row per message; README "Wire protocol" mirrors it.
_LAYOUT: dict[type, _Layout] = {
    Trigger: _Layout(1, struct.Struct(">q"), False),
    PullRequest: _Layout(2, struct.Struct(">q"), False),
    PullResponse: _Layout(3, struct.Struct(">q"), True),
    Push: _Layout(4, struct.Struct(">qqq"), True),
    PushAck: _Layout(5, struct.Struct(">Bq"), False),
    Shutdown: _Layout(6, struct.Struct(">"), False),
}
_BY_TAG = {layout.tag: cls for cls, layout in _LAYOUT.items()}


def encode(msg: Message) -> bytes:
    """Serialize one message to a complete frame."""
    layout = _LAYOUT.get(type(msg))
    if layout is None:
        raise TypeError(f"not a protocol message: {type(msg).__name__}")
    tag, fixed, vector = layout
    values = list(vars(msg).values())  # a dataclass's fields, in order
    tail = b""
    if vector:
        vec = np.asarray(values.pop(), dtype=np.float64)
        tail = _CNT.pack(vec.shape[0]) + vec.astype("<f8", copy=False).tobytes()
    payload = fixed.pack(*values) + tail
    return _LEN.pack(1 + len(payload)) + bytes([tag]) + payload


def _flag(byte: int) -> bool:
    """A boolean field: the byte 0 or 1."""
    if byte > 1:
        raise FrameError(f"invalid boolean byte 0x{byte:02x}")
    return bool(byte)


def _too_short(fmt: str, payload: memoryview) -> FrameError:
    """The refusal for a payload that ends inside the fields ``fmt``; as a
    field-by-field read would, it checks the fields before the field cut short."""
    pos = 0
    for code in fmt[1:]:
        n = struct.calcsize(">" + code)
        if pos + n > len(payload):
            break
        if code == "B":
            _flag(payload[pos])
        pos += n
    have = len(payload) - pos
    return FrameError(f"payload too short: wanted {n} bytes at offset {pos}, have {have}")


def _decode_body(body: memoryview) -> Message:
    cls = _BY_TAG.get(body[0])
    if cls is None:
        raise UnknownTagError(f"unknown message tag 0x{body[0]:02x}")
    _, fixed, vector = _LAYOUT[cls]
    payload, end = body[1:], fixed.size + _CNT.size * vector
    if end > len(payload):
        raise _too_short(fixed.format + "Q" * vector, payload)
    values = list(fixed.unpack_from(payload))
    for i, code in enumerate(fixed.format[1:]):
        if code == "B":
            values[i] = _flag(values[i])
    if vector:
        (count,) = _CNT.unpack_from(payload, fixed.size)
        if count * 8 > len(payload) - end:
            raise FrameError(
                f"vector claims {count} elements but only "
                f"{(len(payload) - end) // 8} fit in the payload"
            )
        raw, end = payload[end : end + count * 8], end + count * 8
        values.append(np.frombuffer(raw, dtype="<f8").astype(np.float64))
    if end != len(payload):
        raise FrameError(f"length mismatch: {len(payload) - end} unconsumed payload bytes")
    return cls(*values)


def _frame_length(header, max_frame: int) -> int:
    """The length a frame header declares, refused outside 1..max_frame."""
    (length,) = _LEN.unpack_from(header)
    if length > max_frame:
        raise OversizeFrameError(f"declared length {length} exceeds cap {max_frame}")
    if length < 1:
        raise FrameError("declared length 0 leaves no room for a tag")
    return length


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
    length = _frame_length(view, max_frame)
    if len(view) < 4 + length:
        return None
    return _decode_body(view[4 : 4 + length]), 4 + length


def decode(data: bytes) -> Message:
    """Decode exactly one complete frame; trailing bytes are an error."""
    out = decode_frame(data)
    if out is None:
        raise FrameError(f"incomplete frame: have {len(data)} bytes")
    msg, used = out
    if used != len(data):
        raise FrameError(f"{len(data) - used} trailing bytes after frame")
    return msg


class _Buffer:
    """One end's per-connection buffer: bytes received but not yet
    decoded, and frames written behind but not yet sent."""

    def __init__(self):
        self.inbox, self.outbox = bytearray(), bytearray()

    def put(self, msg: Message) -> None:
        self.outbox += encode(msg)

    def flush(self, sock: socket.socket) -> None:
        if self.outbox:
            sock.sendall(self.outbox)
            self.outbox.clear()


def read_message(sock: socket.socket, buf: _Buffer | None = None) -> Message | None:
    """Read one framed message from a socket; None on clean EOF.

    With ``buf``, this end's buffer, it takes the next frame from the
    inbox; only when no whole frame is there does it flush ``buf``, then
    ``recv`` what has arrived. Without it, it reads exactly one frame and
    nothing past it.
    """
    own = buf is None
    buf = _Buffer() if own else buf
    inbox = buf.inbox
    while (out := decode_frame(inbox)) is None:
        buf.flush(sock)
        want = _RECV_BYTES
        if own:  # no further than this frame's end
            want = (4 if len(inbox) < 4 else 4 + _frame_length(inbox, MAX_FRAME_BYTES)) - len(inbox)
        chunk = sock.recv(want)
        if not chunk:
            if inbox:
                raise FrameError(f"connection closed mid-frame ({len(inbox)} bytes read)")
            return None
        inbox += chunk
    msg, used = out
    del inbox[:used]
    return msg


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
    PullResponse / Push / PushAck in lock step, writing behind (see the
    module docstring), for a worker that sends its PullRequest ahead and
    for one that waits for the Trigger alike. A connection is bound to
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

    The PullResponse snapshot is taken when the PullRequest is read.
    When the epoch counter reaches ``total_epochs`` every connection
    receives Shutdown; the server then half-closes and reads to EOF, so
    that an unanswered PullRequest does not turn the close into a reset.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        problem: Problem | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_timeout: float = 120.0,
    ):
        self.cfg = cfg
        self.problem = problem if problem is not None else build_problem(cfg)
        self.state = ServerState.create(self.problem.x0)
        self._run = RunLoop(cfg, self.problem, self.state)
        self.socket_timeout = socket_timeout
        self._host, self._port = host, port
        self._lock = threading.Lock()
        self._slots = threading.Condition(self._lock)
        self._in_flight: list[int] = []  # trigger epochs of the tasks in flight
        self._bound: set[int] = set()  # worker ids held by live connections
        self._done = False
        self._done_event = threading.Event()
        self._listener: socket.socket | None = None
        self._handlers: list[tuple[threading.Thread, socket.socket]] = []
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, begin accepting, and return the actual (host, port)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen()
        self._listener = listener
        self._host, self._port = listener.getsockname()
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
        return self._run.result()

    def _teardown(self, grace: float) -> None:
        """Join every server thread under one deadline. Connections get
        ``grace`` seconds to finish their task and take their Shutdown;
        those still open then are cut."""
        assert self._listener is not None
        assert self._accept_thread is not None
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

    def _claim(self, conn: socket.socket, buf: _Buffer) -> int | None:
        """Take a task slot at the dispatch gate: its trigger epoch, or None
        once the run is over. ``buf`` is flushed, unlocked, before any wait."""
        while True:
            with self._slots:
                if not buf.outbox:
                    while not self._done and not self._may_trigger():
                        self._slots.wait()
                if self._done:
                    return None
                if self._may_trigger():
                    self._in_flight.append(self.state.epoch)
                    return self.state.epoch
            buf.flush(conn)

    def _expect(self, conn: socket.socket, buf: _Buffer, kind: type):
        msg = read_message(conn, buf)
        if msg is None:
            raise EOFError
        if not isinstance(msg, kind):
            raise FrameError(f"expected {kind.__name__}, got {type(msg).__name__}")
        return msg

    def _handle(self, conn: socket.socket, addr):
        worker_id: int | None = None  # bound at the first PullRequest
        task: int | None = None  # trigger epoch of this connection's task in flight
        buf = _Buffer()
        try:
            with conn:
                while (task := self._claim(conn, buf)) is not None:
                    buf.put(Trigger(epoch=task))
                    pull = self._expect(conn, buf, PullRequest)
                    if worker_id is None:
                        worker_id = self._bind(pull.worker_id)
                    elif pull.worker_id != worker_id:
                        raise ProtocolError(
                            f"PullRequest names worker {pull.worker_id} on a "
                            f"connection bound to worker {worker_id}"
                        )
                    with self._lock:
                        snap_epoch, snap_params = self.state.pull()
                    buf.put(PullResponse(epoch=snap_epoch, params=snap_params))
                    push = self._expect(conn, buf, Push)
                    with self._slots:
                        accepted = self._commit(push, worker_id)
                        self._in_flight.remove(task)
                        task = None
                        self._slots.notify_all()
                        ack = PushAck(accepted=accepted, current_epoch=self.state.epoch)
                    buf.put(ack)
                try:
                    buf.put(Shutdown())
                    buf.flush(conn)
                    conn.shutdown(socket.SHUT_WR)
                    while conn.recv(_RECV_BYTES):  # to EOF, so the close is a FIN
                        pass
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

    def _commit(self, push: Push, worker_id: int) -> bool:
        """Apply one push and take the run loop's step; lock held. False
        if refused. The push that reaches ``total_epochs`` ends the run."""
        if self._done:
            return False
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
            apply_update(self.state, self.cfg.server, upd)
        except StaleUpdateError as exc:
            log.info("rejected stale push from worker %s: %s", worker_id, exc)
            return False
        except ProtocolError as exc:
            log.error("protocol error from worker %s: %s", worker_id, exc)
            return False
        self._run.step(0.0)
        if self.state.epoch >= self.cfg.total_epochs:
            self._done = True
            self._done_event.set()
        return True


def worker_loop(
    address: tuple[str, int],
    cfg: ExperimentConfig,
    worker_id: int,
    problem: Problem | None = None,
    socket_timeout: float = 120.0,
) -> tuple[int, int]:
    """Serve one device: cycle Trigger → pull → train → push until Shutdown.

    Each PullRequest goes out ahead of its Trigger: on connect, then with
    each Push. The worker rebuilds the same problem from the shared
    config, trains on its own shard, and draws from the same per-worker
    stream as the in-process modes, so a loopback run is numerically
    interchangeable with a simulated one. Returns (pushes sent, pushes
    accepted).
    """
    if problem is None:
        problem = build_problem(cfg)
    if not 0 <= worker_id < cfg.n_workers:
        raise ValueError(f"worker_id {worker_id} out of range for {cfg.n_workers} workers")
    shard = problem.shards[worker_id]
    stream = worker_rng(cfg.seed, worker_id)
    pushes = accepted = 0
    buf = _Buffer()
    buf.put(PullRequest(worker_id=worker_id))
    with _no_delay(socket.create_connection(address, timeout=socket_timeout)) as sock:
        while True:
            msg = read_message(sock, buf)
            if msg is None or isinstance(msg, Shutdown):
                break
            if not isinstance(msg, Trigger):
                raise FrameError(f"expected Trigger, got {type(msg).__name__}")
            resp = read_message(sock, buf)
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
            buf.put(Push(worker_id, upd.tau, upd.local_iters, upd.params))
            buf.put(PullRequest(worker_id=worker_id))
            ack = read_message(sock, buf)
            if not isinstance(ack, PushAck):
                raise FrameError(f"expected PushAck, got {type(ack).__name__}")
            pushes += 1
            accepted += int(ack.accepted)
    return pushes, accepted
