"""TCP wire protocol, the server's selector loop and the worker loop.

Frame layout: a 4-byte big-endian length covering everything after the
length field, a 1-byte tag, then the message's fields in order. Integers
are 8-byte big-endian, booleans one byte, parameter vectors an 8-byte
big-endian element count followed by the elements as little-endian
IEEE-754 doubles. :data:`_LAYOUT` states each message's tag and fields
once; :func:`encode` and every decode path read it. This layout is
normative: tests pin exact byte sequences.

Write-behind: each end keeps a per-connection :class:`_Buffer`. Frames
written to it leave together, just before that end next waits on its
peer: the worker in one ``sendall`` before its next blocking read, the
server in one non-blocking ``send`` per connection before its loop
waits on the selector again; what the kernel does not take then goes
when the socket is writable. With the worker's PullRequest sent ahead,
an update costs one send each way: Push and PullRequest, then PushAck,
Trigger and PullResponse.

The server (:class:`TransportServer`) is one selector loop on one
thread. It applies each push and takes the run loop's step
(:class:`fedasync.simulator.RunLoop`) as it reads the push, so the model
has one writer, as in the in-process modes, and needs no lock. The
worker's protocol is one sans-IO state machine, driven by the blocking
:func:`worker_loop` or, for an in-process run, by the server's own loop.
"""

from __future__ import annotations

import logging
import os
import selectors
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from fedasync.data import worker_rng
from fedasync.server import ProtocolError, ServerState, StaleUpdateError, apply_update
from fedasync.simulator import (
    ExperimentConfig,
    Problem,
    RunFailure,
    RunLoop,
    RunResult,
    build_problem,
    make_record,  # not called here; bench/tracing.py patches it in every runner module
)
from fedasync.worker import DivergenceError, LocalUpdate, local_train

log = logging.getLogger("fedasync.transport")

MAX_FRAME_BYTES = 256 * 1024 * 1024  # guard against absurd declared lengths
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
        """Send the outbox whole, blocking until it is gone."""
        if self.outbox:
            sock.sendall(self.outbox)
            self.outbox.clear()

    def send(self, sock: socket.socket) -> None:
        """Send what of the outbox the kernel takes now; the rest stays."""
        try:
            sent = sock.send(self.outbox)
        except BlockingIOError:
            return
        del self.outbox[:sent]

    def fill(self, sock: socket.socket, want: int = _RECV_BYTES) -> bool:
        """Receive once into the inbox; False at a clean EOF. A
        non-blocking socket with nothing to read counts as no EOF."""
        try:
            chunk = sock.recv(want)
        except BlockingIOError:
            return True
        if not chunk:
            if self.inbox:
                raise FrameError(f"connection closed mid-frame ({len(self.inbox)} bytes read)")
            return False
        self.inbox += chunk
        return True

    def next(self) -> Message | None:
        """Take the first whole frame from the inbox, or None."""
        out = decode_frame(self.inbox)
        if out is None:
            return None
        msg, used = out
        del self.inbox[:used]
        return msg


def read_message(sock: socket.socket, buf: _Buffer | None = None) -> Message | None:
    """Read one framed message from a blocking socket; None on clean EOF.

    With ``buf``, this end's buffer, it takes the next frame from the
    inbox; only when no whole frame is there does it flush ``buf``, then
    ``recv`` what has arrived. Without it, it reads exactly one frame and
    nothing past it.
    """
    own = buf is None
    buf = _Buffer() if own else buf
    inbox = buf.inbox
    while (msg := buf.next()) is None:
        buf.flush(sock)
        want = _RECV_BYTES
        if own:  # no further than this frame's end
            want = (4 if len(inbox) < 4 else 4 + _frame_length(inbox, MAX_FRAME_BYTES)) - len(inbox)
        if not buf.fill(sock, want):
            return None
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


class _WorkerSession:
    """One device's side of the protocol, without I/O: :meth:`receive`
    takes each message read from the server (None at EOF) and returns the
    frames to send back.

    Each PullRequest goes out ahead of its Trigger: first in
    :meth:`opening`, then with each Push. The device trains on its own
    shard of the shared problem and draws from the same per-worker stream
    as the in-process modes, so a loopback run is numerically
    interchangeable with a simulated one.
    """

    def __init__(self, cfg: ExperimentConfig, worker_id: int, problem: Problem):
        if not 0 <= worker_id < cfg.n_workers:
            raise ValueError(f"worker_id {worker_id} out of range for {cfg.n_workers} workers")
        self.cfg, self.worker_id, self.problem = cfg, worker_id, problem
        self.shard = problem.shards[worker_id]
        self.stream = worker_rng(cfg.seed, worker_id)
        self.pushes = self.accepted = 0
        self.expect: type = Trigger
        self.done = False

    def opening(self) -> tuple[Message, ...]:
        return (PullRequest(worker_id=self.worker_id),)

    def receive(self, msg: Message | None) -> tuple[Message, ...]:
        if self.expect is Trigger and (msg is None or isinstance(msg, Shutdown)):
            self.done = True
            return ()
        if not isinstance(msg, self.expect):
            raise FrameError(f"expected {self.expect.__name__}, got {type(msg).__name__}")
        if isinstance(msg, Trigger):
            self.expect = PullResponse
            return ()
        if isinstance(msg, PullResponse):
            upd = local_train(  # looked up here, where tests and the tracer patch it
                self.problem.objective,
                self.shard,
                msg.params,
                msg.epoch,
                self.cfg.worker,
                self.stream,
                worker_id=self.worker_id,
            )
            self.expect = PushAck
            return (
                Push(self.worker_id, upd.tau, upd.local_iters, upd.params),
                PullRequest(worker_id=self.worker_id),
            )
        self.pushes += 1
        self.accepted += int(msg.accepted)
        self.expect = Trigger
        return ()


def worker_loop(
    address: tuple[str, int],
    cfg: ExperimentConfig,
    worker_id: int,
    problem: Problem | None = None,
    socket_timeout: float = 120.0,
) -> tuple[int, int]:
    """Serve one device over a blocking socket: cycle Trigger → pull →
    train → push (see :class:`_WorkerSession`) until Shutdown. Returns
    (pushes sent, pushes accepted)."""
    if problem is None:
        problem = build_problem(cfg)
    session = _WorkerSession(cfg, worker_id, problem)
    buf = _Buffer()
    for msg in session.opening():
        buf.put(msg)
    with _no_delay(socket.create_connection(address, timeout=socket_timeout)) as sock:
        while not session.done:
            for msg in session.receive(read_message(sock, buf)):
                buf.put(msg)
    return session.pushes, session.accepted


class _LocalWorker:
    """An in-process worker's end of its loopback connection, driven by
    the server's selector loop instead of a thread of its own."""

    def __init__(self, session: _WorkerSession, address: tuple[str, int]):
        self.session, self.buf = session, _Buffer()
        for msg in session.opening():
            self.buf.put(msg)
        self.sock = _no_delay(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
        self.sock.setblocking(False)
        self.sock.connect_ex(address)  # a refusal surfaces at the first send or recv
        self.events = 0  # the selector events registered for sock

    def on_event(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self.buf.send(self.sock)
        if mask & selectors.EVENT_READ:
            eof = not self.buf.fill(self.sock)
            while not self.session.done and (msg := self.buf.next()) is not None:
                for reply in self.session.receive(msg):
                    self.buf.put(reply)
            if eof and not self.session.done:
                self.session.receive(None)


# The phases of a server connection. A connection waits for a slot at the
# dispatch gate, then for the PullRequest and the Push of its task; after
# the run it sends Shutdown and reads to EOF.
_SLOT, _PULL, _PUSH, _CLOSING, _CLOSED = "slot", "pull", "push", "closing", "closed"


class _Conn:
    """The server's end of one worker connection."""

    def __init__(self, sock: socket.socket, addr):
        self.sock, self.addr = sock, addr
        self.buf = _Buffer()
        self.phase = _SLOT
        self.worker_id: int | None = None  # bound at the first PullRequest
        self.task: int | None = None  # trigger epoch of the task in flight
        self.deadline: float | None = None  # while the server waits on the peer
        self.half_closed = False
        self.events = 0  # the selector events registered for sock
        self.on_event = None  # the selector callback, set by the server


class TransportServer:
    """Accepts worker connections and runs the protocol to T epochs.

    One selector loop serves the listener and every connection, on
    non-blocking sockets; it never blocks on one peer. Each connection
    exchanges Trigger / PullRequest / PullResponse / Push / PushAck in
    lock step, writing behind (see the module docstring), for a worker
    that sends its PullRequest ahead and for one that waits for the
    Trigger alike. A connection is bound to the worker id of its first
    PullRequest; ids out of range or held by another live connection are
    refused, and a Push that names another worker or fewer than one local
    step is a protocol error. A connection's faults, EOF, or silence for
    ``socket_timeout`` seconds while the server waits on it drop that
    connection alone and return its task slot.

    Dispatch is gated so that an honest push is never stale: a Trigger
    goes out only when nothing is in flight, or when
    ``epoch - min(trigger epochs in flight) + len(in flight) <= K``.
    The oldest task in flight has then waited ``epoch - min`` epochs and
    at most ``len(in flight)`` other tasks, the new one included, can be
    applied before it. When every task in flight was triggered at the
    current epoch the gate is the ``K + 1`` cap on concurrent tasks.
    Otherwise it is stricter: the server waits on the oldest task in
    flight, so a slow worker holds the others back (as in stale
    synchronous parallel) instead of having its late push rejected. After
    each commit the gate is checked for the connections waiting for a
    slot, in accept order.

    The PullResponse snapshot is taken when the PullRequest is read.
    When the epoch counter reaches ``total_epochs`` every connection
    receives Shutdown; the server then half-closes and reads to EOF, so
    that an unanswered PullRequest does not turn the close into a reset.

    ``bind``, then ``wait``, runs the loop in the caller's thread, for
    workers in other processes (``fedasync serve``); an in-process run
    calls ``attach_worker`` for each worker in between, and ``wait``
    drives those workers inside the loop. ``start`` runs the loop on one
    background thread instead, for a caller that runs its workers on
    threads of its own, as the tests do.
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
        self._in_flight: list[int] = []  # trigger epochs of the tasks in flight
        self._bound: set[int] = set()  # worker ids held by live connections
        self._seen: set[int] = set()  # worker ids ever bound
        self._done = False
        self._conns: list[_Conn] = []  # in accept order
        self._locals: list[_LocalWorker] = []
        self._ready: deque[_Conn] = deque()  # granted with frames already in the inbox
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._thread: threading.Thread | None = None
        self._wake: tuple[int, int] | None = None  # pipe that interrupts the background loop
        self._abort = False
        self._outcome: tuple[bool, Exception | None] = (False, None)  # set by the background loop

    # -- lifecycle ---------------------------------------------------------

    def bind(self) -> tuple[str, int]:
        """Bind and listen; return the actual (host, port)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            # room for every in-process worker to connect before the loop runs
            listener.listen(max(128, self.cfg.n_workers))
        except OSError:
            listener.close()
            raise
        listener.setblocking(False)
        self._listener = listener
        self._host, self._port = listener.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, self._accept)
        return self._host, self._port

    def attach_worker(self, worker_id: int) -> None:
        """Connect an in-process worker; ``wait`` drives it in the loop."""
        assert self._listener is not None and self._thread is None
        session = _WorkerSession(self.cfg, worker_id, self.problem)
        self._locals.append(_LocalWorker(session, (self._host, self._port)))

    def start(self) -> tuple[str, int]:
        """Bind, run the loop on a background thread, and return the actual
        (host, port). For a caller whose workers run on its own threads;
        ``fedasync serve`` and in-process runs use ``bind`` and ``wait``."""
        address = self.bind()
        self._wake = os.pipe()
        self._selector.register(self._wake[0], selectors.EVENT_READ, self._on_wake)
        self._thread = threading.Thread(target=self._background, daemon=True)
        self._thread.start()
        return address

    def wait(self, timeout: float | None = None) -> RunResult:
        """Run or await the loop until T epochs are applied and every
        connection has closed, then report.

        Raises ConnectionError at once if, before T epochs, every worker id
        has been bound and no connection is left open. On timeout every
        connection is cut before TimeoutError is raised. Either way every
        socket is closed, and no thread the server started is left.
        """
        if self._thread is None:
            deadline = None if timeout is None else time.monotonic() + timeout
            finished = self._loop(deadline)
        else:
            assert self._wake is not None
            self._thread.join(timeout)
            if self._thread.is_alive():
                self._abort = True
                os.write(self._wake[1], b"\0")
                self._thread.join()
            for fd in self._wake:
                os.close(fd)
            finished, error = self._outcome
            if error is not None:
                raise error
        if not finished:
            raise TimeoutError(f"run did not finish within {timeout} s")
        return self._run.result()

    def _background(self) -> None:
        try:
            self._outcome = (self._loop(None), None)
        except Exception as exc:  # handed to wait(), which raises it
            self._outcome = (False, exc)

    def _on_wake(self, mask: int) -> None:
        assert self._wake is not None
        os.read(self._wake[0], 64)

    # -- the loop ----------------------------------------------------------

    def _loop(self, deadline: float | None) -> bool:
        """Serve until the run is over and every connection has closed
        (True), or until ``deadline`` or an abort (False). Every socket is
        closed on the way out, also when an in-process worker raises; its
        divergence becomes a RunFailure carrying the rows so far."""
        assert self._selector is not None
        try:
            while True:
                now = time.monotonic()
                for conn in [c for c in self._conns if c.deadline is not None]:
                    if now >= conn.deadline:
                        self._close(conn, TimeoutError("timed out"))
                self._drain()
                self._flush(now)
                if self._done and not self._conns and not self._locals:
                    return True
                if self._abort or (deadline is not None and now >= deadline):
                    return False
                if not self._done and len(self._seen) == self.cfg.n_workers and not self._conns:
                    raise ConnectionError(
                        f"every worker disconnected at epoch {self.state.epoch} "
                        f"of {self.cfg.total_epochs}"
                    )
                due = [c.deadline for c in self._conns if c.deadline is not None]
                if deadline is not None:
                    due.append(deadline)
                wait_s = max(0.0, min(due) - now) if due else None
                if self._ready:  # a drop in _flush handed a slot on; no event will come for it
                    wait_s = 0.0
                for key, mask in self._selector.select(wait_s):
                    key.data(mask)
                    self._drain()
        except DivergenceError as exc:
            raise RunFailure(self._run.records, self.state.epoch, exc) from exc
        finally:
            self._teardown()

    def _drain(self) -> None:
        """Act on the frames already read by connections granted a slot:
        a worker's PullRequest arrives with its Push, so its peer sends
        nothing more and no event comes for it."""
        while self._ready:
            self._advance(self._ready.popleft())

    def _teardown(self) -> None:
        for conn in self._conns:
            conn.sock.close()
        for peer in self._locals:
            peer.sock.close()
        self._conns, self._locals = [], []
        if self._listener is not None:
            self._listener.close()
        if self._selector is not None:
            self._selector.close()

    def _watch(self, peer: _Conn | _LocalWorker, events: int) -> None:
        """Register ``events`` (0: none) for ``peer``'s socket."""
        assert self._selector is not None
        if events != peer.events:
            if not peer.events:
                self._selector.register(peer.sock, events, peer.on_event)
            elif not events:
                self._selector.unregister(peer.sock)
            else:
                self._selector.modify(peer.sock, events, peer.on_event)
            peer.events = events

    def _flush(self, now: float) -> None:
        """Send what each outbox holds, as far as the kernel takes it, and
        register the events each connection waits for."""
        for peer in list(self._locals):
            if peer.session.done:
                self._watch(peer, 0)
                peer.sock.close()
                self._locals.remove(peer)
                continue
            if peer.buf.outbox:
                peer.buf.send(peer.sock)
            write = selectors.EVENT_WRITE if peer.buf.outbox else 0
            self._watch(peer, selectors.EVENT_READ | write)
        for conn in list(self._conns):
            try:
                if conn.buf.outbox:
                    conn.buf.send(conn.sock)
                if conn.phase == _CLOSING and not conn.buf.outbox and not conn.half_closed:
                    conn.sock.shutdown(socket.SHUT_WR)
                    conn.half_closed = True
            except OSError as exc:
                self._close(conn, exc)
                continue
            read = 0 if conn.phase == _SLOT else selectors.EVENT_READ
            write = selectors.EVENT_WRITE if conn.buf.outbox else 0
            if not read | write:
                conn.deadline = None
            elif conn.deadline is None:
                conn.deadline = now + self.socket_timeout
            self._watch(conn, read | write)

    def _accept(self, mask: int) -> None:
        assert self._listener is not None
        try:
            sock, addr = self._listener.accept()
        except (BlockingIOError, ConnectionAbortedError):
            return
        sock.setblocking(False)
        conn = _Conn(_no_delay(sock), addr)
        conn.on_event = partial(self._on_conn, conn)
        self._conns.append(conn)
        self._grant()

    def _on_conn(self, conn: _Conn, mask: int) -> None:
        if conn.phase == _CLOSED:
            return
        conn.deadline = None  # any progress restarts the wait on the peer
        try:
            if mask & selectors.EVENT_WRITE:
                conn.buf.send(conn.sock)
            if mask & selectors.EVENT_READ and conn.phase != _SLOT:
                if not conn.buf.fill(conn.sock):
                    raise EOFError
        except (EOFError, OSError, FrameError) as exc:
            self._close(conn, exc)
            return
        self._advance(conn)

    def _advance(self, conn: _Conn) -> None:
        """Act on the frames in the inbox that the connection's phase expects."""
        try:
            while conn.phase in (_PULL, _PUSH) and (msg := conn.buf.next()) is not None:
                if conn.phase == _PULL:
                    self._on_pull(conn, msg)
                else:
                    self._on_push(conn, msg)
        except (FrameError, ProtocolError) as exc:
            self._close(conn, exc)
            return
        if conn.phase == _CLOSING:
            conn.buf.inbox.clear()  # read to EOF and dropped

    def _may_trigger(self) -> bool:
        """The dispatch gate (see the class docstring)."""
        flight = self._in_flight
        return not flight or (
            self.state.epoch - min(flight) + len(flight) <= self.cfg.server.max_staleness
        )

    def _grant(self) -> None:
        """Give the connections waiting for a slot, in accept order, what
        the gate lets through: a Trigger, or once the run is over, Shutdown."""
        for conn in self._conns:
            if conn.phase != _SLOT:
                continue
            if self._done:
                conn.phase = _CLOSING
                conn.buf.put(Shutdown())
                continue
            if not self._may_trigger():
                return
            conn.task = self.state.epoch
            self._in_flight.append(conn.task)
            conn.buf.put(Trigger(epoch=conn.task))
            conn.phase = _PULL
            if conn.buf.inbox:
                self._ready.append(conn)

    def _on_pull(self, conn: _Conn, pull: Message) -> None:
        if not isinstance(pull, PullRequest):
            raise FrameError(f"expected PullRequest, got {type(pull).__name__}")
        if conn.worker_id is None:
            if not 0 <= pull.worker_id < self.cfg.n_workers:
                raise ProtocolError(
                    f"worker id {pull.worker_id} out of range for {self.cfg.n_workers} workers"
                )
            if pull.worker_id in self._bound:
                raise ProtocolError(f"worker id {pull.worker_id} is held by another connection")
            conn.worker_id = pull.worker_id
            self._bound.add(conn.worker_id)
            self._seen.add(conn.worker_id)
        elif pull.worker_id != conn.worker_id:
            raise ProtocolError(
                f"PullRequest names worker {pull.worker_id} on a "
                f"connection bound to worker {conn.worker_id}"
            )
        snap_epoch, snap_params = self.state.pull()
        conn.buf.put(PullResponse(epoch=snap_epoch, params=snap_params))
        conn.phase = _PUSH

    def _on_push(self, conn: _Conn, push: Message) -> None:
        if not isinstance(push, Push):
            raise FrameError(f"expected Push, got {type(push).__name__}")
        assert conn.worker_id is not None and conn.task is not None
        accepted = self._commit(push, conn.worker_id)
        self._in_flight.remove(conn.task)
        conn.task = None
        conn.buf.put(PushAck(accepted=accepted, current_epoch=self.state.epoch))
        conn.phase = _SLOT
        self._grant()

    def _close(self, conn: _Conn, exc: BaseException) -> None:
        """Close a connection and return its slot; a fault before the run's
        end is logged."""
        if conn.phase == _CLOSED:
            return
        if conn.phase != _CLOSING:
            if isinstance(exc, EOFError):
                log.info("worker %s at %s disconnected", conn.worker_id, conn.addr)
            else:
                # mid-task drops abandon the task; its slot goes back below
                log.warning("connection %s dropped: %s", conn.addr, exc)
        if conn.task is not None:
            self._in_flight.remove(conn.task)
        if conn.worker_id is not None:
            self._bound.discard(conn.worker_id)
        conn.phase = _CLOSED
        self._watch(conn, 0)
        conn.sock.close()
        self._conns.remove(conn)
        self._grant()

    def _commit(self, push: Push, worker_id: int) -> bool:
        """Apply one push and take the run loop's step. False if refused.
        The push that reaches ``total_epochs`` ends the run."""
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
        return True
