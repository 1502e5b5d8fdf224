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

Each end's protocol is a sans-IO state machine that writes frames into
buffers and touches no socket or clock: :class:`_WorkerSession`, driven
by the blocking :func:`worker_loop` or by the server's loop, and
:class:`_ServerSession`, which applies each push and takes the run
loop's step (:class:`fedasync.simulator.RunLoop`) as it reads the push.
:class:`TransportServer` is the server's I/O: one selector loop on one
thread that reads every connection, so the model has one writer.
"""

from __future__ import annotations

import errno
import logging
import selectors
import socket
import struct
import time
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

MAX_FRAME_BYTES = 256 * 1024 * 1024  # decode's default cap; each _Buffer derives its run's own
_RECV_BYTES = 1 << 16  # what one buffered read asks the socket for

_LEN = struct.Struct(">I")
_CNT = struct.Struct(">Q")


class FrameError(RuntimeError):
    """Structurally invalid frame: bad length, bad field, junk payload."""


class UnknownTagError(FrameError):
    """Frame carries a tag outside the protocol's table."""


class OversizeFrameError(FrameError):
    """Declared frame length exceeds the cap."""


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


@dataclass(eq=False)
class Push:
    worker_id: int
    tau: int
    local_iters: int
    params: np.ndarray


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
    (length,) = _LEN.unpack_from(view)
    if length > max_frame:
        raise OversizeFrameError(f"declared length {length} exceeds cap {max_frame}")
    if length < 1:
        raise FrameError("declared length 0 leaves no room for a tag")
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
    decoded, and frames written behind but not yet sent. A header that
    declares more than the longest legal frame on a run whose parameter
    vectors have ``dim`` elements (a Push) is refused when it is read,
    before its body is waited for."""

    def __init__(self, dim: int):
        self.inbox, self.outbox = bytearray(), bytearray()
        rows = _LAYOUT.values()
        self.max_frame = max(1 + r.fixed.size + r.vector * (_CNT.size + 8 * dim) for r in rows)

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

    def fill(self, sock: socket.socket) -> bool:
        """Receive once into the inbox; False at a clean EOF. A
        non-blocking socket with nothing to read counts as no EOF."""
        try:
            chunk = sock.recv(_RECV_BYTES)
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
        out = decode_frame(self.inbox, self.max_frame)
        if out is None:
            return None
        msg, used = out
        del self.inbox[:used]
        return msg


def read_message(sock: socket.socket, buf: _Buffer) -> Message | None:
    """The next message from ``buf``, this end's buffer on a blocking
    socket: only while no whole frame is there does it flush ``buf``, then
    ``recv`` what has arrived. None on clean EOF."""
    while (msg := buf.next()) is None:
        buf.flush(sock)
        if not buf.fill(sock):
            return None
    return msg


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
    frames to send back. EOF inside a task raises ConnectionError.

    Each PullRequest goes out ahead of its Trigger: first on connect,
    then with each Push. The device trains on its own shard of the
    shared problem and draws from the same per-worker stream as the
    in-process modes, so a loopback run is numerically interchangeable
    with a simulated one.
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

    def receive(self, msg: Message | None) -> tuple[Message, ...]:
        if self.expect is Trigger and (msg is None or isinstance(msg, Shutdown)):
            self.done = True
            return ()
        if msg is None:
            raise ConnectionError(f"server closed the connection before {self.expect.__name__}")
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
    buf = _Buffer(problem.x0.size)
    buf.put(PullRequest(worker_id=worker_id))
    with _no_delay(socket.create_connection(address, timeout=socket_timeout)) as sock:
        while not session.done:
            for msg in session.receive(read_message(sock, buf)):
                buf.put(msg)
    return session.pushes, session.accepted


class _LocalWorker:
    """An in-process worker's end of its loopback connection, driven by
    the server's selector loop instead of a thread of its own."""

    def __init__(self, session: _WorkerSession, address: tuple[str, int]):
        self.session, self.buf = session, _Buffer(session.problem.x0.size)
        self.buf.put(PullRequest(worker_id=session.worker_id))
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
    """The server's end of one worker connection; the session never uses ``sock``."""

    def __init__(self, sock: socket.socket | None, addr, dim: int):
        self.sock, self.addr = sock, addr
        self.buf = _Buffer(dim)
        self.phase = _SLOT
        self.worker_id: int | None = None  # bound at the first PullRequest
        self.pulled = False  # a PullRequest came ahead of the Trigger it answers
        self.task: int | None = None  # trigger epoch of the task in flight
        self.deadline: float | None = None  # while the server waits on the peer
        self.half_closed = False
        self.events = 0  # the selector events registered for sock
        self.on_event = None  # the selector callback, set by the server


class _ServerSession:
    """The server's side of the protocol, without I/O: :meth:`connect`,
    :meth:`receive` (one whole frame) and :meth:`drop` write the frames
    each connection is owed into its ``buf``, and raise FrameError or
    ProtocolError against the connection at fault.

    A connection is bound to the worker id of its first PullRequest; ids
    out of range or held by another live connection are refused. Each
    Push is validated here, as it is decoded, and nowhere after
    (:meth:`_check`): one that names another worker, carries a pull epoch
    below 0 or above the server's, a vector of another length or with a
    non-finite entry, or fewer than one local step is logged and refused
    in its PushAck, and changes no state. A connection waiting for a slot
    may send one PullRequest ahead, bound as it arrives; any other frame from it is a
    fault. The pull is answered, with a snapshot taken then, when both
    the PullRequest and the Trigger are out.

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
    each accept, commit and drop, the connections waiting for a slot are
    granted what the gate allows in accept order: Shutdown once the epoch
    counter has reached ``total_epochs``.
    """

    def __init__(self, cfg: ExperimentConfig, problem: Problem):
        self.cfg = cfg
        self.state = ServerState.create(problem.x0)
        self.run = RunLoop(cfg, problem, self.state)
        self.conns: list[_Conn] = []  # live connections, in accept order
        self.seen: set[int] = set()  # worker ids ever bound
        self.done = False
        self._in_flight: list[int] = []  # trigger epochs of the tasks in flight
        self._bound: set[int] = set()  # worker ids held by live connections

    def connect(self, conn: _Conn) -> None:
        self.conns.append(conn)
        self._grant()

    def receive(self, conn: _Conn, msg: Message) -> None:
        """Act on one frame from ``conn``, which is not closing."""
        want = "no frame" if conn.pulled else "Push" if conn.phase == _PUSH else "PullRequest"
        if type(msg).__name__ != want:
            raise FrameError(f"expected {want}, got {type(msg).__name__}")
        if isinstance(msg, Push):
            accepted = self._commit(msg, conn.worker_id)
            self._in_flight.remove(conn.task)
            conn.task = None
            conn.buf.put(PushAck(accepted=accepted, current_epoch=self.state.epoch))
            conn.phase = _SLOT
            self._grant()
            return
        self._bind(conn, msg.worker_id)
        conn.pulled = True
        if conn.phase == _PULL:
            self._answer(conn)

    def drop(self, conn: _Conn, exc: BaseException) -> None:
        """Forget a connection and hand its slot on; log a fault before the end."""
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
        self.conns.remove(conn)
        self._grant()

    def _may_trigger(self) -> bool:
        """The dispatch gate (see the class docstring)."""
        flight = self._in_flight
        return not flight or (
            self.state.epoch - min(flight) + len(flight) <= self.cfg.server.max_staleness
        )

    def _grant(self) -> None:
        """Give the connections waiting for a slot, in accept order, what
        the gate lets through: a Trigger, or once the run is over, Shutdown."""
        for conn in self.conns:
            if conn.phase != _SLOT:
                continue
            if self.done:
                conn.phase = _CLOSING
                conn.buf.put(Shutdown())
                continue
            if not self._may_trigger():
                return
            conn.task = self.state.epoch
            self._in_flight.append(conn.task)
            conn.buf.put(Trigger(epoch=conn.task))
            conn.phase = _PULL
            if conn.pulled:
                self._answer(conn)

    def _bind(self, conn: _Conn, worker_id: int) -> None:
        if conn.worker_id is None:
            if not 0 <= worker_id < self.cfg.n_workers:
                raise ProtocolError(
                    f"worker id {worker_id} out of range for {self.cfg.n_workers} workers"
                )
            if worker_id in self._bound:
                raise ProtocolError(f"worker id {worker_id} is held by another connection")
            conn.worker_id = worker_id
            self._bound.add(worker_id)
            self.seen.add(worker_id)
        elif worker_id != conn.worker_id:
            raise ProtocolError(
                f"PullRequest names worker {worker_id} on a "
                f"connection bound to worker {conn.worker_id}"
            )

    def _answer(self, conn: _Conn) -> None:
        snap_epoch, snap_params = self.state.pull()
        conn.buf.put(PullResponse(epoch=snap_epoch, params=snap_params))
        conn.pulled = False
        conn.phase = _PUSH

    def _check(self, push: Push, worker_id: int) -> None:
        """Raise ProtocolError for a push that is malformed rather than
        stale; :func:`apply_update` trusts what passes."""
        epoch, n, dim = self.state.epoch, push.params.size, self.state.params.size
        if push.worker_id != worker_id:
            raise ProtocolError(
                f"push names worker {push.worker_id} on a connection bound to worker {worker_id}"
            )
        if push.tau < 0:
            raise ProtocolError(f"negative pull epoch {push.tau}")
        if push.tau > epoch:
            raise ProtocolError(f"pull epoch {push.tau} is ahead of server epoch {epoch}")
        if n != dim:
            raise ProtocolError(f"update has {n} parameters, server holds {dim}")
        if not np.isfinite(push.params).all():
            raise ProtocolError("update contains non-finite parameters")
        if push.local_iters < 1:
            raise ProtocolError(f"update claims {push.local_iters} local steps")

    def _commit(self, push: Push, worker_id: int) -> bool:
        """Apply one push and take the run loop's step. False if refused.
        The push that reaches ``total_epochs`` ends the run."""
        if self.done:
            return False
        try:
            self._check(push, worker_id)
            # decoding gave push.params as a fresh float64 array: no copy here
            upd = LocalUpdate(push.params, push.tau, push.worker_id, push.local_iters)
            apply_update(self.state, self.cfg.server, upd)
        except StaleUpdateError as exc:
            log.info("rejected stale push from worker %s: %s", worker_id, exc)
            return False
        except ProtocolError as exc:
            log.error("protocol error from worker %s: %s", worker_id, exc)
            return False
        self.run.step(0.0)
        if self.state.epoch >= self.cfg.total_epochs:
            self.done = True
        return True


class TransportServer:
    """Accepts worker connections and runs the protocol to T epochs: the
    I/O around :class:`_ServerSession`, which holds the protocol.

    One selector loop serves the listener and every connection, on
    non-blocking sockets, and never blocks on one peer. It reads every
    connection as bytes arrive, one waiting for a slot too, so that EOF
    or a stray frame from it is seen at once. It hands the session each
    whole frame and sends what the session wrote behind. A connection's
    faults, EOF, or silence for ``socket_timeout`` seconds while the
    server waits on it drop that connection alone. After Shutdown the
    server half-closes and reads to EOF, so that an unanswered
    PullRequest does not turn the close into a reset; a connection that
    has never sent a byte has nothing unread and is closed at once. A
    frame longer than the largest legal one at the run's dimension is
    refused at its header. Out of file descriptors, the server stops
    accepting until a connection closes.

    ``bind``, then ``wait``, runs the loop in the caller's thread
    (``fedasync serve``); an in-process run calls ``attach_worker`` for
    each worker in between, and ``wait`` drives those workers too.
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
        self.session = _ServerSession(cfg, self.problem)
        self.socket_timeout = socket_timeout
        self._host, self._port = host, port
        self._locals: list[_LocalWorker] = []
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._paused = False  # the listener is unwatched until a descriptor is freed

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
        assert self._listener is not None
        session = _WorkerSession(self.cfg, worker_id, self.problem)
        self._locals.append(_LocalWorker(session, (self._host, self._port)))

    def wait(self, timeout: float | None = None) -> RunResult:
        """Run the loop until T epochs are applied and every connection
        has closed, then report.

        Raises ConnectionError at once if, before T epochs, every worker id
        has been bound and no connection is left open. On timeout every
        connection is cut before TimeoutError is raised. Either way every
        socket is closed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._loop(deadline):
            raise TimeoutError(f"run did not finish within {timeout} s")
        return self.session.run.result()

    # -- the loop ----------------------------------------------------------

    def _loop(self, deadline: float | None) -> bool:
        """Serve until the run is over and every connection has closed
        (True), or until ``deadline`` (False). Every socket is
        closed on the way out, also when an in-process worker raises; its
        divergence becomes a RunFailure carrying the rows so far."""
        assert self._selector is not None
        session, conns = self.session, self.session.conns
        try:
            while True:
                now = time.monotonic()
                for conn in [c for c in conns if c.deadline is not None]:
                    if now >= conn.deadline:
                        self._close(conn, TimeoutError("timed out"))
                self._flush(now)
                if session.done and not conns and not self._locals:
                    return True
                if deadline is not None and now >= deadline:
                    return False
                if not session.done and len(session.seen) == self.cfg.n_workers and not conns:
                    raise ConnectionError(
                        f"every worker disconnected at epoch {session.state.epoch} "
                        f"of {self.cfg.total_epochs}"
                    )
                due = [c.deadline for c in conns if c.deadline is not None]
                if deadline is not None:
                    due.append(deadline)
                # a drop in _flush can grant a slot to a connection it has passed
                if any(c.buf.outbox and not c.events & selectors.EVENT_WRITE for c in conns):
                    due.append(now)
                wait_s = max(0.0, min(due) - now) if due else None
                for key, mask in self._selector.select(wait_s):
                    key.data(mask)
        except DivergenceError as exc:
            raise RunFailure(session.run.records, session.state.epoch, exc) from exc
        finally:
            self.close()

    def close(self) -> None:
        """Close every socket and the selector; ``wait`` ends with this."""
        for peer in [*self.session.conns, *self._locals]:
            peer.sock.close()
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
                self._release(peer)
                self._locals.remove(peer)
                continue
            if peer.buf.outbox:
                peer.buf.send(peer.sock)
            write = selectors.EVENT_WRITE if peer.buf.outbox else 0
            self._watch(peer, selectors.EVENT_READ | write)
        for conn in list(self.session.conns):
            try:
                if conn.buf.outbox:
                    conn.buf.send(conn.sock)
                if conn.phase == _CLOSING and not conn.buf.outbox and not conn.half_closed:
                    if self._silent(conn):
                        self._close(conn, EOFError())
                        continue
                    conn.sock.shutdown(socket.SHUT_WR)
                    conn.half_closed = True
            except OSError as exc:
                self._close(conn, exc)
                continue
            write = selectors.EVENT_WRITE if conn.buf.outbox else 0
            if conn.phase == _SLOT and not write:  # not waiting on the peer
                conn.deadline = None
            elif conn.deadline is None:
                conn.deadline = now + self.socket_timeout
            self._watch(conn, selectors.EVENT_READ | write)

    @staticmethod
    def _silent(conn: _Conn) -> bool:
        """True if the peer has sent no byte, checked by one more read (a
        first frame binds its connection or drops it). Closed then, it has
        nothing unread, so it gets a FIN, not a reset. What the read finds
        is dropped, as everything read after Shutdown is."""
        if conn.worker_id is not None or conn.buf.inbox:
            return False
        conn.buf.fill(conn.sock)
        heard = bool(conn.buf.inbox)
        conn.buf.inbox.clear()
        return not heard

    def _accept(self, mask: int) -> None:
        assert self._listener is not None
        try:
            sock, addr = self._listener.accept()
        except (BlockingIOError, ConnectionAbortedError):
            return
        except OSError as exc:
            if exc.errno not in (errno.EMFILE, errno.ENFILE):
                raise
            # the selector is level-triggered: left watched, the listener would spin
            log.warning("cannot accept (%s); waiting for a connection to close", exc)
            self._selector.unregister(self._listener)
            self._paused = True
            return
        sock.setblocking(False)
        conn = _Conn(_no_delay(sock), addr, self.problem.x0.size)
        conn.on_event = partial(self._on_conn, conn)
        self.session.connect(conn)

    def _on_conn(self, conn: _Conn, mask: int) -> None:
        if conn.phase == _CLOSED:
            return
        conn.deadline = None  # any progress restarts the wait on the peer
        try:
            if mask & selectors.EVENT_WRITE:
                conn.buf.send(conn.sock)
            if mask & selectors.EVENT_READ:
                if not conn.buf.fill(conn.sock):
                    raise EOFError
                while conn.phase != _CLOSING and (msg := conn.buf.next()) is not None:
                    self.session.receive(conn, msg)
                if conn.phase == _CLOSING:
                    conn.buf.inbox.clear()  # read to EOF and dropped
        except (EOFError, OSError, FrameError, ProtocolError) as exc:
            self._close(conn, exc)

    def _close(self, conn: _Conn, exc: BaseException) -> None:
        self.session.drop(conn, exc)
        self._release(conn)

    def _release(self, peer: _Conn | _LocalWorker) -> None:
        """Close ``peer``'s socket; the descriptor freed lets a paused
        listener be watched again."""
        self._watch(peer, 0)
        peer.sock.close()
        if self._paused:
            self._selector.register(self._listener, selectors.EVENT_READ, self._accept)
            self._paused = False
