"""Length-prefixed frame codec of the worker protocol.

Every message between a :class:`~repro.exec.remote.RemoteBackend` parent
and its workers — forked local workers on a ``socket.socketpair()`` and
``repro worker`` processes over TCP alike — is one **length-prefixed
frame** on a byte stream: the handshake, the state boot, the per-epoch
delta packet, task chunks, results, liveness beacons and shutdown.

Frame layout (pinned by ``tests/exec/test_wire.py`` — it cannot drift
silently)::

    offset  size  field
    0       4     magic  b"RPRW"
    4       1     wire version (currently 1)
    5       1     frame type (HELLO..FAULT, below)
    6       2     reserved, must be zero
    8       4     payload length N, unsigned big-endian
    12      N     payload (pickled message envelope)

Everything is big-endian (network byte order).  The payload of a typed
frame is the pickled :func:`dataclasses.dataclass` envelope for that
frame type; :func:`decode_message` re-checks that the unpickled object
matches the frame type byte, so a frame can never smuggle a foreign
message.  Malformed input — bad magic, wrong version, nonzero reserved
bytes, oversized or truncated frames, undecodable payloads — raises a
typed :class:`WireError` naming the stream offset, never a bare
``struct`` or ``pickle`` error.

Both transports are in-order streams, which is what keeps the
sync-before-task correctness argument intact: a TASK frame written
after a SYNC frame is read after it.
"""

from __future__ import annotations

import pickle
import socket as socket_module
import struct
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from ..exceptions import ExecutionError

#: First bytes of every frame; anything else on the stream is garbage.
MAGIC: bytes = b"RPRW"

#: Protocol version carried in every frame header.  A peer speaking a
#: different version is rejected at the first frame, not mid-batch.
WIRE_VERSION: int = 1

#: ``!`` = network byte order: 4s magic, B version, B frame type,
#: H reserved (zero), I payload length.
HEADER = struct.Struct("!4sBBHI")

#: Bytes of the fixed frame header.
HEADER_SIZE: int = HEADER.size

#: Default ceiling on one frame's payload, a defence against a
#: corrupted (or hostile) length prefix allocating unbounded memory.
#: 256 MiB comfortably covers a full dataset ship.
DEFAULT_MAX_FRAME_BYTES: int = 256 * 1024 * 1024

# -- frame types -------------------------------------------------------------

FRAME_HELLO = 1  #: worker -> parent: handshake, carries the fingerprint
FRAME_WELCOME = 2  #: parent -> worker: handshake accept + worker id
FRAME_BOOT = 3  #: parent -> TCP worker: build/rebuild the resident state
FRAME_SYNC = 4  #: parent -> worker: broadcast delta packet
FRAME_TASK = 5  #: parent -> worker: one task chunk
FRAME_RESULT = 6  #: worker -> parent: one task result
FRAME_HEARTBEAT = 7  #: worker -> parent: liveness beacon
FRAME_STOP = 8  #: parent -> worker: orderly shutdown
FRAME_FAULT = 9  #: either way: typed protocol-level rejection

#: Human-readable frame-type names, for error messages and tooling.
FRAME_NAMES: dict[int, str] = {
    FRAME_HELLO: "HELLO",
    FRAME_WELCOME: "WELCOME",
    FRAME_BOOT: "BOOT",
    FRAME_SYNC: "SYNC",
    FRAME_TASK: "TASK",
    FRAME_RESULT: "RESULT",
    FRAME_HEARTBEAT: "HEARTBEAT",
    FRAME_STOP: "STOP",
    FRAME_FAULT: "FAULT",
}


class WireError(ExecutionError):
    """A malformed, truncated or protocol-violating frame.

    Subclasses :class:`~repro.exceptions.ExecutionError` so every
    existing catch site that treats execution failures as loud, typed
    errors covers wire faults too — the chaos contract ("bit-identical
    or loud typed error") holds without new handling.
    """


class PeerDisconnected(WireError):
    """The peer's socket died mid-send (broken pipe / connection reset).

    Raised by :meth:`FrameConnection.send` instead of letting the raw
    ``OSError`` escape — a worker's heartbeat thread and the parent's
    dispatch path both catch :class:`WireError`, so a peer that
    vanishes mid-write surfaces as a typed, peer-naming wire fault on
    every existing handling path.
    """


class TruncatedFrameError(WireError):
    """A frame that ends before its declared length.

    Raised by :func:`decode_frame` when the buffer holds the *prefix* of
    a frame; stream readers treat it as "need more bytes" while at
    end-of-stream it is the torn-frame error itself.  ``offset`` is the
    stream offset of the frame's first byte, ``needed`` how many more
    bytes the frame requires.
    """

    def __init__(self, message: str, offset: int, needed: int) -> None:
        super().__init__(message)
        self.offset = offset
        self.needed = needed


def encode_frame(
    frame_type: int,
    payload: bytes,
    max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """Wrap ``payload`` in one wire frame of ``frame_type``.

    >>> frame = encode_frame(FRAME_HEARTBEAT, b"x")
    >>> frame[:4], frame[4], frame[5], len(frame)
    (b'RPRW', 1, 7, 13)
    """
    if frame_type not in FRAME_NAMES:
        raise WireError(f"unknown frame type {frame_type!r}")
    if len(payload) > max_bytes:
        raise WireError(
            f"refusing to encode a {FRAME_NAMES[frame_type]} frame of "
            f"{len(payload)} payload bytes (max {max_bytes})"
        )
    return HEADER.pack(MAGIC, WIRE_VERSION, frame_type, 0, len(payload)) + payload


def decode_frame(
    data: bytes | bytearray | memoryview,
    offset: int = 0,
    max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> tuple[int, bytes, int]:
    """Decode one frame starting at ``offset`` of ``data``.

    Returns ``(frame_type, payload, next_offset)``.  ``offset`` is the
    *stream* offset of the frame's first byte — it appears verbatim in
    every error message so a fault on a long-lived connection names
    where on the stream it happened.  Raises
    :class:`TruncatedFrameError` when ``data`` ends mid-frame and
    :class:`WireError` for bad magic, a version or reserved-bytes
    mismatch, an unknown frame type, or an oversized length prefix.
    """
    view = memoryview(data)[offset:]
    if len(view) < HEADER_SIZE:
        raise TruncatedFrameError(
            f"truncated frame header at stream offset {offset}: have "
            f"{len(view)} of {HEADER_SIZE} header bytes",
            offset=offset,
            needed=HEADER_SIZE - len(view),
        )
    magic, version, frame_type, reserved, length = HEADER.unpack_from(view)
    if magic != MAGIC:
        raise WireError(
            f"bad frame magic {bytes(magic)!r} at stream offset {offset} "
            f"(expected {MAGIC!r}); the stream is not speaking the repro "
            f"wire protocol"
        )
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} at stream offset {offset} "
            f"(this side speaks version {WIRE_VERSION})"
        )
    if reserved != 0:
        raise WireError(
            f"nonzero reserved header bytes ({reserved:#06x}) at stream "
            f"offset {offset}; frame corrupt or from a future protocol"
        )
    if frame_type not in FRAME_NAMES:
        raise WireError(
            f"unknown frame type {frame_type} at stream offset {offset}"
        )
    if length > max_bytes:
        raise WireError(
            f"oversized {FRAME_NAMES[frame_type]} frame at stream offset "
            f"{offset}: declared payload of {length} bytes exceeds the "
            f"{max_bytes}-byte limit"
        )
    if len(view) < HEADER_SIZE + length:
        raise TruncatedFrameError(
            f"truncated {FRAME_NAMES[frame_type]} frame at stream offset "
            f"{offset}: have {len(view) - HEADER_SIZE} of {length} payload "
            f"bytes",
            offset=offset,
            needed=HEADER_SIZE + length - len(view),
        )
    payload = bytes(view[HEADER_SIZE : HEADER_SIZE + length])
    return frame_type, payload, offset + HEADER_SIZE + length


# -- message envelopes -------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """Worker -> parent handshake: who I am, what state I expect.

    ``fingerprint`` is the worker's expected config fingerprint
    (:meth:`repro.config.RecommenderConfig.fingerprint`) or ``None``
    when the worker takes whatever the parent ships.  A mismatch is
    answered with a
    :class:`Fault` and the connection is closed — a worker built for
    different recommendation semantics must never receive tasks.
    """

    fingerprint: str | None = None


@dataclass(frozen=True)
class Welcome:
    """Parent -> worker handshake accept: assigned id + parent fingerprint."""

    worker_id: int
    fingerprint: str | None = None


@dataclass(frozen=True)
class Boot:
    """Parent -> TCP worker: (re)build the resident state.

    A TCP worker's re-ship: the parent sends a ``BOOT`` and the worker
    rebuilds in place (local workers inherit the same arguments through
    fork instead).  Carries the ``initializer``/``initargs``, the epoch
    the state is current at, and the delta ``applier`` for later
    ``SYNC`` frames.
    """

    initializer: Callable[..., None] | None
    initargs: tuple[Any, ...]
    epoch: int
    applier: Callable[[Any], None] | None


@dataclass(frozen=True)
class Sync:
    """Parent -> worker: one broadcast delta packet, ``(epoch, delta)`` entries."""

    epoch: int
    entries: tuple[tuple[int, Any], ...]


@dataclass(frozen=True)
class Task:
    """Parent -> worker: one chunk of ``(index, item)`` task pairs."""

    chunk_id: int
    fn: Callable[..., Any]
    pairs: tuple[tuple[int, Any], ...]
    epoch: int


@dataclass(frozen=True)
class TaskResult:
    """Worker -> parent: one task's outcome, tagged with its input index.

    ``delta`` is the piggybacked worker metrics payload
    ``(worker_id, drained_delta)`` attached to the last result of each
    chunk.
    """

    chunk_id: int
    index: int
    ok: bool
    value: Any = None
    exc_bytes: bytes | None = None
    summary: str = ""
    traceback: str = ""
    delta: Any = None


@dataclass(frozen=True)
class Heartbeat:
    """Worker -> parent liveness beacon; ``epoch`` is the resident epoch."""

    epoch: int = -1


@dataclass(frozen=True)
class Stop:
    """Parent -> worker: orderly shutdown."""


@dataclass(frozen=True)
class Fault:
    """Typed protocol-level rejection (e.g. a fingerprint mismatch)."""

    message: str
    details: dict[str, Any] = field(default_factory=dict)


#: Frame type -> envelope class; the decode side's single source of truth.
MESSAGE_CLASSES: dict[int, type] = {
    FRAME_HELLO: Hello,
    FRAME_WELCOME: Welcome,
    FRAME_BOOT: Boot,
    FRAME_SYNC: Sync,
    FRAME_TASK: Task,
    FRAME_RESULT: TaskResult,
    FRAME_HEARTBEAT: Heartbeat,
    FRAME_STOP: Stop,
    FRAME_FAULT: Fault,
}

#: Envelope class -> frame type (the encode-side inverse).
FRAME_TYPES: dict[type, int] = {cls: ft for ft, cls in MESSAGE_CLASSES.items()}


def encode_message(
    message: Any, max_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Serialise one message envelope to its complete wire frame."""
    frame_type = FRAME_TYPES.get(type(message))
    if frame_type is None:
        raise WireError(
            f"not a wire message: {message!r} (expected one of "
            f"{sorted(cls.__name__ for cls in FRAME_TYPES)})"
        )
    try:
        payload = pickle.dumps(message)
    except Exception as exc:
        raise WireError(
            f"cannot serialise {FRAME_NAMES[frame_type]} message for the "
            f"wire: {exc}. Use module-level functions and plain-data "
            f"arguments (see repro.exec)."
        ) from exc
    return encode_frame(frame_type, payload, max_bytes)


def decode_message(frame_type: int, payload: bytes, offset: int = 0) -> Any:
    """Deserialise one frame's payload back into its typed envelope.

    Verifies that the unpickled object is exactly the envelope class
    the frame-type byte declares — a frame cannot smuggle a message of
    a different type past a handler that switched on the header.
    """
    expected = MESSAGE_CLASSES.get(frame_type)
    if expected is None:
        raise WireError(
            f"unknown frame type {frame_type} at stream offset {offset}"
        )
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise WireError(
            f"undecodable {FRAME_NAMES[frame_type]} payload at stream "
            f"offset {offset}: {exc}"
        ) from exc
    if type(message) is not expected:
        raise WireError(
            f"frame type {FRAME_NAMES[frame_type]} at stream offset "
            f"{offset} carried a {type(message).__name__} payload; "
            f"expected {expected.__name__}"
        )
    return message


# -- stream transport --------------------------------------------------------


class FrameConnection:
    """One framed, message-typed stream connection (TCP or socketpair).

    Wraps a connected socket with buffered frame reassembly and
    thread-safe sends.  Two read styles, matching the two sides of the
    protocol:

    * :meth:`recv` — blocking; the worker's message loop.
    * :meth:`poll` — non-blocking drain; the parent's ``selectors``
      collect loop calls it once per readiness event.

    The connection tracks its cumulative stream offset so any decode
    error names where on the (possibly long-lived) stream the fault
    sits, plus frame/byte counters in both directions for the metrics
    registry.
    """

    def __init__(
        self,
        sock: Any,
        max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        injector: Any = None,
    ) -> None:
        self._sock = sock
        self._max_bytes = max_bytes
        self._injector = injector
        self._buffer = bytearray()
        self._offset = 0  # stream offset of _buffer[0]
        self._peer_cache: str | None = None
        self._send_lock = threading.Lock()
        self._eof = False
        self._pending: list[Any] = []
        #: Bytes written to the socket so far.
        self.bytes_sent = 0
        #: Bytes consumed from the socket so far.
        self.bytes_received = 0
        #: Complete frames written so far.
        self.frames_sent = 0
        #: Complete frames decoded so far.
        self.frames_received = 0
        try:
            sock.setsockopt(
                socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1
            )
        except OSError:  # pragma: no cover - non-TCP test doubles
            pass

    def fileno(self) -> int:
        """The socket's file descriptor (for ``selectors`` registration)."""
        return self._sock.fileno()

    @property
    def peer(self) -> str:
        """``host:port`` of the remote end (best effort).

        The last successfully resolved name is cached, so a connection
        whose peer already vanished still *names* that peer in error
        messages instead of reporting ``<closed>``.
        """
        try:
            name = self._sock.getpeername()
        except OSError:
            return self._peer_cache or "<closed>"
        if isinstance(name, tuple) and len(name) >= 2:
            self._peer_cache = f"{name[0]}:{name[1]}"
        else:
            # AF_UNIX (socketpair test rigs) reports a bare, often
            # empty, path string rather than a (host, port) tuple.
            self._peer_cache = str(name) or "<unnamed>"
        return self._peer_cache

    def send(self, message: Any) -> int:
        """Frame and write one message; returns the bytes written."""
        return self.send_frame(encode_message(message, self._max_bytes))

    def send_frame(self, frame: bytes) -> int:
        """Write one already-encoded frame; returns the bytes written.

        Thread-safe: the worker's heartbeat thread and its result path
        (and the parent's dispatch and requeue paths) interleave whole
        frames, never partial ones.  A peer that dies mid-write
        (broken pipe / connection reset) raises the typed
        :class:`PeerDisconnected` naming the peer, never a raw
        ``OSError``.  A configured fault injector
        (:class:`~repro.resilience.faults.FaultInjector`) is consulted
        per frame and may swallow or tear the write.
        """
        frame_name = FRAME_NAMES[frame[5]]
        peer = self.peer  # resolve (and cache) while the socket lives
        with self._send_lock:
            if self._injector is not None:
                verdict = self._injector.on_send(frame_name)
                if verdict == "drop":
                    # Scripted loss: count the frame as sent so the
                    # caller's accounting matches a real lost packet.
                    self.frames_sent += 1
                    return len(frame)
                if verdict == "tear":
                    # FIN right after the torn bytes, then drain inbound
                    # until the peer closes: hard-closing with unread
                    # frames still queued would turn the close into an
                    # RST, flushing the very torn bytes the peer must
                    # observe to classify this as a truncated frame.
                    try:
                        self._sock.sendall(frame[: max(1, len(frame) - 7)])
                        self._sock.shutdown(socket_module.SHUT_WR)
                        self._sock.settimeout(2.0)
                        while self._sock.recv(65536):
                            pass
                    except OSError:
                        pass
                    self.close()
                    raise PeerDisconnected(
                        f"fault injection tore a {frame_name} frame to "
                        f"{peer} mid-write"
                    )
            try:
                self._sock.sendall(frame)
            except (BrokenPipeError, ConnectionResetError) as exc:
                raise PeerDisconnected(
                    f"connection to {peer} died while sending a "
                    f"{frame_name} frame: {exc}"
                ) from exc
            self.bytes_sent += len(frame)
            self.frames_sent += 1
        return len(frame)

    def _drain_buffer(self) -> list[Any]:
        """Decode every complete frame currently buffered."""
        messages: list[Any] = []
        while True:
            try:
                frame_type, payload, next_offset = decode_frame(
                    self._buffer, 0, self._max_bytes
                )
            except TruncatedFrameError:
                break
            except WireError as exc:
                # Re-raise with the true stream offset (the buffer
                # always starts at self._offset on the stream).
                raise WireError(f"{exc} [stream offset {self._offset}]") from exc
            messages.append(decode_message(frame_type, payload, self._offset))
            del self._buffer[:next_offset]
            self._offset += next_offset
            self.frames_received += 1
        return messages

    def poll(self) -> tuple[list[Any], bool]:
        """Non-blocking read: ``(complete messages, eof)``.

        Call after a readiness event.  Raises :class:`WireError` on
        garbage, and a :class:`TruncatedFrameError` when the peer
        closed the stream mid-frame (a *torn frame*).
        """
        if not self._eof:
            try:
                self._sock.setblocking(False)
                try:
                    data = self._sock.recv(1 << 16)
                finally:
                    self._sock.setblocking(True)
            except (BlockingIOError, InterruptedError):
                data = None
            except OSError:
                data = b""
            if data == b"":
                self._eof = True
            elif data:
                self._buffer.extend(data)
                self.bytes_received += len(data)
        messages = self._drain_buffer()
        if self._eof and self._buffer:
            raise TruncatedFrameError(
                f"connection closed mid-frame at stream offset "
                f"{self._offset}: {len(self._buffer)} byte(s) of a partial "
                f"frame from {self.peer}",
                offset=self._offset,
                needed=1,
            )
        return messages, self._eof and not self._buffer

    def recv(self, timeout: float | None = None) -> Any | None:
        """Blocking read of the next message; ``None`` on clean EOF.

        A stream that ends mid-frame raises
        :class:`TruncatedFrameError`; ``timeout`` (seconds) raises
        :class:`TimeoutError` — the worker's handshake uses it so a
        silent parent cannot hang a connecting worker forever.
        """
        while True:
            if self._pending:
                return self._pending.pop(0)
            messages = self._drain_buffer()
            if messages:
                self._pending.extend(messages[1:])
                return messages[0]
            if self._eof:
                if self._buffer:
                    raise TruncatedFrameError(
                        f"connection closed mid-frame at stream offset "
                        f"{self._offset}: {len(self._buffer)} byte(s) of a "
                        f"partial frame from {self.peer}",
                        offset=self._offset,
                        needed=1,
                    )
                return None
            try:
                # Inside the try: on a closed socket settimeout raises
                # EBADF, which is end of stream like any recv failure.
                self._sock.settimeout(timeout)
                data = self._sock.recv(1 << 16)
            except TimeoutError as exc:
                raise TimeoutError(
                    f"no frame from {self.peer} within {timeout}s"
                ) from exc
            except OSError:
                data = b""
            finally:
                try:
                    self._sock.settimeout(None)
                except OSError:  # pragma: no cover - peer closed the fd
                    pass
            if data == b"":
                self._eof = True
            else:
                self._buffer.extend(data)
                self.bytes_received += len(data)

    def shutdown(self) -> None:
        """End the stream in both directions (idempotent).

        Unlike :meth:`close`, which releases only this process's
        descriptor, this acts on the connection itself: the peer sees
        the stream end, and a thread blocked in :meth:`recv` wakes up
        with EOF.  Never call it on a descriptor another process still
        serves from.
        """
        try:
            self._sock.shutdown(socket_module.SHUT_RDWR)
        except OSError:  # already closed or never connected
            pass

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameConnection(peer={self.peer}, sent={self.frames_sent}, "
            f"received={self.frames_received})"
        )
