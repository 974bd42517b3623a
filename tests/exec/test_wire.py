"""The wire codec in isolation: layout pins, round-trips, typed rejects.

The frame format is a cross-process (and potentially cross-host,
cross-version) contract, so these tests pin the exact header bytes —
any layout drift fails loudly here before it can strand a deployed
worker speaking yesterday's format.  Every malformed input must raise a
typed :class:`~repro.exec.wire.WireError` naming the stream offset,
never a bare ``struct`` or ``pickle`` error.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

import pytest

from repro.exceptions import ExecutionError
from repro.exec.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_HEARTBEAT,
    FRAME_HELLO,
    FRAME_NAMES,
    FRAME_STOP,
    FRAME_TYPES,
    HEADER_SIZE,
    MAGIC,
    MESSAGE_CLASSES,
    WIRE_VERSION,
    Boot,
    Fault,
    FrameConnection,
    Heartbeat,
    Hello,
    Stop,
    Sync,
    Task,
    TaskResult,
    TruncatedFrameError,
    Welcome,
    WireError,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)

#: One instance of every message envelope, for round-trip sweeps.
SAMPLE_MESSAGES = (
    Hello(fingerprint="abcd1234"),
    Hello(),
    Welcome(worker_id=3, fingerprint="abcd1234"),
    Boot(initializer=len, initargs=("state",), epoch=7, applier=abs),
    Sync(epoch=9, entries=((8, ("rating", "u1", "i1", 4.0)), (9, None))),
    Task(chunk_id=2, fn=abs, pairs=((0, -1), (1, -2)), epoch=9),
    TaskResult(chunk_id=2, index=0, ok=True, value=1),
    TaskResult(
        chunk_id=2,
        index=1,
        ok=False,
        exc_bytes=pickle.dumps(ValueError("boom")),
        summary="ValueError('boom')",
        traceback="trace",
        delta=(1, {"counters": []}),
    ),
    Heartbeat(epoch=4),
    Stop(),
    Fault("mismatch", details={"expected": "a", "serving": "b"}),
)


class TestFrameLayout:
    """Pin the exact bytes of the frame header."""

    def test_header_layout_bytes(self):
        frame = encode_frame(FRAME_HEARTBEAT, b"xyz")
        assert frame[:4] == b"RPRW"
        assert frame[4] == WIRE_VERSION == 1
        assert frame[5] == FRAME_HEARTBEAT == 7
        assert frame[6:8] == b"\x00\x00"
        assert frame[8:12] == struct.pack("!I", 3)
        assert frame[12:] == b"xyz"
        assert HEADER_SIZE == 12

    def test_empty_payload_frame_is_header_only(self):
        assert len(encode_frame(FRAME_STOP, b"")) == HEADER_SIZE

    def test_frame_type_codes_are_pinned(self):
        # The codes are the on-wire contract; renumbering breaks
        # mixed-version fleets silently.
        assert [
            (code, FRAME_NAMES[code]) for code in sorted(FRAME_NAMES)
        ] == [
            (1, "HELLO"),
            (2, "WELCOME"),
            (3, "BOOT"),
            (4, "SYNC"),
            (5, "TASK"),
            (6, "RESULT"),
            (7, "HEARTBEAT"),
            (8, "STOP"),
            (9, "FAULT"),
        ]

    def test_message_class_map_is_total_and_invertible(self):
        assert set(MESSAGE_CLASSES) == set(FRAME_NAMES)
        for frame_type, cls in MESSAGE_CLASSES.items():
            assert FRAME_TYPES[cls] == frame_type


class TestFrameCodec:
    """decode_frame inverts encode_frame and rejects malformed input."""

    def test_round_trip(self):
        frame = encode_frame(FRAME_HELLO, b"payload")
        frame_type, payload, next_offset = decode_frame(frame)
        assert (frame_type, payload, next_offset) == (
            FRAME_HELLO,
            b"payload",
            len(frame),
        )

    def test_round_trip_at_offset(self):
        data = b"\xff" * 5 + encode_frame(FRAME_HELLO, b"p")
        frame_type, payload, next_offset = decode_frame(data, 5)
        assert (frame_type, payload) == (FRAME_HELLO, b"p")
        assert next_offset == len(data)

    def test_truncated_header_names_offset_and_needed(self):
        with pytest.raises(TruncatedFrameError) as excinfo:
            decode_frame(encode_frame(FRAME_STOP, b"")[:4], 0)
        assert excinfo.value.offset == 0
        assert excinfo.value.needed == HEADER_SIZE - 4
        assert "stream offset 0" in str(excinfo.value)

    def test_truncated_payload_names_offset_and_needed(self):
        frame = encode_frame(FRAME_HELLO, b"0123456789")
        with pytest.raises(TruncatedFrameError) as excinfo:
            decode_frame(frame[:-3], 0)
        assert excinfo.value.needed == 3
        assert "truncated HELLO frame at stream offset 0" in str(
            excinfo.value
        )

    def test_bad_magic_is_typed_and_names_offset(self):
        frame = bytearray(encode_frame(FRAME_HELLO, b""))
        frame[:4] = b"HTTP"
        with pytest.raises(WireError, match="bad frame magic.*offset 7"):
            decode_frame(b"\x00" * 7 + bytes(frame), 7)

    def test_version_mismatch_rejected(self):
        frame = bytearray(encode_frame(FRAME_HELLO, b""))
        frame[4] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="unsupported wire version"):
            decode_frame(bytes(frame))

    def test_nonzero_reserved_rejected(self):
        frame = bytearray(encode_frame(FRAME_HELLO, b""))
        frame[6] = 1
        with pytest.raises(WireError, match="reserved"):
            decode_frame(bytes(frame))

    def test_unknown_frame_type_rejected(self):
        frame = bytearray(encode_frame(FRAME_HELLO, b""))
        frame[5] = 200
        with pytest.raises(WireError, match="unknown frame type 200"):
            decode_frame(bytes(frame))

    def test_oversized_length_rejected_without_allocating(self):
        header = struct.pack(
            "!4sBBHI", MAGIC, WIRE_VERSION, FRAME_HELLO, 0, 2**31
        )
        with pytest.raises(WireError, match="oversized HELLO frame"):
            decode_frame(header, 0, DEFAULT_MAX_FRAME_BYTES)

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(WireError, match="refusing to encode"):
            encode_frame(FRAME_HELLO, b"x" * 11, max_bytes=10)

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(WireError, match="unknown frame type"):
            encode_frame(42, b"")

    def test_garbage_is_typed_error(self):
        with pytest.raises(WireError):
            decode_frame(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")

    def test_wire_errors_are_execution_errors(self):
        # The chaos contract catches ExecutionError; wire faults must
        # be inside that net.
        assert issubclass(WireError, ExecutionError)
        assert issubclass(TruncatedFrameError, WireError)


class TestMessageCodec:
    """Typed envelopes survive the wire and cannot be smuggled."""

    @pytest.mark.parametrize(
        "message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_round_trip_every_message_type(self, message):
        frame = encode_message(message)
        frame_type, payload, _ = decode_frame(frame)
        decoded = decode_message(frame_type, payload)
        assert type(decoded) is type(message)
        if isinstance(message, (Boot, Task)):
            # Callables pickle by reference; compare identity fields.
            assert decoded.epoch == message.epoch
        elif isinstance(message, TaskResult) and message.exc_bytes:
            assert isinstance(
                pickle.loads(decoded.exc_bytes), ValueError
            )
        else:
            assert decoded == message

    def test_non_message_rejected(self):
        with pytest.raises(WireError, match="not a wire message"):
            encode_message({"type": "sync"})

    def test_unpicklable_message_rejected(self):
        with pytest.raises(WireError, match="cannot serialise TASK"):
            encode_message(
                Task(chunk_id=0, fn=lambda x: x, pairs=(), epoch=0)
            )

    def test_type_smuggling_rejected(self):
        # A RESULT frame carrying a pickled Stop must not reach a
        # handler that switched on the header byte.
        stop_payload = pickle.dumps(Stop())
        with pytest.raises(WireError, match="carried a Stop payload"):
            decode_message(6, stop_payload, offset=99)

    def test_undecodable_payload_names_offset(self):
        with pytest.raises(
            WireError, match="undecodable HELLO payload at stream offset 5"
        ):
            decode_message(FRAME_HELLO, b"not pickle", offset=5)


def _pair() -> tuple[FrameConnection, FrameConnection]:
    left, right = socket.socketpair()
    return FrameConnection(left), FrameConnection(right)


class TestFrameConnection:
    """The buffered stream transport over a real socketpair."""

    def test_send_recv_round_trip(self):
        a, b = _pair()
        try:
            sent = a.send(Heartbeat(epoch=3))
            assert sent == a.bytes_sent
            assert b.recv(timeout=5.0) == Heartbeat(epoch=3)
            assert b.frames_received == 1
            assert b.bytes_received == sent
        finally:
            a.close()
            b.close()

    def test_recv_preserves_order_across_batched_frames(self):
        a, b = _pair()
        try:
            for epoch in range(5):
                a.send(Heartbeat(epoch=epoch))
            received = [b.recv(timeout=5.0).epoch for _ in range(5)]
            assert received == list(range(5))
        finally:
            a.close()
            b.close()

    def test_recv_returns_none_on_clean_eof(self):
        a, b = _pair()
        try:
            a.send(Stop())
            a.close()
            assert b.recv(timeout=5.0) == Stop()
            assert b.recv(timeout=5.0) is None
        finally:
            b.close()

    def test_recv_on_a_closed_connection_is_end_of_stream(self):
        # A worker's reader thread can call recv() after the worker's
        # cleanup closed the connection; that must read as EOF, not
        # raise EBADF and kill the thread.
        a, b = _pair()
        try:
            b.close()
            assert b.recv() is None
        finally:
            a.close()

    def test_recv_raises_on_torn_eof(self):
        a, b = _pair()
        try:
            frame = encode_message(Heartbeat(epoch=1))
            a._sock.sendall(frame[: len(frame) - 2])  # tear the frame
            a.close()
            with pytest.raises(TruncatedFrameError, match="mid-frame"):
                b.recv(timeout=5.0)
        finally:
            b.close()

    def test_recv_timeout_is_typed(self):
        a, b = _pair()
        try:
            with pytest.raises(TimeoutError, match="no frame from"):
                b.recv(timeout=0.05)
        finally:
            a.close()
            b.close()

    def test_poll_drains_complete_frames_only(self):
        a, b = _pair()
        try:
            a.send(Heartbeat(epoch=1))
            a.send(Heartbeat(epoch=2))
            frame = encode_message(Heartbeat(epoch=3))
            a._sock.sendall(frame[:5])  # partial third frame
            deadline = 50
            messages: list = []
            while len(messages) < 2 and deadline:
                polled, eof = b.poll()
                messages.extend(polled)
                assert not eof
                deadline -= 1
            assert [m.epoch for m in messages] == [1, 2]
            # Completing the frame releases the third message.
            a._sock.sendall(frame[5:])
            while deadline:
                polled, _eof = b.poll()
                if polled:
                    assert [m.epoch for m in polled] == [3]
                    break
                deadline -= 1
            assert deadline, "third frame never completed"
        finally:
            a.close()
            b.close()

    def test_poll_reports_clean_eof(self):
        a, b = _pair()
        a.close()
        try:
            for _ in range(50):
                messages, eof = b.poll()
                assert messages == []
                if eof:
                    break
            assert eof
        finally:
            b.close()

    def test_poll_raises_on_torn_eof(self):
        a, b = _pair()
        frame = encode_message(Heartbeat(epoch=1))
        a._sock.sendall(frame[:-1])
        a.close()
        try:
            with pytest.raises(TruncatedFrameError, match="mid-frame"):
                for _ in range(50):
                    b.poll()
        finally:
            b.close()

    def test_stream_offset_appears_in_garbage_error(self):
        # Garbage following a valid frame must be reported at the
        # offset where the garbage starts on the stream, not at zero —
        # that is the number an operator can line up against a pcap.
        a, b = _pair()
        try:
            first = a.send(Heartbeat(epoch=1))
            a._sock.sendall(b"garbage-that-is-not-a-frame!")
            with pytest.raises(
                WireError, match=f"stream offset {first}"
            ):
                while True:
                    b.recv(timeout=5.0)
        finally:
            a.close()
            b.close()

    def test_concurrent_sends_never_interleave_frames(self):
        a, b = _pair()
        count, threads = 50, 4
        try:
            def blast(epoch_base: int) -> None:
                for i in range(count):
                    a.send(Heartbeat(epoch=epoch_base + i))

            workers = [
                threading.Thread(target=blast, args=(t * 1000,))
                for t in range(threads)
            ]
            for worker in workers:
                worker.start()
            received = [b.recv(timeout=10.0) for _ in range(count * threads)]
            for worker in workers:
                worker.join()
            # Every frame arrives whole and typed; per-thread order holds.
            epochs = [m.epoch for m in received]
            assert len(epochs) == count * threads
            for t in range(threads):
                thread_epochs = [
                    e for e in epochs if t * 1000 <= e < t * 1000 + count
                ]
                assert thread_epochs == sorted(thread_epochs)
        finally:
            a.close()
            b.close()

    def test_max_bytes_enforced_on_send(self):
        a, b = _pair()
        try:
            small = FrameConnection(a._sock, max_bytes=16)
            with pytest.raises(WireError, match="refusing to encode"):
                small.send(Fault("x" * 100))
        finally:
            a.close()
            b.close()
