"""Single-process JSONL load generator over loopback TCP.

One thread drives every connection through a selector, so the
generator never competes with itself for the interpreter lock.

* :func:`open_loop` sends each request at its scheduled time whether or
  not earlier ones were answered, and times each from that *due* time:
  a stall in the server delays every later request's answer and the
  latency shows it (no coordinated omission).  How late the generator
  itself sent is recorded as lag.
* :func:`closed_loop` keeps one request outstanding per connection and
  times each from its actual send.

The server answers the requests of one connection in order, so each
response line is matched to the oldest unanswered request of its
connection.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

clock = time.perf_counter


@dataclass
class Outcome:
    """Everything one loop observed; response lines are parsed later."""

    #: ``(tag, t_ref, t_done, raw_line)`` per answered request, where
    #: ``t_ref`` is the due time (open loop) or send time (closed loop).
    answered: list[tuple[Any, float, float, bytes]] = field(default_factory=list)
    #: tags of requests sent but never answered
    unanswered: list[Any] = field(default_factory=list)
    #: how late each send was against its schedule, in seconds
    lags: list[float] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0


class _Conn:
    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending: deque[tuple[Any, float]] = deque()
        self.buffer = b""
        self.closed = False

    def receive(self, outcome: Outcome) -> int:
        """Read what is available; returns the number of answers matched."""
        chunk = self.sock.recv(1 << 16)
        now = clock()
        if not chunk:
            self.closed = True
            return 0
        self.buffer += chunk
        matched = 0
        while True:
            cut = self.buffer.find(b"\n")
            if cut < 0:
                return matched
            line, self.buffer = self.buffer[:cut], self.buffer[cut + 1 :]
            tag, t_ref = self.pending.popleft()
            outcome.answered.append((tag, t_ref, now, line))
            matched += 1

    def close(self) -> None:
        self.sock.close()


class Connections:
    """A fixed set of client connections to one server."""

    def __init__(self, address: tuple[str, int], count: int) -> None:
        self.conns = [_Conn(address) for _ in range(count)]
        self.selector = selectors.DefaultSelector()
        for index, conn in enumerate(self.conns):
            self.selector.register(conn.sock, selectors.EVENT_READ, index)

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.close()

    def __enter__(self) -> "Connections":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _poll(self, timeout: float, outcome: Outcome) -> int:
        matched = 0
        for key, _ in self.selector.select(max(0.0, timeout)):
            conn = self.conns[key.data]
            matched += conn.receive(outcome)
            if conn.closed:
                self.selector.unregister(conn.sock)
        return matched

    def open_loop(
        self,
        schedules: list[list[tuple[float, bytes, Any]]],
        drain_s: float = 30.0,
    ) -> Outcome:
        """Send ``(due_s, line, tag)`` entries per connection on schedule."""
        outcome = Outcome()
        start = clock() + 0.005
        outcome.started = start
        total = sum(len(schedule) for schedule in schedules)
        last_due = max((s[-1][0] for s in schedules if s), default=0.0)
        give_up = start + last_due + drain_s
        positions = [0] * len(schedules)
        done = 0
        while done < total:
            now = clock()
            next_due = give_up
            for index, schedule in enumerate(schedules):
                conn = self.conns[index]
                position = positions[index]
                while position < len(schedule) and start + schedule[position][0] <= now:
                    due, line, tag = schedule[position]
                    if not conn.closed:
                        conn.sock.sendall(line)
                        conn.pending.append((tag, start + due))
                        outcome.lags.append(clock() - start - due)
                    else:
                        outcome.unanswered.append(tag)
                        done += 1
                    position += 1
                positions[index] = position
                if position < len(schedule):
                    next_due = min(next_due, start + schedule[position][0])
            if now >= give_up or all(conn.closed for conn in self.conns):
                break
            done += self._poll(next_due - clock(), outcome)
        outcome.finished = max((a[2] for a in outcome.answered), default=clock())
        for conn in self.conns:
            outcome.unanswered.extend(tag for tag, _ in conn.pending)
            conn.pending.clear()
        return outcome

    def closed_loop(
        self,
        requests: Iterator[tuple[bytes, Any]],
        window_s: float | None,
        drain_s: float = 60.0,
    ) -> Outcome:
        """One outstanding request per connection until the window ends.

        ``window_s=None`` runs until ``requests`` is exhausted.
        """
        outcome = Outcome()
        start = clock()
        outcome.started = start
        stop_at = start + window_s if window_s is not None else None
        exhausted = False

        def send(conn: _Conn) -> None:
            nonlocal exhausted
            if exhausted or (stop_at is not None and clock() >= stop_at):
                return
            entry = next(requests, None)
            if entry is None:
                exhausted = True
                return
            line, tag = entry
            sent = clock()
            conn.sock.sendall(line)
            conn.pending.append((tag, sent))

        for conn in self.conns:
            send(conn)
        give_up = (stop_at or start) + drain_s
        while any(conn.pending for conn in self.conns):
            if clock() >= give_up or all(conn.closed for conn in self.conns):
                break
            self._poll(give_up - clock(), outcome)
            for conn in self.conns:
                if not conn.pending and not conn.closed:
                    send(conn)
        outcome.finished = max((a[2] for a in outcome.answered), default=clock())
        for conn in self.conns:
            outcome.unanswered.extend(tag for tag, _ in conn.pending)
            conn.pending.clear()
        return outcome
