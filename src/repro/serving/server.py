"""Async JSONL front end: concurrent request streams over TCP.

:class:`RequestServer` is the network face of
:class:`~repro.serving.service.RecommendationService`: an asyncio
server (running on a background thread, so synchronous callers just
``start()``/``stop()`` it) that accepts any number of concurrent
connections, each streaming newline-delimited JSON requests in the
:mod:`repro.serving.requests` schema and receiving one JSON response
line per request, in order.  Within one connection requests are
processed strictly in order, so a client's ``rate`` mutation is always
visible to its own next read.

The loop thread is the only thread that runs the service.  Every
request -- a cache hit, a miss or a ``rate`` write -- runs inline on
the event loop through the service's request paths, which answer a hit
from the group or relevance cache before they compute.  A second thread
would buy no parallelism under the interpreter lock, and a thread that
wants the lock can wait out its holder's whole switch interval.

While one request runs, the lines that arrive on other connections
wait: together with the admitted requests not yet answered they form
the *backlog*.  Admission control bounds it across connections: a
request is counted in once its line is read and counted out once it is
answered, and a request that finds ``max_inflight`` already counted is
rejected *immediately* with a typed ``{"error": "overloaded"}``
response (and a ``server_overloads`` counter increment) -- under
overload the server sheds load loudly rather than silently growing a
queue.  A connection reads its next line only after answering the
last, so it holds at most one request in the backlog.

A line that is not a valid request is answered with a typed
``bad-request``; a line longer than :data:`MAX_LINE_BYTES` is answered
the same way, after which that connection is closed.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
from typing import Any

from ..core.pipeline import CaregiverRecommendation
from ..core.relevance import ScoredItem
from ..exceptions import DeadlineExceeded, ReproError
from ..obs import MetricsRegistry
from ..resilience import Deadline, degraded_scope
from .requests import ServeRequest, parse_request
from .service import RecommendationService

#: Longest request line accepted, in bytes (asyncio's stream default).
#: A longer line is answered with a ``bad-request`` naming this limit,
#: and its connection is closed: the rest of the line is still in flight
#: and would otherwise be read as further requests.
MAX_LINE_BYTES = 2**16

#: Fallback ``retry_after_ms`` hint when no request has completed yet
#: (an empty latency window gives the client nothing to extrapolate).
_DEFAULT_RETRY_AFTER_MS = 50

#: Sliding window (seconds) behind the overload hint's p50.
_LATENCY_WINDOW_S = 30.0

#: Upper bound on the loop turns shutdown waits for half-set-up
#: connections to reach their handler (a few turns suffice).
_SETTLE_TURNS = 100

#: The deadline of the request being answered in the current task, set
#: by :meth:`RequestServer._respond` at admission (``None`` without a
#: ``request_timeout``).
_ADMITTED_DEADLINE: contextvars.ContextVar[Deadline | None] = (
    contextvars.ContextVar("repro_admitted_deadline", default=None)
)


class OverloadedError(ReproError):
    """An admission-control rejection, answered as ``overloaded``."""

    def __init__(self, inflight: int, max_inflight: int) -> None:
        super().__init__(
            f"server overloaded: {inflight} requests in flight "
            f"(max_inflight={max_inflight})"
        )
        self.inflight = inflight
        self.max_inflight = max_inflight


class RequestServer:
    """Serve concurrent JSONL request streams with a bounded backlog.

    Parameters
    ----------
    service:
        The service requests run against, on the loop thread only.
    host / port:
        Bind address; port ``0`` (default) picks a free port — read the
        resolved address back from :meth:`start`'s return value or
        :attr:`address`.
    max_inflight:
        Cross-connection ceiling on the backlog: requests whose line
        was read and not yet answered, the running one included.  A
        request that finds ``max_inflight`` counted is rejected
        immediately with a typed ``overloaded`` response carrying a
        ``retry_after_ms`` hint (the windowed p50 of
        ``server_request_ms`` — roughly when the request ahead of it
        should be answered).
    request_timeout:
        Optional per-request time budget, in seconds.  A
        :class:`~repro.resilience.Deadline` built at admission is
        threaded through the service into backend dispatch, so the
        time a request waits in the backlog counts against it; a
        request that overruns is answered with ``{"error":
        "deadline"}`` (``server_deadline_timeouts`` counts them).
        ``rate`` writes take no budget.  ``None`` (default) serves
        without a budget.
    metrics:
        Registry for the server's counters (``server_requests``, which
        counts every answered request; ``server_overloads``,
        ``server_connections``, ``server_errors``,
        ``server_deadline_timeouts``, ``server_degraded_responses``)
        and the ``server_request_ms`` histogram, which times every
        request the loop runs; defaults to the service's registry.
    """

    def __init__(
        self,
        service: RecommendationService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 16,
        request_timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        self.service = service
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.metrics = metrics if metrics is not None else service.metrics
        self._requests = self.metrics.counter("server_requests")
        self._overloads = self.metrics.counter("server_overloads")
        self._connections = self.metrics.counter("server_connections")
        self._errors = self.metrics.counter("server_errors")
        self._deadline_timeouts = self.metrics.counter(
            "server_deadline_timeouts"
        )
        self._degraded_responses = self.metrics.counter(
            "server_degraded_responses"
        )
        # Named server_request_ms (not request_ms) so the CLI's merged
        # per-kind service table never double-counts these samples.
        self._latency = self.metrics.histogram(
            "server_request_ms", window_s=_LATENCY_WINDOW_S
        )
        self._inflight = 0  # the backlog (loop thread only)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._address: tuple[str, int] | None = None
        # Connection handler tasks that have started running (loop
        # thread only); see _shutdown.
        self._handlers: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | None:
        """``(host, port)`` the server is listening on, or ``None``."""
        return self._address

    def start(self) -> tuple[str, int]:
        """Start serving on a background thread; returns ``(host, port)``."""
        if self._thread is not None:
            assert self._address is not None
            return self._address
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._address is None:  # pragma: no cover - bind failure
            raise OSError(f"could not bind request server on {self.host}")
        return self._address

    def _run_loop(self) -> None:
        """Background thread body: own event loop running the server."""
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                server = loop.run_until_complete(
                    asyncio.start_server(
                        self._handle_connection,
                        self.host,
                        self.port,
                        limit=MAX_LINE_BYTES,
                    )
                )
            except OSError:
                self._started.set()
                return
            self._server = server
            self._address = server.sockets[0].getsockname()[:2]
            self._started.set()
            loop.run_forever()
            loop.run_until_complete(self._shutdown(loop, server))
        finally:
            loop.close()

    async def _shutdown(
        self,
        loop: asyncio.AbstractEventLoop,
        server: asyncio.AbstractServer,
    ) -> None:
        """Close the listener and unwind open connection handlers.

        A connection accepted just before the close is still being set
        up (transport first, then its handler task), so the loop turns
        until every other task is a handler that has started, for at
        most :data:`_SETTLE_TURNS` turns.  Only then are the handlers
        cancelled: on python 3.11, cancelling a handler task before its
        first step makes asyncio's own done-callback log the
        cancellation as an unhandled error.
        """
        server.close()
        await server.wait_closed()
        current = asyncio.current_task(loop)
        for _ in range(_SETTLE_TURNS):
            if asyncio.all_tasks(loop) - {current} <= self._handlers:
                break
            await asyncio.sleep(0)
        tasks = asyncio.all_tasks(loop) - {current}
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def stop(self) -> None:
        """Stop the server thread (idempotent)."""
        loop, self._loop = self._loop, None
        thread, self._thread = self._thread, None
        if loop is not None and thread is not None:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
        self._server = None
        self._address = None
        self._started.clear()

    def __enter__(self) -> "RequestServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- request handling ----------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one JSONL stream: a response line per request line."""
        self._connections.inc()
        task = asyncio.current_task()
        self._handlers.add(task)
        number = 0
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Past the stream limit; see MAX_LINE_BYTES.
                    self._errors.inc()
                    await self._write(
                        writer,
                        {
                            "id": number + 1,
                            "error": "bad-request",
                            "detail": (
                                f"request line exceeds {MAX_LINE_BYTES} "
                                f"bytes; closing the connection"
                            ),
                        },
                    )
                    return
                if not line:
                    return
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                number += 1
                await self._write(writer, await self._respond(number, text))
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # client went away mid-stream; nothing to answer
        except asyncio.CancelledError:
            return  # server stopping; close the stream and end cleanly
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter, response: dict[str, Any]
    ) -> None:
        """Send one response line."""
        writer.write((json.dumps(response, sort_keys=True) + "\n").encode())
        await writer.drain()

    async def _respond(self, number: int, text: str) -> dict[str, Any]:
        """Parse, admit and answer one request line; never raises.

        An admitted request yields the loop once before it runs, so
        every line that arrived while the loop was busy is read -- and
        counted in or shed -- before any of them runs.  Its deadline
        starts at admission: the time it waits counts against it.
        """
        try:
            request = parse_request(json.loads(text))
        except (ValueError, TypeError, RecursionError) as exc:
            # RecursionError: JSON nested too deep for the decoder.
            self._errors.inc()
            return {"id": number, "error": "bad-request", "detail": str(exc)}
        if self._inflight >= self.max_inflight:
            self._overloads.inc()
            rejection = OverloadedError(self._inflight, self.max_inflight)
            return {
                "id": number,
                "error": "overloaded",
                "detail": str(rejection),
                "inflight": rejection.inflight,
                "max_inflight": rejection.max_inflight,
                "retry_after_ms": self._retry_after_ms(),
            }
        self._inflight += 1
        token = _ADMITTED_DEADLINE.set(
            Deadline.after(self.request_timeout)
            if self.request_timeout is not None
            else None
        )
        try:
            await asyncio.sleep(0)
            result = self._execute(request)
        except DeadlineExceeded as exc:
            self._errors.inc()
            self._deadline_timeouts.inc()
            return {"id": number, "error": "deadline", "detail": str(exc)}
        except ReproError as exc:
            self._errors.inc()
            return {
                "id": number,
                "error": type(exc).__name__,
                "detail": str(exc),
            }
        except Exception as exc:  # pragma: no cover - defensive
            self._errors.inc()
            return {"id": number, "error": "internal", "detail": repr(exc)}
        finally:
            _ADMITTED_DEADLINE.reset(token)
            self._inflight -= 1
        self._requests.inc()
        result["id"] = number
        return result

    def _retry_after_ms(self) -> int:
        """Overload hint: windowed p50 request latency, in whole ms.

        Roughly when the request ahead in the backlog should be
        answered.  Before any request has completed the window is empty
        and a small fixed hint is returned instead.
        """
        p50 = self._latency.windowed_quantile(0.5)
        if p50 is None or p50 <= 0:
            return _DEFAULT_RETRY_AFTER_MS
        return max(1, round(p50))

    def _execute(self, request: ServeRequest) -> dict[str, Any]:
        """Run one admitted request on the service (loop thread).

        With a ``request_timeout`` configured, the deadline built at
        admission rides a ``group`` or ``user`` request into the
        service and from there into backend dispatch; the service's
        entry check answers ``deadline`` without computing when the
        budget ran out in the backlog.  If the worker fleet served this
        request degraded (its serial fallback marked this request's
        context, see :func:`~repro.resilience.mark_degraded`), the
        response is marked ``"degraded": true`` -- clients see that the
        answer is correct but was computed without the fleet.
        """
        deadline = _ADMITTED_DEADLINE.get()
        deadline_kwargs: dict[str, Any] = (
            {"deadline": deadline} if deadline is not None else {}
        )
        started = time.perf_counter()
        with degraded_scope() as degraded:
            try:
                if request.kind == "group":
                    result = _group_result(
                        request,
                        self.service.recommend_group(
                            request.group(), z=request.z, **deadline_kwargs
                        ),
                    )
                elif request.kind == "user":
                    result = _user_result(
                        request,
                        self.service.recommend_user(
                            request.user_id, k=request.k, **deadline_kwargs
                        ),
                    )
                else:
                    self.service.ingest_rating(
                        request.user_id, request.item_id, request.value
                    )
                    result = {
                        "kind": "rate",
                        "user": request.user_id,
                        "item": request.item_id,
                        "ok": True,
                    }
            finally:
                self._latency.observe(
                    (time.perf_counter() - started) * 1000.0
                )
            if degraded():
                self._degraded_responses.inc()
                result["degraded"] = True
        return result


def _group_result(
    request: ServeRequest, recommendation: CaregiverRecommendation
) -> dict[str, Any]:
    """The response body of a served ``group`` request."""
    return {
        "kind": "group",
        "members": list(request.members),
        "items": list(recommendation.items),
        "fairness": recommendation.report.fairness,
    }


def _user_result(
    request: ServeRequest, items: list[ScoredItem]
) -> dict[str, Any]:
    """The response body of a served ``user`` request."""
    return {
        "kind": "user",
        "user": request.user_id,
        "items": [item.item_id for item in items],
    }
