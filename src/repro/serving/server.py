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

A request takes one of two paths:

* **Cache hits are answered on the event loop.**  A ``group`` or
  ``user`` request whose answer is already in the service's group or
  relevance cache is served inline by
  :meth:`~repro.serving.service.RecommendationService.cached_group` /
  :meth:`~repro.serving.service.RecommendationService.cached_user`,
  which never compute and never wait for the data lock: when a writer
  holds it, the request simply takes the second path.  A hit takes no in-flight
  slot, so it is answered even when the executor is saturated.
* **Everything else runs on a thread pool.**  Misses and ``rate``
  writes run on an executor via the service's thread-safe request
  paths, so slow recommendations never stall the loop.  Admission
  control bounds this work across connections: at most
  ``max_inflight`` requests execute at once, and a request arriving
  past the bound is rejected *immediately* with a typed
  ``{"error": "overloaded"}`` response (and a ``server_overloads``
  counter increment) instead of queueing without bound -- under
  overload the server sheds load loudly rather than silently growing a
  queue.

A line that is not a valid request is answered with a typed
``bad-request``; a line longer than :data:`MAX_LINE_BYTES` is answered
the same way, after which that connection is closed.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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


class OverloadedError(ReproError):
    """Raised (and reported) when admission control rejects a request."""

    def __init__(self, inflight: int, max_inflight: int) -> None:
        super().__init__(
            f"server overloaded: {inflight} requests in flight "
            f"(max_inflight={max_inflight})"
        )
        self.inflight = inflight
        self.max_inflight = max_inflight


class RequestServer:
    """Serve concurrent JSONL request streams with bounded in-flight work.

    Parameters
    ----------
    service:
        The (thread-safe) service requests execute against.
    host / port:
        Bind address; port ``0`` (default) picks a free port — read the
        resolved address back from :meth:`start`'s return value or
        :attr:`address`.
    max_inflight:
        Cross-connection ceiling on requests executing on the thread
        pool; cache hits answered on the event loop never take a slot.
        Request number ``max_inflight + 1`` is rejected immediately
        with a typed ``overloaded`` response carrying a
        ``retry_after_ms`` hint (the windowed p50 of recent executor
        latency — roughly when one in-flight slot should free up).
    request_timeout:
        Optional per-request time budget, in seconds.  A
        :class:`~repro.resilience.Deadline` built at admission is
        threaded through the service into backend dispatch; a request
        that overruns is answered with ``{"error": "deadline"}``
        (``server_deadline_timeouts`` counts them).  ``None`` (default)
        serves without a budget.
    metrics:
        Registry for the server's counters (``server_requests``, which
        counts every answered request, hits included;
        ``server_overloads``, ``server_connections``,
        ``server_errors``, ``server_deadline_timeouts``,
        ``server_degraded_responses``) and the ``server_request_ms``
        histogram, which times executor work only; defaults to the
        service's registry.
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
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
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
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight,
            thread_name_prefix="repro-serve",
        )
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
        """Stop the server thread and the worker pool (idempotent)."""
        loop, self._loop = self._loop, None
        thread, self._thread = self._thread, None
        if loop is not None and thread is not None:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
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
        """Parse and answer one request line; never raises.

        A cache hit is answered here, on the loop thread, before
        admission; anything else is admitted and run on the executor.
        """
        try:
            request = parse_request(json.loads(text))
        except (ValueError, TypeError, RecursionError) as exc:
            # RecursionError: JSON nested too deep for the decoder.
            self._errors.inc()
            return {"id": number, "error": "bad-request", "detail": str(exc)}
        try:
            result = self._cached_result(request)
            if result is None:
                result = await self._run_admitted(request)
        except OverloadedError as rejection:
            self._overloads.inc()
            return {
                "id": number,
                "error": "overloaded",
                "detail": str(rejection),
                "inflight": rejection.inflight,
                "max_inflight": rejection.max_inflight,
                "retry_after_ms": self._retry_after_ms(),
            }
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
        self._requests.inc()
        result["id"] = number
        return result

    def _cached_result(self, request: ServeRequest) -> dict[str, Any] | None:
        """The response to a cache hit, or ``None`` (loop thread).

        Never computes and never waits for the service's data lock.
        """
        if request.kind == "group":
            recommendation = self.service.cached_group(
                request.members, request.z, wait=False
            )
            if recommendation is not None:
                return _group_result(request, recommendation)
        elif request.kind == "user":
            items = self.service.cached_user(
                request.user_id, request.k, wait=False
            )
            if items is not None:
                return _user_result(request, items)
        return None

    async def _run_admitted(self, request: ServeRequest) -> dict[str, Any]:
        """Run ``request`` on the executor in one in-flight slot.

        Raises :class:`OverloadedError` when every slot is taken.
        """
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                raise OverloadedError(self._inflight, self.max_inflight)
            self._inflight += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, self._execute, request
            )
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _retry_after_ms(self) -> int:
        """Overload hint: windowed p50 executor latency, in whole ms.

        Roughly when one of the in-flight slots should free up; cache
        hits hold no slot, so only executor work is in the window.
        Before any request has completed the window is empty and a
        small fixed hint is returned instead.
        """
        p50 = self._latency.windowed_quantile(0.5)
        if p50 is None or p50 <= 0:
            return _DEFAULT_RETRY_AFTER_MS
        return max(1, round(p50))

    def _execute(self, request: ServeRequest) -> dict[str, Any]:
        """Run one admitted request on the service (worker thread).

        With a ``request_timeout`` configured, a fresh
        :class:`~repro.resilience.Deadline` rides the request into the
        service (and from there into backend dispatch).  If the worker
        fleet served this request degraded (its serial fallback marked
        this request's context, see
        :func:`~repro.resilience.mark_degraded`), the response is marked
        ``"degraded": true`` -- clients see that the answer is correct
        but was computed without the fleet.
        """
        deadline = (
            Deadline.after(self.request_timeout)
            if self.request_timeout is not None
            else None
        )
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
