"""In-memory span recording for the traced benchmark run.

The serving process installs wrappers on the public entry points of each
layer (``serving.server``, ``serving.service``, ``serving.cache``,
``serving.index``, ``kernels``, ``core``, ``exec``, ``data``).  A wrapper
records one span per call: id, parent id, name, start, end, request id,
and an optional size (for example the number of users a refresh
changed).  Spans stay in memory and are written out once, when the
process stops.

Parent links follow the call stack of each thread.  A request crosses
two threads inside the server: the asyncio loop parses and admits it
(``server.respond``), an executor thread runs it (``server.execute``).
The request id travels from the first to the second through the parsed
request object.

A wrapper is patched where the caller looks the name up: a function
imported into ``repro.serving.service`` is replaced in that module, not
where it is defined.  Per-pair cache probes (``ScoreCache.get`` inside
``CachedSimilarity.similarities``) are left unwrapped on purpose: there
are millions of them, and their cost shows as the self time of the
enclosing ``cache.similarities`` span.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from typing import Any, Callable

_clock = time.perf_counter

#: The ``server.respond`` span open in the current asyncio task, as a
#: mutable ``[span_id, request_id]`` pair the parse hook fills in.
_RESPOND: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "perfbench_respond", default=None
)


class SpanRecorder:
    """Collects spans of the process that created it.

    Forked children (pool workers) inherit the wrappers but not the
    right to record: a wrapper called in another process runs the
    original function and records nothing.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # id(parsed request) -> (request id, server.respond span id)
        self._pending: dict[int, tuple[Any, int]] = {}

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        size: Callable | None = None,
        root: tuple[Any, int | None] | None = None,
    ) -> Any:
        stack = self._stack()
        if root is not None:
            rid, parent = root
        elif stack:
            parent, rid = stack[-1]
        else:
            rid, parent = None, None
        span_id = next(self._ids)
        stack.append((span_id, rid))
        result = None
        start = _clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _clock()
            stack.pop()
            measured = size(result) if size is not None and result is not None else None
            self.spans.append((span_id, parent, name, start, end, rid, measured))

    def span(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        """``fn`` wrapped so each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, size)

        return wrapper

    def rooted(self, name: str, rid: Any, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` as the root span of request ``rid``."""
        return self._call(name, fn, args, {}, root=(rid, None))

    # -- the request server's two threads -------------------------------------

    def respond_span(self, fn: Callable) -> Callable:
        """Wrap the coroutine ``RequestServer._respond`` (loop thread).

        Coroutines of other connections interleave on the loop thread,
        so this span is not pushed on the thread's stack; it is found
        again through the parsed request instead.
        """

        @functools.wraps(fn)
        async def wrapper(server: Any, number: int, text: str) -> Any:
            holder = [next(self._ids), None]
            token = _RESPOND.set(holder)
            start = _clock()
            try:
                return await fn(server, number, text)
            finally:
                end = _clock()
                _RESPOND.reset(token)
                self.spans.append(
                    (holder[0], None, "server.respond", start, end, holder[1], None)
                )

        return wrapper

    def parse_hook(self, fn: Callable) -> Callable:
        """Wrap ``parse_request`` to carry the client's ``rid`` field along."""

        @functools.wraps(fn)
        def wrapper(payload: Any) -> Any:
            request = fn(payload)
            holder = _RESPOND.get()
            if holder is not None:
                holder[1] = payload.get("rid")
                self._pending[id(request)] = (holder[1], holder[0])
            return request

        return wrapper

    def execute_span(self, fn: Callable) -> Callable:
        """Wrap ``RequestServer._execute`` (executor thread)."""

        @functools.wraps(fn)
        def wrapper(server: Any, request: Any) -> Any:
            root = self._pending.pop(id(request), (None, None))
            return self._call("server.execute", fn, (server, request), {}, root=root)

        return wrapper

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _patch(recorder: SpanRecorder, owner: Any, attr: str, name: str, **kw: Any) -> None:
    """Replace ``owner.attr`` by a span wrapper (functions and methods)."""
    raw = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(recorder.span(name, raw.__func__, **kw)))
    else:
        setattr(owner, attr, recorder.span(name, raw, **kw))


def install(recorder: SpanRecorder) -> None:
    """Install the class- and module-level wrappers (before any service exists)."""
    import repro.data.serialization as serialization
    import repro.serving.server as server
    import repro.serving.service as service
    import repro.similarity.ratings_sim as ratings_sim
    from repro.core.candidates import GroupCandidates
    from repro.exec.pool import PoolBackend
    from repro.kernels.packed import PackedRatings
    from repro.serving.cache import CachedSimilarity
    from repro.serving.index import NeighborIndex

    server.RequestServer._respond = recorder.respond_span(
        server.RequestServer._respond
    )
    server.RequestServer._execute = recorder.execute_span(
        server.RequestServer._execute
    )
    server.parse_request = recorder.parse_hook(server.parse_request)

    cls = service.RecommendationService
    _patch(recorder, cls, "__init__", "service.init")
    _patch(recorder, cls, "warm", "service.warm")
    _patch(recorder, cls, "recommend_group", "service.group")
    _patch(recorder, cls, "recommend_user", "service.user")
    _patch(recorder, cls, "recommend_many", "service.many")
    _patch(recorder, cls, "ingest_rating", "service.ingest")

    _patch(recorder, CachedSimilarity, "similarity", "cache.similarity")
    _patch(recorder, CachedSimilarity, "similarities", "cache.similarities")

    _patch(recorder, NeighborIndex, "build", "index.build")
    _patch(recorder, NeighborIndex, "row", "index.row")
    _patch(recorder, NeighborIndex, "peers_excluding", "index.peers")
    _patch(recorder, NeighborIndex, "refresh_user", "index.refresh", size=len)
    _patch(recorder, NeighborIndex, "users_with_neighbor", "index.reverse")

    _patch(recorder, ratings_sim, "pearson_one_vs_many", "kernels.pearson")
    _patch(recorder, ratings_sim, "pearson_pair", "kernels.pearson")
    _patch(recorder, service, "predict_row_packed", "kernels.relevance")
    _patch(recorder, service, "predict_topk_packed", "kernels.relevance")
    _patch(recorder, service, "items_unrated_by_all_packed", "kernels.scan")
    _patch(recorder, PackedRatings, "ensure_current", "kernels.repack")

    _patch(recorder, GroupCandidates, "from_relevance_table", "core.aggregate")
    _patch(recorder, GroupCandidates, "top_group_items", "core.top")
    _patch(recorder, service, "rank_items", "core.rank")

    _patch(recorder, PoolBackend, "map_items", "exec.dispatch")
    _patch(recorder, serialization, "load_dataset", "data.load")


def install_on_service(recorder: SpanRecorder, svc: Any) -> None:
    """Wrap the per-instance caches and selector of one service."""
    for cache in (svc.group_cache, svc.relevance_cache):
        _patch(recorder, cache, "get", "cache.lookup")
        _patch(recorder, cache, "put", "cache.store")
        _patch(recorder, cache, "get_or_compute", "cache.lookup")
        _patch(recorder, cache, "invalidate_where", "cache.invalidate")
    _patch(recorder, svc.selector, "select", "core.select")
