"""Lightweight trace spans with request-id propagation.

A span is a timed scope: ``with span("recommend_many"):`` measures the
block, records its duration into the owning registry's ``span_ms``
histogram (labelled by span name), bumps ``spans_total`` and appends a
:class:`SpanRecord` to the registry's bounded span ring.  Spans carry
the current *request id* — set per incoming request with
:func:`request_context` and propagated through nested calls via a
:mod:`contextvars` variable, so a kernel-level span recorded three
layers below ``recommend_many`` still names the request that caused it
(in-process, a thread sees the id only when it runs inside a
``contextvars.copy_context()`` snapshot; worker *processes* instead
re-establish the id from the shipped task).

Spans follow the global enabled flag: disabled, :func:`span` yields a
shared no-op object without touching the clock.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .metrics import MetricsRegistry, is_enabled

_REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_request_id", default=None
)


def current_request_id() -> str | None:
    """The request id of the enclosing :func:`request_context`, if any."""
    return _REQUEST_ID.get()


@contextmanager
def request_context(request_id: str) -> Iterator[str]:
    """Bind ``request_id`` to the current context for nested spans.

    Entering sets the context variable, exiting restores the previous
    binding — nesting therefore behaves like a stack, and concurrent
    contexts (threads, tasks) see only their own id.
    """
    token = _REQUEST_ID.set(str(request_id))
    try:
        yield str(request_id)
    finally:
        _REQUEST_ID.reset(token)


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: what ran, for how long, for which request."""

    name: str
    duration_ms: float
    request_id: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)


class _ActiveSpan:
    """Mutable handle yielded by :func:`span`; ``set`` adds attributes."""

    __slots__ = ("name", "attrs")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span before it completes."""
        self.attrs.update(attrs)


class _NoopSpan:
    """Shared do-nothing handle used while instrumentation is disabled."""

    __slots__ = ()
    name = ""
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        """Discard attributes (instrumentation is disabled)."""


_NOOP_SPAN = _NoopSpan()


@contextmanager
def span(
    name: str,
    registry: MetricsRegistry | None = None,
    clock: Callable[[], float] = time.perf_counter,
    **attrs: Any,
) -> Iterator[Any]:
    """Time a scope and record it into ``registry``.

    On exit (even via an exception) the span observes its duration into
    ``span_ms{span=name}``, increments ``spans_total{span=name}`` and
    appends a :class:`SpanRecord` carrying :func:`current_request_id`
    to the registry's span ring.  ``registry=None`` uses the
    process-wide default.  While instrumentation is disabled this is a
    single flag check and a shared no-op handle.
    """
    if not is_enabled():
        yield _NOOP_SPAN
        return
    if registry is None:
        from .metrics import get_registry

        registry = get_registry()
    active = _ActiveSpan(name, dict(attrs))
    started = clock()
    try:
        yield active
    finally:
        duration_ms = (clock() - started) * 1000.0
        registry.observe("span_ms", duration_ms, span=name)
        registry.inc("spans_total", span=name)
        registry.record_span(
            SpanRecord(
                name=name,
                duration_ms=duration_ms,
                request_id=current_request_id(),
                attrs=active.attrs,
            )
        )
