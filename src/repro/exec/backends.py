"""Pluggable execution backends (serial / pool / remote).

The paper frames the recommender as three MapReduce jobs precisely
because peer-set and relevance computation dominate at scale — yet the
engine, the serving fan-out and the eval grids each hand-rolled their
own (mostly serial) execution.  This module is the single substrate
they all share:

* :class:`SerialBackend` — a plain loop; the reference semantics.
* :class:`~repro.exec.remote.RemoteBackend` — the worker fleet, for
  the CPU-bound workloads (Pearson over co-rated items), which threads
  in one process would only time-slice under the GIL: *long-lived*
  worker processes that keep resident state
  between calls and re-sync through broadcast per-epoch delta packets,
  one frame per worker, never per task.  Task functions and arguments
  must be picklable.  As ``"pool"`` its workers are forked local
  children; as ``"remote"`` ``repro worker`` processes on other hosts
  join over TCP too.  The freshness guarantee depends on the state
  owner reporting every mutation via
  :meth:`ExecutionBackend.notify_state_change`.

Every backend maps a function over items **in input order** and returns
a list — results are bit-identical across backends by construction,
which is what lets the compute layers treat the backend as a pure
performance knob.
"""

from __future__ import annotations

import os
import pickle
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from ..exceptions import ConfigurationError, ExecutionError
from ..resilience import Deadline

T = TypeVar("T")
R = TypeVar("R")

#: Backend names accepted by :func:`get_backend` (and the CLI/config).
BACKEND_NAMES: tuple[str, ...] = ("serial", "pool", "remote")


def ensure_picklable(fn: Callable[..., Any]) -> None:
    """Fail fast, with a useful message, before crossing a process boundary.

    Only the task function is checked: module-level functions pickle by
    reference (cheap), while closures/lambdas fail here with a readable
    error instead of a cryptic pool crash.  Initializer arguments are
    deliberately not pre-pickled — under the fork start method they are
    inherited, never serialised, and eagerly dumping a large dataset per
    call would double the dispatch cost.
    """
    try:
        pickle.dumps(fn)
    except Exception as exc:
        raise ExecutionError(
            f"worker processes require picklable tasks; cannot pickle "
            f"{fn!r}: {exc}. Use a module-level function and plain-data "
            f"arguments (see repro.exec)."
        ) from exc


def default_workers() -> int:
    """Number of workers to use when none is configured.

    Prefers the scheduler affinity mask (honours container CPU limits)
    over the raw core count.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def chunk_evenly(items: Sequence[T], num_chunks: int) -> list[list[T]]:
    """Split ``items`` into at most ``num_chunks`` contiguous chunks.

    Chunk sizes differ by at most one and concatenating the chunks
    reproduces ``items`` exactly — chunked execution therefore cannot
    change result ordering.  Empty chunks are never returned.

    >>> chunk_evenly([1, 2, 3, 4, 5], 2)
    [[1, 2, 3], [4, 5]]
    >>> chunk_evenly([], 3)
    []
    """
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    items = list(items)
    if not items:
        return []
    num_chunks = min(num_chunks, len(items))
    base, extra = divmod(len(items), num_chunks)
    chunks: list[list[T]] = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


class ExecutionBackend(ABC):
    """Maps functions over items with deterministic result ordering.

    Parameters
    ----------
    workers:
        Degree of parallelism; ``None`` selects :func:`default_workers`.
        The serial backend ignores it.
    """

    #: Human-readable backend name (also the CLI/config spelling).
    name: str = "backend"

    #: Whether task functions and their arguments cross a process
    #: boundary and therefore must be picklable.  Call sites use this to
    #: select a module-level task spec instead of a closure.
    requires_pickling: bool = False

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError("workers must be >= 1 or None")
        self.workers = workers or default_workers()

    @abstractmethod
    def map_items(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        deadline: Deadline | None = None,
    ) -> list[R]:
        """``[fn(item) for item in items]`` — possibly in parallel.

        Results are returned in input order regardless of completion
        order.  ``initializer``/``initargs`` set up per-worker state
        (worker processes run it once when they boot; the serial
        backend runs it once before mapping, so the same task function
        works everywhere).  ``deadline`` is an optional
        :class:`~repro.resilience.Deadline`; when the budget runs out a
        backend raises :class:`~repro.exceptions.DeadlineExceeded`
        between tasks — never mid-task — so no partial result is ever
        recorded.
        """

    def notify_state_change(self, delta: Any = None) -> int:
        """Report that per-worker state mutated since the last dispatch.

        The serial backend has no resident worker state — it reads
        the parent's state on every call — so this is a no-op for it.
        The worker fleet (:class:`~repro.exec.remote.RemoteBackend`)
        overrides it to bump its sync epoch (and, when ``delta`` is given, log the mutation for
        replay).  State owners should call it unconditionally after
        every mutation — it is how the backend family keeps the
        bit-identity contract under updates.
        """
        return 0

    def close(self) -> None:
        """Release any pooled workers (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """The reference backend: a plain, in-order loop."""

    name = "serial"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers=1 if workers is None else workers)

    def map_items(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        deadline: Deadline | None = None,
    ) -> list[R]:
        """A literal ``[fn(item) for item in items]`` — the reference.

        With a ``deadline`` the budget is checked between items, so a
        timed-out serial batch stops at a task boundary.

        >>> SerialBackend().map_items(abs, [-2, 3])
        [2, 3]
        """
        if initializer is not None:
            initializer(*initargs)
        if deadline is None:
            return [fn(item) for item in items]
        results: list[R] = []
        for position, item in enumerate(items):
            deadline.check(f"serial task {position}")
            results.append(fn(item))
        return results


def get_backend(
    name: str | None,
    workers: int | None = None,
    *,
    remote_heartbeat_interval: float | None = None,
    remote_heartbeat_timeout: float | None = None,
    remote_fingerprint: str | None = None,
    degraded_mode: str = "off",
    metrics: Any = None,
) -> ExecutionBackend:
    """Instantiate a backend by name (``None`` means serial).

    ``"pool"`` and ``"remote"`` both build the worker fleet,
    :class:`~repro.exec.remote.RemoteBackend` (``"remote"`` also opens
    its TCP listener for ``repro worker`` processes).  ``workers`` is
    its fixed width.  The ``remote_*`` keywords set its heartbeat
    cadence/timeout and the config fingerprint its handshake enforces,
    ``degraded_mode`` whether total fleet loss degrades to serial
    execution instead of raising, and ``metrics`` the
    :class:`~repro.obs.MetricsRegistry` it reports into.  The other
    backends ignore them all.

    >>> get_backend("serial").name
    'serial'
    >>> get_backend(None).name
    'serial'
    """
    if name is None:
        name = "serial"
    if name == "serial":
        return SerialBackend(workers)
    if name in ("pool", "remote"):
        from .remote import (
            DEFAULT_HEARTBEAT_INTERVAL,
            DEFAULT_HEARTBEAT_TIMEOUT,
            RemoteBackend,
        )

        return RemoteBackend(
            workers,
            port=0 if name == "remote" else None,
            heartbeat_interval=(
                remote_heartbeat_interval
                if remote_heartbeat_interval is not None
                else DEFAULT_HEARTBEAT_INTERVAL
            ),
            heartbeat_timeout=(
                remote_heartbeat_timeout
                if remote_heartbeat_timeout is not None
                else DEFAULT_HEARTBEAT_TIMEOUT
            ),
            fingerprint=remote_fingerprint,
            degraded_mode=degraded_mode,
            metrics=metrics,
        )
    raise ConfigurationError(
        f"unknown execution backend {name!r}; expected one of {BACKEND_NAMES}"
    )


def resolve_backend(
    backend: "ExecutionBackend | str | None",
    workers: int | None = None,
    **options: Any,
) -> ExecutionBackend:
    """Coerce a backend spec (instance, name or ``None``) to an instance.

    ``None`` resolves to the serial backend, keeping every refactored
    call site backward compatible by default; a name is built by
    :func:`get_backend` with ``workers`` and its keyword ``options``.

    >>> resolve_backend(None).name
    'serial'
    >>> backend = SerialBackend()
    >>> resolve_backend(backend) is backend
    True
    """
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    return get_backend(backend, workers, **options)


@contextmanager
def backend_scope(
    backend: "ExecutionBackend | str | None", workers: int | None = None
) -> "Iterator[ExecutionBackend]":
    """Resolve a backend spec, closing it on exit if this scope made it.

    A caller-provided instance is passed through untouched (its owner
    closes it); a name or ``None`` is instantiated here and its pooled
    workers are released when the block ends — per-call fan-out sites
    use this so a ``backend="pool"`` sweep cannot leak idle workers.
    """
    owned = not isinstance(backend, ExecutionBackend)
    resolved = resolve_backend(backend, workers)
    try:
        yield resolved
    finally:
        if owned:
            resolved.close()
