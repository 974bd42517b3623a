"""Pluggable execution backends (serial / thread / pool / remote).

The paper frames the recommender as three MapReduce jobs precisely
because peer-set and relevance computation dominate at scale — yet the
engine, the similarity batch builds, the serving fan-out and the eval
grids each hand-rolled their own (mostly serial) execution.  This
module is the single substrate they all share:

* :class:`SerialBackend` — a plain loop; the reference semantics.
* :class:`ThreadBackend` — a persistent thread pool; parallelises
  workloads that release the GIL or block, and batch request fan-out.
* :class:`~repro.exec.remote.RemoteBackend` — the worker fleet, for
  the CPU-bound workloads (Pearson over co-rated items) where threads
  are GIL-bound: *long-lived* worker processes that keep resident state
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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from ..exceptions import ConfigurationError, ExecutionError
from ..resilience import Deadline

T = TypeVar("T")
R = TypeVar("R")

#: Backend names accepted by :func:`get_backend` (and the CLI/config).
BACKEND_NAMES: tuple[str, ...] = ("serial", "thread", "pool", "remote")


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
        (worker processes run it once when they boot; the in-process
        backends run it once before mapping, so the same task function
        works everywhere).  ``deadline`` is an optional
        :class:`~repro.resilience.Deadline`; when the budget runs out a
        backend raises :class:`~repro.exceptions.DeadlineExceeded`
        between tasks — never mid-task — so no partial result is ever
        recorded.
        """

    def map_partitions(
        self,
        fn: Callable[[T], R],
        partitions: Sequence[T],
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        deadline: Deadline | None = None,
    ) -> list[R]:
        """Apply ``fn`` to whole partitions, one task per partition."""
        if deadline is not None:
            return self.map_items(
                fn,
                partitions,
                initializer=initializer,
                initargs=initargs,
                deadline=deadline,
            )
        return self.map_items(
            fn, partitions, initializer=initializer, initargs=initargs
        )

    def notify_state_change(self, delta: Any = None) -> int:
        """Report that per-worker state mutated since the last dispatch.

        Backends without resident worker state (serial, thread) read
        the parent's state on every call, so this is a no-op for them.
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


class ThreadBackend(ExecutionBackend):
    """A persistent thread pool (created lazily, reused across calls).

    Right for I/O-bound or lock-releasing tasks and for fan-out whose
    per-task state lives in the parent process (no pickling).  The
    CPU-bound inner loops of this library are GIL-bound under threads —
    use the ``"pool"`` backend for those.
    """

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return self._pool

    def map_items(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        deadline: Deadline | None = None,
    ) -> list[R]:
        """Map on the (lazily created, reused) thread pool, in order.

        A ``deadline`` is checked before dispatch — once tasks are on
        the pool the batch drains (threads share the parent's state, so
        tasks are typically fast and abandoning futures would leak
        running work).
        """
        if deadline is not None:
            deadline.check("thread dispatch")
        if initializer is not None:
            initializer(*initargs)
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        """Shut the thread pool down (idempotent; recreated on next use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def get_backend(
    name: str | None,
    workers: int | None = None,
    *,
    pool_min_workers: int | None = None,
    pool_max_workers: int | None = None,
    pool_idle_ttl: float | None = None,
    pool_target_p99_ms: float | None = None,
    remote_heartbeat_interval: float | None = None,
    remote_heartbeat_timeout: float | None = None,
    remote_fingerprint: str | None = None,
    degraded_mode: str = "off",
    metrics: Any = None,
) -> ExecutionBackend:
    """Instantiate a backend by name (``None`` means serial).

    ``"pool"`` and ``"remote"`` both build the worker fleet,
    :class:`~repro.exec.remote.RemoteBackend` (``"remote"`` also opens
    its TCP listener for ``repro worker`` processes).  The ``pool_*``
    keywords set its autoscaling bounds and p99 latency target, the
    ``remote_*`` keywords its heartbeat cadence/timeout and the config
    fingerprint its handshake enforces, ``degraded_mode`` whether total fleet loss degrades to
    serial execution instead of raising, and ``metrics`` the
    :class:`~repro.obs.MetricsRegistry` it reports into.  The other
    backends ignore them all.

    >>> get_backend("serial").name
    'serial'
    >>> get_backend(None).name
    'serial'
    >>> with get_backend("thread", workers=2) as backend:
    ...     backend.map_items(len, ["ab", "abc"])
    [2, 3]
    """
    if name is None:
        name = "serial"
    if name == "serial":
        return SerialBackend(workers)
    if name == "thread":
        return ThreadBackend(workers)
    if name in ("pool", "remote"):
        from .remote import (
            DEFAULT_HEARTBEAT_INTERVAL,
            DEFAULT_HEARTBEAT_TIMEOUT,
            RemoteBackend,
        )

        return RemoteBackend(
            workers,
            min_workers=pool_min_workers,
            max_workers=pool_max_workers,
            idle_ttl=pool_idle_ttl,
            target_p99_ms=pool_target_p99_ms,
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
    use this so a ``backend="thread"`` sweep cannot leak idle threads.
    """
    owned = not isinstance(backend, ExecutionBackend)
    resolved = resolve_backend(backend, workers)
    try:
        yield resolved
    finally:
        if owned:
            resolved.close()
