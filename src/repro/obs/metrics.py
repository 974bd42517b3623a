"""Process-wide metrics primitives: counters, gauges, histograms.

Every stat surface in this library (service request counters, cache
hit/miss tallies, pool sync/restart counts, kernel timings) used to
keep its own ad-hoc ints behind its own lock.  :class:`MetricsRegistry`
replaces them with one queryable substrate:

* :class:`Counter` — monotonically increasing float;
* :class:`Gauge` — last-written value;
* :class:`Histogram` — fixed log-spaced buckets with exact ``count`` /
  ``sum`` / ``min`` / ``max`` and deterministic p50/p95/p99 readout
  (nearest-rank over the bucket counts, reported as the containing
  bucket's upper edge clamped to the observed ``[min, max]`` range —
  the same math everywhere a percentile is printed);

all addressable by ``(name, labels)`` and all cheap enough for hot
paths.  A process-wide default registry (:func:`get_registry`) serves
module-level instrumentation (kernel timings, repack counts); services
and backends own child registries so their stats stay per-instance.

Two protocol features make the registry distribution-ready:

* :meth:`MetricsRegistry.drain_delta` returns the compact increments
  since the previous drain (and resets the baseline) — pool workers
  piggyback exactly this payload on their result messages, so
  worker-side timings reach the parent with **zero extra round-trips**;
* :meth:`MetricsRegistry.merge_delta` folds such a payload into another
  registry, optionally tagging every metric with extra labels (the pool
  adds ``worker="N"``).

Instrumentation is near-zero cost when disabled: :func:`set_enabled`
flips one module-level flag that every record path checks first —
disabled, a counter bump is a single attribute load and compare.
Histograms accept an injectable ``clock`` and an optional sliding
window (``window_s``) whose :meth:`Histogram.windowed_quantile` is what
the request server's ``retry_after_ms`` hint reads, so the hint tracks
recent latency: old observations age out of the window instead of
pinning the percentile forever.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Callable, Iterable, Iterator, Mapping

import time

#: Default histogram bucket upper bounds, in milliseconds — log-spaced
#: from sub-millisecond cache hits to multi-second cold builds.  An
#: implicit overflow bucket catches everything beyond the last bound.
DEFAULT_BUCKETS_MS: tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
    30000.0,
)

#: Completed spans retained per registry for introspection (a ring, not
#: a log — observability state must stay bounded).
SPAN_RING_SIZE = 256

#: Sub-intervals a windowed histogram rotates through; the effective
#: resolution of "observations older than the window age out".
_WINDOW_SLICES = 4

_ENABLED: bool = True


def set_enabled(enabled: bool) -> bool:
    """Globally enable/disable instrumentation; returns the old value.

    Disabling makes every record path (counter bumps, histogram
    observations, spans) an early return.  Reads still work — they
    simply stop moving.  The overhead benchmark uses this flag for its
    bare-vs-instrumented comparison.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def is_enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _ENABLED


LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any] | None) -> LabelsKey:
    """Canonical, hashable form of a labels mapping (sorted pairs)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value (requests served, bytes sent)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelsKey, lock: threading.RLock) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (no-op while instrumentation is disabled)."""
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def _apply(self, amount: float) -> None:
        """Merge-path increment: bypasses the enabled check so a drained
        worker delta is never silently dropped mid-merge."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current cumulative value."""
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins value (live worker count, resident epoch)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelsKey, lock: threading.RLock) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Record the current value (no-op while disabled)."""
        if not _ENABLED:
            return
        with self._lock:
            self._value = float(value)

    def _apply(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """The most recently set value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket latency histogram with deterministic percentiles.

    Observations land in log-spaced buckets (``bounds`` are upper
    edges; one implicit overflow bucket).  Alongside the buckets the
    histogram keeps exact ``count``/``sum``/``min``/``max``, so means
    are exact and percentiles are tight: :meth:`quantile` runs a
    nearest-rank scan over the bucket counts and reports the containing
    bucket's upper edge **clamped to the observed [min, max]** — the
    one percentile rule every reporting surface shares.

    With ``window_s`` set the histogram additionally maintains a
    sliding window (rotated in ``window_s / 4`` slices against the
    injectable ``clock``); :meth:`windowed_quantile` then answers "p50
    over roughly the last ``window_s`` seconds", which is what the
    request server's ``retry_after_ms`` hint reads — cumulative
    percentiles can never recover after a spike.
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_pmin",
        "_pmax",
        "_lock",
        "_window_s",
        "_clock",
        "_slices",
    )

    def __init__(
        self,
        name: str,
        labels: LabelsKey,
        lock: threading.RLock,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS_MS,
        window_s: float | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(bounds))
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # Per-drain-period extrema, reset by MetricsRegistry.drain_delta
        # so a worker's delta carries the min/max of what it observed.
        self._pmin = math.inf
        self._pmax = -math.inf
        self._lock = lock
        self._window_s = window_s
        self._clock = clock or time.monotonic
        # Sliding window: deque of [slice_index, counts-list] pairs,
        # newest last; a slice covers window_s / _WINDOW_SLICES seconds.
        self._slices: deque[list[Any]] | None = (
            deque() if window_s is not None else None
        )

    def _bucket_of(self, value: float) -> int:
        low, high = 0, len(self.bounds)
        while low < high:
            mid = (low + high) // 2
            if value <= self.bounds[mid]:
                high = mid
            else:
                low = mid + 1
        return low

    def observe(self, value: float) -> None:
        """Record one observation (no-op while disabled)."""
        if not _ENABLED:
            return
        self._observe(value)

    def _observe(self, value: float) -> None:
        bucket = self._bucket_of(value)
        with self._lock:
            self._counts[bucket] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value < self._pmin:
                self._pmin = value
            if value > self._pmax:
                self._pmax = value
            if self._slices is not None:
                self._rotate_window()
                self._slices[-1][1][bucket] += 1

    def _rotate_window(self) -> None:
        """Drop expired slices, open the current one (under the lock)."""
        assert self._slices is not None and self._window_s is not None
        slice_width = self._window_s / _WINDOW_SLICES
        current = int(self._clock() / slice_width)
        while self._slices and self._slices[0][0] <= current - _WINDOW_SLICES:
            self._slices.popleft()
        if not self._slices or self._slices[-1][0] != current:
            self._slices.append([current, [0] * (len(self.bounds) + 1)])

    # -- readout -------------------------------------------------------------

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all observed values."""
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        """Exact mean (0.0 when empty)."""
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observed value (0.0 when empty)."""
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest observed value (0.0 when empty)."""
        with self._lock:
            return self._max if self._count else 0.0

    def bucket_counts(self) -> list[int]:
        """A copy of the per-bucket counts (overflow bucket last)."""
        with self._lock:
            return list(self._counts)

    @staticmethod
    def _quantile_over(
        bounds: tuple[float, ...],
        counts: list[int],
        count: int,
        lo: float,
        hi: float,
        q: float,
    ) -> float:
        rank = max(1, math.ceil(q * count))
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank:
                upper = bounds[index] if index < len(bounds) else hi
                return min(max(upper, lo), hi)
        return hi  # pragma: no cover - counts always sum to count

    def quantile(self, q: float) -> float | None:
        """Deterministic percentile over all observations (None if empty).

        Nearest-rank over the cumulative bucket counts; the result is
        the containing bucket's upper edge clamped into the exact
        observed ``[min, max]`` — so single-observation histograms (and
        any percentile landing in the overflow bucket) report exact
        values.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile q must lie in (0, 1]")
        with self._lock:
            if self._count == 0:
                return None
            return self._quantile_over(
                self.bounds, self._counts, self._count, self._min, self._max, q
            )

    def windowed_quantile(self, q: float) -> float | None:
        """Percentile over the sliding window only (None if empty/unset).

        Requires ``window_s``; observations older than the window have
        aged out, so a latency spike stops dominating once traffic
        recovers.  Clamping uses the cumulative min/max (per-slice
        extrema are not tracked) — an upper-edge approximation that
        only ever *tightens* the reported value.
        """
        if self._slices is None:
            return None
        with self._lock:
            self._rotate_window()
            merged = [0] * (len(self.bounds) + 1)
            for _, counts in self._slices:
                for index, bucket_count in enumerate(counts):
                    merged[index] += bucket_count
            total = sum(merged)
            if total == 0:
                return None
            return self._quantile_over(
                self.bounds, merged, total, self._min, self._max, q
            )

    def as_dict(self) -> dict[str, float]:
        """Plain-type summary (count/sum/mean/min/max/p50/p95/p99)."""
        with self._lock:
            if self._count == 0:
                return {
                    "count": 0,
                    "sum": 0.0,
                    "mean": 0.0,
                    "min": 0.0,
                    "max": 0.0,
                    "p50": 0.0,
                    "p95": 0.0,
                    "p99": 0.0,
                }
            quantile = lambda q: self._quantile_over(  # noqa: E731
                self.bounds, self._counts, self._count, self._min, self._max, q
            )
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count,
                "min": self._min,
                "max": self._max,
                "p50": quantile(0.50),
                "p95": quantile(0.95),
                "p99": quantile(0.99),
            }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Metrics are created on first touch and addressed by
    ``(name, labels)``; a name is permanently bound to one metric kind
    (mixing kinds under one name raises :class:`ValueError`).  The
    registry also keeps a bounded ring of recently completed trace
    spans (:meth:`record_span` / :attr:`spans`).

    One registry per *stats domain*: the process-wide default
    (:func:`get_registry`) for module-level instrumentation, one per
    :class:`~repro.serving.RecommendationService` and one per
    :class:`~repro.exec.PoolBackend` so their stat views stay
    per-instance.  The CLI hands every layer the same registry, which
    is what makes ``repro serve --metrics`` one coherent dump.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[tuple[str, LabelsKey], Any] = {}
        self._kinds: dict[str, str] = {}
        # drain_delta baselines: counters/gauges store the last-drained
        # value, histograms the last-drained (counts, sum, count).
        self._counter_base: dict[tuple[str, LabelsKey], float] = {}
        self._gauge_base: dict[tuple[str, LabelsKey], float] = {}
        self._hist_base: dict[tuple[str, LabelsKey], tuple[list[int], float, int]] = {}
        self._spans: deque[Any] = deque(maxlen=SPAN_RING_SIZE)

    # -- creation / lookup ---------------------------------------------------

    def _get(self, kind: str, name: str, labels: LabelsKey, factory: Callable[[], Any]) -> Any:
        with self._lock:
            bound = self._kinds.setdefault(name, kind)
            if bound != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {bound}, "
                    f"cannot re-register as a {kind}"
                )
            key = (name, labels)
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get-or-create the counter ``name`` with ``labels``."""
        key = _labels_key(labels)
        return self._get(
            "counter", name, key, lambda: Counter(name, key, self._lock)
        )

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get-or-create the gauge ``name`` with ``labels``."""
        key = _labels_key(labels)
        return self._get("gauge", name, key, lambda: Gauge(name, key, self._lock))

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS_MS,
        window_s: float | None = None,
        clock: Callable[[], float] | None = None,
        **labels: Any,
    ) -> Histogram:
        """Get-or-create the histogram ``name`` with ``labels``.

        ``bounds``/``window_s``/``clock`` only apply on first creation;
        later lookups return the existing instance unchanged.
        """
        key = _labels_key(labels)
        return self._get(
            "histogram",
            name,
            key,
            lambda: Histogram(name, key, self._lock, bounds, window_s, clock),
        )

    # -- convenience record paths --------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Increment a counter (created on first touch)."""
        if not _ENABLED:
            return
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge (created on first touch)."""
        if not _ENABLED:
            return
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Observe into a histogram (created on first touch)."""
        if not _ENABLED:
            return
        self.histogram(name, **labels).observe(value)

    # -- queries -------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """The exact counter/gauge value for ``(name, labels)`` (0 if absent)."""
        with self._lock:
            metric = self._metrics.get((name, _labels_key(labels)))
        if metric is None or isinstance(metric, Histogram):
            return 0.0
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across **all** label sets (0 if absent).

        For histograms this is the total observation count — the
        aggregate a stats view wants when worker-merged label sets
        (``worker="0"``, ``worker="1"`` …) sit beside the parent's own.
        """
        total = 0.0
        with self._lock:
            entries = [
                metric
                for (metric_name, _), metric in self._metrics.items()
                if metric_name == name
            ]
        for metric in entries:
            total += metric.count if isinstance(metric, Histogram) else metric.value
        return total

    def merged_histogram(
        self, name: str, exclude_labels: tuple[str, ...] = ()
    ) -> Histogram | None:
        """One histogram merging every label set of ``name`` (or None).

        Bucket counts, count, sum, min and max are combined; quantiles
        over the result answer "across all workers / kinds".  Label sets
        carrying any key in ``exclude_labels`` are skipped — e.g.
        ``exclude_labels=("worker",)`` keeps a parent-side request
        distribution from double-counting the merged worker deltas.
        """
        with self._lock:
            parts = [
                metric
                for (metric_name, labels), metric in self._metrics.items()
                if metric_name == name
                and isinstance(metric, Histogram)
                and not any(key in exclude_labels for key, _ in labels)
            ]
        if not parts:
            return None
        merged = Histogram(name, (), threading.RLock(), parts[0].bounds)
        for part in parts:
            with part._lock:
                if part.bounds != merged.bounds:  # pragma: no cover - defensive
                    continue
                for index, bucket_count in enumerate(part._counts):
                    merged._counts[index] += bucket_count
                merged._count += part._count
                merged._sum += part._sum
                merged._min = min(merged._min, part._min)
                merged._max = max(merged._max, part._max)
        return merged

    def metrics(self) -> Iterator[tuple[str, LabelsKey, Any]]:
        """Every registered metric as ``(name, labels, metric)``, sorted."""
        with self._lock:
            entries = sorted(self._metrics.items())
        for (name, labels), metric in entries:
            yield name, labels, metric

    def kind_of(self, name: str) -> str | None:
        """The metric kind bound to ``name`` (None if never registered)."""
        with self._lock:
            return self._kinds.get(name)

    def snapshot(self) -> dict[str, Any]:
        """Plain-type view of every metric, JSON-serialisable.

        Shape: ``{name: [{"labels": {...}, ...payload...}, ...]}`` with
        counter/gauge payloads ``{"value": v}`` and histogram payloads
        :meth:`Histogram.as_dict`.
        """
        out: dict[str, Any] = {}
        for name, labels, metric in self.metrics():
            payload: dict[str, Any] = {"labels": dict(labels)}
            if isinstance(metric, Histogram):
                payload.update(metric.as_dict())
            else:
                payload["value"] = metric.value
            out.setdefault(name, []).append(payload)
        return out

    # -- spans ---------------------------------------------------------------

    def record_span(self, record: Any) -> None:
        """Append one completed span to the bounded ring."""
        with self._lock:
            self._spans.append(record)

    @property
    def spans(self) -> list[Any]:
        """The retained recent spans, oldest first."""
        with self._lock:
            return list(self._spans)

    # -- delta sync (worker piggyback) ---------------------------------------

    def drain_delta(self) -> dict[str, list[tuple]] | None:
        """Increments since the previous drain; resets the baseline.

        Returns ``None`` when nothing moved (the common steady-state
        answer, so piggybacked messages stay small).  Payload shape::

            {"counters":   [(name, labels, increment), ...],
             "gauges":     [(name, labels, value), ...],
             "histograms": [(name, labels, bounds, bucket_deltas,
                             sum_delta, count_delta, period_min,
                             period_max), ...]}

        Everything inside is plain picklable data — this is the packet
        pool workers attach to result messages.
        """
        counters: list[tuple] = []
        gauges: list[tuple] = []
        histograms: list[tuple] = []
        with self._lock:
            for (name, labels), metric in self._metrics.items():
                key = (name, labels)
                if isinstance(metric, Counter):
                    base = self._counter_base.get(key, 0.0)
                    if metric._value != base:
                        counters.append((name, labels, metric._value - base))
                        self._counter_base[key] = metric._value
                elif isinstance(metric, Gauge):
                    base = self._gauge_base.get(key)
                    if metric._value != base:
                        gauges.append((name, labels, metric._value))
                        self._gauge_base[key] = metric._value
                else:
                    base_counts, base_sum, base_count = self._hist_base.get(
                        key, ([0] * len(metric._counts), 0.0, 0)
                    )
                    if metric._count != base_count:
                        deltas = [
                            now - before
                            for now, before in zip(metric._counts, base_counts)
                        ]
                        histograms.append(
                            (
                                name,
                                labels,
                                metric.bounds,
                                deltas,
                                metric._sum - base_sum,
                                metric._count - base_count,
                                metric._pmin,
                                metric._pmax,
                            )
                        )
                        self._hist_base[key] = (
                            list(metric._counts),
                            metric._sum,
                            metric._count,
                        )
                        metric._pmin = math.inf
                        metric._pmax = -math.inf
        if not counters and not gauges and not histograms:
            return None
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge_delta(
        self,
        delta: Mapping[str, Iterable[tuple]] | None,
        extra_labels: Mapping[str, Any] | None = None,
    ) -> None:
        """Fold a :meth:`drain_delta` payload into this registry.

        ``extra_labels`` are appended to every merged metric's labels —
        the pool backend tags worker deltas with ``worker="N"`` so
        per-worker counters stay distinguishable while
        :meth:`total` / :meth:`merged_histogram` still aggregate them.
        Merging bypasses the global enabled flag: a drained delta is
        data in flight, not new instrumentation.
        """
        if not delta:
            return
        extra = dict(extra_labels or {})
        for name, labels, amount in delta.get("counters", ()):
            self.counter(name, **dict(labels), **extra)._apply(amount)
        for name, labels, value in delta.get("gauges", ()):
            self.gauge(name, **dict(labels), **extra)._apply(value)
        for entry in delta.get("histograms", ()):
            name, labels, bounds, deltas, sum_delta, count_delta, pmin, pmax = entry
            histogram = self.histogram(
                name, bounds=tuple(bounds), **dict(labels), **extra
            )
            with histogram._lock:
                if histogram.bounds != tuple(bounds):  # pragma: no cover
                    continue
                for index, bucket_delta in enumerate(deltas):
                    histogram._counts[index] += bucket_delta
                histogram._count += count_delta
                histogram._sum += sum_delta
                if pmin < histogram._min:
                    histogram._min = pmin
                if pmax > histogram._max:
                    histogram._max = pmax
                if pmin < histogram._pmin:
                    histogram._pmin = pmin
                if pmax > histogram._pmax:
                    histogram._pmax = pmax


# -- the process-wide default registry ---------------------------------------

_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry.

    Module-level instrumentation (kernel timings, packed repack counts)
    records here; in a forked pool worker the fork-copied instance *is*
    the worker's child registry, baselined by an initial drain so only
    worker-side increments travel back to the parent.
    """
    return _GLOBAL_REGISTRY


def reset_registry() -> MetricsRegistry:
    """Install (and return) a fresh process-wide registry.

    Used by CLI entry points and tests so one invocation's metrics
    never bleed into the next within the same process.
    """
    global _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = MetricsRegistry()
    return _GLOBAL_REGISTRY
