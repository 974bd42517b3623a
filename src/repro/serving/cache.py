"""Bounded LRU score caches for the serving layer.

The recommendation service keeps its hot state — per-user relevance
rows, finished group answers and pairwise user similarities — in
:class:`ScoreCache`, a thread-safe LRU mapping with hit/miss statistics
so operators can size the caches from observed traffic.

:class:`CachedSimilarity` decorates any
:class:`~repro.similarity.base.UserSimilarity` with a directional
pair-score cache, and the :class:`~repro.serving.index.NeighborIndex`
builds rows through it.  It stores every pair a row build scores, but
the index scores each row once and a write drops every pair of the
written user before any row could re-read them, so in practice it
misses on every lookup (0 hits in 999,000 lookups over a 1,000-user
warm).  ROADMAP.md's "Delete the pair-score cache" item plans its
removal.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping

from ..obs import MetricsRegistry
from ..similarity.base import UserSimilarity

#: Sentinel distinguishing "not cached" from a cached ``None``/0 value.
_MISS = object()


@dataclass
class CacheStats:
    """Counters describing how a :class:`ScoreCache` is performing.

    A plain-value snapshot; the live counts reside in the cache's
    :class:`~repro.obs.MetricsRegistry` (``cache_hits``,
    ``cache_misses``, ``cache_evictions``, ``cache_invalidations``,
    labelled ``cache=<name>``) and this view is rebuilt from them on
    every :attr:`ScoreCache.stats` read.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def requests(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def as_dict(self) -> dict[str, float]:
        """Plain-type view for reports and JSON."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class ScoreCache:
    """A bounded, thread-safe LRU mapping with statistics.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is
        evicted when the bound is exceeded.  Zero *or negative*
        disables caching outright: every lookup misses, nothing is
        stored, and the probe/store paths skip their lock round trips
        entirely (a disabled cache must cost nothing, not thrash the
        eviction loop).
    name:
        Label used in reports and as the ``cache=`` metric label.
    metrics:
        Registry the hit/miss/eviction/invalidation counters live in.
        Defaults to a private registry so standalone caches keep
        per-instance stats; the serving layer passes its own registry
        so cache counters appear in the service's unified view.
    """

    def __init__(
        self,
        capacity: int,
        name: str = "cache",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        # Negative capacities are accepted and mean "disabled", exactly
        # like 0 — a computed size that goes negative must degrade to a
        # bypassed cache, not to an eviction loop that can never drain
        # (``len > capacity`` holds forever when capacity < 0).
        self.capacity = capacity
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._hits = self.metrics.counter("cache_hits", cache=name)
        self._misses = self.metrics.counter("cache_misses", cache=name)
        self._evictions = self.metrics.counter("cache_evictions", cache=name)
        self._invalidations = self.metrics.counter(
            "cache_invalidations", cache=name
        )
        self._epoch = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def epoch(self) -> int:
        """Invalidation epoch — bumped by every invalidate/clear.

        Callers that compute a value outside the lock pass the epoch
        they observed at miss time back into :meth:`put`; the put is
        discarded if an invalidation happened in between.  This closes
        the window where a value computed from *pre-update* data would
        be re-inserted after the update's targeted invalidation and
        then served stale forever.
        """
        with self._lock:
            return self._epoch

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the cache counters, read from the registry."""
        return CacheStats(
            hits=int(self._hits.value),
            misses=int(self._misses.value),
            evictions=int(self._evictions.value),
            invalidations=int(self._invalidations.value),
        )

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it recently used) or ``default``."""
        if self.capacity <= 0:
            self._misses.inc()
            return default
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self._misses.inc()
                return default
            self._entries.move_to_end(key)
            self._hits.inc()
            return value

    def put(self, key: Hashable, value: Any, epoch: int | None = None) -> None:
        """Store a value, evicting the least recently used beyond capacity.

        When ``epoch`` is given the store is skipped if any
        invalidation happened since that epoch was read — see
        :attr:`epoch`.
        """
        if self.capacity <= 0:
            return
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()

    def get_or_compute(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Cached value for ``key``, computing and storing it on a miss.

        The factory runs outside the lock (concurrent misses may
        compute in parallel); the result is only stored if no
        invalidation happened while it was being computed.  A disabled
        cache (capacity <= 0) skips the probe and the store and goes
        straight to the factory.
        """
        if self.capacity <= 0:
            self._misses.inc()
            return factory()
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is not _MISS:
                self._entries.move_to_end(key)
                self._hits.inc()
                return value
            self._misses.inc()
            observed_epoch = self._epoch
        computed = factory()
        self.put(key, computed, epoch=observed_epoch)
        return computed

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            self._epoch += 1
            if key in self._entries:
                del self._entries[key]
                self._invalidations.inc()
                return True
            return False

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        Returns the number of dropped entries.  This is the targeted
        invalidation primitive: after a rating update only the keys
        touching the affected users are scanned out, the rest of the
        cache stays warm.
        """
        with self._lock:
            self._epoch += 1
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            if doomed:
                self._invalidations.inc(len(doomed))
            return len(doomed)

    def clear(self) -> int:
        """Drop everything; returns the number of dropped entries."""
        with self._lock:
            self._epoch += 1
            count = len(self._entries)
            self._entries.clear()
            if count:
                self._invalidations.inc(count)
            return count


class CachedSimilarity(UserSimilarity):
    """Read-through pair-score cache around any similarity measure.

    Pair keys are *directional* — ``(a, b)`` and ``(b, a)`` are cached
    separately.  The measures are mathematically symmetric but not
    bit-symmetric (their accumulation order over co-rated items or
    vector entries depends on the argument order), and the serving
    layer promises results bit-identical to the cold pipeline, which
    always evaluates ``simU(row_owner, candidate)``.  Halving the key
    space is not worth 1-ulp divergences.

    The decorated measure's batched :meth:`similarities` stays batched:
    only the missing candidates are forwarded to the inner measure in
    one call.  The cache only pays off when a pair is scored twice
    before a write drops it, which the neighbour index never does (see
    the module docstring).
    """

    def __init__(self, inner: UserSimilarity, cache: ScoreCache) -> None:
        self.inner = inner
        self.cache = cache
        self.name = f"cached-{inner.name}"

    @staticmethod
    def _key(user_a: str, user_b: str) -> tuple[str, str]:
        return (user_a, user_b)

    def similarity(self, user_a: str, user_b: str) -> float:
        """One pair score, read through the cache (self-pairs are 1.0)."""
        if user_a == user_b:
            return 1.0
        if self.cache.capacity <= 0:
            return self.inner.similarity(user_a, user_b)
        key = self._key(user_a, user_b)
        epoch = self.cache.epoch
        score = self.cache.get(key, _MISS)
        if score is _MISS:
            score = self.inner.similarity(user_a, user_b)
            self.cache.put(key, score, epoch=epoch)
        return score

    def similarities(
        self, user_id: str, candidates: Iterable[str]
    ) -> dict[str, float]:
        """Batched pair scores; only cache misses reach the inner measure.

        A zero-capacity cache is bypassed outright: every probe would
        miss and every put would be dropped, yet at scale the per-pair
        lock/lookup round trips cost as much as the packed kernel
        itself.  The inner batch returns scores in candidate order, so
        the bypass is bit-identical to the probing path.
        """
        candidate_list = [c for c in candidates if c != user_id]
        if self.cache.capacity <= 0:
            return self.inner.similarities(user_id, candidate_list)
        scores: dict[str, float] = {}
        missing: list[str] = []
        epoch = self.cache.epoch
        for candidate in candidate_list:
            cached = self.cache.get(self._key(user_id, candidate), _MISS)
            if cached is _MISS:
                missing.append(candidate)
            else:
                scores[candidate] = cached
        if missing:
            computed = self.inner.similarities(user_id, missing)
            for candidate, score in computed.items():
                self.cache.put(self._key(user_id, candidate), score, epoch=epoch)
            scores.update(computed)
        # Preserve the candidate order of the inner contract.
        return {c: scores[c] for c in candidate_list if c in scores}

    def similarities_toward(
        self,
        user_id: str,
        candidates: Iterable[str],
        forward: Mapping[str, float],
    ) -> dict[str, float]:
        """Scores toward ``user_id``, straight from the inner measure.

        ``forward`` holds this wrapper's scores, which are bit-identical
        to the inner measure's, so a bit-symmetric inner measure answers
        from it without a kernel call.
        """
        return self.inner.similarities_toward(user_id, candidates, forward)

    @property
    def profile_corpus_sensitive(self) -> bool:  # type: ignore[override]
        """Whether one profile edit can shift *every* pair score (TF-IDF)."""
        return self.inner.profile_corpus_sensitive

    def picklable_measure(self) -> UserSimilarity:
        """Ship the wrapped measure — the cache (and its lock) stay home.

        Worker processes recompute instead of reading this cache; the
        scores are bit-identical either way, which is the cache's own
        contract.
        """
        return self.inner.picklable_measure()

    def invalidate_user(self, user_id: str) -> None:
        """Drop every cached pair involving ``user_id`` and inner state."""
        self.cache.invalidate_where(lambda key: user_id in key)
        self.inner.invalidate_user(user_id)

    def invalidate_user_ratings(self, user_id: str) -> None:
        """Ratings-only variant: pairs with ``user_id`` plus inner rating state.

        The pair drops are still needed (rating-based components change
        with the new rating), but profile/semantic inner state survives.
        """
        self.cache.invalidate_where(lambda key: user_id in key)
        self.inner.invalidate_user_ratings(user_id)
