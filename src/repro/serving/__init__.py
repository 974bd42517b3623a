"""repro.serving — cached, index-backed recommendation serving.

The algorithm core (:mod:`repro.core`) is stateless: every call pays
for peer search and relevance prediction from scratch.  This package
adds the thin, stateful service layer a deployment needs:

* :class:`~repro.serving.cache.ScoreCache` — bounded LRU with hit/miss
  statistics, used for pairwise similarities and per-user relevance
  rows;
* :class:`~repro.serving.index.NeighborIndex` — each user's peer row
  above ``δ`` (a sorted prefix when ``max_peers`` is set), computed
  once and patched on updates;
* :class:`~repro.serving.service.RecommendationService` — warm
  single-user, group and batch request paths with targeted cache
  invalidation on :meth:`ingest_rating` / :meth:`update_profile`;
* :mod:`repro.serving.requests` — the JSONL request model replayed by
  the CLI ``serve`` command and the throughput benchmark;
* :class:`~repro.serving.server.RequestServer` — the async TCP front
  end (``serve --listen``): concurrent JSONL request streams run on
  one event loop, with a bounded backlog and typed overload rejection.

Warm results are bit-identical to the cold pipeline — the serving layer
changes *when* work happens, never *what* is computed.
"""

from .cache import CachedSimilarity, CacheStats, ScoreCache
from .index import NeighborIndex
from .requests import (
    ServeRequest,
    iter_requests,
    load_requests,
    parse_request,
    save_requests,
    synthetic_workload,
)
from .server import OverloadedError, RequestServer
from .service import RecommendationService
from .snapshot import (
    load_sharded_snapshot,
    save_sharded_snapshot,
    snapshot_fingerprint,
)

__all__ = [
    "CacheStats",
    "CachedSimilarity",
    "NeighborIndex",
    "OverloadedError",
    "RecommendationService",
    "RequestServer",
    "ServeRequest",
    "iter_requests",
    "load_requests",
    "load_sharded_snapshot",
    "parse_request",
    "save_requests",
    "save_sharded_snapshot",
    "snapshot_fingerprint",
    "synthetic_workload",
]
