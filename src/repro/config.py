"""Configuration objects shared across the library.

The paper leaves several knobs open (the similarity threshold ``δ``, the
per-user top-``k`` used by the fairness definition, the group top-``z``,
the rating scale, aggregation semantics).  :class:`RecommenderConfig`
gathers them in one immutable dataclass so that the single-user
recommender, the group recommender, the fairness-aware selection and the
MapReduce runner all agree on the same values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from .exceptions import ConfigurationError

#: The rating scale used throughout the paper (Section III.A).
DEFAULT_RATING_SCALE: tuple[float, float] = (1.0, 5.0)

#: Aggregation strategy names accepted by :class:`RecommenderConfig`.
KNOWN_AGGREGATIONS: tuple[str, ...] = (
    "average",
    "minimum",
    "maximum",
    "median",
    "multiplicative",
    "borda",
)

#: Similarity measure names accepted by :class:`RecommenderConfig`.
KNOWN_SIMILARITIES: tuple[str, ...] = (
    "ratings",
    "profile",
    "semantic",
    "hybrid",
)

#: Execution backend names accepted by :class:`RecommenderConfig`
#: (mirrors :data:`repro.exec.BACKEND_NAMES` without importing it —
#: config must stay import-light).
KNOWN_EXEC_BACKENDS: tuple[str, ...] = ("serial", "thread", "pool", "remote")

#: Response-validation modes accepted by :class:`RecommenderConfig`
#: (mirrors :data:`repro.validation.VALIDATION_MODES` without importing
#: it — config must stay import-light).
KNOWN_VALIDATION_MODES: tuple[str, ...] = ("strict", "log", "off")

#: Total-fleet-loss policies of the worker fleet (see
#: :class:`~repro.exec.remote.RemoteBackend`).
KNOWN_DEGRADED_MODES: tuple[str, ...] = ("off", "serial")


def resolve_positive(value: int | None, default: int, name: str) -> int:
    """Resolve an optional per-call override of a positive config value.

    ``None`` means "use the default".  An explicit non-positive value is
    a caller error and raises :class:`ConfigurationError` — silently
    mapping ``0`` to the default (the old ``value or default`` idiom)
    hid bugs where a computed size collapsed to zero.
    """
    if value is None:
        return default
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class RecommenderConfig:
    """Tunable parameters of the fairness-aware group recommender.

    Parameters
    ----------
    peer_threshold:
        The similarity threshold ``δ`` from Definition 1.  A user ``u'``
        is a peer of ``u`` when ``simU(u, u') >= peer_threshold``.
    max_peers:
        Optional cap on the number of peers retained per user (the paper
        keeps every user above the threshold; a cap makes large synthetic
        datasets tractable and is a common practical refinement).
    top_k:
        The per-user ``k`` used both for single-user recommendation lists
        and by the fairness definition ("D is fair to u if D contains at
        least one of u's top-k items", Definition 3).
    top_z:
        The number ``z`` of recommendations returned for the group.
    rating_scale:
        Inclusive ``(low, high)`` bounds of a valid rating.
    aggregation:
        Group aggregation semantics: ``"minimum"`` (least misery / veto)
        or ``"average"`` (majority), plus extension strategies.
    similarity:
        Which similarity measure feeds peer selection: ``"ratings"``
        (Pearson, Eq. 2), ``"profile"`` (TF-IDF cosine, Eq. 3),
        ``"semantic"`` (SNOMED path + harmonic mean, Eq. 4) or
        ``"hybrid"``.
    hybrid_weights:
        Weights of (ratings, profile, semantic) used by the hybrid
        similarity.  They are normalised when used.
    candidate_pool_size:
        ``m`` — the number of candidate items handed to the fairness-aware
        selection stage (Section VI calls this ``m``).
    random_seed:
        Seed used by any stochastic component (dataset generation, tie
        shuffling) so every run is reproducible.
    similarity_cache_size:
        Capacity (in pair scores) of the serving layer's LRU cache for
        pairwise user similarities.  ``0`` disables the cache.
    relevance_cache_size:
        Capacity (in per-user relevance rows) of the serving layer's
        LRU cache.  ``0`` disables the cache.
    group_cache_size:
        Capacity (in finished group recommendations) of the serving
        layer's result cache.  ``0`` disables the cache.
    exec_backend:
        Default execution backend (``"serial"``, ``"thread"``,
        ``"pool"`` or ``"remote"``) used by the compute layers
        (MapReduce engine, index builds, batch serving, eval grids).
        ``"pool"`` and ``"remote"`` are the same worker fleet; the
        latter also accepts ``repro worker`` processes over TCP.  All
        backends produce bit-identical results; this is purely a
        performance knob.
    exec_workers:
        Worker count for the execution backend — for the worker fleet,
        the number of local worker processes; ``0`` selects the number
        of available CPUs.
    pool_min_workers:
        Autoscaling floor of the worker fleet: idle local workers are
        shrunk down to this width.  ``0`` (default) pins the fleet at
        the resolved ``exec_workers`` width (no autoscaling floor of
        its own).
    pool_max_workers:
        Autoscaling ceiling of the worker fleet: it grows toward this
        width when a batch's queue depth exceeds the live worker
        count.  ``0`` (default) pins the ceiling at the
        resolved ``exec_workers`` width — or at ``pool_min_workers``
        when that floor is higher (a lone floor implies a covering
        ceiling, never a contradiction).
    pool_idle_ttl:
        Seconds without a dispatch after which an autoscaling pool
        shrinks back to ``pool_min_workers``.  Only meaningful when
        the bounds leave room to scale.
    pool_target_p99_ms:
        Latency target for the worker fleet's p99-driven autoscaling:
        while the windowed p99 of batch latency breaches this many
        milliseconds the fleet grows toward
        ``pool_max_workers``, shrinking again once p99 recovers below
        half the target.  ``0.0`` (default) disables the policy
        (queue-depth growth and idle-TTL shrinking still apply).
    remote_heartbeat_interval:
        Seconds between a fleet worker's heartbeat beacons.  Must be
        smaller than ``remote_heartbeat_timeout``.  Purely operational
        (excluded from :meth:`fingerprint`).
    remote_heartbeat_timeout:
        Seconds of mid-batch silence after which the fleet's parent
        declares a worker dead and requeues its in-flight tasks onto
        the surviving workers.  Purely operational (excluded from
        :meth:`fingerprint`).
    degraded_mode:
        Total-fleet-loss policy of the worker fleet: ``"off"``
        (default) raises :class:`~repro.exec.remote.FleetLossError`,
        ``"serial"`` falls back to bit-identical in-process serial
        execution (counted as ``pool_degraded_dispatches``; served
        responses carry ``"degraded": true``).  Results never differ —
        purely operational (excluded from :meth:`fingerprint`).
    index_shards:
        Number of shards the serving layer's neighbour index is hash-
        partitioned into.  ``1`` keeps the single flat index; more
        shards let builds and refreshes proceed independently (and in
        parallel under a non-serial backend).
    packed_spill:
        Optional directory the packed CSR arrays are spilled to
        (:meth:`repro.kernels.PackedRatings.save`).  When set, the
        serving layer keeps the spill current and pool workers bootstrap
        by ``mmap``-ing the arrays read-only instead of receiving a full
        state ship.  ``""`` (default) disables spilling.  Purely
        operational (excluded from :meth:`fingerprint`).
    validation:
        Response-shape enforcement at the serving boundary
        (:mod:`repro.validation`): ``"strict"`` checks every served
        answer against the declared shapes and raises
        :class:`~repro.exceptions.ValidationError` on a violation,
        ``"log"`` only counts violations in the metrics registry
        (``validation_failures{shape=...}``), ``"off"`` (default) skips
        the checks.  Validation never changes a valid response, so this
        is operational (excluded from :meth:`fingerprint`).
    """

    peer_threshold: float = 0.2
    max_peers: int | None = None
    top_k: int = 10
    top_z: int = 10
    rating_scale: tuple[float, float] = DEFAULT_RATING_SCALE
    aggregation: str = "average"
    similarity: str = "ratings"
    hybrid_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    candidate_pool_size: int = 30
    random_seed: int = 7
    similarity_cache_size: int = 500_000
    relevance_cache_size: int = 10_000
    group_cache_size: int = 2048
    exec_backend: str = "serial"
    exec_workers: int = 0
    pool_min_workers: int = 0
    pool_max_workers: int = 0
    pool_idle_ttl: float = 30.0
    pool_target_p99_ms: float = 0.0
    remote_heartbeat_interval: float = 2.0
    remote_heartbeat_timeout: float = 10.0
    degraded_mode: str = "off"
    index_shards: int = 1
    packed_spill: str = ""
    validation: str = "off"

    def __post_init__(self) -> None:
        low, high = self.rating_scale
        if low >= high:
            raise ConfigurationError(
                f"rating_scale low bound {low} must be < high bound {high}"
            )
        if not -1.0 <= self.peer_threshold <= 1.0:
            raise ConfigurationError(
                f"peer_threshold must lie in [-1, 1], got {self.peer_threshold}"
            )
        if self.max_peers is not None and self.max_peers <= 0:
            raise ConfigurationError("max_peers must be positive or None")
        if self.top_k <= 0:
            raise ConfigurationError("top_k must be positive")
        if self.top_z <= 0:
            raise ConfigurationError("top_z must be positive")
        if self.candidate_pool_size <= 0:
            raise ConfigurationError("candidate_pool_size must be positive")
        if self.aggregation not in KNOWN_AGGREGATIONS:
            raise ConfigurationError(
                f"unknown aggregation {self.aggregation!r}; "
                f"expected one of {KNOWN_AGGREGATIONS}"
            )
        if self.similarity not in KNOWN_SIMILARITIES:
            raise ConfigurationError(
                f"unknown similarity {self.similarity!r}; "
                f"expected one of {KNOWN_SIMILARITIES}"
            )
        if len(self.hybrid_weights) != 3:
            raise ConfigurationError("hybrid_weights must have three entries")
        if any(w < 0 for w in self.hybrid_weights):
            raise ConfigurationError("hybrid_weights must be non-negative")
        if sum(self.hybrid_weights) == 0:
            raise ConfigurationError("hybrid_weights must not all be zero")
        if self.similarity_cache_size < 0:
            raise ConfigurationError("similarity_cache_size must be >= 0")
        if self.relevance_cache_size < 0:
            raise ConfigurationError("relevance_cache_size must be >= 0")
        if self.group_cache_size < 0:
            raise ConfigurationError("group_cache_size must be >= 0")
        if self.exec_backend not in KNOWN_EXEC_BACKENDS:
            raise ConfigurationError(
                f"unknown exec_backend {self.exec_backend!r}; "
                f"expected one of {KNOWN_EXEC_BACKENDS}"
            )
        if self.exec_workers < 0:
            raise ConfigurationError("exec_workers must be >= 0 (0 = auto)")
        if self.pool_min_workers < 0:
            raise ConfigurationError(
                "pool_min_workers must be >= 0 (0 = exec_workers width)"
            )
        if self.pool_max_workers < 0:
            raise ConfigurationError(
                "pool_max_workers must be >= 0 (0 = exec_workers width)"
            )
        if (
            self.pool_min_workers
            and self.pool_max_workers
            and self.pool_min_workers > self.pool_max_workers
        ):
            raise ConfigurationError(
                f"pool_min_workers ({self.pool_min_workers}) must not "
                f"exceed pool_max_workers ({self.pool_max_workers})"
            )
        if self.pool_idle_ttl <= 0:
            raise ConfigurationError("pool_idle_ttl must be positive")
        if self.pool_target_p99_ms < 0:
            raise ConfigurationError(
                "pool_target_p99_ms must be >= 0 (0 = disabled)"
            )
        if self.remote_heartbeat_interval <= 0:
            raise ConfigurationError(
                "remote_heartbeat_interval must be positive"
            )
        if self.remote_heartbeat_timeout <= self.remote_heartbeat_interval:
            raise ConfigurationError(
                f"remote_heartbeat_timeout "
                f"({self.remote_heartbeat_timeout}) must exceed "
                f"remote_heartbeat_interval "
                f"({self.remote_heartbeat_interval})"
            )
        if self.degraded_mode not in KNOWN_DEGRADED_MODES:
            raise ConfigurationError(
                f"unknown degraded_mode {self.degraded_mode!r}; "
                f"expected one of {KNOWN_DEGRADED_MODES}"
            )
        if self.index_shards <= 0:
            raise ConfigurationError("index_shards must be positive")
        if not isinstance(self.packed_spill, str):
            raise ConfigurationError(
                "packed_spill must be a directory path string ('' = off)"
            )
        if self.validation not in KNOWN_VALIDATION_MODES:
            raise ConfigurationError(
                f"unknown validation mode {self.validation!r}; "
                f"expected one of {KNOWN_VALIDATION_MODES}"
            )

    # -- convenience -----------------------------------------------------

    @property
    def rating_low(self) -> float:
        """Lower bound of the rating scale."""
        return self.rating_scale[0]

    @property
    def rating_high(self) -> float:
        """Upper bound of the rating scale."""
        return self.rating_scale[1]

    def with_overrides(self, **changes: Any) -> "RecommenderConfig":
        """Return a copy with ``changes`` applied (validation re-runs)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Serialise the configuration to plain JSON-friendly types.

        One key per dataclass field; tuple fields become lists.
        """
        payload: dict[str, Any] = {}
        for item in fields(self):
            value = getattr(self, item.name)
            payload[item.name] = list(value) if isinstance(value, tuple) else value
        return payload

    def fingerprint(self) -> str:
        """Stable hash of the *recommendation semantics* of this config.

        Two configs share a fingerprint exactly when they produce the
        same peer rows and recommendations: operational knobs (cache
        sizes, worker counts, backend choice, sharding) are excluded —
        the execution layer never changes results, only wall-clock.
        Used to reject stale index snapshots.
        """
        semantics = {
            "peer_threshold": self.peer_threshold,
            "max_peers": self.max_peers,
            "top_k": self.top_k,
            "top_z": self.top_z,
            "rating_scale": list(self.rating_scale),
            "aggregation": self.aggregation,
            "similarity": self.similarity,
            "hybrid_weights": list(self.hybrid_weights),
            "candidate_pool_size": self.candidate_pool_size,
            "random_seed": self.random_seed,
        }
        canonical = json.dumps(semantics, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RecommenderConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Unknown keys (e.g. a knob a newer or older version saved) raise
        :class:`ConfigurationError` naming them.
        """
        data = dict(payload)
        unknown = sorted(set(data) - {item.name for item in fields(cls)})
        if unknown:
            raise ConfigurationError(
                f"unknown RecommenderConfig key(s) {unknown}; "
                f"expected a subset of the config fields"
            )
        if "rating_scale" in data:
            data["rating_scale"] = tuple(data["rating_scale"])
        if "hybrid_weights" in data:
            data["hybrid_weights"] = tuple(data["hybrid_weights"])
        return cls(**data)


#: Library-wide default configuration.
DEFAULT_CONFIG = RecommenderConfig()
