"""Unit tests for the recommender configuration object."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG, RecommenderConfig
from repro.exceptions import ConfigurationError


class TestValidation:
    def test_defaults_are_valid(self):
        assert DEFAULT_CONFIG.top_k > 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"peer_threshold": 1.5},
            {"peer_threshold": -2.0},
            {"max_peers": 0},
            {"top_k": 0},
            {"top_z": -1},
            {"candidate_pool_size": 0},
            {"rating_scale": (5.0, 1.0)},
            {"aggregation": "nonsense"},
            {"similarity": "nonsense"},
            {"hybrid_weights": (1.0, 1.0)},
            {"hybrid_weights": (-1.0, 1.0, 1.0)},
            {"hybrid_weights": (0.0, 0.0, 0.0)},
            {"similarity_cache_size": -1},
            {"relevance_cache_size": -5},
            {"group_cache_size": -1},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            RecommenderConfig(**overrides)

    def test_valid_extension_aggregations_accepted(self):
        for aggregation in ["median", "maximum", "multiplicative", "borda"]:
            RecommenderConfig(aggregation=aggregation)


class TestConvenience:
    def test_rating_bounds_properties(self):
        config = RecommenderConfig(rating_scale=(0.0, 10.0))
        assert config.rating_low == 0.0
        assert config.rating_high == 10.0

    def test_with_overrides_revalidates(self):
        config = RecommenderConfig()
        updated = config.with_overrides(top_z=20)
        assert updated.top_z == 20
        assert config.top_z != 20  # frozen original untouched
        with pytest.raises(ConfigurationError):
            config.with_overrides(top_z=0)

    def test_roundtrip_through_dict(self):
        config = RecommenderConfig(
            peer_threshold=0.3,
            max_peers=15,
            top_k=7,
            top_z=9,
            aggregation="minimum",
            similarity="hybrid",
            hybrid_weights=(2.0, 1.0, 1.0),
            similarity_cache_size=1000,
            relevance_cache_size=50,
            group_cache_size=10,
        )
        rebuilt = RecommenderConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_serving_defaults(self):
        config = RecommenderConfig()
        assert config.similarity_cache_size > 0
        assert config.relevance_cache_size > 0
        assert config.group_cache_size > 0
        disabled = config.with_overrides(
            similarity_cache_size=0, relevance_cache_size=0, group_cache_size=0
        )
        assert disabled.similarity_cache_size == 0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RecommenderConfig().top_k = 5  # type: ignore[misc]


class TestExecutionConfig:
    """The execution knobs added with repro.exec."""

    def test_defaults(self):
        config = RecommenderConfig()
        assert config.exec_backend == "serial"
        assert config.exec_workers == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"exec_backend": "gpu"},
            {"exec_workers": -1},
            {"exec_backend": "thread"},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            RecommenderConfig(**overrides)

    def test_round_trip_includes_new_fields(self):
        config = RecommenderConfig(exec_backend="pool", exec_workers=4)
        rebuilt = RecommenderConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_from_dict_tolerates_old_payloads(self):
        payload = RecommenderConfig().to_dict()
        for key in ("exec_backend", "exec_workers"):
            payload.pop(key)
        config = RecommenderConfig.from_dict(payload)
        assert config.exec_backend == "serial"
        assert config.exec_workers == 0


class TestFingerprint:
    def test_stable_for_equal_semantics(self):
        assert RecommenderConfig().fingerprint() == RecommenderConfig().fingerprint()

    def test_changes_with_recommendation_semantics(self):
        base = RecommenderConfig()
        assert (
            base.fingerprint()
            != base.with_overrides(peer_threshold=0.5).fingerprint()
        )
        assert (
            base.fingerprint()
            != base.with_overrides(similarity="profile").fingerprint()
        )

    def test_ignores_operational_knobs(self):
        base = RecommenderConfig()
        tuned = base.with_overrides(
            exec_backend="pool",
            exec_workers=8,
            similarity_cache_size=1,
        )
        assert base.fingerprint() == tuned.fingerprint()

    def test_default_fingerprint_is_pinned(self):
        """Snapshots and spills saved by earlier builds stay valid."""
        assert RecommenderConfig().fingerprint() == "1ab80b7709ebe588"


class TestDeletedKnobs:
    """``kernel``, ``packed_scan``, ``packed_topk`` and ``serve_workers``
    are gone: the packed kernels are the only compute path.  So is
    ``index_shards``: the flat neighbour index is the only index.  So
    are the four ``pool_*`` autoscaling knobs: the fleet's width is
    ``exec_workers``."""

    def test_config_has_20_fields(self):
        assert len(RecommenderConfig().to_dict()) == 20

    @pytest.mark.parametrize(
        "key, value",
        [
            ("kernel", "dict"),
            ("packed_scan", False),
            ("packed_topk", False),
            ("serve_workers", 2),
            ("index_shards", 2),
            ("pool_min_workers", 1),
            ("pool_max_workers", 8),
            ("pool_idle_ttl", 30.0),
            ("pool_target_p99_ms", 50.0),
        ],
    )
    def test_from_dict_rejects_a_deleted_knob_by_name(self, key, value):
        payload = RecommenderConfig().to_dict()
        payload[key] = value
        with pytest.raises(ConfigurationError, match=key):
            RecommenderConfig.from_dict(payload)


class TestResolvePositive:
    def test_none_uses_default(self):
        from repro.config import resolve_positive

        assert resolve_positive(None, 7, "z") == 7

    def test_explicit_value_wins(self):
        from repro.config import resolve_positive

        assert resolve_positive(3, 7, "z") == 3

    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_rejected(self, value):
        from repro.config import resolve_positive

        with pytest.raises(ConfigurationError, match="z must be positive"):
            resolve_positive(value, 7, "z")


class TestRemoteConfig:
    """The worker-fleet heartbeat and degraded-mode knobs."""

    def test_defaults(self):
        config = RecommenderConfig()
        assert config.remote_heartbeat_interval == 2.0
        assert config.remote_heartbeat_timeout == 10.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"degraded_mode": "retry"},
            {"remote_heartbeat_interval": 0.0},
            {"remote_heartbeat_interval": -2.0},
            {"remote_heartbeat_timeout": 0.0},
            # timeout must strictly exceed the interval
            {"remote_heartbeat_interval": 5.0, "remote_heartbeat_timeout": 5.0},
            {"remote_heartbeat_interval": 5.0, "remote_heartbeat_timeout": 1.0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            RecommenderConfig(**overrides)

    def test_remote_backend_is_known(self):
        config = RecommenderConfig(exec_backend="remote")
        assert config.exec_backend == "remote"

    def test_round_trip_includes_remote_fields(self):
        config = RecommenderConfig(
            exec_backend="remote",
            remote_heartbeat_interval=0.5,
            remote_heartbeat_timeout=3.0,
            degraded_mode="serial",
        )
        rebuilt = RecommenderConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_from_dict_tolerates_old_payloads(self):
        payload = RecommenderConfig().to_dict()
        for key in (
            "degraded_mode",
            "remote_heartbeat_interval",
            "remote_heartbeat_timeout",
        ):
            payload.pop(key)
        config = RecommenderConfig.from_dict(payload)
        assert config.degraded_mode == "off"
        assert config.remote_heartbeat_timeout == 10.0

    def test_from_dict_rejects_unknown_keys(self):
        """A payload carrying a knob this version lacks (a saved
        ``pool_sync``, say) is a typed error naming the key."""
        payload = RecommenderConfig().to_dict()
        payload["pool_sync"] = "delta"
        with pytest.raises(ConfigurationError, match="pool_sync"):
            RecommenderConfig.from_dict(payload)

    def test_to_dict_covers_every_field(self):
        from dataclasses import fields

        payload = RecommenderConfig().to_dict()
        assert list(payload) == [item.name for item in fields(RecommenderConfig)]
        assert payload["rating_scale"] == [1.0, 5.0]  # tuples become lists

    def test_fingerprint_ignores_remote_knobs(self):
        base = RecommenderConfig()
        tuned = base.with_overrides(
            exec_backend="remote",
            remote_heartbeat_interval=0.5,
            remote_heartbeat_timeout=4.0,
        )
        assert base.fingerprint() == tuned.fingerprint()
