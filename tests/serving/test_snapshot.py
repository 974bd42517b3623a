"""Snapshot persistence: save → load → serve must be byte-identical.

The contract: a snapshot directory saved from a warm (flat) service
restores a service whose first response equals the warm one *without*
recomputing peer rows, a snapshot from another dataset or config is
rejected as stale, a future layout version is rejected, and a snapshot
path that is a regular file — such as one written by the retired
single-file layout — is rejected with a typed error.
The per-shard failure paths live in ``test_snapshot_shards.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.config import RecommenderConfig
from repro.data.groups import random_group
from repro.exceptions import SnapshotError
from repro.serving import RecommendationService
from repro.serving.snapshot import MANIFEST_NAME, shard_file_name
from repro.similarity.base import UserSimilarity

CONFIG = RecommenderConfig(peer_threshold=0.1, top_z=5, top_k=5)


class CountingSimilarity(UserSimilarity):
    """Wraps a measure and counts every score computation."""

    name = "counting"

    def __init__(self, inner: UserSimilarity) -> None:
        self.inner = inner
        self.calls = 0

    def similarity(self, user_a: str, user_b: str) -> float:
        self.calls += 1
        return self.inner.similarity(user_a, user_b)


def _warm_service(dataset, config=CONFIG):
    service = RecommendationService(dataset, config)
    service.warm()
    return service


class TestRoundTrip:
    def test_save_load_serve_is_byte_identical(self, small_dataset, tmp_path):
        path = tmp_path / "index"
        warm = _warm_service(small_dataset)
        groups = [
            random_group(small_dataset.users.ids(), 4, seed=s) for s in range(3)
        ]
        warm_results = [warm.recommend_group(g) for g in groups]
        warm.save_snapshot(path)

        restored = RecommendationService(small_dataset, CONFIG)
        loaded = restored.load_snapshot(path)
        assert loaded == small_dataset.num_users
        for group, warm_result in zip(groups, warm_results):
            fresh = restored.recommend_group(group)
            assert fresh.items == warm_result.items
            assert (
                fresh.candidates.group_relevance
                == warm_result.candidates.group_relevance
            )
            assert fresh.candidates.relevance == warm_result.candidates.relevance

    def test_restored_service_does_not_recompute_similarities(
        self, small_dataset, tmp_path
    ):
        path = tmp_path / "index"
        _warm_service(small_dataset).save_snapshot(path)

        from repro.core.pipeline import build_similarity

        counting = CountingSimilarity(build_similarity(small_dataset, CONFIG))
        restored = RecommendationService(
            small_dataset, CONFIG, similarity=counting
        )
        restored.load_snapshot(path)
        group = random_group(small_dataset.users.ids(), 4, seed=0)
        restored.recommend_group(group)
        assert counting.calls == 0  # peer rows came wholly from the snapshot

    def test_sharded_and_flat_snapshots_interchange(
        self, small_dataset, tmp_path
    ):
        path = tmp_path / "index"
        sharded = RecommendationService(
            small_dataset, CONFIG.with_overrides(index_shards=3)
        )
        sharded.warm()
        sharded.save_snapshot(path)
        flat = RecommendationService(small_dataset, CONFIG)
        assert flat.load_snapshot(path) == small_dataset.num_users
        group = random_group(small_dataset.users.ids(), 4, seed=1)
        assert (
            flat.recommend_group(group).items
            == sharded.recommend_group(group).items
        )


class TestStaleRejection:
    def test_mismatched_config_fingerprint_rejected(
        self, small_dataset, tmp_path
    ):
        path = tmp_path / "index"
        _warm_service(small_dataset).save_snapshot(path)
        stale = RecommendationService(
            small_dataset, CONFIG.with_overrides(peer_threshold=0.4)
        )
        with pytest.raises(SnapshotError, match="stale"):
            stale.load_snapshot(path)

    def test_operational_knobs_do_not_invalidate(self, small_dataset, tmp_path):
        path = tmp_path / "index"
        _warm_service(small_dataset).save_snapshot(path)
        tuned = RecommendationService(
            small_dataset,
            CONFIG.with_overrides(
                exec_backend="thread",
                exec_workers=4,
                index_shards=2,
                similarity_cache_size=10,
            ),
        )
        assert tuned.load_snapshot(path) == small_dataset.num_users

    def test_mismatched_dataset_rejected(self, small_dataset, tmp_path):
        from repro.data.datasets import generate_dataset

        path = tmp_path / "index"
        _warm_service(small_dataset).save_snapshot(path)
        other = generate_dataset(
            num_users=small_dataset.num_users + 5,
            num_items=small_dataset.num_items,
            seed=9,
        )
        with pytest.raises(SnapshotError, match="stale"):
            RecommendationService(other, CONFIG).load_snapshot(path)

    def test_wrong_format_rejected(self, tmp_path, small_dataset):
        """A regular file — here an old single-file snapshot — is not a
        snapshot directory: load and save both raise a typed error
        instead of misreading it or crashing in ``mkdir``."""
        service = _warm_service(small_dataset)
        path = tmp_path / "index.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro.neighbor-index",
                    "version": 1,
                    "fingerprint": service.snapshot_fingerprint(),
                    "rows": {},
                }
            )
        )
        with pytest.raises(SnapshotError, match="regular file"):
            service.load_snapshot(path)
        with pytest.raises(SnapshotError, match="regular file"):
            service.save_snapshot(path)

    def test_wrong_version_rejected(self, tmp_path, small_dataset):
        """A future layout version in the manifest or in a shard file
        fails loudly instead of being read as the current layout."""
        service = _warm_service(small_dataset)
        for name in (MANIFEST_NAME, shard_file_name(0)):
            path = tmp_path / f"index-{name}"
            service.save_snapshot(path)
            payload = json.loads((path / name).read_text())
            payload["version"] = 99
            (path / name).write_text(json.dumps(payload))
            fresh = RecommendationService(small_dataset, CONFIG)
            with pytest.raises(SnapshotError, match="version 99"):
                fresh.load_snapshot(path)

    def test_missing_file_raises_snapshot_error(self, tmp_path, small_dataset):
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="cannot read"):
            service.load_snapshot(tmp_path / "absent")
