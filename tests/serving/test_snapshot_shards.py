"""Per-shard snapshot directories: round trip, incremental save, failure paths.

The satellite contract: every way a per-shard snapshot can be broken —
truncated shard file, corrupt JSON, manifest/shard checksum mismatch,
missing shard file, a partial save that died before the manifest was
updated — raises :class:`SnapshotError` with a message that names the
offending file and tells the operator what to do (re-save from a warm
service), never silently serving partial or stale rows.
"""

from __future__ import annotations

import json

import pytest

from repro.config import RecommenderConfig
from repro.data.datasets import HealthDataset
from repro.data.groups import random_group
from repro.exceptions import SnapshotError
from repro.serving import RecommendationService
from repro.serving import snapshot as snapshot_module
from repro.serving.snapshot import (
    MANIFEST_NAME,
    load_sharded_snapshot,
    save_sharded_snapshot,
    shard_file_name,
)

CONFIG = RecommenderConfig(peer_threshold=0.1, top_k=5, top_z=5, index_shards=3)


def _warm_service(dataset, config=CONFIG):
    service = RecommendationService(dataset, config)
    service.warm()
    return service


@pytest.fixture
def snapshot_dir(mutable_dataset, tmp_path):
    """A warm sharded service and the directory it snapshotted into.

    Built on the per-test dataset copy so the mutation tests cannot
    touch the shared session dataset.
    """
    service = _warm_service(mutable_dataset)
    path = tmp_path / "index-snapshot"
    service.save_snapshot(path)
    return service, path


class TestRoundTrip:
    def test_layout_is_manifest_plus_one_file_per_shard(self, snapshot_dir):
        _, path = snapshot_dir
        names = sorted(entry.name for entry in path.iterdir())
        assert names == [
            MANIFEST_NAME,
            shard_file_name(0),
            shard_file_name(1),
            shard_file_name(2),
        ]

    def test_save_load_serve_is_byte_identical(self, snapshot_dir):
        warm, path = snapshot_dir
        dataset = warm.dataset
        groups = [
            random_group(dataset.users.ids(), 4, seed=s) for s in range(3)
        ]
        warm_results = [warm.recommend_group(g) for g in groups]
        restored = RecommendationService(dataset, CONFIG)
        assert restored.load_snapshot(path) == dataset.num_users
        for group, warm_result in zip(groups, warm_results):
            fresh = restored.recommend_group(group)
            assert fresh.items == warm_result.items
            assert (
                fresh.candidates.group_relevance
                == warm_result.candidates.group_relevance
            )

    def test_flat_and_sharded_services_interchange(
        self, small_dataset, tmp_path
    ):
        path = tmp_path / "flat-snapshot"
        flat = _warm_service(small_dataset, CONFIG.with_overrides(index_shards=1))
        flat.save_snapshot(path)
        assert (path / shard_file_name(0)).exists()
        sharded = RecommendationService(small_dataset, CONFIG)
        # A 1-shard directory loads into a 3-shard index: rows reroute.
        assert sharded.load_snapshot(path) == small_dataset.num_users
        group = random_group(small_dataset.users.ids(), 4, seed=1)
        assert (
            sharded.recommend_group(group).items
            == flat.recommend_group(group).items
        )

    def test_json_suffix_path_is_still_a_directory(
        self, small_dataset, tmp_path
    ):
        """The suffix no longer picks a layout: every snapshot is a
        directory, whatever its name."""
        service = _warm_service(small_dataset)
        path = tmp_path / "snapshot.json"
        service.save_snapshot(path)
        assert (path / MANIFEST_NAME).exists()
        assert RecommendationService(small_dataset, CONFIG).load_snapshot(
            path
        ) == small_dataset.num_users


class TestIncrementalSave:
    def _count_writes(self, monkeypatch):
        written: list[str] = []
        original = snapshot_module.atomic_write

        def counting(path, data):
            written.append(path.name)
            return original(path, data)

        monkeypatch.setattr(snapshot_module, "atomic_write", counting)
        return written

    def test_clean_resave_rewrites_only_the_manifest(
        self, snapshot_dir, monkeypatch
    ):
        service, path = snapshot_dir
        written = self._count_writes(monkeypatch)
        service.save_snapshot(path)
        assert written == [MANIFEST_NAME]

    def test_update_rewrites_only_dirty_shards(
        self, snapshot_dir, mutable_dataset, monkeypatch
    ):
        service, path = snapshot_dir
        user_id = mutable_dataset.users.ids()[0]
        item_id = mutable_dataset.ratings.item_ids()[0]
        service.ingest_rating(user_id, item_id, 5.0)
        written = self._count_writes(monkeypatch)
        service.save_snapshot(path)
        # The touched user's home shard must be rewritten; shards whose
        # rows were untouched by the patch fan-out must not be.
        assert service.index.shard_index(user_id) in {
            int(name[len("shard-") : -len(".json")])
            for name in written
            if name.startswith("shard-")
        }
        assert MANIFEST_NAME in written
        assert len(written) <= 1 + CONFIG.index_shards
        # ...and the incrementally saved directory still loads cleanly.
        restored = RecommendationService(service.dataset, CONFIG)
        assert restored.load_snapshot(path) == service.dataset.num_users

    def test_load_then_save_skips_every_shard(
        self, snapshot_dir, small_dataset, monkeypatch
    ):
        _, path = snapshot_dir
        restored = RecommendationService(small_dataset, CONFIG)
        restored.load_snapshot(path)
        written = self._count_writes(monkeypatch)
        restored.save_snapshot(path)
        assert written == [MANIFEST_NAME]

    def test_missing_shard_file_is_rewritten_despite_clean_flag(
        self, snapshot_dir
    ):
        service, path = snapshot_dir
        (path / shard_file_name(1)).unlink()
        service.save_snapshot(path)  # clean versions, but file is gone
        assert (path / shard_file_name(1)).exists()
        restored = RecommendationService(service.dataset, CONFIG)
        assert restored.load_snapshot(path) == service.dataset.num_users


class TestFailurePaths:
    def test_truncated_shard_file(self, snapshot_dir, small_dataset):
        _, path = snapshot_dir
        shard_path = path / shard_file_name(1)
        shard_path.write_text(shard_path.read_text()[: 40])
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="truncated or corrupt"):
            service.load_snapshot(path)

    def test_corrupt_shard_json(self, snapshot_dir, small_dataset):
        _, path = snapshot_dir
        (path / shard_file_name(2)).write_text("{not json at all")
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="re-save the snapshot"):
            service.load_snapshot(path)

    def test_missing_shard_file(self, snapshot_dir, small_dataset):
        _, path = snapshot_dir
        (path / shard_file_name(0)).unlink()
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="missing"):
            service.load_snapshot(path)

    def test_manifest_shard_checksum_mismatch(self, snapshot_dir, small_dataset):
        _, path = snapshot_dir
        shard_path = path / shard_file_name(1)
        payload = json.loads(shard_path.read_text())
        # Tamper with one score — the manifest checksum must catch it.
        user_id = next(iter(payload["rows"]))
        if payload["rows"][user_id]:
            payload["rows"][user_id][0][1] = 0.123456789
        else:  # pragma: no cover - all rows empty is dataset-dependent
            payload["rows"][user_id] = [["intruder", 0.9]]
        shard_path.write_text(json.dumps(payload))
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="does not match its manifest"):
            service.load_snapshot(path)

    def test_partial_save_crash_is_detected(self, snapshot_dir, mutable_dataset):
        """A save that dies after writing shards but before the manifest
        leaves old-manifest/new-shard state behind — load must refuse."""
        service, path = snapshot_dir
        manifest_before = (path / MANIFEST_NAME).read_text()
        user_id = mutable_dataset.users.ids()[0]
        service.ingest_rating(
            user_id, mutable_dataset.ratings.item_ids()[0], 5.0
        )
        service.save_snapshot(path)  # writes dirty shards + new manifest
        # Simulate the crash: roll the manifest back to the old save.
        (path / MANIFEST_NAME).write_text(manifest_before)
        fresh = RecommendationService(mutable_dataset, CONFIG)
        with pytest.raises(SnapshotError):
            fresh.load_snapshot(path)

    def test_stale_fingerprint_rejected(self, snapshot_dir, small_dataset):
        _, path = snapshot_dir
        stale = RecommendationService(
            small_dataset, CONFIG.with_overrides(peer_threshold=0.4)
        )
        with pytest.raises(SnapshotError, match="stale"):
            stale.load_snapshot(path)

    def test_per_shard_fingerprint_checked(self, snapshot_dir, small_dataset):
        """Even with a matching manifest, a swapped-in shard file built
        under other semantics is rejected by its own fingerprint."""
        service, path = snapshot_dir
        shard_path = path / shard_file_name(0)
        payload = json.loads(shard_path.read_text())
        payload["fingerprint"] = "0123456789abcdef"
        shard_path.write_text(json.dumps(payload))
        fresh = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="stale"):
            fresh.load_snapshot(path)

    def test_not_a_manifest_rejected(self, tmp_path, small_dataset):
        path = tmp_path / "bogus"
        path.mkdir()
        (path / MANIFEST_NAME).write_text('{"format": "something-else"}')
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="not a neighbor-index"):
            service.load_snapshot(path)

    @pytest.mark.parametrize(
        "entry",
        ["shard-0000.json", {"file": 5}, {"file": shard_file_name(1)}],
        ids=["string", "non-string-file", "foreign-file"],
    )
    def test_malformed_shard_entry_rejected(
        self, snapshot_dir, small_dataset, entry
    ):
        """Each manifest shard entry must be an object naming its own
        conventional file; anything else is a typed, named error."""
        _, path = snapshot_dir
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["shards"][0] = entry
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="shard entry 0"):
            service.load_snapshot(path)

    def test_malformed_entry_is_not_carried_into_a_resave(self, snapshot_dir):
        """An incremental save rewrites shards instead of copying a
        malformed manifest entry into the new manifest."""
        service, path = snapshot_dir
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["shards"][1] = "shard-0001.json"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        service.save_snapshot(path)  # every shard is clean
        restored = RecommendationService(service.dataset, CONFIG)
        assert restored.load_snapshot(path) == service.dataset.num_users

    def test_wrong_manifest_version_rejected(self, snapshot_dir, small_dataset):
        _, path = snapshot_dir
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="version"):
            service.load_snapshot(path)

    def test_shard_index_mismatch_rejected(self, snapshot_dir, small_dataset):
        """Shard files renamed/rearranged on disk must not load."""
        _, path = snapshot_dir
        a, b = path / shard_file_name(0), path / shard_file_name(1)
        a_text, b_text = a.read_text(), b.read_text()
        a.write_text(b_text)
        b.write_text(a_text)
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError):
            service.load_snapshot(path)

    def test_direct_loader_requires_manifest(self, tmp_path):
        with pytest.raises(SnapshotError, match="manifest"):
            load_sharded_snapshot(tmp_path / "nothing-here", "fp", "cfp")

    def test_direct_saver_and_loader_round_trip(self, tmp_path):
        from repro.similarity.peers import Peer

        rows = [{"alice": [Peer(user_id="bob", similarity=0.5)]}, {}]
        path = save_sharded_snapshot(rows, tmp_path / "direct", "fp", "cfp")
        loaded = load_sharded_snapshot(path, "fp", "cfp")
        assert loaded == {"alice": [Peer(user_id="bob", similarity=0.5)]}
