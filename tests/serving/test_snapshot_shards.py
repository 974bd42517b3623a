"""Snapshot directories: round trip, incremental save, failure paths.

The service writes one shard file; directories with several shard
files (as older builds wrote them) still load, and a re-save rewrites
them as one shard without leaving the old shard files behind.

The failure contract: every way a snapshot directory can be broken —
truncated shard file, corrupt JSON, manifest/shard checksum mismatch,
missing shard file, a partial save that died before the manifest was
updated — raises :class:`SnapshotError` with a message that names the
offending file and tells the operator what to do (re-save from a warm
service), never silently serving partial or stale rows.  The failure
paths run on three-shard directories written by
:func:`save_sharded_snapshot` directly.
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

CONFIG = RecommenderConfig(peer_threshold=0.1, top_k=5, top_z=5)

#: Shard files of the directories the failure paths corrupt.
SHARDS = 3


def _warm_service(dataset, config=CONFIG):
    service = RecommendationService(dataset, config)
    service.warm()
    return service


def _save_in_shards(service, path, rows=None, dirty=None):
    """Write ``rows`` (default: ``service``'s) as :data:`SHARDS` shard
    files, round robin over the sorted user ids."""
    rows = service.index.snapshot_rows() if rows is None else rows
    users = sorted(rows)
    return save_sharded_snapshot(
        [{uid: rows[uid] for uid in users[index::SHARDS]} for index in range(SHARDS)],
        path,
        service.snapshot_fingerprint(),
        service.config.fingerprint(),
        dirty=dirty,
    )


@pytest.fixture
def snapshot_dir(mutable_dataset, tmp_path):
    """A warm service and the directory it snapshotted into.

    Built on the per-test dataset copy so the mutation tests cannot
    touch the shared session dataset.
    """
    service = _warm_service(mutable_dataset)
    path = tmp_path / "index-snapshot"
    service.save_snapshot(path)
    return service, path


@pytest.fixture
def sharded_dir(mutable_dataset, tmp_path):
    """A warm service and a three-shard directory of its rows."""
    service = _warm_service(mutable_dataset)
    path = _save_in_shards(service, tmp_path / "sharded-snapshot")
    return service, path


class TestRoundTrip:
    def test_layout_is_manifest_plus_one_file_per_shard(self, snapshot_dir):
        """The service writes one shard file beside the manifest."""
        _, path = snapshot_dir
        names = sorted(entry.name for entry in path.iterdir())
        assert names == [MANIFEST_NAME, shard_file_name(0)]

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
        # The changed rows are rewritten, then the manifest, last.
        assert written == [shard_file_name(0), MANIFEST_NAME]
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
        (path / shard_file_name(0)).unlink()
        service.save_snapshot(path)  # clean versions, but file is gone
        assert (path / shard_file_name(0)).exists()
        restored = RecommendationService(service.dataset, CONFIG)
        assert restored.load_snapshot(path) == service.dataset.num_users

    def test_resave_of_a_sharded_directory_removes_its_old_shards(
        self, sharded_dir, mutable_dataset
    ):
        """Loading a three-shard directory, writing and saving again
        leaves one shard file: the manifest lists no other."""
        warm, path = sharded_dir
        service = RecommendationService(mutable_dataset, CONFIG)
        assert service.load_snapshot(path) == mutable_dataset.num_users
        user_id = mutable_dataset.users.ids()[0]
        item_id = mutable_dataset.ratings.item_ids()[0]
        service.ingest_rating(user_id, item_id, 5.0)
        service.save_snapshot(path)
        assert sorted(entry.name for entry in path.iterdir()) == [
            MANIFEST_NAME,
            shard_file_name(0),
        ]
        fresh = RecommendationService(mutable_dataset, CONFIG)
        assert fresh.load_snapshot(path) == mutable_dataset.num_users
        for seed in range(3):
            group = random_group(mutable_dataset.users.ids(), 4, seed=seed)
            assert fresh.recommend_group(group).candidates.relevance == (
                service.recommend_group(group).candidates.relevance
            )


class TestFailurePaths:
    def test_truncated_shard_file(self, sharded_dir, small_dataset):
        _, path = sharded_dir
        shard_path = path / shard_file_name(1)
        shard_path.write_text(shard_path.read_text()[: 40])
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="truncated or corrupt"):
            service.load_snapshot(path)

    def test_corrupt_shard_json(self, sharded_dir, small_dataset):
        _, path = sharded_dir
        (path / shard_file_name(2)).write_text("{not json at all")
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="re-save the snapshot"):
            service.load_snapshot(path)

    def test_missing_shard_file(self, sharded_dir, small_dataset):
        _, path = sharded_dir
        (path / shard_file_name(0)).unlink()
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="missing"):
            service.load_snapshot(path)

    def test_manifest_shard_checksum_mismatch(self, sharded_dir, small_dataset):
        _, path = sharded_dir
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

    def test_partial_save_crash_is_detected(self, sharded_dir, small_dataset):
        """A save that dies after writing shards but before the manifest
        leaves old-manifest/new-shard state behind — load must refuse."""
        service, path = sharded_dir
        manifest_before = (path / MANIFEST_NAME).read_text()
        rows = service.index.snapshot_rows()
        user_id = next(uid for uid, row in sorted(rows.items()) if row)
        rows[user_id] = rows[user_id][1:]
        _save_in_shards(service, path, rows)  # new shards + new manifest
        # Simulate the crash: roll the manifest back to the old save.
        (path / MANIFEST_NAME).write_text(manifest_before)
        fresh = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="does not match its manifest"):
            fresh.load_snapshot(path)

    def test_stale_fingerprint_rejected(self, sharded_dir, small_dataset):
        _, path = sharded_dir
        stale = RecommendationService(
            small_dataset, CONFIG.with_overrides(peer_threshold=0.4)
        )
        with pytest.raises(SnapshotError, match="stale"):
            stale.load_snapshot(path)

    def test_per_shard_fingerprint_checked(self, sharded_dir, small_dataset):
        """Even with a matching manifest, a swapped-in shard file built
        under other semantics is rejected by its own fingerprint."""
        service, path = sharded_dir
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
        self, sharded_dir, small_dataset, entry
    ):
        """Each manifest shard entry must be an object naming its own
        conventional file; anything else is a typed, named error."""
        _, path = sharded_dir
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["shards"][0] = entry
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="shard entry 0"):
            service.load_snapshot(path)

    def test_malformed_entry_is_not_carried_into_a_resave(self, sharded_dir):
        """An incremental save rewrites shards instead of copying a
        malformed manifest entry into the new manifest."""
        service, path = sharded_dir
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["shards"][1] = "shard-0001.json"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        _save_in_shards(service, path, dirty=[False] * SHARDS)
        restored = RecommendationService(service.dataset, CONFIG)
        assert restored.load_snapshot(path) == service.dataset.num_users

    def test_wrong_manifest_version_rejected(self, sharded_dir, small_dataset):
        _, path = sharded_dir
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        service = RecommendationService(small_dataset, CONFIG)
        with pytest.raises(SnapshotError, match="version"):
            service.load_snapshot(path)

    def test_shard_index_mismatch_rejected(self, sharded_dir, small_dataset):
        """Shard files renamed/rearranged on disk must not load."""
        _, path = sharded_dir
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
