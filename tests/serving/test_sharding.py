"""The sharded neighbour index must be indistinguishable from the flat one."""

from __future__ import annotations

import pytest

from repro.core.pipeline import build_similarity
from repro.config import RecommenderConfig
from repro.serving import NeighborIndex, ShardedNeighborIndex, shard_of
from repro.serving import index as index_module

CONFIG = RecommenderConfig(peer_threshold=0.1)


def _indexes(dataset, num_shards=3, max_peers=None):
    similarity = build_similarity(dataset, CONFIG)
    flat = NeighborIndex(
        dataset.ratings,
        similarity,
        threshold=CONFIG.peer_threshold,
        max_peers=max_peers,
    )
    sharded = ShardedNeighborIndex(
        dataset.ratings,
        similarity,
        threshold=CONFIG.peer_threshold,
        num_shards=num_shards,
        max_peers=max_peers,
    )
    return flat, sharded


class TestRouting:
    def test_shard_of_is_deterministic_and_in_range(self):
        for num_shards in (1, 2, 5):
            for uid in ("u0001", "u0002", "someone-else"):
                index = shard_of(uid, num_shards)
                assert 0 <= index < num_shards
                assert index == shard_of(uid, num_shards)

    def test_rows_distribute_across_shards(self, small_dataset):
        _, sharded = _indexes(small_dataset, num_shards=3)
        sharded.build()
        populated = [s for s in sharded.shards if s.built_rows > 0]
        assert len(populated) > 1
        assert sharded.built_rows == small_dataset.num_users

    def test_invalid_shard_count_rejected(self, small_dataset):
        similarity = build_similarity(small_dataset, CONFIG)
        with pytest.raises(ValueError):
            ShardedNeighborIndex(small_dataset.ratings, similarity, num_shards=0)


class TestFlatParity:
    def test_rows_match_flat_index(self, small_dataset):
        flat, sharded = _indexes(small_dataset)
        flat.build()
        sharded.build()
        for uid in small_dataset.users.ids():
            assert sharded.row(uid) == flat.row(uid)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_build_backend_does_not_change_rows(self, small_dataset, backend):
        flat, sharded = _indexes(small_dataset)
        flat.build()
        sharded.build(backend=backend)
        for uid in small_dataset.users.ids():
            assert sharded.row(uid) == flat.row(uid)

    def test_queries_match_flat_index(self, small_dataset):
        flat, sharded = _indexes(small_dataset)
        flat.build()
        sharded.build()
        users = small_dataset.users.ids()
        for uid in users:
            assert sharded.row(uid) == flat.row(uid)
            assert sharded.peers_excluding(
                uid, exclude=users[:2], max_peers=5
            ) == flat.peers_excluding(uid, exclude=users[:2], max_peers=5)
            assert sharded.users_with_neighbor(uid) == flat.users_with_neighbor(
                uid
            )
            assert sharded.is_built(uid)

    def test_refresh_user_matches_flat_index(self, mutable_dataset):
        flat, sharded = _indexes(mutable_dataset)
        flat.build()
        sharded.build()
        uid = mutable_dataset.users.ids()[0]
        unrated = mutable_dataset.ratings.unrated_items(
            uid, mutable_dataset.ratings.item_ids()
        )
        mutable_dataset.ratings.add(uid, unrated[0], 5.0)
        changed_flat = flat.refresh_user(uid)
        changed_sharded = sharded.refresh_user(uid)
        assert changed_sharded == changed_flat
        for user in mutable_dataset.users.ids():
            assert sharded.row(user) == flat.row(user)

    def test_capped_shards_match_the_capped_flat_index(self, mutable_dataset):
        flat, sharded = _indexes(mutable_dataset, max_peers=2)
        flat.build()
        sharded.build()
        users = mutable_dataset.users.ids()
        for uid in users:
            top = [peer.user_id for peer in flat.row(uid)]
            for exclude in ((), users[:3], top):
                assert sharded.peers_excluding(
                    uid, exclude, max_peers=2
                ) == flat.peers_excluding(uid, exclude, max_peers=2)
        for name in ("stored_peers", "truncated_rows", "row_growths"):
            assert getattr(sharded, name) == getattr(flat, name)
        assert flat.truncated_rows > 0 and flat.row_growths > 0
        uid = users[0]
        unrated = mutable_dataset.ratings.unrated_items(
            uid, mutable_dataset.ratings.item_ids()
        )
        mutable_dataset.ratings.add(uid, unrated[0], 5.0)
        flat.similarity.invalidate_user(uid)
        assert sharded.refresh_user(uid) == flat.refresh_user(uid)
        assert sharded.snapshot_rows() == flat.snapshot_rows()

    def test_cover_grows_the_home_shard_row(self, small_dataset, monkeypatch):
        monkeypatch.setattr(index_module, "ROW_SLACK", 1)
        flat, sharded = _indexes(small_dataset, max_peers=2)
        uid = small_dataset.users.ids()[0]
        full = NeighborIndex(
            small_dataset.ratings, flat.similarity, CONFIG.peer_threshold
        ).row(uid)
        assert len(full) > 4
        exclude = {peer.user_id for peer in full[:2]}
        for index in (flat, sharded):
            index.cover(uid, exclude)
        assert sharded.snapshot_rows() == flat.snapshot_rows() == {uid: full[:4]}
        assert sharded.row_growths == flat.row_growths == 1


class TestMaintenance:
    def test_build_shard_builds_only_that_shard(self, small_dataset):
        _, sharded = _indexes(small_dataset)
        built = sharded.build_shard(0)
        assert built == sharded.shards[0].built_rows
        assert all(s.built_rows == 0 for s in sharded.shards[1:])

    def test_invalidate_and_clear(self, small_dataset):
        _, sharded = _indexes(small_dataset)
        sharded.build()
        uid = small_dataset.users.ids()[0]
        sharded.invalidate_user(uid)
        assert not sharded.shard(uid).is_built(uid)
        sharded.clear()
        assert sharded.built_rows == 0

    def test_snapshot_rows_round_trip(self, small_dataset):
        _, sharded = _indexes(small_dataset)
        sharded.build()
        rows = sharded.snapshot_rows()
        restored = ShardedNeighborIndex(
            small_dataset.ratings,
            build_similarity(small_dataset, CONFIG),
            threshold=CONFIG.peer_threshold,
            num_shards=2,  # different shard count: rows reroute
        )
        assert restored.load_rows(rows) == len(rows)
        for uid in small_dataset.users.ids():
            assert restored.row(uid) == sharded.row(uid)
