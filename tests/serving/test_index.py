"""Unit tests for the precomputed neighbour index."""

from __future__ import annotations

import random

import pytest

import repro.serving.index as index_module
import repro.similarity.ratings_sim as ratings_sim
from repro.config import RecommenderConfig
from repro.data.datasets import generate_dataset
from repro.data.scale import generate_scale_dataset
from repro.serving import RecommendationService
from repro.serving.index import NeighborIndex
from repro.similarity.peers import PeerSelector
from repro.similarity.ratings_sim import PearsonRatingSimilarity

#: The seeds of the backend parity matrix (tests/property).
PARITY_SEEDS = (3, 11, 29)


def _selector_peers(matrix, user_id, threshold, exclude=(), max_peers=None):
    selector = PeerSelector(
        PearsonRatingSimilarity(matrix), threshold=threshold, max_peers=max_peers
    )
    return selector.peers_from_matrix(user_id, matrix, exclude=exclude)


class TestNeighborIndex:
    def test_rows_match_peer_selector(self, tiny_matrix):
        index = NeighborIndex(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), threshold=0.0
        )
        for user_id in tiny_matrix.user_ids():
            assert index.row(user_id) == _selector_peers(
                tiny_matrix, user_id, threshold=0.0
            )

    def test_rows_match_peer_selector_on_synthetic_data(self, small_dataset):
        matrix = small_dataset.ratings
        index = NeighborIndex(
            matrix, PearsonRatingSimilarity(matrix), threshold=0.15
        )
        for user_id in matrix.user_ids()[:10]:
            assert index.row(user_id) == _selector_peers(
                matrix, user_id, threshold=0.15
            )

    def test_exclusion_and_cap_match_peer_selector(self, small_dataset):
        matrix = small_dataset.ratings
        index = NeighborIndex(matrix, PearsonRatingSimilarity(matrix), threshold=0.1)
        users = matrix.user_ids()
        exclude = users[1:4]
        for user_id in users[:6]:
            expected = _selector_peers(
                matrix, user_id, threshold=0.1, exclude=exclude, max_peers=5
            )
            assert (
                index.peers_excluding(user_id, exclude, max_peers=5) == expected
            )

    def test_build_is_idempotent(self, tiny_matrix):
        index = NeighborIndex(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), threshold=0.0
        )
        assert index.build() == tiny_matrix.num_users
        assert index.build() == 0
        assert index.built_rows == tiny_matrix.num_users

    def test_reverse_index_tracks_memberships(self, tiny_matrix):
        index = NeighborIndex(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), threshold=0.0
        )
        index.build()
        for user_id in tiny_matrix.user_ids():
            holders = index.users_with_neighbor(user_id)
            for holder in holders:
                assert user_id in {p.user_id for p in index.row(holder)}

    def test_refresh_user_patches_other_rows(self, mutable_dataset):
        matrix = mutable_dataset.ratings
        similarity = PearsonRatingSimilarity(matrix)
        index = NeighborIndex(matrix, similarity, threshold=0.1)
        index.build()

        target = matrix.user_ids()[0]
        unrated = matrix.unrated_items(target, matrix.item_ids())
        matrix.add(target, unrated[0], 5.0)
        similarity.invalidate_cache()
        index.refresh_user(target)

        # Every row (the rebuilt one and the patched ones) must equal a
        # from-scratch recomputation on the mutated matrix.
        for user_id in matrix.user_ids():
            assert index.row(user_id) == _selector_peers(
                matrix, user_id, threshold=0.1
            ), user_id

    def test_refresh_reports_changed_rows(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        index = NeighborIndex(tiny_matrix, similarity, threshold=0.0)
        index.build()
        tiny_matrix.add("dave", "i1", 5.0)
        tiny_matrix.add("dave", "i2", 4.0)
        similarity.invalidate_cache()
        changed = index.refresh_user("dave")
        assert "dave" in changed
        # dave now co-rates i1/i2 with alice, so alice's row gained him.
        assert "alice" in changed
        assert "dave" in {p.user_id for p in index.row("alice")}

    def test_refreshing_a_user_without_ratings_adds_it_to_no_row(
        self, tiny_matrix
    ):
        """A user without ratings is in no candidate pool, even when its
        zero score meets a zero threshold (a profile-only update)."""
        index = NeighborIndex(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), threshold=0.0
        )
        index.build()
        assert index.refresh_user("zoe") == {"zoe"}
        assert index.users_with_neighbor("zoe") == set()
        for user_id in tiny_matrix.user_ids():
            assert index.row(user_id) == _selector_peers(
                tiny_matrix, user_id, threshold=0.0
            )

    def test_invalidate_user_rebuilds_lazily(self, tiny_matrix):
        index = NeighborIndex(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), threshold=0.0
        )
        index.build()
        index.invalidate_user("alice")
        assert not index.is_built("alice")
        assert index.row("alice") == _selector_peers(
            tiny_matrix, "alice", threshold=0.0
        )


class TestCappedRows:
    """With ``max_peers`` set, rows are exact prefixes of the full row."""

    @pytest.fixture
    def capped(self, small_dataset, monkeypatch):
        monkeypatch.setattr(index_module, "ROW_SLACK", 2)
        matrix = small_dataset.ratings
        return NeighborIndex(
            matrix, PearsonRatingSimilarity(matrix), threshold=0.0, max_peers=3
        )

    def test_rows_are_sorted_prefixes_of_the_full_row(self, capped, small_dataset):
        matrix = small_dataset.ratings
        capped.build()
        stored = truncated = 0
        for user_id in matrix.user_ids():
            full = _selector_peers(matrix, user_id, threshold=0.0)
            row = capped.row(user_id)
            assert row == full[:5]
            stored += len(row)
            truncated += len(full) > 5
        assert capped.stored_peers == stored
        assert capped.truncated_rows == truncated > 0

    def test_exclusions_inside_the_slack_keep_the_prefix(
        self, capped, small_dataset
    ):
        matrix = small_dataset.ratings
        user_id = matrix.user_ids()[0]
        prefix = capped.row(user_id)
        exclude = {peer.user_id for peer in prefix[:2]}
        assert capped.peers_excluding(user_id, exclude, max_peers=3) == (
            _selector_peers(matrix, user_id, 0.0, exclude=exclude, max_peers=3)
        )
        assert capped.row_growths == 0
        assert capped.row(user_id) == prefix

    def test_exclusions_past_the_slack_grow_the_stored_prefix(
        self, capped, small_dataset
    ):
        matrix = small_dataset.ratings
        user_id = matrix.user_ids()[0]
        prefix = capped.row(user_id)
        assert len(prefix) == 5
        exclude = {peer.user_id for peer in prefix[:3]}
        expected = _selector_peers(
            matrix, user_id, 0.0, exclude=exclude, max_peers=3
        )
        stored = {p.user_id for p in capped.row(user_id, exclude)}
        assert stored >= {p.user_id for p in expected}
        assert capped.row_growths == 1
        grown = capped.row(user_id)
        assert grown == _selector_peers(matrix, user_id, 0.0)[:6]
        assert capped.peers_excluding(user_id, exclude, max_peers=3) == expected
        assert capped.row_growths == 1
        # The peers the answer uses are in the stored row, so a write
        # to any of them finds this owner through the reverse index.
        for peer in expected:
            assert user_id in capped.users_with_neighbor(peer.user_id)

    def test_cover_stores_a_row_only_for_exclusions_past_the_slack(
        self, capped, small_dataset
    ):
        """An answer computed elsewhere: a default prefix, stored now or
        later, holds its peers inside the slack; past it, the row is
        built and grown at once."""
        matrix = small_dataset.ratings
        user_id = matrix.user_ids()[0]
        full = _selector_peers(matrix, user_id, 0.0)
        capped.cover(user_id, {peer.user_id for peer in full[:2]})
        assert capped.built_rows == 0
        exclude = {peer.user_id for peer in full[:3]}
        capped.cover(user_id, exclude)
        assert capped.built_rows == capped.row_growths == 1
        used = _selector_peers(matrix, user_id, 0.0, exclude=exclude, max_peers=3)
        for peer in used:
            assert user_id in capped.users_with_neighbor(peer.user_id)

    def test_random_exclusions_match_the_selector(self, capped, small_dataset):
        matrix = small_dataset.ratings
        users = matrix.user_ids()
        rng = random.Random(4)
        for _ in range(60):
            user_id = rng.choice(users)
            # Half the excluded users come from the top of the full row,
            # so exclusions regularly reach past the slack.
            top = _selector_peers(matrix, user_id, 0.0)[: rng.randint(0, 6)]
            exclude = rng.sample(users, rng.randint(0, 5)) + [
                peer.user_id for peer in top
            ]
            assert capped.peers_excluding(user_id, exclude, max_peers=3) == (
                _selector_peers(matrix, user_id, 0.0, exclude=exclude, max_peers=3)
            )
        assert capped.row_growths > 0

    def test_a_capped_index_refuses_a_larger_cap(self, capped, small_dataset):
        user_id = small_dataset.ratings.user_ids()[0]
        assert len(capped.peers_excluding(user_id, (), max_peers=2)) == 2
        for too_many in (4, None):
            with pytest.raises(ValueError, match="max_peers=3"):
                capped.peers_excluding(user_id, (), max_peers=too_many)

    def test_load_rows_cuts_long_rows_to_truncated_prefixes(
        self, capped, small_dataset
    ):
        """Snapshots saved before rows were capped still load."""
        matrix = small_dataset.ratings
        full = NeighborIndex(matrix, PearsonRatingSimilarity(matrix), threshold=0.0)
        full.build()
        rows = full.snapshot_rows()
        users = matrix.user_ids()
        rows[users[0]] = rows[users[0]][:5]  # exactly the cap: truncated
        rows[users[1]] = rows[users[1]][:4]  # shorter: complete
        assert all(len(rows[uid]) > 5 for uid in users[2:])
        assert capped.load_rows(rows) == len(rows)
        assert capped.truncated_rows == len(rows) - 1
        assert capped.stored_peers == 5 * (len(rows) - 1) + 4
        assert capped.row(users[2]) == rows[users[2]][:5]
        assert capped.row(users[1]) == rows[users[1]]
        exclude = {peer.user_id for peer in rows[users[0]][:4]}
        assert capped.peers_excluding(users[0], exclude, max_peers=3) == (
            _selector_peers(matrix, users[0], 0.0, exclude=exclude, max_peers=3)
        )

    def test_a_complete_row_that_outgrows_the_limit_becomes_a_prefix(
        self, tiny_matrix, monkeypatch
    ):
        """Writes never lengthen a row past ``max_peers + ROW_SLACK``."""
        monkeypatch.setattr(index_module, "ROW_SLACK", 1)
        similarity = PearsonRatingSimilarity(tiny_matrix)
        index = NeighborIndex(tiny_matrix, similarity, threshold=0.0, max_peers=1)
        index.build()
        # alice's complete row is [bob, dave]: exactly the limit.
        assert len(index.row("alice")) == 2 and index.truncated_rows == 0
        # eve rates exactly like alice and enters alice's and bob's rows.
        for item_id, value in (("i1", 5.0), ("i2", 4.0), ("i3", 1.0)):
            tiny_matrix.add("eve", item_id, value)
            similarity.invalidate_user("eve")
            index.refresh_user("eve")
        for user_id in tiny_matrix.user_ids():
            row = index.row(user_id)
            assert len(row) <= 2
            assert row == _selector_peers(tiny_matrix, user_id, 0.0)[: len(row)]
        assert [peer.user_id for peer in index.row("alice")] == ["eve", "bob"]
        assert index.truncated_rows > 0
        assert index.stored_peers <= 2 * index.built_rows
        # The cut row is a prefix, so exclusions past it still grow it.
        exclude = {"eve", "bob"}
        assert index.peers_excluding("alice", exclude, max_peers=1) == (
            _selector_peers(tiny_matrix, "alice", 0.0, exclude=exclude, max_peers=1)
        )

    def test_relevance_row_reads_a_one_shot_exclusion_once(
        self, small_dataset, monkeypatch
    ):
        """An exclusion iterator that grows a row still keys and filters."""
        monkeypatch.setattr(index_module, "ROW_SLACK", 2)
        config = RecommenderConfig(max_peers=3, peer_threshold=0.0)
        service = RecommendationService(small_dataset, config)
        reference = RecommendationService(small_dataset, config)
        try:
            user_id = small_dataset.ratings.user_ids()[0]
            exclude = [peer.user_id for peer in service.index.row(user_id)[:3]]
            row = service.relevance_row(user_id, iter(exclude))
            assert service.index.row_growths == 1
            assert row == reference.relevance_row(user_id, exclude)
            assert row != reference.relevance_row(user_id)
        finally:
            service.close()
            reference.close()

    def test_service_stats_report_stored_and_truncated_rows(self, small_dataset):
        capped = RecommendationService(
            small_dataset, RecommenderConfig(max_peers=3, peer_threshold=0.0)
        )
        full = RecommendationService(
            small_dataset, RecommenderConfig(peer_threshold=0.0)
        )
        try:
            for service in (capped, full):
                service.warm()
            capped_stats = capped.stats()["index"]
            full_stats = full.stats()["index"]
        finally:
            capped.close()
            full.close()
        users = small_dataset.ratings.num_users
        assert full_stats["truncated_rows"] == 0
        assert full_stats["stored_peers"] == sum(
            len(row) for row in full.index.snapshot_rows().values()
        )
        limit = 3 + index_module.ROW_SLACK
        assert 0 < capped_stats["truncated_rows"] <= users
        assert capped_stats["stored_peers"] <= limit * users
        assert capped_stats["stored_peers"] < full_stats["stored_peers"]
        assert capped_stats["row_growths"] == full_stats["row_growths"] == 0


def _mutate(rng, matrix, similarity):
    """One random rating write; returns the written user."""
    user_id = rng.choice(matrix.user_ids())
    matrix.add(user_id, rng.choice(matrix.item_ids()), float(rng.randint(1, 5)))
    similarity.invalidate_user(user_id)
    return user_id


class TestRefreshContract:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_uncapped_refresh_reports_what_a_rebuild_changes(self, seed):
        """``refresh_user`` returns the written user plus exactly the
        owners whose row differs from a from-scratch rebuild."""
        matrix = generate_dataset(
            num_users=24, num_items=36, ratings_per_user=10, seed=seed
        ).ratings
        similarity = PearsonRatingSimilarity(matrix)
        index = NeighborIndex(matrix, similarity, threshold=0.1)
        index.build()
        rng = random.Random(seed)
        for _ in range(8):
            before = index.snapshot_rows()
            user_id = _mutate(rng, matrix, similarity)
            changed = index.refresh_user(user_id)
            fresh = NeighborIndex(
                matrix, PearsonRatingSimilarity(matrix), threshold=0.1
            )
            fresh.build()
            after = fresh.snapshot_rows()
            assert index.snapshot_rows() == after
            assert changed == {user_id} | {
                owner for owner in after if after[owner] != before[owner]
            }

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_capped_refresh_covers_every_changed_answer(self, seed, monkeypatch):
        """With a cap, the refreshed set plus the written user's holders
        names every owner whose answer changed or uses the written user."""
        monkeypatch.setattr(index_module, "ROW_SLACK", 1)
        matrix = generate_dataset(
            num_users=24, num_items=36, ratings_per_user=10, seed=seed
        ).ratings
        similarity = PearsonRatingSimilarity(matrix)
        index = NeighborIndex(matrix, similarity, threshold=0.1, max_peers=2)
        rng = random.Random(seed)
        users = matrix.user_ids()
        exclusions = [()] + [
            tuple(rng.sample(users, rng.randint(1, 4))) for _ in range(5)
        ]
        for _ in range(8):
            before = {
                (owner, exclude): index.peers_excluding(owner, exclude, 2)
                for owner in users
                for exclude in exclusions
            }
            user_id = _mutate(rng, matrix, similarity)
            affected = index.refresh_user(user_id) | index.users_with_neighbor(
                user_id
            )
            for (owner, exclude), old in before.items():
                new = index.peers_excluding(owner, exclude, 2)
                assert new == _selector_peers(
                    matrix, owner, 0.1, exclude=exclude, max_peers=2
                )
                uses = any(p.user_id == user_id for p in old + new)
                if new != old or uses:
                    assert owner in affected, (owner, exclude)
        assert index.truncated_rows > 0 and index.row_growths > 0


def test_one_write_sweeps_once_and_visits_only_holders_and_co_raters(
    monkeypatch,
):
    """A write costs one Pearson sweep, not one pair score per built row."""
    dataset = generate_scale_dataset(
        num_users=300, num_items=200, ratings_per_user=20, seed=1
    )
    matrix = dataset.ratings
    service = RecommendationService(dataset, RecommenderConfig(max_peers=10))
    try:
        service.warm()
        user_id = matrix.user_ids()[0]
        item_id = next(
            item for item in matrix.item_ids() if not matrix.has_rating(user_id, item)
        )
        holders = service.index.users_with_neighbor(user_id)
        calls = {"pearson_pair": 0, "pearson_one_vs_many": 0}

        def counted(name):
            kernel = getattr(ratings_sim, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(ratings_sim, name, counted(name))
        visited: list[str] = []
        patch_row = NeighborIndex._patch_row

        def spy(index, owner, *args):
            visited.append(owner)
            return patch_row(index, owner, *args)

        monkeypatch.setattr(NeighborIndex, "_patch_row", spy)
        service.ingest_rating(user_id, item_id, 5.0)
    finally:
        service.close()
    co_raters = {
        other
        for item in matrix.item_ids_of(user_id)
        for other in matrix.user_ids_of(item)
    } - {user_id}
    assert calls["pearson_pair"] == 0
    # A truncated row that loses the user is dropped to rebuild lazily,
    # never recomputed inside the write: the rebuild is the one sweep.
    assert calls["pearson_one_vs_many"] == 1
    assert visited and set(visited) <= holders | co_raters
    assert len(visited) < matrix.num_users - 1


def test_a_pool_build_stores_the_serial_capped_rows(small_dataset, monkeypatch):
    """Build workers cut rows at the parent's limit and report which
    rows they truncated."""
    monkeypatch.setattr(index_module, "ROW_SLACK", 2)
    config = RecommenderConfig(max_peers=3, peer_threshold=0.0)
    serial = RecommendationService(small_dataset, config)
    pooled = RecommendationService(
        small_dataset, config.with_overrides(exec_backend="pool", exec_workers=2)
    )
    try:
        assert serial.warm() == pooled.warm() == small_dataset.ratings.num_users
        assert pooled.index.snapshot_rows() == serial.index.snapshot_rows()
        assert pooled.stats()["index"] == serial.stats()["index"]
        assert 0 < serial.index.truncated_rows
        assert serial.index.stored_peers <= 5 * serial.index.built_rows
    finally:
        serial.close()
        pooled.close()
