"""Unit tests for Equation 1 and the single-user recommender."""

from __future__ import annotations

import random

import pytest

from repro.core.relevance import (
    RANK_HEAP_RATIO,
    ScoredItem,
    SingleUserRecommender,
    predict_relevance,
    rank_items,
)
from repro.similarity.base import PrecomputedSimilarity
from repro.similarity.ratings_sim import PearsonRatingSimilarity


class TestPredictRelevance:
    def test_weighted_average_of_peer_ratings(self):
        peers = {"p1": 1.0, "p2": 0.5}
        ratings = {"p1": 4.0, "p2": 2.0}
        expected = (1.0 * 4.0 + 0.5 * 2.0) / 1.5
        assert predict_relevance(peers, ratings) == pytest.approx(expected)

    def test_peers_without_rating_ignored(self):
        peers = {"p1": 1.0, "p2": 0.5}
        ratings = {"p1": 4.0, "other": 5.0}
        assert predict_relevance(peers, ratings) == pytest.approx(4.0)

    def test_no_overlap_returns_none(self):
        assert predict_relevance({"p1": 1.0}, {"other": 5.0}) is None

    def test_zero_similarity_mass_returns_none(self):
        assert predict_relevance({"p1": 0.0}, {"p1": 5.0}) is None

    def test_single_peer_returns_their_rating(self):
        assert predict_relevance({"p1": 0.7}, {"p1": 3.0}) == pytest.approx(3.0)


class TestRankItems:
    def test_sorted_by_score_then_id(self):
        ranked = rank_items({"b": 2.0, "a": 2.0, "c": 5.0})
        assert [item.item_id for item in ranked] == ["c", "a", "b"]

    def test_k_limits_results(self):
        ranked = rank_items({"a": 1.0, "b": 2.0, "c": 3.0}, k=2)
        assert len(ranked) == 2
        assert ranked[0] == ScoredItem("c", 3.0)

    def test_empty_scores(self):
        assert rank_items({}) == []

    def test_bounded_heap_matches_full_sort_on_ties(self):
        """Regression pin: the small-k bounded-heap path must return the
        exact list the full sort returns, heavy ties included.  The
        table is large enough (k < len // RANK_HEAP_RATIO) to force the
        heap branch, with every score duplicated so the id tie-break
        carries the whole order."""
        rng = random.Random(17)
        scores = {f"item-{i:03d}": float(rng.randint(1, 5)) for i in range(200)}
        for k in (1, 3, 10, 24):
            assert k < len(scores) // RANK_HEAP_RATIO
            heap_ranked = rank_items(scores, k=k)
            full_sorted = sorted(
                scores.items(), key=lambda pair: (-pair[1], pair[0])
            )[:k]
            assert [
                (item.item_id, item.score) for item in heap_ranked
            ] == full_sorted

    def test_heap_and_sort_paths_agree_across_the_threshold(self):
        """Same scores, every k from 0 to the table size: the heap/sort
        branch switch at ``len // RANK_HEAP_RATIO`` must be invisible."""
        rng = random.Random(23)
        scores = {f"i{i}": float(rng.choice([1.0, 2.5, 2.5, 4.0])) for i in range(64)}
        reference = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
        for k in range(len(scores) + 1):
            assert [
                (item.item_id, item.score) for item in rank_items(scores, k=k)
            ] == reference[:k]


class TestSingleUserRecommender:
    def test_relevance_of_rated_item_is_the_rating(self, tiny_matrix):
        recommender = SingleUserRecommender(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix)
        )
        assert recommender.relevance("alice", "i1") == 5.0

    def test_relevance_prediction_uses_equation1(self, tiny_matrix):
        similarity = PrecomputedSimilarity(
            {("alice", "bob"): 1.0, ("alice", "carol"): 0.5, ("alice", "dave"): 0.0}
        )
        recommender = SingleUserRecommender(tiny_matrix, similarity, peer_threshold=0.1)
        # i5 rated by bob (5.0, sim 1.0) and carol (2.0, sim 0.5).
        expected = (1.0 * 5.0 + 0.5 * 2.0) / 1.5
        assert recommender.relevance("alice", "i5") == pytest.approx(expected)

    def test_relevance_none_when_no_peer_rated(self, tiny_matrix):
        similarity = PrecomputedSimilarity({("alice", "bob"): 1.0})
        recommender = SingleUserRecommender(tiny_matrix, similarity, peer_threshold=0.5)
        # i6 is rated only by carol and dave who are not peers of alice.
        assert recommender.relevance("alice", "i6") is None

    def test_default_score_fills_undefined_predictions(self, tiny_matrix):
        similarity = PrecomputedSimilarity({("alice", "bob"): 1.0})
        recommender = SingleUserRecommender(
            tiny_matrix, similarity, peer_threshold=0.5, default_score=3.0
        )
        assert recommender.relevance("alice", "i6") == 3.0
        predictions = recommender.predict_items("alice", ["i5", "i6", "no-such-item"])
        assert predictions["i6"] == 3.0
        assert predictions["no-such-item"] == 3.0

    def test_peer_threshold_excludes_dissimilar_users(self, tiny_matrix):
        recommender = SingleUserRecommender(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), peer_threshold=0.5
        )
        peers = recommender.peers("alice")
        assert "carol" not in {peer.user_id for peer in peers}
        assert "bob" in {peer.user_id for peer in peers}

    def test_exclude_peers_removes_candidates(self, tiny_matrix):
        recommender = SingleUserRecommender(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), peer_threshold=-1.0
        )
        peers = recommender.peers("alice", exclude=["bob"])
        assert "bob" not in {peer.user_id for peer in peers}

    def test_predict_items_keeps_existing_ratings(self, tiny_matrix):
        recommender = SingleUserRecommender(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix)
        )
        predictions = recommender.predict_items("alice", ["i1", "i5", "no-such-item"])
        assert predictions["i1"] == 5.0
        assert "no-such-item" not in predictions

    def test_recommend_excludes_already_rated_items(self, tiny_matrix):
        recommender = SingleUserRecommender(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), peer_threshold=-1.0
        )
        recommendations = recommender.recommend("alice", k=10)
        recommended_ids = {item.item_id for item in recommendations}
        assert recommended_ids.isdisjoint({"i1", "i2", "i3"})

    def test_recommend_respects_k(self, tiny_matrix):
        recommender = SingleUserRecommender(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), peer_threshold=-1.0
        )
        assert len(recommender.recommend("alice", k=1)) <= 1

    def test_recommend_with_explicit_candidates(self, tiny_matrix):
        recommender = SingleUserRecommender(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), peer_threshold=-1.0
        )
        recommendations = recommender.recommend(
            "alice", k=5, candidate_items=["i5", "i1"]
        )
        assert {item.item_id for item in recommendations} <= {"i5"}

    def test_cache_invalidation(self, tiny_matrix):
        recommender = SingleUserRecommender(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), peer_threshold=-1.0
        )
        recommender.predict_items("alice", ["i5", "i6"])
        assert recommender._peer_cache
        recommender.invalidate_cache()
        assert not recommender._peer_cache

    def test_predictions_within_rating_scale(self, tiny_matrix):
        recommender = SingleUserRecommender(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), peer_threshold=0.0
        )
        predictions = recommender.predict_items("alice", ["i5", "i6"])
        for value in predictions.values():
            assert 1.0 <= value <= 5.0
