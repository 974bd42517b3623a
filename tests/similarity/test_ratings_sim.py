"""Unit tests for rating-based similarities (RS, Equation 2)."""

from __future__ import annotations

import math

import pytest

from repro.data.ratings import RatingMatrix
from repro.kernels.oracle import DictPearsonSimilarity
from repro.similarity.ratings_sim import (
    CosineRatingSimilarity,
    JaccardRatingSimilarity,
    PearsonRatingSimilarity,
)


def manual_pearson(matrix: RatingMatrix, user_a: str, user_b: str) -> float:
    """Straightforward re-implementation of Equation 2 for cross-checking."""
    ratings_a = matrix.items_of(user_a)
    ratings_b = matrix.items_of(user_b)
    common = sorted(set(ratings_a) & set(ratings_b))
    mean_a = sum(ratings_a.values()) / len(ratings_a)
    mean_b = sum(ratings_b.values()) / len(ratings_b)
    numerator = sum(
        (ratings_a[i] - mean_a) * (ratings_b[i] - mean_b) for i in common
    )
    denominator = math.sqrt(
        sum((ratings_a[i] - mean_a) ** 2 for i in common)
    ) * math.sqrt(sum((ratings_b[i] - mean_b) ** 2 for i in common))
    return numerator / denominator if denominator else 0.0


class TestPearson:
    def test_self_similarity_is_one(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        assert similarity("alice", "alice") == 1.0

    def test_matches_manual_equation2(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        for pair in [("alice", "bob"), ("alice", "carol"), ("bob", "carol")]:
            assert similarity(*pair) == pytest.approx(manual_pearson(tiny_matrix, *pair))

    def test_agreeing_users_are_positive(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        assert similarity("alice", "bob") > 0.5

    def test_disagreeing_users_are_negative(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        assert similarity("alice", "carol") < 0.0

    def test_symmetry(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        assert similarity("alice", "carol") == pytest.approx(
            similarity("carol", "alice")
        )

    def test_too_few_common_items_scores_zero(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix, min_common_items=2)
        # alice and dave share only i3.
        assert similarity("alice", "dave") == 0.0

    def test_min_common_items_one_allows_single_overlap(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix, min_common_items=1)
        # With a single co-rated item the correlation degenerates to ±1
        # (which is exactly why min_common_items defaults to 2).
        assert abs(similarity("alice", "dave")) == pytest.approx(1.0)

    def test_zero_variance_user_scores_zero(self):
        matrix = RatingMatrix(
            [
                ("flat", "i1", 3.0),
                ("flat", "i2", 3.0),
                ("other", "i1", 2.0),
                ("other", "i2", 5.0),
            ]
        )
        assert PearsonRatingSimilarity(matrix)("flat", "other") == 0.0

    def test_unknown_users_score_zero(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        assert similarity("alice", "ghost") == 0.0

    def test_mean_over_common_only_variant(self):
        matrix = RatingMatrix(
            [
                ("a", "i1", 5.0),
                ("a", "i2", 1.0),
                ("a", "i3", 3.0),
                ("b", "i1", 5.0),
                ("b", "i2", 1.0),
                ("b", "i4", 1.0),
            ]
        )
        paper_variant = PearsonRatingSimilarity(matrix)
        common_variant = PearsonRatingSimilarity(matrix, mean_over_common_only=True)
        # Both must agree these users correlate positively, but the exact
        # values differ because the means differ.
        assert paper_variant("a", "b") > 0
        assert common_variant("a", "b") > 0
        assert paper_variant("a", "b") != pytest.approx(common_variant("a", "b"))

    def test_invalid_min_common_items(self, tiny_matrix):
        with pytest.raises(ValueError):
            PearsonRatingSimilarity(tiny_matrix, min_common_items=0)

    def test_cache_invalidation_after_matrix_change(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        before = similarity("alice", "bob")
        tiny_matrix.add("alice", "i5", 1.0)
        similarity.invalidate_cache()
        after = similarity("alice", "bob")
        assert before != pytest.approx(after)

    def test_similarities_batch_excludes_self(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        scores = similarity.similarities("alice", ["alice", "bob", "carol"])
        assert set(scores) == {"bob", "carol"}

    def test_pairwise(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        scores = similarity.pairwise(["alice", "bob", "carol"])
        assert set(scores) == {("alice", "bob"), ("alice", "carol"), ("bob", "carol")}


class TestCosine:
    def test_self_similarity_is_one(self, tiny_matrix):
        assert CosineRatingSimilarity(tiny_matrix)("alice", "alice") == 1.0

    def test_range_is_non_negative(self, tiny_matrix):
        similarity = CosineRatingSimilarity(tiny_matrix)
        for pair in [("alice", "bob"), ("alice", "carol"), ("bob", "dave")]:
            assert similarity(*pair) >= 0.0

    def test_no_common_items_scores_zero(self):
        matrix = RatingMatrix([("a", "i1", 5.0), ("b", "i2", 5.0)])
        assert CosineRatingSimilarity(matrix)("a", "b") == 0.0

    def test_agreement_ranks_higher_than_disagreement(self, tiny_matrix):
        similarity = CosineRatingSimilarity(tiny_matrix)
        assert similarity("alice", "bob") > similarity("alice", "carol")


class TestJaccard:
    def test_self_similarity_is_one(self, tiny_matrix):
        assert JaccardRatingSimilarity(tiny_matrix)("alice", "alice") == 1.0

    def test_exact_value(self, tiny_matrix):
        similarity = JaccardRatingSimilarity(tiny_matrix)
        # alice: {i1,i2,i3}; carol: {i1,i2,i3,i5,i6} → 3/5.
        assert similarity("alice", "carol") == pytest.approx(0.6)

    def test_users_without_ratings_score_zero(self, tiny_matrix):
        assert JaccardRatingSimilarity(tiny_matrix)("ghost1", "ghost2") == 0.0


class TestBatchedPearson:
    def test_batched_matches_pairwise_exactly(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        users = tiny_matrix.user_ids()
        for user_id in users:
            batched = similarity.similarities(user_id, users)
            looped = {
                candidate: similarity.similarity(user_id, candidate)
                for candidate in users
                if candidate != user_id
            }
            assert batched == looped  # bit-identical, not approx

    def test_batched_matches_pairwise_on_synthetic_data(self, small_dataset):
        matrix = small_dataset.ratings
        similarity = PearsonRatingSimilarity(matrix)
        users = matrix.user_ids()
        for user_id in users[:5]:
            batched = similarity.similarities(user_id, users)
            for candidate in users:
                if candidate != user_id:
                    assert batched[candidate] == similarity.similarity(
                        user_id, candidate
                    )

    def test_batched_excludes_self_and_handles_unknown_users(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        scores = similarity.similarities("alice", ["alice", "bob", "ghost"])
        assert "alice" not in scores
        assert scores["ghost"] == 0.0

    def test_batched_for_user_without_ratings(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        scores = similarity.similarities("ghost", ["alice", "bob"])
        assert scores == {"alice": 0.0, "bob": 0.0}

    def test_invalidate_user_drops_only_their_mean(self, tiny_matrix):
        # The mean cache backs the dict oracle; the packed kernel keeps
        # its means in the packed rows instead.
        similarity = DictPearsonSimilarity(tiny_matrix)
        similarity.similarity("alice", "bob")
        assert "alice" in similarity._mean_cache
        similarity.invalidate_user("alice")
        assert "alice" not in similarity._mean_cache
        assert "bob" in similarity._mean_cache


class TestSimilaritiesMany:
    """Batched multi-user rows must match per-user rows on any backend."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "pool"])
    def test_rows_match_pairwise_path(self, tiny_matrix, backend):
        measure = PearsonRatingSimilarity(tiny_matrix)
        users = tiny_matrix.user_ids()
        expected = {
            uid: measure.similarities(uid, users) for uid in users
        }
        assert measure.similarities_many(users, users, backend=backend) == expected


class TestCosineNormCache:
    """Per-user norms are cached and dropped via the invalidate hooks."""

    def test_norms_cached_after_first_use(self, tiny_matrix):
        similarity = CosineRatingSimilarity(tiny_matrix)
        similarity("alice", "bob")
        assert set(similarity._norm_cache) == {"alice", "bob"}

    def test_cached_norm_is_reused_not_recomputed(self, tiny_matrix, monkeypatch):
        similarity = CosineRatingSimilarity(tiny_matrix)
        similarity("alice", "bob")
        calls = []
        original = tiny_matrix.items_of
        monkeypatch.setattr(
            tiny_matrix,
            "items_of",
            lambda uid: calls.append(uid) or original(uid),
        )
        similarity("alice", "bob")
        # The pair re-reads the two rows for the intersection but never
        # re-derives the norms (no third/fourth items_of calls).
        assert calls.count("alice") == 1
        assert calls.count("bob") == 1

    def test_invalidate_user_drops_only_their_norm(self, tiny_matrix):
        similarity = CosineRatingSimilarity(tiny_matrix)
        similarity("alice", "bob")
        similarity.invalidate_user("alice")
        assert "alice" not in similarity._norm_cache
        assert "bob" in similarity._norm_cache

    def test_invalidate_cache_drops_everything(self, tiny_matrix):
        similarity = CosineRatingSimilarity(tiny_matrix)
        similarity("alice", "bob")
        similarity.invalidate_cache()
        assert similarity._norm_cache == {}

    def test_scores_track_mutations_through_invalidation(self, tiny_matrix):
        similarity = CosineRatingSimilarity(tiny_matrix)
        before = similarity("alice", "bob")
        tiny_matrix.add("alice", "i1", 1.0)   # was 5.0
        similarity.invalidate_user("alice")
        after = similarity("alice", "bob")
        assert after != before
        fresh = CosineRatingSimilarity(tiny_matrix)
        assert after == fresh("alice", "bob")

    def test_zero_norm_user_cached_and_scores_zero(self):
        matrix = RatingMatrix(scale=(0.0, 5.0))
        matrix.add("zero", "i1", 0.0)
        matrix.add("other", "i1", 3.0)
        similarity = CosineRatingSimilarity(matrix)
        assert similarity("zero", "other") == 0.0
        assert similarity._norm_cache["zero"] == 0.0
        # The cached 0.0 must be honoured, not mistaken for a miss.
        assert similarity("zero", "other") == 0.0


class TestEmptyProfileFastPath:
    """The batched Pearson path short-circuits empty-profile users."""

    @pytest.mark.parametrize(
        "measure", [DictPearsonSimilarity, PearsonRatingSimilarity]
    )
    def test_empty_user_gets_zero_row_without_overlap_walk(
        self, tiny_matrix, measure
    ):
        similarity = measure(tiny_matrix)
        scores = similarity.similarities("ghost", ["alice", "bob", "ghost"])
        assert scores == {"alice": 0.0, "bob": 0.0}

    def test_dict_path_skips_row_fetch_for_empty_candidates(
        self, tiny_matrix, monkeypatch
    ):
        similarity = DictPearsonSimilarity(tiny_matrix)
        walks = []
        monkeypatch.setattr(
            tiny_matrix,
            "iter_raters",
            lambda item_id: walks.append(item_id) or iter(()),
        )
        assert similarity.similarities("ghost", ["alice"]) == {"alice": 0.0}
        assert similarity.similarities("alice", []) == {}
        assert walks == []  # neither case walked the inverted index


class TestKernelEquivalenceOnFixture:
    """The packed kernel and the dict oracle agree bit-for-bit on the
    shared fixture."""

    @pytest.mark.parametrize("common_mean", [False, True])
    def test_all_pairs_agree(self, tiny_matrix, common_mean):
        dict_measure = DictPearsonSimilarity(
            tiny_matrix, mean_over_common_only=common_mean
        )
        packed_measure = PearsonRatingSimilarity(
            tiny_matrix, mean_over_common_only=common_mean
        )
        users = tiny_matrix.user_ids()
        for user_a in users:
            assert packed_measure.similarities(
                user_a, users
            ) == dict_measure.similarities(user_a, users)
