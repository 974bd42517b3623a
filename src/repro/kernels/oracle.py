"""The dict-of-dicts Pearson (Equation 2), kept as the parity oracle.

The packed kernels must match :class:`DictPearsonSimilarity` bit for
bit: both sum each pair's co-rated terms in the matrix's item insertion
order, which is also the packed interning order.  Only tests and
benchmarks import this module.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..data.ratings import RatingMatrix
from ..similarity.base import UserSimilarity


class DictPearsonSimilarity(UserSimilarity):
    """``RS(u, u')`` straight from the string-keyed rating matrix.

    Same parameters and scores as
    :class:`~repro.similarity.ratings_sim.PearsonRatingSimilarity`.
    """

    name = "ratings"

    def __init__(
        self,
        matrix: RatingMatrix,
        min_common_items: int = 2,
        mean_over_common_only: bool = False,
    ) -> None:
        if min_common_items < 1:
            raise ValueError("min_common_items must be at least 1")
        self.matrix = matrix
        self.min_common_items = min_common_items
        self.mean_over_common_only = mean_over_common_only
        self._mean_cache: dict[str, float] = {}
        self._item_rank: dict[str, int] = {}
        self._item_rank_version = -1

    def _mean(self, user_id: str) -> float:
        if user_id not in self._mean_cache:
            self._mean_cache[user_id] = self.matrix.mean_rating(user_id)
        return self._mean_cache[user_id]

    def _canonical_common(
        self, ratings_a: dict[str, float], ratings_b: dict[str, float]
    ) -> list[str]:
        """The co-rated items in canonical (item insertion) order."""
        common = set(ratings_a) & set(ratings_b)
        if len(common) <= 1:
            return list(common)
        version = self.matrix.version
        if self._item_rank_version != version:
            self._item_rank = {
                item_id: rank
                for rank, item_id in enumerate(self.matrix.iter_item_ids())
            }
            self._item_rank_version = version
        return sorted(common, key=self._item_rank.__getitem__)

    def invalidate_cache(self) -> None:
        """Drop every cached mean (call after mutating the matrix)."""
        self._mean_cache.clear()

    def invalidate_user(self, user_id: str) -> None:
        """Drop the cached mean of one user (after a rating change)."""
        self._mean_cache.pop(user_id, None)

    def similarity(self, user_a: str, user_b: str) -> float:
        """``RS(user_a, user_b)`` by Equation 2 over the co-rated items."""
        if user_a == user_b:
            return 1.0
        ratings_a = self.matrix.items_of(user_a)
        ratings_b = self.matrix.items_of(user_b)
        common = self._canonical_common(ratings_a, ratings_b)
        if len(common) < self.min_common_items:
            return 0.0
        if self.mean_over_common_only:
            mean_a = sum(ratings_a[i] for i in common) / len(common)
            mean_b = sum(ratings_b[i] for i in common) / len(common)
        else:
            mean_a = self._mean(user_a)
            mean_b = self._mean(user_b)
        numerator = 0.0
        sum_sq_a = 0.0
        sum_sq_b = 0.0
        for item_id in common:
            deviation_a = ratings_a[item_id] - mean_a
            deviation_b = ratings_b[item_id] - mean_b
            numerator += deviation_a * deviation_b
            sum_sq_a += deviation_a * deviation_a
            sum_sq_b += deviation_b * deviation_b
        denominator = math.sqrt(sum_sq_a) * math.sqrt(sum_sq_b)
        if denominator == 0.0:
            return 0.0
        return numerator / denominator

    def similarities(
        self, user_id: str, candidates: Iterable[str]
    ) -> dict[str, float]:
        """Batched ``RS(u, ·)``: count overlaps, score only the qualifiers."""
        ratings_a = self.matrix.items_of(user_id)
        if not ratings_a:
            # Empty-profile users score 0 against everyone; skip the
            # overlap walk (and its bookkeeping allocations) entirely.
            return {
                candidate: 0.0 for candidate in candidates if candidate != user_id
            }
        scores = {
            candidate: 0.0 for candidate in candidates if candidate != user_id
        }
        if not scores:
            return scores
        overlap: dict[str, int] = {}
        for item_id in ratings_a:
            for user_b in self.matrix.iter_raters(item_id):
                if user_b in scores:
                    overlap[user_b] = overlap.get(user_b, 0) + 1
        for user_b, count in overlap.items():
            if count >= self.min_common_items:
                scores[user_b] = self.similarity(user_id, user_b)
        return scores
