"""Rating-based user similarity (Section V.A, Equation 2).

The paper's first similarity measure is the Pearson correlation over
co-rated items: "if two users have rated documents in a similar way,
then we can say that they are similar, since they share the same
interests."  This module implements that measure plus two common
alternatives (cosine over raw ratings and Jaccard over rated-item sets)
used by the similarity ablation benchmark.

Pearson runs on the CSR kernels of :mod:`repro.kernels`: integer-
interned ids, sorted-merge intersections, precomputed means and
deviations, an inverted index for candidate overlap counting.  Scores
are bit-identical to the dict-of-dicts oracle in
:mod:`repro.kernels.oracle` (asserted by the kernel parity suite).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from ..data.ratings import RatingMatrix
from ..kernels import get_packed, pearson_one_vs_many, pearson_pair
from .base import UserSimilarity


class PearsonRatingSimilarity(UserSimilarity):
    """``RS(u, u')`` — Pearson correlation over co-rated items (Eq. 2).

    Scores lie in ``[-1, 1]``.  Pairs with fewer than
    ``min_common_items`` co-rated items score 0, as do pairs where one
    user has zero rating variance on the common items (the correlation
    is undefined there).

    Parameters
    ----------
    matrix:
        The rating matrix the measure reads from.
    min_common_items:
        Minimum number of co-rated items for a meaningful score.
    mean_over_common_only:
        Equation 2 centers each user's ratings with ``μ_u`` computed
        over *all* of the user's ratings.  Setting this flag computes the
        mean over the co-rated subset only (the other textbook variant);
        the default follows the paper.
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
        self._packed = None

    def _packed_view(self):
        if self._packed is None:
            self._packed = get_packed(self.matrix)
        return self._packed

    def __getstate__(self) -> dict:
        # The packed view rebuilds lazily on the far side of a process
        # hop (pool workers repack from their own replayed matrix), so
        # the CSR arrays never cross the boundary.
        state = self.__dict__.copy()
        state["_packed"] = None
        return state

    def invalidate_cache(self) -> None:
        """Mark every packed row stale (call after mutating the matrix)."""
        if self._packed is not None:
            self._packed.mark_all_dirty()

    def invalidate_user(self, user_id: str) -> None:
        """Mark one user's packed row stale (after a rating change)."""
        if self._packed is not None:
            self._packed.mark_dirty(user_id)

    def similarity(self, user_a: str, user_b: str) -> float:
        if user_a == user_b:
            return 1.0
        return pearson_pair(
            self._packed_view(),
            user_a,
            user_b,
            self.min_common_items,
            self.mean_over_common_only,
        )

    def similarities(
        self, user_id: str, candidates: Iterable[str]
    ) -> dict[str, float]:
        """Batched ``RS(u, ·)`` against many candidates.

        :func:`repro.kernels.pearson_one_vs_many` — one inverted-index
        walk over interned ints, then sorted-merge scoring of the
        qualifying pairs.  Scores are bit-identical to
        :meth:`similarity`.
        """
        return pearson_one_vs_many(
            self._packed_view(),
            user_id,
            candidates,
            self.min_common_items,
            self.mean_over_common_only,
        )

    def similarities_toward(
        self,
        user_id: str,
        candidates: Iterable[str],
        forward: Mapping[str, float],
    ) -> dict[str, float]:
        """``RS(v, u)`` read off ``u``'s own sweep: Eq. 2 is bit-symmetric.

        Both directions sum the same products over the co-rated items
        in the same interned item order, so ``forward[v]`` equals
        ``similarity(v, u)`` bit for bit (pinned by
        ``tests/property/test_pearson_symmetry.py``).  A candidate the
        sweep did not score falls back to the pair kernel.
        """
        return {
            candidate: (
                forward[candidate]
                if candidate in forward
                else self.similarity(candidate, user_id)
            )
            for candidate in candidates
            if candidate != user_id
        }


class CosineRatingSimilarity(UserSimilarity):
    """Cosine similarity over the users' raw rating vectors.

    Scores lie in ``[0, 1]`` for non-negative rating scales.  Included
    as an ablation alternative to the paper's Pearson choice.  Per-user
    vector norms are cached (they only depend on the user's own row)
    and dropped through the same ``invalidate_user`` hooks Pearson's
    mean cache uses.
    """

    name = "ratings-cosine"

    def __init__(self, matrix: RatingMatrix, min_common_items: int = 1) -> None:
        if min_common_items < 1:
            raise ValueError("min_common_items must be at least 1")
        self.matrix = matrix
        self.min_common_items = min_common_items
        self._norm_cache: dict[str, float] = {}

    def _norm(self, user_id: str) -> float:
        norm = self._norm_cache.get(user_id)
        if norm is None:
            ratings = self.matrix.items_of(user_id)
            norm = math.sqrt(sum(v * v for v in ratings.values()))
            self._norm_cache[user_id] = norm
        return norm

    def invalidate_cache(self) -> None:
        """Drop every cached norm (call after mutating the matrix)."""
        self._norm_cache.clear()

    def invalidate_user(self, user_id: str) -> None:
        """Drop the cached norm of one user (after a rating change)."""
        self._norm_cache.pop(user_id, None)

    def similarity(self, user_a: str, user_b: str) -> float:
        if user_a == user_b:
            return 1.0
        ratings_a = self.matrix.items_of(user_a)
        ratings_b = self.matrix.items_of(user_b)
        common = set(ratings_a) & set(ratings_b)
        if len(common) < self.min_common_items:
            return 0.0
        numerator = sum(ratings_a[i] * ratings_b[i] for i in common)
        norm_a = self._norm(user_a)
        norm_b = self._norm(user_b)
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return numerator / (norm_a * norm_b)


class JaccardRatingSimilarity(UserSimilarity):
    """Jaccard overlap of the rated-item sets (ignores the scores).

    Scores lie in ``[0, 1]``.  A cheap structural baseline used in the
    similarity ablation.
    """

    name = "ratings-jaccard"

    def __init__(self, matrix: RatingMatrix) -> None:
        self.matrix = matrix

    def similarity(self, user_a: str, user_b: str) -> float:
        if user_a == user_b:
            return 1.0
        items_a = self.matrix.item_ids_of(user_a)
        items_b = self.matrix.item_ids_of(user_b)
        union = items_a | items_b
        if not union:
            return 0.0
        return len(items_a & items_b) / len(union)
