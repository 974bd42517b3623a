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
import weakref
from typing import Iterable

from ..data.ratings import RatingMatrix
from ..kernels import (
    PackedRatings,
    SpillError,
    get_packed,
    pearson_one_vs_many,
    pearson_pair,
)
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
        # Per-shard sub-views: children created by with_private_packed()
        # own a *private* PackedRatings (their own dirty set and repack
        # lock), held weakly here so invalidations fan out for exactly
        # as long as a shard holds its measure alive.
        self._children: "weakref.WeakSet[PearsonRatingSimilarity]" = (
            weakref.WeakSet()
        )
        self._private_packed = False
        self._parent: "weakref.ref[PearsonRatingSimilarity] | None" = None

    def _packed_view(self):
        if self._packed is None:
            if self._private_packed:
                self._packed = self._open_private_view()
            else:
                self._packed = get_packed(self.matrix)
        return self._packed

    def _open_private_view(self) -> PackedRatings:
        """A packed view owned by this measure alone (see with_private_packed).

        When the shared view the parent reads is mmap-backed, the
        private view maps the *same* spill — the operating system
        shares the pages, so per-shard views at scale cost interning
        tables, not CSR copies.  Otherwise (or when the spill has gone
        stale) the row data is packed privately from the matrix.
        """
        parent = self._parent() if self._parent is not None else None
        shared = parent._packed if parent is not None else None
        if shared is not None and shared.spill_backed and shared._spill_dir:
            try:
                return PackedRatings.open_mmap(shared._spill_dir, self.matrix)
            except (SpillError, OSError):
                pass
        return PackedRatings(self.matrix)

    def with_private_packed(self) -> "PearsonRatingSimilarity":
        """A clone of this measure holding its own packed view.

        :class:`~repro.serving.sharding.ShardedNeighborIndex` gives each
        shard one so parallel shard builds never serialise on a single
        repack lock, and a dirty mark from one shard's home user does
        not force every other shard through a repack check.

        The parent keeps a weak reference to every child and forwards
        :meth:`invalidate_user` / :meth:`invalidate_cache` marks, so
        the serving layer keeps invalidating only the measure it holds.
        Scores are bit-identical: private views pack from the same
        matrix in the same canonical order.
        """
        clone = PearsonRatingSimilarity(
            self.matrix,
            min_common_items=self.min_common_items,
            mean_over_common_only=self.mean_over_common_only,
        )
        clone._private_packed = True
        clone._parent = weakref.ref(self)
        self._children.add(clone)
        return clone

    def __getstate__(self) -> dict:
        # The packed view rebuilds lazily on the far side of a process
        # hop (pool workers repack from their own replayed matrix), so
        # the CSR arrays never cross the boundary.  Children and parent
        # links are process-local wiring (weakrefs do not pickle); the
        # far side rebuilds its own sharding.
        state = self.__dict__.copy()
        state["_packed"] = None
        state["_children"] = None
        state["_parent"] = None
        state["_private_packed"] = False
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._children = weakref.WeakSet()

    def invalidate_cache(self) -> None:
        """Mark every packed row stale (call after mutating the matrix).

        Fans out to every live child created by
        :meth:`with_private_packed`, so per-shard packed views go stale
        together with the shared one.
        """
        if self._packed is not None:
            self._packed.mark_all_dirty()
        for child in tuple(self._children):
            child.invalidate_cache()

    def invalidate_user(self, user_id: str) -> None:
        """Mark one user's packed row stale (after a rating change).

        Fans out to every live :meth:`with_private_packed` child.
        """
        if self._packed is not None:
            self._packed.mark_dirty(user_id)
        for child in tuple(self._children):
            child.invalidate_user(user_id)

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
