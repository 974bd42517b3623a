"""Single-user relevance prediction (Section III.A, Equation 1).

Given a user ``u``, their peers ``P_u`` and an unrated item ``i``, the
relevance of ``i`` for ``u`` is the similarity-weighted average of the
peer ratings:

    relevance(u, i) = Σ_{u' ∈ P_u ∩ U(i)} simU(u, u') · rating(u', i)
                      ─────────────────────────────────────────────
                      Σ_{u' ∈ P_u ∩ U(i)} simU(u, u')

:class:`SingleUserRecommender` wraps the equation together with peer
selection and top-k ranking, producing the per-user recommendation lists
``A_u`` that both the plain group recommender and the fairness-aware
selection (Algorithm 1) consume.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..data.ratings import RatingMatrix
from ..similarity.base import UserSimilarity
from ..similarity.peers import Peer, PeerSelector


@dataclass(frozen=True)
class ScoredItem:
    """An item with a predicted relevance score for some user or group."""

    item_id: str
    score: float

    def as_tuple(self) -> tuple[str, float]:
        """Return ``(item_id, score)``."""
        return (self.item_id, self.score)


def predict_relevance(
    peer_similarities: Mapping[str, float],
    item_ratings: Mapping[str, float],
) -> float | None:
    """Evaluate Equation 1 from peer similarities and item ratings.

    Parameters
    ----------
    peer_similarities:
        ``{peer_id: simU(u, peer)}`` for the peers of the target user.
    item_ratings:
        ``{user_id: rating(user, i)}`` for the users that rated ``i``.

    Returns
    -------
    The predicted relevance, or ``None`` when no peer rated the item or
    the similarity mass is zero (the equation is undefined then).
    """
    numerator = 0.0
    denominator = 0.0
    for peer_id, similarity in peer_similarities.items():
        rating = item_ratings.get(peer_id)
        if rating is None:
            continue
        numerator += similarity * rating
        denominator += similarity
    if denominator == 0.0:
        return None
    return numerator / denominator


def predict_table(
    matrix: RatingMatrix,
    user_id: str,
    peer_similarities: Mapping[str, float],
    candidate_items: Sequence[str],
    default_score: float | None = None,
) -> dict[str, float]:
    """Equation 1 over many candidate items for a fixed peer set.

    This is the inner loop of :meth:`SingleUserRecommender.predict_items`;
    the serving layer's packed row kernel sums each item's peer terms in
    the same (peer) order, so warm and cold results are bit-identical.
    Items the user already rated keep their actual rating; items with
    undefined predictions are omitted unless ``default_score`` is given.
    """
    predictions: dict[str, float] = {}
    for item_id in candidate_items:
        existing = matrix.get(user_id, item_id)
        if existing is not None:
            predictions[item_id] = existing
            continue
        predicted = predict_relevance(peer_similarities, matrix.users_of(item_id))
        if predicted is None:
            if default_score is not None:
                predictions[item_id] = default_score
            continue
        predictions[item_id] = predicted
    return predictions


#: ``rank_items`` switches from a full sort to bounded-heap selection
#: when ``k`` is smaller than this fraction of the score table.  Below
#: the ratio, ``heapq.nsmallest`` does O(n log k) comparisons instead of
#: O(n log n); above it, timsort's galloping wins.
RANK_HEAP_RATIO: int = 8


def rank_key(pair: tuple[str, float]) -> tuple[float, str]:
    """The pinned ranking order of an ``(item_id, score)`` pair.

    Score descending, ties broken by item id ascending.  Every ranking
    path in the library — the full sort, the bounded heap, and the
    packed top-k kernel — orders by exactly this key, which is what
    makes their outputs interchangeable bit for bit.
    """
    return (-pair[1], pair[0])


def rank_items(scores: Mapping[str, float], k: int | None = None) -> list[ScoredItem]:
    """Sort ``{item: score}`` by descending score (ties by item id).

    ``k`` limits the result to the top-k items; ``None`` keeps all.
    When ``k`` is small relative to the table (< ``len(scores) //
    RANK_HEAP_RATIO``) the selection runs on a bounded heap instead of a
    full sort; ``heapq.nsmallest`` is stable under its key, so the two
    paths return identical lists, ties included.
    """
    if k is not None and 0 <= k < len(scores) // RANK_HEAP_RATIO:
        ranked = heapq.nsmallest(k, scores.items(), key=rank_key)
    else:
        ranked = sorted(scores.items(), key=rank_key)
        if k is not None:
            ranked = ranked[:k]
    return [ScoredItem(item_id=item_id, score=score) for item_id, score in ranked]


class SingleUserRecommender:
    """Collaborative-filtering recommender for individual patients.

    Parameters
    ----------
    matrix:
        The rating matrix.
    similarity:
        The ``simU`` measure used for peer selection.
    peer_threshold:
        The ``δ`` of Definition 1.
    max_peers:
        Optional cap on the number of peers per user.
    default_score:
        Relevance assigned to items for which Equation 1 is undefined
        (no peer rated them).  ``None`` (the default) omits such items
        from the predictions entirely, which is the paper's behaviour.
    """

    def __init__(
        self,
        matrix: RatingMatrix,
        similarity: UserSimilarity,
        peer_threshold: float = 0.0,
        max_peers: int | None = None,
        default_score: float | None = None,
    ) -> None:
        self.matrix = matrix
        self.similarity = similarity
        self.peer_selector = PeerSelector(
            similarity, threshold=peer_threshold, max_peers=max_peers
        )
        self.default_score = default_score
        self._peer_cache: dict[tuple[str, frozenset[str]], dict[str, float]] = {}

    # -- peers ---------------------------------------------------------------

    def peers(self, user_id: str, exclude: Iterable[str] = ()) -> list[Peer]:
        """The peers ``P_u`` of ``user_id`` (excluding ``exclude`` users)."""
        return self.peer_selector.peers_from_matrix(
            user_id, self.matrix, exclude=exclude
        )

    def _peer_similarities(
        self, user_id: str, exclude: Iterable[str] = ()
    ) -> dict[str, float]:
        key = (user_id, frozenset(exclude))
        if key not in self._peer_cache:
            peers = self.peers(user_id, exclude=exclude)
            self._peer_cache[key] = {peer.user_id: peer.similarity for peer in peers}
        return self._peer_cache[key]

    def invalidate_cache(self) -> None:
        """Drop cached peer lists (call after mutating the matrix)."""
        self._peer_cache.clear()

    # -- relevance ---------------------------------------------------------------

    def relevance(
        self, user_id: str, item_id: str, exclude_peers: Iterable[str] = ()
    ) -> float | None:
        """Equation 1 for one ``(user, item)`` pair.

        Returns the user's actual rating when the item is already rated
        (a rated item needs no prediction), ``None`` when the prediction
        is undefined and no ``default_score`` is configured.
        """
        existing = self.matrix.get(user_id, item_id)
        if existing is not None:
            return existing
        peer_similarities = self._peer_similarities(user_id, exclude_peers)
        item_ratings = self.matrix.users_of(item_id)
        predicted = predict_relevance(peer_similarities, item_ratings)
        if predicted is None:
            return self.default_score
        return predicted

    def predict_items(
        self,
        user_id: str,
        candidate_items: Sequence[str],
        exclude_peers: Iterable[str] = (),
    ) -> dict[str, float]:
        """Relevance predictions for every candidate item.

        Items with undefined predictions are omitted unless a
        ``default_score`` was configured.
        """
        peer_similarities = self._peer_similarities(user_id, exclude_peers)
        return predict_table(
            self.matrix,
            user_id,
            peer_similarities,
            candidate_items,
            default_score=self.default_score,
        )

    def recommend(
        self,
        user_id: str,
        k: int = 10,
        candidate_items: Sequence[str] | None = None,
        exclude_peers: Iterable[str] = (),
    ) -> list[ScoredItem]:
        """The top-``k`` recommendation list ``A_u`` for ``user_id``.

        By default candidates are every item of the matrix the user has
        not rated yet.
        """
        if candidate_items is None:
            candidate_items = self.matrix.unrated_items(
                user_id, self.matrix.item_ids()
            )
        else:
            candidate_items = self.matrix.unrated_items(user_id, candidate_items)
        predictions = self.predict_items(
            user_id, candidate_items, exclude_peers=exclude_peers
        )
        return rank_items(predictions, k)
