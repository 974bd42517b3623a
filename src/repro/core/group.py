"""Group recommendation model (Section III.B, Definition 2).

:class:`GroupRecommender` wires the single-user recommender and an
aggregation strategy into the group pipeline the paper describes:

1. candidate items are the items *no* group member has rated;
2. the relevance of every candidate is predicted for every member with
   Equation 1 (peers are searched among the users outside the group,
   mirroring the MapReduce formulation of Section IV);
3. the per-member predictions are aggregated into the group relevance
   with the configured strategy (minimum or average in the paper);
4. the top-``k`` candidates by group relevance form the plain group
   recommendation, and the full candidate bundle feeds the
   fairness-aware selection algorithms.
"""

from __future__ import annotations

from typing import Sequence

from ..data.groups import Group
from ..data.ratings import RatingMatrix
from ..exceptions import EmptyGroupError
from ..kernels import get_packed, items_unrated_by_all_packed
from ..similarity.base import UserSimilarity
from .aggregation import AggregationStrategy, AverageAggregation, get_aggregation
from .candidates import GroupCandidates
from .relevance import ScoredItem, SingleUserRecommender, rank_items


class GroupRecommender:
    """Aggregation-based group recommender (Definition 2).

    Parameters
    ----------
    matrix:
        The rating matrix.
    similarity:
        The user similarity measure feeding peer selection.
    aggregation:
        An :class:`AggregationStrategy` instance or its configuration
        name (``"average"``, ``"minimum"``, ...).
    peer_threshold:
        The ``δ`` of Definition 1.
    max_peers:
        Optional cap on the number of peers per member.
    top_k:
        The per-user ``k`` used for the fairness sets ``A_u``.
    exclude_group_from_peers:
        When true (default, and the behaviour of the paper's MapReduce
        jobs) the other group members are excluded from each member's
        peer set, so predictions rely on users outside the group.
    default_score:
        Score used for candidates that have no peer rating for a member;
        ``None`` drops such candidates from that member's table (they
        then disappear from the group candidates as well, since every
        member must score every candidate).
    """

    def __init__(
        self,
        matrix: RatingMatrix,
        similarity: UserSimilarity,
        aggregation: AggregationStrategy | str = "average",
        peer_threshold: float = 0.0,
        max_peers: int | None = None,
        top_k: int = 10,
        exclude_group_from_peers: bool = True,
        default_score: float | None = None,
    ) -> None:
        if isinstance(aggregation, str):
            aggregation = get_aggregation(aggregation)
        self.matrix = matrix
        self.similarity = similarity
        self.aggregation: AggregationStrategy = aggregation or AverageAggregation()
        self.top_k = top_k
        self.exclude_group_from_peers = exclude_group_from_peers
        self.single_user = SingleUserRecommender(
            matrix,
            similarity,
            peer_threshold=peer_threshold,
            max_peers=max_peers,
            default_score=default_score,
        )

    # -- candidate generation ------------------------------------------------

    def candidate_items(self, group: Group) -> list[str]:
        """Items of the matrix that no group member has rated.

        Scanned in intern space over the packed CSR view; the ids come
        back in matrix (item-insertion) order.
        """
        return items_unrated_by_all_packed(
            get_packed(self.matrix), group.member_ids
        )

    def member_relevance_table(
        self,
        group: Group,
        candidate_items: Sequence[str] | None = None,
    ) -> dict[str, dict[str, float]]:
        """``{member: {item: relevance(member, item)}}`` for the candidates."""
        if len(group) == 0:
            raise EmptyGroupError("group must not be empty")
        if candidate_items is None:
            candidate_items = self.candidate_items(group)
        exclude = group.member_ids if self.exclude_group_from_peers else []
        table: dict[str, dict[str, float]] = {}
        for member_id in group:
            other_members = [uid for uid in exclude if uid != member_id]
            table[member_id] = self.single_user.predict_items(
                member_id, candidate_items, exclude_peers=other_members
            )
        return table

    def build_candidates(
        self,
        group: Group,
        candidate_items: Sequence[str] | None = None,
        candidate_limit: int | None = None,
    ) -> GroupCandidates:
        """Build the :class:`GroupCandidates` bundle for the group.

        ``candidate_limit`` keeps only the ``m`` candidates with the best
        group relevance, matching the ``m`` knob of Section VI.
        """
        table = self.member_relevance_table(group, candidate_items)
        return GroupCandidates.from_relevance_table(
            group,
            table,
            aggregation=self.aggregation,
            top_k=self.top_k,
            candidate_limit=candidate_limit,
        )

    # -- plain group recommendation (Definition 2) -------------------------------

    def group_relevance(
        self,
        group: Group,
        candidate_items: Sequence[str] | None = None,
    ) -> dict[str, float]:
        """``relevanceG(G, i)`` for every candidate item."""
        table = self.member_relevance_table(group, candidate_items)
        return self.aggregation.aggregate_table(table)

    def recommend(
        self,
        group: Group,
        k: int = 10,
        candidate_items: Sequence[str] | None = None,
    ) -> list[ScoredItem]:
        """The ``k`` candidates with the highest group relevance."""
        scores = self.group_relevance(group, candidate_items)
        return rank_items(scores, k)

    def recommend_for_member(
        self, group: Group, member_id: str, k: int = 10
    ) -> list[ScoredItem]:
        """Single-user top-``k`` for one member over the group candidates."""
        if member_id not in group:
            raise EmptyGroupError(f"user {member_id!r} is not a member of the group")
        candidate_items = self.candidate_items(group)
        exclude = (
            [uid for uid in group.member_ids if uid != member_id]
            if self.exclude_group_from_peers
            else []
        )
        return self.single_user.recommend(
            member_id, k=k, candidate_items=candidate_items, exclude_peers=exclude
        )
