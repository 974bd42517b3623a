"""Candidate model shared by the fairness-aware selection algorithms.

The fairness definition (Definition 3) and the selection algorithms
(Algorithm 1, the brute force optimum and the local-search extension)
all operate on the same information:

* the group ``G``;
* the candidate items (items no group member has rated);
* the per-member relevance table ``relevance(u, i)``;
* the aggregated group relevance ``relevanceG(G, i)``;
* the per-member top-``k`` sets ``A_u`` used by the fairness test.

:class:`GroupCandidates` bundles those pieces.  It can be built from
aligned score columns plus an aggregation strategy (the serving path),
from a relevance table (the cold pipeline path, adapted to columns), or
constructed directly from synthetic scores (how the Table II benchmark
controls the candidate pool size ``m``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..data.groups import Group
from ..exceptions import EmptyGroupError
from .aggregation import AggregationStrategy, AverageAggregation, table_columns
from .relevance import ScoredItem, rank_items


@dataclass
class GroupCandidates:
    """Everything the fairness-aware selection needs about one group.

    Parameters
    ----------
    group:
        The caregiver group.
    relevance:
        ``{user_id: {item_id: relevance}}`` — per-member predictions for
        each candidate item.  Every member must score every candidate
        (the builder guarantees this by intersecting the per-user
        predictions).
    group_relevance:
        ``{item_id: relevanceG}`` — aggregated group scores.
    top_k:
        The ``k`` used to build the per-user fairness sets ``A_u``.
    """

    group: Group
    relevance: dict[str, dict[str, float]]
    group_relevance: dict[str, float]
    top_k: int
    _user_rankings: dict[str, list[ScoredItem]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _user_top_sets: dict[str, set[str]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")
        missing = [u for u in self.group if u not in self.relevance]
        if missing:
            raise ValueError(
                f"relevance table misses group members: {missing}"
            )
        # The fairness sets A_u only need the top-k prefix, which the
        # bounded-heap rank_items path selects without sorting the whole
        # table; the full per-member rankings build lazily on first
        # user_ranking() access.
        self._user_rankings = {}
        self._user_top_sets = {
            user_id: {
                item.item_id
                for item in rank_items(self.relevance[user_id], self.top_k)
            }
            for user_id in self.group
        }

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        group: Group,
        item_ids: Sequence[str],
        columns: Sequence[Sequence[float]],
        aggregation: AggregationStrategy | None = None,
        top_k: int = 10,
        candidate_limit: int | None = None,
    ) -> "GroupCandidates":
        """Build candidates from aligned per-member score columns.

        ``columns[m][j]`` is member ``group.member_ids[m]``'s relevance
        of ``item_ids[j]``, an item every member scores.  The columns
        are aggregated once; ``candidate_limit`` then keeps the ``m``
        items with the best group relevance (the paper's ``m`` knob in
        Section VI; score descending, ties by item id), and only those
        enter the dicts, in ranking order (else in ``item_ids`` order).
        """
        if len(group) == 0:
            raise EmptyGroupError("group must not be empty")
        if len(columns) != len(group):
            raise ValueError("from_columns needs one score column per member")
        aggregation = aggregation or AverageAggregation()
        scores = aggregation.aggregate_columns(item_ids, columns)
        kept: Sequence[int] = range(len(item_ids))
        if candidate_limit is not None and candidate_limit < len(item_ids):
            kept = heapq.nsmallest(
                candidate_limit, kept, key=lambda j: (-scores[j], item_ids[j])
            )
        return cls(
            group=group,
            relevance={
                user_id: {item_ids[j]: column[j] for j in kept}
                for user_id, column in zip(group.member_ids, columns)
            },
            group_relevance={item_ids[j]: scores[j] for j in kept},
            top_k=top_k,
        )

    @classmethod
    def from_relevance_table(
        cls,
        group: Group,
        relevance: Mapping[str, Mapping[str, float]],
        aggregation: AggregationStrategy | None = None,
        top_k: int = 10,
        candidate_limit: int | None = None,
    ) -> "GroupCandidates":
        """Build candidates from per-member predictions.

        Only items predicted for *every* member are kept (Definition 2
        needs a score from each member), in the first member's key
        order; the table is turned into score columns and built by
        :meth:`from_columns`, so ``candidate_limit`` works the same way.
        """
        missing = [user_id for user_id in group if user_id not in relevance]
        if missing:
            raise ValueError(f"relevance table misses group members: {missing}")
        item_ids, columns = table_columns(relevance, group.member_ids)
        return cls.from_columns(
            group, item_ids, columns, aggregation, top_k, candidate_limit
        )

    # -- access ---------------------------------------------------------------------

    @property
    def item_ids(self) -> list[str]:
        """Candidate item ids sorted by descending group relevance."""
        return [item.item_id for item in rank_items(self.group_relevance)]

    @property
    def num_candidates(self) -> int:
        """The candidate pool size ``m``."""
        return len(self.group_relevance)

    def user_ranking(self, user_id: str) -> list[ScoredItem]:
        """``A_u`` as a full ranking (most relevant candidate first)."""
        ranking = self._user_rankings.get(user_id)
        if ranking is None:
            ranking = rank_items(self.relevance[user_id])
            self._user_rankings[user_id] = ranking
        return list(ranking)

    def user_top_items(self, user_id: str) -> set[str]:
        """The top-``k`` candidate set of ``user_id`` (fairness test set)."""
        return set(self._user_top_sets[user_id])

    def user_relevance(self, user_id: str, item_id: str) -> float:
        """``relevance(u, i)`` for a candidate item."""
        return self.relevance[user_id][item_id]

    def item_group_relevance(self, item_id: str) -> float:
        """``relevanceG(G, i)`` for a candidate item."""
        return self.group_relevance[item_id]

    def top_group_items(self, n: int) -> list[ScoredItem]:
        """The ``n`` candidates with the highest group relevance."""
        return rank_items(self.group_relevance, n)

    def restrict_to(self, item_ids: Sequence[str]) -> "GroupCandidates":
        """A copy restricted to ``item_ids`` (used by ablations and tests)."""
        keep = [item_id for item_id in item_ids if item_id in self.group_relevance]
        return GroupCandidates(
            group=self.group,
            relevance={
                user_id: {item_id: scores[item_id] for item_id in keep}
                for user_id, scores in self.relevance.items()
            },
            group_relevance={
                item_id: self.group_relevance[item_id] for item_id in keep
            },
            top_k=self.top_k,
        )
