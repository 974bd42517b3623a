"""Group aggregation strategies (Section III.B, Definition 2).

The paper employs two designs with different semantics:

* **minimum** ("least misery") — strong user preferences act as a veto:
  the group relevance of an item is the minimum member relevance;
* **average** — satisfy the majority: the group relevance is the mean of
  the member relevances.

Both are implemented here, together with the other classical designs
(maximum / "most pleasure", median, multiplicative and Borda count) used
by the aggregation ablation benchmark.  Every strategy consumes the
per-member relevance scores of a *single* item (matching Definition 2,
which aggregates "without considering the whole set of recommendations
returned to the group"), except the Borda strategy which by construction
needs the per-member rankings and therefore operates on the full
candidate table.
"""

from __future__ import annotations

import math
import statistics
from abc import ABC, abstractmethod
from typing import Mapping, Sequence

from ..exceptions import ConfigurationError


class AggregationStrategy(ABC):
    """Maps the member relevance scores of an item to one group score."""

    #: Name used in configuration and reports.
    name: str = "aggregation"

    @abstractmethod
    def aggregate(self, scores: Sequence[float]) -> float:
        """Aggregate the member scores of a single item.

        ``scores`` is never empty; callers guarantee one score per group
        member (using a default for members without a prediction).
        """

    def aggregate_columns(
        self, item_ids: Sequence[str], columns: Sequence[Sequence[float]]
    ) -> list[float]:
        """Group scores aligned with ``item_ids``, one column per member.

        ``columns[m][j]`` is member ``m``'s relevance of ``item_ids[j]``;
        each group score is :meth:`aggregate` of the item's scores.
        """
        return [self.aggregate(list(scores)) for scores in zip(*columns)]

    def aggregate_table(
        self, relevance_table: Mapping[str, Mapping[str, float]]
    ) -> dict[str, float]:
        """Aggregate a full ``{user: {item: score}}`` table.

        Only items present for every user are aggregated — Definition 2
        requires a relevance estimate from each member.  The result
        keeps the first user's key order (see :func:`table_columns`).
        """
        item_ids, columns = table_columns(relevance_table, list(relevance_table))
        return dict(zip(item_ids, self.aggregate_columns(item_ids, columns)))

    def __call__(self, scores: Sequence[float]) -> float:
        return self.aggregate(scores)


class AverageAggregation(AggregationStrategy):
    """Mean of the member scores — "satisfying the majority"."""

    name = "average"

    def aggregate(self, scores: Sequence[float]) -> float:
        if not scores:
            raise ValueError("cannot aggregate an empty score list")
        return sum(scores) / len(scores)


class MinimumAggregation(AggregationStrategy):
    """Minimum member score — least misery, "preferences act as a veto"."""

    name = "minimum"

    def aggregate(self, scores: Sequence[float]) -> float:
        if not scores:
            raise ValueError("cannot aggregate an empty score list")
        return min(scores)


class MaximumAggregation(AggregationStrategy):
    """Maximum member score — "most pleasure" (extension strategy)."""

    name = "maximum"

    def aggregate(self, scores: Sequence[float]) -> float:
        if not scores:
            raise ValueError("cannot aggregate an empty score list")
        return max(scores)


class MedianAggregation(AggregationStrategy):
    """Median member score — robust majority variant (extension strategy)."""

    name = "median"

    def aggregate(self, scores: Sequence[float]) -> float:
        if not scores:
            raise ValueError("cannot aggregate an empty score list")
        return float(statistics.median(scores))


class MultiplicativeAggregation(AggregationStrategy):
    """Geometric mean of the member scores (extension strategy).

    Rewards items that every member likes at least moderately; a single
    very low score drags the product down, giving semantics between
    average and least misery.  Scores must be non-negative.
    """

    name = "multiplicative"

    def aggregate(self, scores: Sequence[float]) -> float:
        if not scores:
            raise ValueError("cannot aggregate an empty score list")
        if any(score < 0 for score in scores):
            raise ValueError("multiplicative aggregation requires non-negative scores")
        product = math.prod(scores)
        return product ** (1.0 / len(scores))


class BordaAggregation(AggregationStrategy):
    """Borda count over the member rankings (extension strategy).

    Operates on the full relevance table: each member contributes
    ``|items| - rank`` points per item (best item gets the most points),
    and the group score of an item is the average of its points.  Each
    member's ranking orders by score descending, ties by item id.  The
    per-item :meth:`aggregate` method is not meaningful for Borda and
    raises.
    """

    name = "borda"

    def aggregate(self, scores: Sequence[float]) -> float:
        raise NotImplementedError(
            "Borda aggregation is rank based; use aggregate_columns instead"
        )

    def aggregate_columns(
        self, item_ids: Sequence[str], columns: Sequence[Sequence[float]]
    ) -> list[float]:
        num_items = len(item_ids)
        points = [0.0] * num_items
        for column in columns:
            ranked = sorted(
                range(num_items), key=lambda j: (-column[j], item_ids[j])
            )
            for rank, j in enumerate(ranked):
                points[j] += float(num_items - 1 - rank)
        return [score / len(columns) for score in points]


def table_columns(
    relevance_table: Mapping[str, Mapping[str, float]], users: Sequence[str]
) -> tuple[list[str], list[list[float]]]:
    """The items every user in ``users`` scores, and one column per user.

    Items keep the first user's key order; ``columns[m][j]`` is
    ``relevance_table[users[m]][item_ids[j]]``.  No users, no items.
    """
    rows = [relevance_table[user_id] for user_id in users]
    item_ids = [
        item_id for item_id in (rows[0] if rows else ())
        if all(item_id in row for row in rows[1:])
    ]
    return item_ids, [[row[item_id] for item_id in item_ids] for row in rows]


#: Registry of all aggregation strategies keyed by their configuration name.
AGGREGATIONS: dict[str, type[AggregationStrategy]] = {
    "average": AverageAggregation,
    "minimum": MinimumAggregation,
    "maximum": MaximumAggregation,
    "median": MedianAggregation,
    "multiplicative": MultiplicativeAggregation,
    "borda": BordaAggregation,
}


def get_aggregation(name: str) -> AggregationStrategy:
    """Instantiate an aggregation strategy by configuration name."""
    try:
        return AGGREGATIONS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown aggregation {name!r}; expected one of {sorted(AGGREGATIONS)}"
        ) from None
