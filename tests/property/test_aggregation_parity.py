"""Every aggregation strategy: the warm service equals the cold pipeline.

The service scores a group's candidates as aligned columns (one Equation 1
column per member, from the packed kernel) and aggregates them once in
:meth:`~repro.core.candidates.GroupCandidates.from_columns`.  The cold
:class:`~repro.core.pipeline.CaregiverPipeline` predicts each member's row
with the dict Equation 1 and adapts the table through
:meth:`~repro.core.candidates.GroupCandidates.from_relevance_table`.  For
each strategy of :data:`~repro.core.aggregation.AGGREGATIONS`, over complete
and capped (growing) peer rows, candidate pools below and above the common
set, single-member groups and groups with no common candidate, both must
give the same items, fairness, member relevance and group relevance, every
float compared through :meth:`float.hex`.  Both paths share the column
aggregation, so the group relevance is also checked against Definition 2
written out in this file: each strategy over the cold member rows, Borda
ranking by (score desc, item id), then the pinned ranking's top ``m``.
"""

from __future__ import annotations

import random

import pytest

from repro.config import RecommenderConfig
from repro.core.aggregation import AGGREGATIONS, get_aggregation
from repro.core.pipeline import CaregiverPipeline
from repro.core.relevance import rank_items
from repro.data.datasets import generate_dataset
from repro.data.groups import Group
from repro.serving import RecommendationService
from repro.serving import index as index_module

#: Config overrides per case, on top of :data:`SEMANTICS`.  ``max_peers=2``
#: leaves many groups with no common candidate; the pool sizes sit below
#: and above every common set of this dataset.
VARIANTS = {
    "default": {},
    "capped": {"max_peers": 2},
    "pool_below": {"candidate_pool_size": 4},
    "pool_above": {"candidate_pool_size": 10_000},
    "top_k_z": {"top_k": 3, "top_z": 6},
}

SEMANTICS = RecommenderConfig(peer_threshold=0.1, top_k=5, top_z=4)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(num_users=40, num_items=60, ratings_per_user=12, seed=5)


@pytest.fixture(autouse=True)
def _one_entry_slack(monkeypatch):
    """Capped rows one entry past ``max_peers``: group exclusions grow them."""
    monkeypatch.setattr(index_module, "ROW_SLACK", 1)


def _groups(user_ids: list[str]) -> list[Group]:
    rng = random.Random(17)
    singles = [Group(member_ids=[user_id]) for user_id in user_ids[:4]]
    return singles + [
        Group(member_ids=rng.sample(user_ids, rng.randint(2, 5))) for _ in range(28)
    ]


def _exact(recommendation) -> tuple:
    candidates = recommendation.candidates
    return (
        recommendation.items,
        tuple(item.item_id for item in recommendation.plain_top_z),
        float(recommendation.report.fairness).hex(),
        {
            user_id: {item_id: score.hex() for item_id, score in row.items()}
            for user_id, row in candidates.relevance.items()
        },
        {item_id: score.hex() for item_id, score in candidates.group_relevance.items()},
    )


def _reference_group_relevance(table: dict, aggregation: str, limit: int) -> dict:
    """Definition 2 and the ``m`` cut from the member rows, written out."""
    common = sorted(set.intersection(*(set(row) for row in table.values())))
    if aggregation == "borda":
        points = dict.fromkeys(common, 0.0)
        for row in table.values():
            ranked = sorted(common, key=lambda item_id: (-row[item_id], item_id))
            for rank, item_id in enumerate(ranked):
                points[item_id] += float(len(common) - 1 - rank)
        scores = {item_id: total / len(table) for item_id, total in points.items()}
    else:
        strategy = get_aggregation(aggregation)
        scores = {
            item_id: strategy.aggregate([row[item_id] for row in table.values()])
            for item_id in common
        }
    return {item.item_id: item.score.hex() for item in rank_items(scores, limit)}


@pytest.mark.parametrize("aggregation", sorted(AGGREGATIONS))
def test_service_matches_cold_pipeline_for_every_aggregation(dataset, aggregation):
    groups = _groups(dataset.users.ids())
    seen = {"single": 0, "empty": 0, "cut": 0, "uncut": 0, "grown": 0}
    for overrides in VARIANTS.values():
        config = SEMANTICS.with_overrides(aggregation=aggregation, **overrides)
        cold = CaregiverPipeline(dataset, config)
        with RecommendationService(dataset, config) as service:
            for group in groups:
                expected = cold.recommend(group)
                assert _exact(service.recommend_group(group)) == _exact(expected), (
                    aggregation,
                    overrides,
                    group.member_ids,
                )
                table = cold.group_recommender.member_relevance_table(group)
                assert _exact(expected)[-1] == _reference_group_relevance(
                    table, aggregation, config.candidate_pool_size
                )
                common = len(set.intersection(*(set(row) for row in table.values())))
                seen["single"] += len(group) == 1
                seen["empty"] += common == 0
                seen["cut"] += common > config.candidate_pool_size
                seen["uncut"] += 0 < common <= config.candidate_pool_size
            seen["grown"] += service.stats()["index"]["row_growths"]
    assert all(seen.values()), seen
