"""MapReduce group recommendation runner.

Glues the three jobs of :mod:`repro.mapreduce.jobs` into the full
pipeline of Section IV:

1. rating triples → Job 1 → candidate items;
2. group members → Job 2 → the ``simU`` table (threshold ``δ`` applied),
   one packed one-vs-many sweep per member
   (:func:`~repro.mapreduce.jobs.make_packed_similarity_job`) in place of
   the paper's partial-component shuffle, which
   :func:`~repro.mapreduce.jobs.make_job2` still implements;
3. candidate items + similarity table → Job 3 → per-member and group
   relevance for every candidate;
4. (optional) the distributed top-k job of [5] ranks the group scores;
5. the fairness-aware selection (Algorithm 1) runs centralised on the
   resulting :class:`~repro.core.candidates.GroupCandidates`, exactly as
   the paper does ("we perform Algorithm 1 in a centralized manner").

The runner produces the same :class:`GroupCandidates` bundle as the
in-memory :class:`~repro.core.group.GroupRecommender`, which is what the
equivalence tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.aggregation import AggregationStrategy, get_aggregation
from ..core.candidates import GroupCandidates
from ..core.greedy import FairnessAwareGreedy, GroupRecommendation
from ..core.relevance import ScoredItem
from ..data.groups import Group
from ..data.ratings import RatingMatrix
from .engine import JobCounters, MapReduceEngine
from .jobs import (
    make_job1,
    make_job3,
    make_packed_similarity_job,
    packed_similarity_input,
    ratings_to_item_pairs,
    similarity_table,
    split_job1_output,
)
from .topk import mapreduce_topk


@dataclass
class MapReduceRunResult:
    """Everything produced by one MapReduce pipeline run."""

    candidates: GroupCandidates
    similarity: dict[str, dict[str, float]]
    top_items: list[ScoredItem]
    counters: dict[str, JobCounters] = field(default_factory=dict)


class MapReduceGroupRecommender:
    """The paper's MapReduce implementation of the group recommender.

    Parameters
    ----------
    matrix:
        The rating matrix providing the input triples.
    peer_threshold:
        The ``δ`` threshold applied by Job 2.
    aggregation:
        Aggregation strategy (instance or name) used by Job 3.
    top_k:
        The per-user ``k`` of the fairness sets (and of the optional
        distributed top-k job).
    min_common_items:
        Minimum number of co-rated items for a valid Pearson similarity,
        matching :class:`~repro.similarity.ratings_sim.PearsonRatingSimilarity`.
    num_partitions:
        Number of partitions for every job.  The jobs run on the serial
        backend: their mapper/reducer closures capture group state,
        which the worker fleet cannot pickle.
    """

    def __init__(
        self,
        matrix: RatingMatrix,
        peer_threshold: float = 0.0,
        aggregation: AggregationStrategy | str = "average",
        top_k: int = 10,
        min_common_items: int = 2,
        num_partitions: int = 4,
    ) -> None:
        if isinstance(aggregation, str):
            aggregation = get_aggregation(aggregation)
        self.matrix = matrix
        self.peer_threshold = peer_threshold
        self.aggregation = aggregation
        self.top_k = top_k
        self.min_common_items = min_common_items
        self.num_partitions = num_partitions
        self.engine = MapReduceEngine()

    # -- pipeline ---------------------------------------------------------------

    def run(self, group: Group, use_mapreduce_topk: bool = False) -> MapReduceRunResult:
        """Run Jobs 1–3 (and optionally the top-k job) for ``group``."""
        counters: dict[str, JobCounters] = {}
        input_pairs = ratings_to_item_pairs(self.matrix.triples())

        # Job 1 emits candidates only: the packed similarity job reads
        # per-user means from the CSR view, so no mean side input and no
        # partial components are needed.
        job1 = make_job1(
            group.member_ids,
            {},
            num_partitions=self.num_partitions,
            emit_partials=False,
        )
        job1_result = self.engine.run(job1, input_pairs)
        counters["job1"] = job1_result.counters
        candidate_pairs, _ = split_job1_output(job1_result.output)

        job2 = make_packed_similarity_job(
            self.matrix,
            group.member_ids,
            self.peer_threshold,
            min_common_items=self.min_common_items,
            num_partitions=self.num_partitions,
        )
        job2_result = self.engine.run(
            job2, packed_similarity_input(group.member_ids)
        )
        counters["job2"] = job2_result.counters
        similarities = similarity_table(job2_result.output)

        job3 = make_job3(
            group.member_ids,
            similarities,
            self.aggregation,
            num_partitions=self.num_partitions,
        )
        job3_result = self.engine.run(job3, candidate_pairs)
        counters["job3"] = job3_result.counters

        relevance: dict[str, dict[str, float]] = {
            member_id: {} for member_id in group
        }
        group_relevance: dict[str, float] = {}
        for item_id, payload in job3_result.output:
            group_relevance[item_id] = payload["group"]
            for member_id, score in payload["members"].items():
                relevance[member_id][item_id] = score

        candidates = GroupCandidates(
            group=group,
            relevance=relevance,
            group_relevance=group_relevance,
            top_k=self.top_k,
        )

        if use_mapreduce_topk:
            ranked = mapreduce_topk(
                list(group_relevance.items()),
                k=self.top_k,
                num_partitions=self.num_partitions,
                engine=self.engine,
            )
            top_items = [ScoredItem(item_id=i, score=s) for i, s in ranked]
        else:
            top_items = candidates.top_group_items(self.top_k)

        return MapReduceRunResult(
            candidates=candidates,
            similarity=similarities,
            top_items=top_items,
            counters=counters,
        )

    def recommend(
        self, group: Group, z: int, use_mapreduce_topk: bool = False
    ) -> GroupRecommendation:
        """Full pipeline plus the centralised Algorithm 1 selection."""
        result = self.run(group, use_mapreduce_topk=use_mapreduce_topk)
        return FairnessAwareGreedy().select(result.candidates, z)
