"""The paper's three MapReduce jobs (Section IV, Figure 2).

The input is the set of rating triples ``(u, i, rating(u, i))`` plus the
group ``G`` of the caregiver.  The jobs are:

* **Job 1 — partial similarity scores and unrated items.**  Keyed by
  item, the reducer checks whether any group member rated the item.  If
  not, the item is a *candidate recommendation* and its ratings are
  re-emitted unchanged.  If yes, for every (member, non-member) pair
  that co-rated the item it emits the *partial components* of the
  Pearson similarity (the products and squared deviations of the
  mean-centred ratings) keyed by the pair.
* **Job 2 — simU.**  Sums the partial components per (member, peer)
  pair, assembles the Pearson correlation and keeps the pairs whose
  similarity reaches the threshold ``δ`` (and a minimum number of
  co-rated items, matching the in-memory implementation).
* **Job 3 — user and group relevance.**  Keyed by candidate item, the
  reducer evaluates Equation 1 for every group member using the
  similarity table of Job 2 (shipped to the job like a Hadoop
  distributed-cache side input) and aggregates the member scores into
  the group relevance with the configured strategy.

User mean ratings are precomputed and distributed to Job 1 the same way
(side input): Equation 2 centres each user's ratings on the mean over
*all* their ratings, which a per-item reducer cannot compute locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..core.aggregation import AggregationStrategy
from ..data.ratings import RatingMatrix
from ..kernels import get_packed, pearson_one_vs_many
from .engine import MapReduceJob, Pair

#: Tag prefixes used to separate the two logical outputs of Job 1.
CANDIDATE_TAG = "candidate"
PARTIAL_TAG = "partial"


@dataclass(frozen=True)
class PartialSimilarity:
    """Partial Pearson components for one co-rated item of a user pair."""

    product: float
    member_sq: float
    peer_sq: float
    count: int = 1


def ratings_to_item_pairs(
    triples: Iterable[tuple[str, str, float]]
) -> list[Pair]:
    """Convert rating triples into the ``(item, (user, rating))`` input pairs."""
    return [(item_id, (user_id, value)) for user_id, item_id, value in triples]


# ---------------------------------------------------------------------------
# Job 1 — partial user similarity scores and the unrated (candidate) items.
# ---------------------------------------------------------------------------


def make_job1(
    group_members: Sequence[str],
    user_means: Mapping[str, float],
    num_partitions: int = 1,
    emit_partials: bool = True,
) -> MapReduceJob:
    """Build Job 1 for ``group_members`` with precomputed user means.

    ``emit_partials=False`` keeps only the candidate-item output: the
    runner sets it when Job 2 runs on the packed similarity kernel
    (:func:`make_packed_similarity_job`), which recomputes the pair
    scores from the CSR arrays and has no use for per-item partial
    components.  The map phase is unchanged either way, so the job's
    ``map_input_records`` counter still equals the number of ratings.
    """
    members = set(group_members)

    def mapper(item_id: Any, user_rating: Any) -> Iterable[Pair]:
        # Identity map keyed by item, exactly as described in the paper.
        yield (item_id, user_rating)

    def reducer(item_id: Any, user_ratings: Sequence[Any]) -> Iterable[Pair]:
        ratings = {user_id: float(value) for user_id, value in user_ratings}
        raters_in_group = [user_id for user_id in ratings if user_id in members]
        if not raters_in_group:
            # Output 1: no member rated the item — it is a candidate
            # recommendation; re-emit the ratings unchanged.
            for user_id, value in sorted(ratings.items()):
                yield ((CANDIDATE_TAG, item_id), (user_id, value))
            return
        if not emit_partials:
            return
        # Output 2: partial similarity components for every
        # (member, non-member) pair that co-rated this item.
        for member_id in sorted(raters_in_group):
            member_mean = user_means.get(member_id, 0.0)
            member_deviation = ratings[member_id] - member_mean
            for peer_id, peer_rating in sorted(ratings.items()):
                if peer_id in members:
                    continue
                peer_mean = user_means.get(peer_id, 0.0)
                peer_deviation = peer_rating - peer_mean
                partial = PartialSimilarity(
                    product=member_deviation * peer_deviation,
                    member_sq=member_deviation * member_deviation,
                    peer_sq=peer_deviation * peer_deviation,
                )
                yield ((PARTIAL_TAG, member_id, peer_id), partial)

    return MapReduceJob(
        name="job1-partial-similarity-and-candidates",
        mapper=mapper,
        reducer=reducer,
        num_partitions=num_partitions,
    )


def split_job1_output(
    output: Iterable[Pair],
) -> tuple[list[Pair], list[Pair]]:
    """Separate Job 1 output into (candidate pairs, partial-score pairs).

    Candidate pairs are re-keyed to ``(item_id, (user, rating))`` and the
    partial pairs to ``((member, peer), PartialSimilarity)`` so they can
    feed Jobs 3 and 2 respectively.
    """
    candidates: list[Pair] = []
    partials: list[Pair] = []
    for key, value in output:
        tag = key[0]
        if tag == CANDIDATE_TAG:
            candidates.append((key[1], value))
        elif tag == PARTIAL_TAG:
            partials.append(((key[1], key[2]), value))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unexpected Job 1 output tag {tag!r}")
    return candidates, partials


# ---------------------------------------------------------------------------
# Job 2 — assemble simU from the partial components and apply δ.
# ---------------------------------------------------------------------------


def make_job2(
    threshold: float,
    min_common_items: int = 2,
    num_partitions: int = 1,
) -> MapReduceJob:
    """Build Job 2: finish the Pearson computation and filter by ``δ``."""

    def mapper(pair_key: Any, partial: Any) -> Iterable[Pair]:
        yield (pair_key, partial)

    def combiner(pair_key: Any, partials: Sequence[Any]) -> Iterable[Any]:
        # Pre-aggregate the component sums, like a Hadoop combiner would.
        yield PartialSimilarity(
            product=sum(p.product for p in partials),
            member_sq=sum(p.member_sq for p in partials),
            peer_sq=sum(p.peer_sq for p in partials),
            count=sum(p.count for p in partials),
        )

    def reducer(pair_key: Any, partials: Sequence[Any]) -> Iterable[Pair]:
        product = sum(p.product for p in partials)
        member_sq = sum(p.member_sq for p in partials)
        peer_sq = sum(p.peer_sq for p in partials)
        count = sum(p.count for p in partials)
        if count < min_common_items:
            return
        denominator = math.sqrt(member_sq) * math.sqrt(peer_sq)
        if denominator == 0.0:
            return
        similarity = product / denominator
        if similarity >= threshold:
            yield (pair_key, similarity)

    return MapReduceJob(
        name="job2-similarity",
        mapper=mapper,
        reducer=reducer,
        combiner=combiner,
        num_partitions=num_partitions,
    )


def make_packed_similarity_job(
    matrix: RatingMatrix,
    group_members: Sequence[str],
    threshold: float,
    min_common_items: int = 2,
    num_partitions: int = 1,
) -> MapReduceJob:
    """Job 2 on the packed kernel: score members against all non-members.

    The pair-partial route of :func:`make_job1` + :func:`make_job2`
    shuffles one :class:`PartialSimilarity` per (member, peer, co-rated
    item) — the dominant cost of the Figure 2 pipeline.  This variant
    keys the job by *member* and lets each reducer call run one
    :func:`repro.kernels.pearson_one_vs_many` sweep over the shared
    :class:`~repro.kernels.PackedRatings` view, so the whole similarity
    phase shuffles ``|G|`` records instead of the co-rating volume.

    The input pairs are ``(member_id, None)`` — one per group member
    (see :func:`packed_similarity_input`).  The output is the Job 2
    contract, ``((member, peer), simU)`` with ``simU >= threshold``;
    scores differ from the partial-sum route by summation order only
    (last-ulp), and when ``threshold <= 0`` the table may carry 0.0
    scores for pairs the partial route never formed — those add 0 to
    both sums of Equation 1, so Job 3's output is unaffected.

    The mapper/reducer closures capture ``matrix``; as with the other
    jobs, run them on the serial backend.
    """
    members = set(group_members)

    def mapper(member_id: Any, payload: Any) -> Iterable[Pair]:
        yield (member_id, payload)

    def reducer(member_id: Any, _payloads: Sequence[Any]) -> Iterable[Pair]:
        packed = get_packed(matrix)
        candidates = [
            user_id for user_id in matrix.user_ids() if user_id not in members
        ]
        scores = pearson_one_vs_many(
            packed, member_id, candidates, min_common_items
        )
        for peer_id in candidates:
            similarity = scores[peer_id]
            if similarity >= threshold:
                yield ((member_id, peer_id), similarity)

    return MapReduceJob(
        name="job2-similarity-packed",
        mapper=mapper,
        reducer=reducer,
        num_partitions=num_partitions,
    )


def packed_similarity_input(group_members: Sequence[str]) -> list[Pair]:
    """The ``(member_id, None)`` input pairs of the packed Job 2."""
    return [(member_id, None) for member_id in group_members]


def similarity_table(output: Iterable[Pair]) -> dict[str, dict[str, float]]:
    """Convert Job 2 output into ``{member: {peer: simU}}``."""
    table: dict[str, dict[str, float]] = {}
    for (member_id, peer_id), similarity in output:
        table.setdefault(member_id, {})[peer_id] = similarity
    return table


# ---------------------------------------------------------------------------
# Job 3 — per-member relevance (Equation 1) and group relevance.
# ---------------------------------------------------------------------------


def make_job3(
    group_members: Sequence[str],
    similarities: Mapping[str, Mapping[str, float]],
    aggregation: AggregationStrategy,
    num_partitions: int = 1,
) -> MapReduceJob:
    """Build Job 3 for the candidate items of Job 1.

    ``similarities`` is the Job 2 output table (side input).  The reducer
    of each candidate item computes ``relevance(member, item)`` for every
    member that has at least one similar rater, and emits the group
    relevance only when *all* members have a score (Definition 2
    requires a prediction from each member).
    """
    members = list(group_members)

    def mapper(item_id: Any, user_rating: Any) -> Iterable[Pair]:
        yield (item_id, user_rating)

    def reducer(item_id: Any, user_ratings: Sequence[Any]) -> Iterable[Pair]:
        ratings = {user_id: float(value) for user_id, value in user_ratings}
        member_scores: dict[str, float] = {}
        for member_id in members:
            peer_sims = similarities.get(member_id, {})
            numerator = 0.0
            denominator = 0.0
            for rater_id, rating in ratings.items():
                similarity = peer_sims.get(rater_id)
                if similarity is None:
                    continue
                numerator += similarity * rating
                denominator += similarity
            if denominator != 0.0:
                member_scores[member_id] = numerator / denominator
        if len(member_scores) != len(members):
            # At least one member has no usable peers for this item; the
            # item cannot be aggregated for the whole group.
            return
        group_score = aggregation.aggregate(
            [member_scores[member_id] for member_id in members]
        )
        yield (item_id, {"members": member_scores, "group": group_score})

    return MapReduceJob(
        name="job3-relevance",
        mapper=mapper,
        reducer=reducer,
        num_partitions=num_partitions,
    )
