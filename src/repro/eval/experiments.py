"""Experiment harness reproducing the paper's evaluation.

The paper's preliminary evaluation (Section VI, Table II) compares the
brute-force selection against the fairness-aware heuristic in wall-clock
time for candidate pool sizes ``m ∈ {10, 20, 30}`` and result sizes
``z ∈ {4, 8, 12, 16, 20}`` (with ``z ≤ m``), noting that the fairness of
the two results is identical and verifying Proposition 1.

This module provides:

* :func:`synthetic_candidates` — a deterministic generator of
  :class:`~repro.core.candidates.GroupCandidates` with a controlled pool
  size ``m`` and group size, which is what the paper's experiment
  effectively varies;
* :func:`run_table2` — the Table II reproduction (timings + fairness of
  both algorithms for each ``(m, z)`` cell);
* :func:`verify_proposition1` — empirical check of Proposition 1 over a
  sweep of group sizes and ``z`` values;
* :func:`run_aggregation_ablation` and
  :func:`run_similarity_ablation` — the extension experiments indexed in
  DESIGN.md (Ablations A and B);
* :func:`run_value_quality` — greedy vs. swap vs. brute-force value
  ratios (Ablation C).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from ..core.aggregation import get_aggregation
from ..core.brute_force import BruteForceSelector, subset_count
from ..exec import ExecutionBackend, backend_scope
from ..core.candidates import GroupCandidates
from ..core.fairness import fairness as fairness_of
from ..core.fairness import value as value_of
from ..core.greedy import FairnessAwareGreedy
from ..core.group import GroupRecommender
from ..core.swap import SwapRefinementSelector
from ..data.datasets import HealthDataset, generate_dataset
from ..data.groups import Group, random_group
from ..similarity.hybrid import HybridSimilarity
from ..similarity.profile_sim import ProfileSimilarity
from ..similarity.ratings_sim import (
    CosineRatingSimilarity,
    JaccardRatingSimilarity,
    PearsonRatingSimilarity,
)
from ..similarity.semantic_sim import SemanticSimilarity
from .metrics import summarize_selection
from .timing import time_callable

#: The (m, z) grid of Table II.  z values larger than m are skipped,
#: matching the table (m=10 only reports z=4 and z=8).
TABLE2_M_VALUES: tuple[int, ...] = (10, 20, 30)
TABLE2_Z_VALUES: tuple[int, ...] = (4, 8, 12, 16, 20)


def synthetic_candidates(
    num_candidates: int,
    group_size: int = 4,
    top_k: int = 10,
    seed: int = 7,
    rating_scale: tuple[float, float] = (1.0, 5.0),
) -> GroupCandidates:
    """Generate a synthetic candidate bundle with ``m`` candidates.

    Member relevance scores are drawn uniformly from the rating scale,
    and the group relevance uses the average aggregation — the structure
    (not the provenance) of the scores is what drives the cost of the
    selection algorithms, so this is the controlled workload that the
    Table II timing sweep needs.
    """
    if num_candidates <= 0:
        raise ValueError("num_candidates must be positive")
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    rng = random.Random(seed)
    low, high = rating_scale
    members = [f"member-{index}" for index in range(group_size)]
    group = Group(member_ids=members, caregiver_id="caregiver", name="synthetic")
    items = [f"item-{index:03d}" for index in range(num_candidates)]
    relevance = {
        member: {item: round(rng.uniform(low, high), 3) for item in items}
        for member in members
    }
    group_relevance = {
        item: sum(relevance[member][item] for member in members) / group_size
        for item in items
    }
    return GroupCandidates(
        group=group,
        relevance=relevance,
        group_relevance=group_relevance,
        top_k=top_k,
    )


# ---------------------------------------------------------------------------
# Table II — brute force vs. heuristic timing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """One cell of Table II."""

    m: int
    z: int
    brute_force_ms: float
    heuristic_ms: float
    brute_force_fairness: float
    heuristic_fairness: float
    brute_force_value: float
    heuristic_value: float
    subsets_enumerated: int

    @property
    def speedup(self) -> float:
        """Brute-force time divided by heuristic time."""
        if self.heuristic_ms == 0.0:
            return float("inf")
        return self.brute_force_ms / self.heuristic_ms


@dataclass
class Table2Result:
    """All rows of the Table II reproduction."""

    rows: list[Table2Row] = field(default_factory=list)
    group_size: int = 4
    repeats: int = 1

    def row(self, m: int, z: int) -> Table2Row:
        """The row for a specific ``(m, z)`` cell."""
        for row in self.rows:
            if row.m == m and row.z == z:
                return row
        raise KeyError(f"no row for m={m}, z={z}")


def _table2_cell(spec: tuple[int, int, int, int, int, int]) -> Table2Row:
    """Time one ``(m, z)`` cell (module-level: process-backend safe).

    The candidate bundle is regenerated per cell from the seed, which
    is deterministic, so per-cell execution produces exactly the rows
    the original per-``m`` loop did — in any backend.
    """
    m, z, group_size, top_k, repeats, seed = spec
    candidates = synthetic_candidates(
        num_candidates=m, group_size=group_size, top_k=top_k, seed=seed
    )
    brute = BruteForceSelector(max_subsets=None)
    greedy = FairnessAwareGreedy(restrict_to_top_k=False)
    brute_timing = time_callable(
        lambda: brute.select(candidates, z), repeats=repeats
    )
    greedy_timing = time_callable(
        lambda: greedy.select(candidates, z), repeats=repeats
    )
    brute_result = brute_timing.result
    greedy_result = greedy_timing.result
    return Table2Row(
        m=m,
        z=z,
        brute_force_ms=brute_timing.median_ms,
        heuristic_ms=greedy_timing.median_ms,
        brute_force_fairness=brute_result.fairness,
        heuristic_fairness=greedy_result.fairness,
        brute_force_value=brute_result.value,
        heuristic_value=greedy_result.value,
        subsets_enumerated=subset_count(m, z),
    )


def run_table2(
    m_values: Sequence[int] = TABLE2_M_VALUES,
    z_values: Sequence[int] = TABLE2_Z_VALUES,
    group_size: int = 4,
    top_k: int = 10,
    repeats: int = 1,
    seed: int = 7,
    max_subsets: int | None = None,
    backend: "ExecutionBackend | str | None" = None,
) -> Table2Result:
    """Reproduce Table II: brute force vs. heuristic wall-clock time.

    ``max_subsets`` optionally skips cells whose subset count exceeds
    the limit (useful for quick smoke runs); the full grid (the paper's
    largest cell enumerates ``(30 choose 12) ≈ 8.6 × 10^7`` subsets) can
    take minutes of CPU, exactly as the paper reports.  ``backend``
    fans the grid cells out (the pool backend genuinely parallelises
    the brute-force enumeration; note per-cell *timings* then share the
    machine, so compare cells within one run only).
    """
    result = Table2Result(group_size=group_size, repeats=repeats)
    # The Table II experiment selects z out of the full m-candidate pool, so
    # every member's candidate list is the whole ranked pool (k = m); the
    # per-user top-k sets used by the fairness test stay at ``top_k``.
    specs = [
        (m, z, group_size, top_k, repeats, seed)
        for m in m_values
        for z in z_values
        if z <= m
        and (max_subsets is None or subset_count(m, z) <= max_subsets)
    ]
    with backend_scope(backend) as resolved:
        result.rows.extend(resolved.map_items(_table2_cell, specs))
    return result


# ---------------------------------------------------------------------------
# Proposition 1 — fairness = 1 whenever z >= |G|
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Proposition1Row:
    """One checked configuration of Proposition 1."""

    group_size: int
    z: int
    m: int
    fairness: float
    holds: bool


def _proposition1_cell(
    spec: tuple[int, int, int, int, int]
) -> Proposition1Row:
    """Check one ``(group size, z)`` configuration (process-safe)."""
    group_size, z, num_candidates, top_k, seed = spec
    candidates = synthetic_candidates(
        num_candidates=num_candidates,
        group_size=group_size,
        top_k=top_k,
        seed=seed + group_size,
    )
    selection = FairnessAwareGreedy().select(candidates, z)
    fairness_value = selection.fairness
    return Proposition1Row(
        group_size=group_size,
        z=z,
        m=num_candidates,
        fairness=fairness_value,
        holds=(z < group_size) or (fairness_value == 1.0),
    )


def verify_proposition1(
    group_sizes: Sequence[int] = (2, 3, 4, 5, 6, 8),
    z_values: Sequence[int] = (2, 4, 6, 8, 10, 12),
    num_candidates: int = 30,
    top_k: int = 10,
    seed: int = 7,
    backend: "ExecutionBackend | str | None" = None,
) -> list[Proposition1Row]:
    """Check Proposition 1 empirically over a sweep of configurations.

    Only configurations with ``z >= |G|`` are asserted; rows with
    ``z < |G|`` are still reported (fairness may or may not be 1 there).
    The sweep cells run through ``backend`` in grid order.
    """
    specs = [
        (group_size, z, num_candidates, top_k, seed)
        for group_size in group_sizes
        for z in z_values
        if z <= num_candidates
    ]
    with backend_scope(backend) as resolved:
        return resolved.map_items(_proposition1_cell, specs)


# ---------------------------------------------------------------------------
# Ablation A — aggregation strategies on real(istic) pipeline output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregationAblationRow:
    """Metrics of one aggregation strategy on one group."""

    aggregation: str
    group_kind: str
    fairness: float
    value: float
    min_satisfaction: float
    mean_satisfaction: float


def run_aggregation_ablation(
    dataset: HealthDataset | None = None,
    group_size: int = 5,
    z: int = 10,
    top_k: int = 10,
    aggregations: Sequence[str] = ("average", "minimum", "maximum", "median"),
    seed: int = 7,
) -> list[AggregationAblationRow]:
    """Compare aggregation semantics (Definition 2 designs + extensions).

    Runs the full CF pipeline on a synthetic dataset for a random and a
    deliberately divergent group, then reports fairness / value /
    satisfaction of the greedy selection under each aggregation.
    """
    dataset = dataset or generate_dataset(seed=seed)
    greedy = FairnessAwareGreedy()
    rows: list[AggregationAblationRow] = []
    groups = {
        "random": random_group(dataset.users.ids(), group_size, seed=seed),
        "divergent": _divergent_group(dataset, group_size, seed=seed),
    }
    for aggregation_name in aggregations:
        for group_kind, group in groups.items():
            recommender = GroupRecommender(
                matrix=dataset.ratings,
                similarity=PearsonRatingSimilarity(dataset.ratings),
                aggregation=get_aggregation(aggregation_name),
                top_k=top_k,
            )
            candidates = recommender.build_candidates(group)
            if candidates.num_candidates == 0:
                continue
            selection = greedy.select(candidates, min(z, candidates.num_candidates))
            metrics = summarize_selection(candidates, list(selection.items))
            rows.append(
                AggregationAblationRow(
                    aggregation=aggregation_name,
                    group_kind=group_kind,
                    fairness=metrics["fairness"],
                    value=metrics["value"],
                    min_satisfaction=metrics["min_satisfaction"],
                    mean_satisfaction=metrics["mean_satisfaction"],
                )
            )
    return rows


def _divergent_group(dataset: HealthDataset, group_size: int, seed: int) -> Group:
    from ..data.groups import diverse_group

    anchor = dataset.users.ids()[0]
    return diverse_group(dataset.ratings, anchor, group_size, seed=seed)


# ---------------------------------------------------------------------------
# Ablation B — similarity measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimilarityAblationRow:
    """Metrics and cost of one similarity measure."""

    similarity: str
    fairness: float
    value: float
    mean_satisfaction: float
    candidates: int
    elapsed_ms: float


def run_similarity_ablation(
    dataset: HealthDataset | None = None,
    group_size: int = 5,
    z: int = 10,
    top_k: int = 10,
    seed: int = 7,
) -> list[SimilarityAblationRow]:
    """Compare the RS / CS / SS measures (and extras) end to end."""
    dataset = dataset or generate_dataset(seed=seed)
    group = random_group(dataset.users.ids(), group_size, seed=seed)
    greedy = FairnessAwareGreedy()
    measures = {
        "ratings-pearson": PearsonRatingSimilarity(dataset.ratings),
        "ratings-cosine": CosineRatingSimilarity(dataset.ratings),
        "ratings-jaccard": JaccardRatingSimilarity(dataset.ratings),
        "profile-tfidf": ProfileSimilarity(dataset.users),
        "semantic-snomed": SemanticSimilarity(dataset.users, dataset.ontology),
        "hybrid": HybridSimilarity(
            [
                PearsonRatingSimilarity(dataset.ratings),
                ProfileSimilarity(dataset.users),
                SemanticSimilarity(dataset.users, dataset.ontology),
            ]
        ),
    }
    rows: list[SimilarityAblationRow] = []
    for name, measure in measures.items():
        recommender = GroupRecommender(
            matrix=dataset.ratings,
            similarity=measure,
            aggregation="average",
            top_k=top_k,
        )
        timing = time_callable(lambda: recommender.build_candidates(group), repeats=1)
        candidates = timing.result
        if candidates.num_candidates == 0:
            continue
        selection = greedy.select(candidates, min(z, candidates.num_candidates))
        metrics = summarize_selection(candidates, list(selection.items))
        rows.append(
            SimilarityAblationRow(
                similarity=name,
                fairness=metrics["fairness"],
                value=metrics["value"],
                mean_satisfaction=metrics["mean_satisfaction"],
                candidates=candidates.num_candidates,
                elapsed_ms=timing.median_ms,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Ablation C — selection quality: greedy vs. swap vs. brute force
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueQualityRow:
    """Value achieved by each selector on one (m, z) configuration."""

    m: int
    z: int
    greedy_value: float
    swap_value: float
    brute_force_value: float

    @property
    def greedy_ratio(self) -> float:
        """Greedy value divided by the optimal value (1.0 = optimal)."""
        if self.brute_force_value == 0.0:
            return 1.0
        return self.greedy_value / self.brute_force_value

    @property
    def swap_ratio(self) -> float:
        """Swap-refined value divided by the optimal value."""
        if self.brute_force_value == 0.0:
            return 1.0
        return self.swap_value / self.brute_force_value


def _value_quality_cell(
    spec: tuple[int, int, int, int, int]
) -> ValueQualityRow:
    """Run the three selectors on one ``(m, z)`` cell (process-safe)."""
    m, z, group_size, top_k, seed = spec
    candidates = synthetic_candidates(
        num_candidates=m, group_size=group_size, top_k=top_k, seed=seed
    )
    return ValueQualityRow(
        m=m,
        z=z,
        greedy_value=FairnessAwareGreedy().select(candidates, z).value,
        swap_value=SwapRefinementSelector().select(candidates, z).value,
        brute_force_value=BruteForceSelector().select(candidates, z).value,
    )


def run_value_quality(
    m_values: Sequence[int] = (10, 15, 20),
    z_values: Sequence[int] = (4, 6, 8),
    group_size: int = 4,
    top_k: int = 10,
    seed: int = 7,
    backend: "ExecutionBackend | str | None" = None,
) -> list[ValueQualityRow]:
    """Compare the value achieved by greedy, swap and brute force.

    The grid cells run through ``backend``; the resulting rows are
    bit-identical for every backend (the selectors are deterministic).
    """
    specs = [
        (m, z, group_size, top_k, seed)
        for m in m_values
        for z in z_values
        if z <= m
    ]
    with backend_scope(backend) as resolved:
        return resolved.map_items(_value_quality_cell, specs)


__all__ = [
    "AggregationAblationRow",
    "Proposition1Row",
    "SimilarityAblationRow",
    "TABLE2_M_VALUES",
    "TABLE2_Z_VALUES",
    "Table2Result",
    "Table2Row",
    "ValueQualityRow",
    "run_aggregation_ablation",
    "run_similarity_ablation",
    "run_table2",
    "run_value_quality",
    "synthetic_candidates",
    "verify_proposition1",
]
