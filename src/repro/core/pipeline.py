"""End-to-end caregiver recommendation pipeline.

This module mirrors Figure 1 of the paper in library form: the
recommendation engine reads patient profiles and document ratings and
produces, for a caregiver's group, a set of suggestions that is both
highly relevant and fair.  :class:`CaregiverPipeline` wires together

* a :class:`~repro.data.datasets.HealthDataset` (users, items, ratings,
  ontology);
* a :class:`~repro.config.RecommenderConfig` selecting the similarity
  measure, the aggregation semantics, ``δ``, ``k``, ``z`` and ``m``;
* the :class:`~repro.core.group.GroupRecommender` and the fairness-aware
  selection algorithm (Algorithm 1 by default).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DEFAULT_CONFIG, RecommenderConfig, resolve_positive
from ..data.datasets import HealthDataset
from ..data.groups import Group
from ..exceptions import ConfigurationError
from ..similarity.base import UserSimilarity
from ..similarity.hybrid import HybridSimilarity
from ..similarity.profile_sim import ProfileSimilarity
from ..similarity.ratings_sim import PearsonRatingSimilarity
from ..similarity.semantic_sim import SemanticSimilarity
from .brute_force import BruteForceSelector
from .candidates import GroupCandidates
from .fairness import FairnessReport
from .greedy import FairnessAwareGreedy, GroupRecommendation
from .group import GroupRecommender
from .relevance import ScoredItem
from .swap import SwapRefinementSelector


def build_similarity(
    dataset: HealthDataset, config: RecommenderConfig
) -> UserSimilarity:
    """Instantiate the similarity measure selected by ``config``.

    ``"ratings"`` → Pearson (Eq. 2), ``"profile"`` → TF-IDF cosine
    (Eq. 3), ``"semantic"`` → ontology harmonic mean (Eq. 4), and
    ``"hybrid"`` → the weighted combination of all three.
    """
    if config.similarity == "ratings":
        return PearsonRatingSimilarity(dataset.ratings)
    if config.similarity == "profile":
        return ProfileSimilarity(dataset.users)
    if config.similarity == "semantic":
        return SemanticSimilarity(dataset.users, dataset.ontology)
    if config.similarity == "hybrid":
        return HybridSimilarity(
            [
                PearsonRatingSimilarity(dataset.ratings),
                ProfileSimilarity(dataset.users),
                SemanticSimilarity(dataset.users, dataset.ontology),
            ],
            weights=list(config.hybrid_weights),
        )
    raise ConfigurationError(f"unknown similarity {config.similarity!r}")


def build_selector(name: str):
    """Instantiate a fairness-aware selection algorithm by name."""
    selectors = {
        "greedy": FairnessAwareGreedy,
        "brute-force": BruteForceSelector,
        "swap": SwapRefinementSelector,
    }
    try:
        return selectors[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown selector {name!r}; expected one of {sorted(selectors)}"
        ) from None


@dataclass(frozen=True)
class CaregiverRecommendation:
    """The pipeline output handed to the caregiver.

    Attributes
    ----------
    group:
        The caregiver group the recommendation was computed for.
    selection:
        The fairness-aware selection (Algorithm 1 result by default).
    plain_top_z:
        The plain top-``z`` by group relevance (Definition 2 only),
        useful for comparing against the fairness-aware selection.
    candidates:
        The underlying candidate bundle, exposing per-member relevance
        tables for inspection.
    """

    group: Group
    selection: GroupRecommendation
    plain_top_z: tuple[ScoredItem, ...]
    candidates: GroupCandidates

    @property
    def items(self) -> tuple[str, ...]:
        """The recommended item ids, in selection order."""
        return self.selection.items

    @property
    def report(self) -> FairnessReport:
        """Fairness breakdown of the selection."""
        return self.selection.report


class CaregiverPipeline:
    """The full recommendation pipeline of the paper's system.

    Parameters
    ----------
    dataset:
        The data bundle (users, items, ratings, ontology).
    config:
        Recommendation parameters; defaults to
        :data:`~repro.config.DEFAULT_CONFIG`.
    selector:
        The fairness-aware selection algorithm name (``"greedy"``,
        ``"swap"`` or ``"brute-force"``).
    """

    def __init__(
        self,
        dataset: HealthDataset,
        config: RecommenderConfig = DEFAULT_CONFIG,
        selector: str = "greedy",
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.similarity = build_similarity(dataset, config)
        self.selector = build_selector(selector)
        self.group_recommender = GroupRecommender(
            matrix=dataset.ratings,
            similarity=self.similarity,
            aggregation=config.aggregation,
            peer_threshold=config.peer_threshold,
            max_peers=config.max_peers,
            top_k=config.top_k,
        )

    def build_candidates(self, group: Group) -> GroupCandidates:
        """Candidate bundle for ``group`` (pool capped at ``m``)."""
        return self.group_recommender.build_candidates(
            group, candidate_limit=self.config.candidate_pool_size
        )

    def recommend(self, group: Group, z: int | None = None) -> CaregiverRecommendation:
        """Produce the caregiver recommendation for ``group``.

        ``z`` defaults to ``config.top_z``; an explicit non-positive
        ``z`` raises :class:`~repro.exceptions.ConfigurationError`
        (it used to silently fall back to the default).
        """
        z = resolve_positive(z, self.config.top_z, "z")
        candidates = self.build_candidates(group)
        selection = self.selector.select(candidates, z)
        plain = tuple(candidates.top_group_items(z))
        return CaregiverRecommendation(
            group=group,
            selection=selection,
            plain_top_z=plain,
            candidates=candidates,
        )

    def recommend_for_user(self, user_id: str, k: int | None = None) -> list[ScoredItem]:
        """Single-user recommendation (Section III.A) for one patient.

        ``k`` defaults to ``config.top_k``; an explicit non-positive
        ``k`` raises :class:`~repro.exceptions.ConfigurationError`.
        """
        k = resolve_positive(k, self.config.top_k, "k")
        return self.group_recommender.single_user.recommend(user_id, k=k)
