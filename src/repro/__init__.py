"""repro — fairness-aware group recommendations in the health domain.

A from-scratch reproduction of *"Fairness in Group Recommendations in
the Health Domain"* (Stratigi, Kondylakis, Stefanidis — ICDE 2017).

The package is organised in layers:

* :mod:`repro.data` — users, personal health records, health documents,
  the sparse rating matrix, caregiver groups and synthetic dataset
  generators (generic health content and a nutrition workload);
* :mod:`repro.text` — tokenisation, TF-IDF and sparse vectors;
* :mod:`repro.ontology` — the SNOMED-like concept hierarchy and path
  based concept similarities;
* :mod:`repro.similarity` — the paper's three user similarity measures
  (ratings / profile / semantic) plus hybrids and peer selection;
* :mod:`repro.core` — the contribution: single-user CF relevance,
  group aggregation, the fairness model, Algorithm 1, the brute-force
  baseline and the end-to-end caregiver pipeline;
* :mod:`repro.mapreduce` — an in-process MapReduce engine and the
  paper's three-job implementation;
* :mod:`repro.exec` — the execution substrate (serial / thread /
  worker-process backends with deterministic, bit-identical results)
  shared by the engine, the index builds, batch serving and the eval
  grids;
* :mod:`repro.eval` — metrics, timing and the experiment harness that
  regenerates the paper's Table II and the extension ablations;
* :mod:`repro.serving` — the stateful serving layer: a neighbour
  index, LRU score caches and a :class:`RecommendationService` that
  answers repeated single-user, group and batch requests fast, with
  targeted cache invalidation on rating/profile updates.

Quickstart::

    from repro import CaregiverPipeline, RecommenderConfig, generate_dataset

    dataset = generate_dataset(num_users=100, num_items=200)
    pipeline = CaregiverPipeline(dataset, RecommenderConfig(top_z=10))
    group = dataset.random_group(size=5)
    recommendation = pipeline.recommend(group)
    print(recommendation.items, recommendation.report.fairness)
"""

from .config import DEFAULT_CONFIG, RecommenderConfig
from .core import (
    BruteForceSelector,
    CaregiverPipeline,
    CaregiverRecommendation,
    FairnessAwareGreedy,
    FairnessReport,
    GroupCandidates,
    GroupRecommendation,
    GroupRecommender,
    ScoredItem,
    SingleUserRecommender,
    SwapRefinementSelector,
    fairness,
    value,
)
from .data import (
    Group,
    HealthDataset,
    HealthDocument,
    ItemCatalog,
    PersonalHealthRecord,
    RatingMatrix,
    User,
    UserRegistry,
    generate_dataset,
    generate_nutrition_dataset,
)
from .exceptions import ReproError, ValidationError
from .kernels import PackedRatings, get_packed
from .exec import (
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from .mapreduce import MapReduceEngine, MapReduceGroupRecommender
from .ontology import HealthOntology, build_snomed_like_ontology
from .serving import RecommendationService
from .similarity import (
    HybridSimilarity,
    PearsonRatingSimilarity,
    ProfileSimilarity,
    SemanticSimilarity,
)
from .validation import Violation, validate_dataset, validate_groups

__version__ = "1.1.0"

__all__ = [
    "BruteForceSelector",
    "CaregiverPipeline",
    "CaregiverRecommendation",
    "DEFAULT_CONFIG",
    "ExecutionBackend",
    "FairnessAwareGreedy",
    "FairnessReport",
    "Group",
    "GroupCandidates",
    "GroupRecommendation",
    "GroupRecommender",
    "HealthDataset",
    "HealthDocument",
    "HealthOntology",
    "HybridSimilarity",
    "ItemCatalog",
    "MapReduceEngine",
    "MapReduceGroupRecommender",
    "PackedRatings",
    "PearsonRatingSimilarity",
    "PersonalHealthRecord",
    "PoolBackend",
    "ProfileSimilarity",
    "RatingMatrix",
    "RecommendationService",
    "RecommenderConfig",
    "ReproError",
    "ScoredItem",
    "SemanticSimilarity",
    "SerialBackend",
    "SingleUserRecommender",
    "SwapRefinementSelector",
    "ThreadBackend",
    "User",
    "UserRegistry",
    "ValidationError",
    "Violation",
    "__version__",
    "build_snomed_like_ontology",
    "fairness",
    "generate_dataset",
    "generate_nutrition_dataset",
    "get_backend",
    "get_packed",
    "validate_dataset",
    "validate_groups",
    "value",
]
