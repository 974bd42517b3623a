"""Scale proof: packed serve vs the dict oracle at 10⁵–10⁶ users.

The packed kernels are the library's only compute path; this benchmark
proves they — candidate scan, top-k and the mmap'd spill — hold up at
the scale the paper's MapReduce pitch targets, against the **oracle
pipeline**: the paper's :class:`~repro.core.group.GroupRecommender`
over :class:`~repro.kernels.oracle.DictPearsonSimilarity`, with group
candidates from ``RatingMatrix.items_unrated_by_all`` (no packed code):

1. **generate** a Zipf/power-law synthetic workload
   (:mod:`repro.data.scale`), deterministic per seed;
2. **cold serve** — the first request of each group and each single
   user computes its peer rows (the similarity-kernel-dominated path);
3. **warm serve** — repeated group + single-user requests with every
   service cache disabled, so each request re-runs candidate scan,
   relevance rows and top-k over peer rows already built (the oracle
   keeps its peer lists, as the service keeps its neighbour index).
   This is the phase the ≥ 2x acceptance bar applies to, asserted
   packed vs oracle with bit-identical outputs;
4. **worker bootstrap** — a pool backend booted from the mmap'd packed
   spill vs a full state ship, compared via
   ``pool_stats()["bootstrap_bytes"]`` (≥ 100x bar).

Run directly (``python benchmarks/bench_scale.py [--quick]
[--users N] [--output PATH]``) or via pytest (tiny parity-only
workloads).  Results land in ``BENCH_scale.json`` next to the repo
root; ``tools/check_scale_regression.py`` diffs a fresh run against the
committed baseline in CI.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import RecommenderConfig  # noqa: E402
from repro.core.group import GroupRecommender  # noqa: E402
from repro.core.pipeline import (  # noqa: E402
    CaregiverRecommendation,
    build_selector,
)
from repro.data import generate_scale_dataset, sample_scale_groups  # noqa: E402
from repro.eval.reporting import format_table  # noqa: E402
from repro.eval.timing import stopwatch  # noqa: E402
from repro.kernels.oracle import DictPearsonSimilarity  # noqa: E402
from repro.obs import reset_registry  # noqa: E402
from repro.serving.service import RecommendationService  # noqa: E402

#: Where the measured numbers are written for regression diffing.
RESULT_PATH = _ROOT / "BENCH_scale.json"

#: Acceptance bar on the warm (candidate-scan + top-k) serve phase.
MIN_SERVE_SPEEDUP = 2.0

#: Acceptance bar on spill-boot vs full-ship worker bootstrap bytes.
MIN_BOOTSTRAP_RATIO = 100.0

#: The two arms, in measurement order.
ARMS = ("packed", "oracle")


def _percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile of ``samples`` (nearest-rank, ms)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def _latency_summary(samples: list[float]) -> dict[str, float]:
    return {
        "p50_ms": _percentile(samples, 0.50),
        "p99_ms": _percentile(samples, 0.99),
        "total_ms": sum(samples),
        "requests": len(samples),
    }


def _rss_mb() -> float | None:
    """Resident set size of this process in MB (Linux; None elsewhere)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


@dataclass
class ScaleBenchResult:
    """Both arms on one large workload, plus the parity verdict."""

    num_users: int
    num_items: int
    ratings_per_user: int
    num_ratings: int
    generate_ms: float
    build_ms: dict[str, float]
    cold: dict[str, dict[str, float]]
    warm: dict[str, dict[str, float]]
    obs_request_ms: dict[str, object]
    rss_mb: float | None
    identical_results: bool
    bootstrap_bytes: dict[str, float] = field(default_factory=dict)

    @property
    def warm_serve_speedup(self) -> float:
        """Oracle over packed wall-clock on the warm scan+top-k phase."""
        packed = self.warm["packed"]["total_ms"]
        return self.warm["oracle"]["total_ms"] / packed if packed > 0 else float("inf")

    @property
    def cold_serve_speedup(self) -> float:
        """Oracle over packed wall-clock on the cold (row-building) phase."""
        packed = self.cold["packed"]["total_ms"]
        return self.cold["oracle"]["total_ms"] / packed if packed > 0 else float("inf")

    @property
    def bootstrap_ratio(self) -> float | None:
        """Full-ship over spill-boot bootstrap bytes (None when skipped)."""
        spill = self.bootstrap_bytes.get("spill")
        full = self.bootstrap_bytes.get("full_ship")
        if not spill or not full:
            return None
        return full / spill


def _service_config(**overrides: object) -> RecommenderConfig:
    """Serve config with every cache disabled.

    The warm phase must re-run candidate scan + relevance + top-k per
    request — with the caches on, a warm request is one LRU hit and the
    benchmark would compare cache lookups, not kernels.
    """
    return RecommenderConfig(
        peer_threshold=0.3,
        max_peers=50,
        top_k=10,
        top_z=5,
        similarity_cache_size=0,
        relevance_cache_size=0,
        group_cache_size=0,
        **overrides,  # type: ignore[arg-type]
    )


class _OraclePipeline:
    """The oracle arm: the paper's pipeline over the dict Pearson oracle.

    Answers the same requests as :class:`RecommendationService` —
    greedy fairness-aware selection over the top-``m`` candidates —
    without any packed code.  One :class:`GroupRecommender` serves the
    whole run, so its per-(user, exclusion) peer lists play the part of
    the service's neighbour index.
    """

    def __init__(self, dataset, config: RecommenderConfig) -> None:
        self.matrix = dataset.ratings
        self.config = config
        self.selector = build_selector("greedy")
        self.recommender = GroupRecommender(
            self.matrix,
            DictPearsonSimilarity(self.matrix),
            aggregation=config.aggregation,
            peer_threshold=config.peer_threshold,
            max_peers=config.max_peers,
            top_k=config.top_k,
        )

    def recommend_group(self, group, z: int) -> CaregiverRecommendation:
        candidates = self.recommender.build_candidates(
            group,
            self.matrix.items_unrated_by_all(group.member_ids),
            candidate_limit=self.config.candidate_pool_size,
        )
        return CaregiverRecommendation(
            group=group,
            selection=self.selector.select(candidates, z),
            plain_top_z=tuple(candidates.top_group_items(z)),
            candidates=candidates,
        )

    def recommend_user(self, user_id: str, k: int):
        return self.recommender.single_user.recommend(user_id, k=k)

    def close(self) -> None:
        """Nothing to release (mirrors the service)."""


def run_scale_benchmark(
    num_users: int = 100_000,
    num_items: int = 2_000,
    ratings_per_user: int = 40,
    num_groups: int = 6,
    warm_rounds: int = 3,
    seed: int = 42,
    measure_bootstrap: bool = True,
) -> ScaleBenchResult:
    """Serve the same workload on the packed service and the oracle.

    The packed arm is a fresh service, the oracle arm an
    :class:`_OraclePipeline`, over the same dataset.  The cold pass
    answers every group and single-user request once (building peer
    rows lazily); the warm pass replays them all ``warm_rounds`` times
    with the service caches off.  Every response is collected and
    compared across the arms with ``==`` on the reprs — the
    bit-identity claim of the packed kernels.
    """
    with stopwatch() as elapsed:
        dataset = generate_scale_dataset(
            num_users=num_users,
            num_items=num_items,
            ratings_per_user=ratings_per_user,
            seed=seed,
        )
        generate_ms = elapsed()
    groups = sample_scale_groups(dataset.users.ids(), num_groups, seed=seed + 1)
    user_requests = [group.member_ids[0] for group in groups]

    build_ms: dict[str, float] = {}
    cold: dict[str, dict[str, float]] = {}
    warm: dict[str, dict[str, float]] = {}
    outputs: dict[str, list[str]] = {}
    obs_request_ms: dict[str, object] = {}
    rss_mb: float | None = None
    for arm in ARMS:
        registry = reset_registry()
        with stopwatch() as elapsed:
            if arm == "packed":
                service = RecommendationService(
                    dataset, _service_config(), metrics=registry
                )
            else:
                service = _OraclePipeline(dataset, _service_config())
            build_ms[arm] = elapsed()
        responses: list[str] = []
        cold_samples: list[float] = []
        for group in groups:
            with stopwatch() as elapsed:
                responses.append(repr(service.recommend_group(group, z=5)))
                cold_samples.append(elapsed())
        for user_id in user_requests:
            with stopwatch() as elapsed:
                responses.append(repr(service.recommend_user(user_id, k=10)))
                cold_samples.append(elapsed())
        warm_samples: list[float] = []
        for _ in range(warm_rounds):
            for group in groups:
                with stopwatch() as elapsed:
                    responses.append(repr(service.recommend_group(group, z=5)))
                    warm_samples.append(elapsed())
            for user_id in user_requests:
                with stopwatch() as elapsed:
                    responses.append(repr(service.recommend_user(user_id, k=10)))
                    warm_samples.append(elapsed())
        cold[arm] = _latency_summary(cold_samples)
        warm[arm] = _latency_summary(warm_samples)
        outputs[arm] = responses
        if arm == "packed":
            obs_request_ms[arm] = service.stats()["latency"]
            rss_mb = _rss_mb()
        service.close()

    result = ScaleBenchResult(
        num_users=num_users,
        num_items=num_items,
        ratings_per_user=ratings_per_user,
        num_ratings=dataset.num_ratings,
        generate_ms=generate_ms,
        build_ms=build_ms,
        cold=cold,
        warm=warm,
        obs_request_ms=obs_request_ms,
        rss_mb=rss_mb,
        identical_results=outputs["packed"] == outputs["oracle"],
    )
    if measure_bootstrap:
        result.bootstrap_bytes = _measure_bootstrap(dataset, groups)
    return result


def _measure_bootstrap(dataset, groups) -> dict[str, float]:
    """Pool worker bootstrap bytes: mmap spill boot vs full state ship.

    Both services run the same two-worker pool batch; the spill variant
    sets ``packed_spill`` so workers boot from the mmap'd directory
    (tiny initargs), the other ships dataset + measure in the initargs.
    ``pool_stats()["bootstrap_bytes"]`` accumulates the pickled
    initargs size per spawned worker either way.
    """
    spill_dir = Path(tempfile.mkdtemp(prefix="bench-scale-spill-"))
    measured: dict[str, float] = {}
    try:
        for label, overrides in (
            ("spill", {"packed_spill": str(spill_dir)}),
            ("full_ship", {}),
        ):
            registry = reset_registry()
            config = _service_config(
                exec_backend="pool", exec_workers=2, **overrides
            )
            service = RecommendationService(dataset, config, metrics=registry)
            service.recommend_many(list(groups), z=5, workers=2)
            pool = (service.stats().get("backend") or {}).get("pool") or {}
            measured[label] = float(pool.get("bootstrap_bytes", 0))
            service.close()
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    return measured


def write_result(result: ScaleBenchResult, path: Path = RESULT_PATH) -> Path:
    """Persist the measurements as JSON for regression diffing."""
    payload = {
        "benchmark": "scale",
        "workload": {
            "num_users": result.num_users,
            "num_items": result.num_items,
            "ratings_per_user": result.ratings_per_user,
            "num_ratings": result.num_ratings,
        },
        "identical_results": result.identical_results,
        "generate_ms": result.generate_ms,
        "build_ms": result.build_ms,
        "cold_serve_ms": result.cold,
        "warm_serve_ms": result.warm,
        "cold_serve_speedup": result.cold_serve_speedup,
        "warm_serve_speedup": result.warm_serve_speedup,
        "obs_request_ms": result.obs_request_ms,
        "rss_mb": result.rss_mb,
        "bootstrap_bytes": result.bootstrap_bytes,
        "bootstrap_ratio": result.bootstrap_ratio,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


# -- pytest entry points (tiny workloads: parity, not timing) ----------------


def test_scale_serve_bit_identical():
    """Packed serve and the oracle agree request-for-request on a small
    slice."""
    result = run_scale_benchmark(
        num_users=300,
        num_items=120,
        ratings_per_user=10,
        num_groups=3,
        warm_rounds=1,
        measure_bootstrap=False,
    )
    assert result.identical_results


def test_scale_bootstrap_spill_smaller_than_full_ship():
    """Even tiny datasets bootstrap lighter from the spill than a ship."""
    result = run_scale_benchmark(
        num_users=250,
        num_items=100,
        ratings_per_user=10,
        num_groups=2,
        warm_rounds=1,
        measure_bootstrap=True,
    )
    assert result.identical_results
    assert result.bootstrap_bytes["spill"] > 0
    assert result.bootstrap_bytes["spill"] < result.bootstrap_bytes["full_ship"]


def main(argv: list[str] | None = None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    quick = "--quick" in args
    output = RESULT_PATH
    if "--output" in args:
        output = Path(args[args.index("--output") + 1])
    num_users = 100_000
    if "--users" in args:
        num_users = int(args[args.index("--users") + 1])
    if quick:
        result = run_scale_benchmark(
            num_users=2_000,
            num_items=400,
            ratings_per_user=15,
            num_groups=4,
            warm_rounds=2,
        )
    else:
        result = run_scale_benchmark(num_users=num_users)
    print(
        format_table(
            ["arm", "build (ms)", "cold p50/p99 (ms)", "warm p50/p99 (ms)"],
            [
                [
                    arm,
                    f"{result.build_ms[arm]:.0f}",
                    f"{result.cold[arm]['p50_ms']:.0f} / "
                    f"{result.cold[arm]['p99_ms']:.0f}",
                    f"{result.warm[arm]['p50_ms']:.1f} / "
                    f"{result.warm[arm]['p99_ms']:.1f}",
                ]
                for arm in ARMS
            ],
        )
    )
    ratio = result.bootstrap_ratio
    print(
        f"\nusers={result.num_users} ratings={result.num_ratings} "
        f"generate={result.generate_ms/1000:.1f}s rss={result.rss_mb or 0:.0f}MB\n"
        f"bit-identical packed-vs-oracle: {result.identical_results}\n"
        f"cold serve speedup: {result.cold_serve_speedup:.2f}x, "
        f"warm serve speedup: {result.warm_serve_speedup:.2f}x "
        f"(bar: {MIN_SERVE_SPEEDUP:.1f}x, quick={quick})\n"
        f"bootstrap bytes: {result.bootstrap_bytes} "
        f"ratio: {f'{ratio:.0f}x' if ratio else 'n/a'} "
        f"(bar: {MIN_BOOTSTRAP_RATIO:.0f}x)"
    )
    path = write_result(result, output)
    print(f"wrote {path}")
    if not result.identical_results:
        print(
            "ERROR: packed serve and the oracle disagree on served results",
            file=sys.stderr,
        )
        return 1
    if not quick:
        if result.warm_serve_speedup < MIN_SERVE_SPEEDUP:
            print(
                f"ERROR: warm serve under the {MIN_SERVE_SPEEDUP:.1f}x bar",
                file=sys.stderr,
            )
            return 1
        if ratio is not None and ratio < MIN_BOOTSTRAP_RATIO:
            print(
                f"ERROR: spill bootstrap under the "
                f"{MIN_BOOTSTRAP_RATIO:.0f}x bar",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
