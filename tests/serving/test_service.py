"""Behavioural tests of the RecommendationService.

The contract under test: the warm, cached serving path returns results
bit-identical to a cold :class:`CaregiverPipeline` run on the current
data — before updates, after `ingest_rating`, and after
`update_profile`.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import RecommenderConfig
from repro.core.pipeline import CaregiverPipeline
from repro.data.groups import Group, random_group
from repro.data.phr import HealthProblem
from repro.data.users import User
from repro.exceptions import DeadlineExceeded, UnknownUserError
from repro.kernels.oracle import DictPearsonSimilarity
from repro.resilience import Deadline
from repro.serving import RecommendationService
from repro.serving import service as service_module
from repro.serving.service import _ReadWriteLock

CONFIG = RecommenderConfig(peer_threshold=0.1, top_z=5, top_k=5, max_peers=10)


def _cold(dataset, group, config=CONFIG):
    """A from-scratch pipeline run — the ground truth for warm results."""
    return CaregiverPipeline(dataset, config).recommend(group)


@pytest.fixture
def service(mutable_dataset) -> RecommendationService:
    return RecommendationService(mutable_dataset, CONFIG)


class TestWarmColdParity:
    def test_group_results_match_cold_pipeline(self, service, mutable_dataset):
        for seed in range(4):
            group = random_group(mutable_dataset.users.ids(), 4, seed=seed)
            cold = _cold(mutable_dataset, group)
            warm_first = service.recommend_group(group)
            warm_repeat = service.recommend_group(group)
            assert warm_first.items == cold.items
            assert warm_repeat.items == cold.items
            assert (
                warm_first.candidates.group_relevance
                == cold.candidates.group_relevance
            )
            assert warm_first.candidates.relevance == cold.candidates.relevance
            assert warm_first.report.fairness == cold.report.fairness

    def test_single_user_matches_cold_pipeline(self, service, mutable_dataset):
        pipeline = CaregiverPipeline(mutable_dataset, CONFIG)
        for user_id in mutable_dataset.users.ids()[:5]:
            assert service.recommend_user(user_id) == pipeline.recommend_for_user(
                user_id
            )

    def test_repeated_requests_hit_the_caches(self, service, mutable_dataset):
        group = random_group(mutable_dataset.users.ids(), 4, seed=1)
        service.recommend_group(group)
        before = service.group_cache.stats.hits
        service.recommend_group(group)
        assert service.group_cache.stats.hits == before + 1

    def test_a_user_hit_never_touches_the_index(self, service, mutable_dataset):
        user_id = mutable_dataset.users.ids()[0]
        first = service.recommend_user(user_id)

        def untouchable(*args, **kwargs):
            raise AssertionError("a cached user request read the index")

        service.index.peers_excluding = untouchable
        assert service.recommend_user(user_id) == first
        assert service.cached_user(user_id) == first


class TestGroupPathContract:
    """A group is scored by the column kernel, never from relevance rows."""

    def test_group_requests_leave_the_relevance_cache_alone(
        self, service, mutable_dataset, monkeypatch
    ):
        calls = []
        for name in ("predict_row_packed", "items_unrated_by_all_packed"):
            kernel = getattr(service_module, name)

            def counted(*args, _kernel=kernel, _name=name, **kwargs):
                calls.append(_name)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(service_module, name, counted)
        cache = service.relevance_cache

        def cache_state():
            return len(cache), cache.stats.hits, cache.stats.misses

        before = cache_state()
        group = random_group(mutable_dataset.users.ids(), 4, seed=2)
        assert service.recommend_group(group).items == _cold(
            mutable_dataset, group
        ).items
        assert calls == []
        assert cache_state() == before
        member = group.member_ids[0]
        service.recommend_user(member)
        assert len(cache) == before[0] + 1
        hits = cache.stats.hits
        service.recommend_user(member)
        assert cache.stats.hits == hits + 1

    def test_an_excluding_row_matches_the_cold_row_and_is_not_cached(
        self, service, mutable_dataset
    ):
        matrix = mutable_dataset.ratings
        cold = CaregiverPipeline(mutable_dataset, CONFIG).group_recommender
        group = random_group(mutable_dataset.users.ids(), 4, seed=3)
        for member in group.member_ids:
            others = [uid for uid in group.member_ids if uid != member]
            expected = cold.single_user.predict_items(
                member,
                matrix.unrated_items(member, matrix.item_ids()),
                exclude_peers=others,
            )
            assert list(service.relevance_row(member, others).items()) == list(
                expected.items()
            )
        assert len(service.relevance_cache) == 0


class TestUnknownIds:
    """Ids the dataset does not know are answered but never indexed
    or cached."""

    def test_unknown_ids_store_no_index_row(self, mutable_dataset):
        service = RecommendationService(mutable_dataset, CONFIG)
        service.warm()
        built = service.stats()["index"]["built_rows"]
        pipeline = CaregiverPipeline(mutable_dataset, CONFIG)
        known = mutable_dataset.users.ids()[:3]
        for number in range(4):
            ghost = f"ghost-{number}"
            assert service.recommend_user(ghost) == []
            assert pipeline.recommend_for_user(ghost) == []
            group = Group(member_ids=[*known[: number % 3 + 1], ghost])
            warm, cold = service.recommend_group(group), pipeline.recommend(group)
            assert warm.items == cold.items
            assert warm.candidates.relevance == cold.candidates.relevance
        assert service.stats()["index"]["built_rows"] == built

    def test_unknown_ids_evict_no_cached_answer(self, mutable_dataset):
        """Ghost traffic must not push known users' answers out of the
        relevance and group caches: nothing is stored for an id that
        neither the ratings nor the user registry knows."""
        config = CONFIG.with_overrides(
            relevance_cache_size=8, group_cache_size=8
        )
        service = RecommendationService(mutable_dataset, config)
        known = mutable_dataset.users.ids()[:8]
        groups = [Group(member_ids=known[i : i + 3]) for i in range(5)]
        for user_id in known:
            service.recommend_user(user_id)
        for group in groups:
            service.recommend_group(group)
        for number in range(30):
            ghost = f"ghost-{number}"
            assert service.recommend_user(ghost) == []
            assert service.relevance_row(ghost) == {}
            service.recommend_group(Group(member_ids=[known[number % 8], ghost]))
        service.recommend_many(
            [Group(member_ids=[known[0], f"ghost-{n}"]) for n in range(4)]
        )
        assert len(service.relevance_cache) == len(known)
        assert len(service.group_cache) == len(groups)
        hits = service.relevance_cache.stats.hits
        for user_id in known:
            service.recommend_user(user_id)
        assert service.relevance_cache.stats.hits == hits + len(known)
        hits = service.group_cache.stats.hits
        for group in groups:
            service.recommend_group(group)
        assert service.group_cache.stats.hits == hits + len(groups)

    def test_fleet_answers_for_unknown_ids_are_not_cached(self, mutable_dataset):
        """The pool fold-back stores only groups of known members."""
        config = CONFIG.with_overrides(exec_backend="pool", exec_workers=2)
        known = mutable_dataset.users.ids()[:3]
        ghostly = Group(member_ids=[*known[:2], "ghost"])
        with RecommendationService(mutable_dataset, config) as service:
            service.recommend_many([ghostly, Group(member_ids=known)])
            assert len(service.group_cache) == 1
            assert service.cached_group(ghostly.member_ids) is None

    def test_a_registered_user_without_ratings_is_indexed(self, mutable_dataset):
        mutable_dataset.users.add(User(user_id="newcomer"))
        service = RecommendationService(mutable_dataset, CONFIG)
        pipeline = CaregiverPipeline(mutable_dataset, CONFIG)
        assert service.recommend_user("newcomer") == []
        assert pipeline.recommend_for_user("newcomer") == []
        assert service.index.is_built("newcomer")

    @pytest.mark.parametrize("similarity", ["profile", "semantic", "hybrid"])
    def test_profile_measures_reject_unknown_ids_and_store_nothing(
        self, mutable_dataset, similarity
    ):
        config = CONFIG.with_overrides(similarity=similarity)
        service = RecommendationService(mutable_dataset, config)
        pipeline = CaregiverPipeline(mutable_dataset, config)
        group = Group(member_ids=[mutable_dataset.users.ids()[0], "ghost"])
        for request in (
            lambda: pipeline.recommend_for_user("ghost"),
            lambda: pipeline.recommend(group),
            lambda: service.recommend_user("ghost"),
            lambda: service.recommend_group(group),
        ):
            with pytest.raises(UnknownUserError):
                request()
        assert not service.index.is_built("ghost")


class TestReadWriteLock:
    def test_a_read_waits_for_the_writer(self):
        lock = _ReadWriteLock()
        reading = threading.Event()

        def reader() -> None:
            with lock.read():
                reading.set()

        with lock.write():
            thread = threading.Thread(target=reader)
            thread.start()
            assert not reading.wait(timeout=0.2)
        assert reading.wait(timeout=10.0)
        thread.join(timeout=10.0)
        assert lock._readers == 0


class TestDeadlineEntryCheck:
    """A spent budget is refused on entry, before any cache or compute."""

    @pytest.mark.parametrize("kind", ["group", "user"])
    def test_a_spent_budget_computes_and_counts_nothing(
        self, service, mutable_dataset, kind
    ):
        spent = Deadline(expires_at=0.0, budget=1.0, clock=lambda: 1.0)
        ids = mutable_dataset.users.ids()
        before = service.stats()
        with pytest.raises(DeadlineExceeded):
            if kind == "group":
                service.recommend_group(Group(member_ids=ids[:3]), deadline=spent)
            else:
                service.recommend_user(ids[0], deadline=spent)
        after = service.stats()
        for name in ("group_cache", "relevance_cache", "requests"):
            assert after[name] == before[name]


class TestIngestInvalidation:
    def test_warm_results_equal_cold_recompute_after_ratings(
        self, service, mutable_dataset
    ):
        group = random_group(mutable_dataset.users.ids(), 4, seed=2)
        service.recommend_group(group)  # warm the caches with stale state

        users = mutable_dataset.users.ids()
        matrix = mutable_dataset.ratings
        victims = [group.member_ids[0], users[7], users[23]]
        for offset, user_id in enumerate(victims):
            unrated = matrix.unrated_items(user_id, matrix.item_ids())
            service.ingest_rating(user_id, unrated[offset], 5.0)

        cold = _cold(mutable_dataset, group)
        warm = service.recommend_group(group)
        assert warm.items == cold.items
        assert warm.candidates.relevance == cold.candidates.relevance
        assert warm.candidates.group_relevance == cold.candidates.group_relevance

    def test_rated_item_leaves_the_candidate_pool(self, service, mutable_dataset):
        group = random_group(mutable_dataset.users.ids(), 4, seed=3)
        first = service.recommend_group(group)
        target_item = first.items[0]
        service.ingest_rating(group.member_ids[0], target_item, 4.0)
        second = service.recommend_group(group)
        assert target_item not in second.candidates.group_relevance
        assert second.items == _cold(mutable_dataset, group).items

    def test_overwriting_a_rating_invalidates_consumers(
        self, service, mutable_dataset
    ):
        matrix = mutable_dataset.ratings
        user_id = matrix.user_ids()[0]
        item_id = next(iter(matrix.items_of(user_id)))
        group = random_group(mutable_dataset.users.ids(), 4, seed=4)
        service.recommend_group(group)
        service.ingest_rating(user_id, item_id, 1.0)
        warm = service.recommend_group(group)
        cold = _cold(mutable_dataset, group)
        assert warm.items == cold.items
        assert warm.candidates.relevance == cold.candidates.relevance

    def test_single_user_path_sees_the_update(self, service, mutable_dataset):
        user_id = mutable_dataset.users.ids()[5]
        service.recommend_user(user_id)
        matrix = mutable_dataset.ratings
        unrated = matrix.unrated_items(user_id, matrix.item_ids())
        service.ingest_rating(user_id, unrated[0], 5.0)
        warm = service.recommend_user(user_id)
        cold = CaregiverPipeline(mutable_dataset, CONFIG).recommend_for_user(user_id)
        assert warm == cold

    def test_invalidation_is_targeted(self, service, mutable_dataset):
        users = mutable_dataset.users.ids()
        for user_id in users[:10]:
            service.recommend_user(user_id)
        rows_before = len(service.relevance_cache)
        matrix = mutable_dataset.ratings
        victim = users[0]
        unrated = matrix.unrated_items(victim, matrix.item_ids())
        affected = service.ingest_rating(victim, unrated[0], 3.0)
        assert victim in affected
        # Far fewer rows than the whole cache must have been dropped —
        # untouched users keep their cached state.
        assert len(service.relevance_cache) >= rows_before - len(affected)
        assert len(service.relevance_cache) > 0 or rows_before <= len(affected)


class TestProfileUpdates:
    def test_profile_update_matches_cold_recompute(self, mutable_dataset):
        config = CONFIG.with_overrides(similarity="profile", peer_threshold=0.05)
        service = RecommendationService(mutable_dataset, config)
        group = random_group(mutable_dataset.users.ids(), 3, seed=5)
        service.recommend_group(group)

        target = group.member_ids[0]
        service.update_profile(
            target,
            mutate=lambda user: user.record.add_problem(
                HealthProblem(name="Chronic pain")
            ),
        )
        warm = service.recommend_group(group)
        cold = _cold(mutable_dataset, group, config)
        assert warm.items == cold.items
        assert warm.candidates.relevance == cold.candidates.relevance

    def test_profile_edit_invalidates_uninvolved_pairs(self, mutable_dataset):
        """TF-IDF is corpus-sensitive: one profile edit shifts every IDF
        weight, so pairs *not* involving the edited user are stale too."""
        config = CONFIG.with_overrides(similarity="profile", peer_threshold=0.05)
        service = RecommendationService(mutable_dataset, config)
        users = mutable_dataset.users.ids()
        for user_id in users[:8]:  # warm rows for bystanders
            service.recommend_user(user_id)

        edited = users[20]
        service.update_profile(
            edited,
            mutate=lambda user: user.record.add_problem(
                HealthProblem(name="Acute sinusitis with severe headache")
            ),
        )
        pipeline = CaregiverPipeline(mutable_dataset, config)
        for bystander in users[:8]:
            assert service.recommend_user(bystander) == (
                pipeline.recommend_for_user(bystander)
            ), bystander

    def test_semantic_profile_update_stays_targeted(self, mutable_dataset):
        config = CONFIG.with_overrides(similarity="semantic", peer_threshold=0.05)
        service = RecommendationService(mutable_dataset, config)
        users = mutable_dataset.users.ids()
        for user_id in users[:5]:
            service.recommend_user(user_id)
        rows_before = len(service.relevance_cache)
        from repro.ontology.snomed import BROKEN_ARM

        affected = service.update_profile(
            users[0],
            mutate=lambda user: user.record.add_problem(
                HealthProblem(name="Broken arm", concept_id=BROKEN_ARM)
            ),
        )
        # Path-based concept scores are pairwise, so invalidation stays
        # targeted instead of wiping the caches.
        assert affected != set(users)
        assert len(service.relevance_cache) > 0 or rows_before <= len(affected)
        pipeline = CaregiverPipeline(mutable_dataset, config)
        for user_id in users[:5]:
            assert service.recommend_user(user_id) == (
                pipeline.recommend_for_user(user_id)
            )

    def test_ingest_does_not_refit_profile_component(
        self, mutable_dataset, monkeypatch
    ):
        from repro.similarity.profile_sim import ProfileSimilarity

        config = CONFIG.with_overrides(similarity="hybrid", peer_threshold=0.05)
        service = RecommendationService(mutable_dataset, config)
        group = random_group(mutable_dataset.users.ids(), 3, seed=6)
        service.recommend_group(group)

        fits = []
        original_fit = ProfileSimilarity.fit
        monkeypatch.setattr(
            ProfileSimilarity,
            "fit",
            lambda self: fits.append(1) or original_fit(self),
        )
        matrix = mutable_dataset.ratings
        user_id = group.member_ids[0]
        unrated = matrix.unrated_items(user_id, matrix.item_ids())
        service.ingest_rating(user_id, unrated[0], 4.0)
        assert fits == []  # ratings never touch the TF-IDF corpus
        warm = service.recommend_group(group)
        cold = _cold(mutable_dataset, group, config)
        assert warm.items == cold.items


class TestBatchApi:
    def _groups(self, dataset, count=6):
        return [random_group(dataset.users.ids(), 4, seed=seed) for seed in range(count)]

    def test_batch_matches_individual_requests(self, service, mutable_dataset):
        groups = self._groups(mutable_dataset)
        batch = service.recommend_many(groups)
        assert [r.items for r in batch] == [
            service.recommend_group(group).items for group in groups
        ]

    def test_batch_preserves_order_and_dedupes(self, service, mutable_dataset):
        groups = self._groups(mutable_dataset, count=3)
        workload = [groups[0], groups[1], groups[0], groups[2], groups[0]]
        results = service.recommend_many(workload)
        assert len(results) == len(workload)
        assert results[0].items == results[2].items == results[4].items
        assert [tuple(r.group.member_ids) for r in results] == [
            tuple(g.member_ids) for g in workload
        ]


class TestStats:
    def test_stats_shape_and_counters(self, service, mutable_dataset):
        group = random_group(mutable_dataset.users.ids(), 4, seed=6)
        service.recommend_group(group)
        service.recommend_group(group)
        service.recommend_user(group.member_ids[0])
        stats = service.stats()
        assert stats["requests"]["group_requests"] == 2
        assert stats["requests"]["user_requests"] == 1
        assert stats["mean_group_ms"] >= 0.0
        for cache_name in ("similarity_cache", "relevance_cache", "group_cache"):
            assert 0.0 <= stats[cache_name]["hit_rate"] <= 1.0
        assert stats["index"]["built_rows"] >= len(group)

    def test_warm_builds_all_rows(self, service, mutable_dataset):
        assert service.warm() == mutable_dataset.ratings.num_users
        assert service.stats()["index"]["built_rows"] == (
            mutable_dataset.ratings.num_users
        )


class TestExecutionBackends:
    """recommend_many must be bit-identical on every backend."""

    def _groups(self, dataset, count=5):
        return [
            random_group(dataset.users.ids(), 4, seed=seed)
            for seed in range(count)
        ]

    @pytest.mark.parametrize("backend", ["serial", "pool", "remote"])
    def test_batch_matches_cold_pipeline(self, mutable_dataset, backend):
        config = CONFIG.with_overrides(exec_backend=backend, exec_workers=2)
        groups = self._groups(mutable_dataset)
        with RecommendationService(mutable_dataset, config) as service:
            results = service.recommend_many(groups)
        for group, result in zip(groups, results):
            cold = _cold(mutable_dataset, group)
            assert result.items == cold.items
            assert (
                result.candidates.group_relevance
                == cold.candidates.group_relevance
            )

    def test_process_batch_populates_group_cache(self, mutable_dataset):
        config = CONFIG.with_overrides(exec_backend="pool", exec_workers=2)
        groups = self._groups(mutable_dataset, count=3)
        with RecommendationService(mutable_dataset, config) as service:
            service.recommend_many(groups)
            hits_before = service.group_cache.stats.hits
            service.recommend_many(groups)
            assert service.group_cache.stats.hits >= hits_before + 3

    def test_pool_warm_then_serve_binds_the_fleet_once(self, mutable_dataset):
        """warm() builds rows on the resident serve workers, so the
        batches that follow reuse the fleet it booted: one boot in all,
        with rows and recommendations identical to a serial warm
        service — including after an ingest, which reaches the fleet
        as a delta."""
        config = CONFIG.with_overrides(exec_backend="pool", exec_workers=2)
        reference = RecommendationService(mutable_dataset, CONFIG)
        reference.warm()
        groups = self._groups(mutable_dataset, count=3)
        with RecommendationService(mutable_dataset, config) as service:
            service.warm()
            assert (
                service.index.snapshot_rows() == reference.index.snapshot_rows()
            )
            assert service.backend.restarts == 1
            batch = [r.items for r in service.recommend_many(groups)]
            assert batch == [
                r.items for r in reference.recommend_many(groups)
            ]
            user_id = groups[0].member_ids[0]
            unrated = mutable_dataset.ratings.unrated_items(
                user_id, mutable_dataset.ratings.item_ids()
            )
            service.ingest_rating(user_id, unrated[0], 5.0)
            reference.ingest_rating(user_id, unrated[0], 5.0)
            assert [r.items for r in service.recommend_many(groups)] == [
                r.items for r in reference.recommend_many(groups)
            ]
            assert (
                service.index.snapshot_rows() == reference.index.snapshot_rows()
            )
            assert service.backend.restarts == 1

    def test_stats_report_backend(self, mutable_dataset):
        """The backend is reported; the index has no shard count."""
        config = CONFIG.with_overrides(exec_backend="pool", exec_workers=2)
        with RecommendationService(mutable_dataset, config) as service:
            stats = service.stats()
        assert stats["backend"]["name"] == "pool"
        assert stats["backend"]["workers"] == 2
        assert "shards" not in stats["index"]


class TestExplicitSizeValidation:
    def test_zero_z_rejected(self, service, mutable_dataset):
        from repro.exceptions import ConfigurationError

        group = random_group(mutable_dataset.users.ids(), 4, seed=0)
        with pytest.raises(ConfigurationError, match="z must be positive"):
            service.recommend_group(group, z=0)

    def test_zero_k_rejected(self, service, mutable_dataset):
        from repro.exceptions import ConfigurationError

        user_id = mutable_dataset.users.ids()[0]
        with pytest.raises(ConfigurationError, match="k must be positive"):
            service.recommend_user(user_id, k=0)


class TestBackendLifecycleAndCustomMeasures:
    def _groups(self, dataset, count):
        return [
            random_group(dataset.users.ids(), 4, seed=seed)
            for seed in range(count)
        ]

    def test_process_batch_respects_custom_similarity(self, mutable_dataset):
        from repro.similarity.ratings_sim import JaccardRatingSimilarity

        custom = JaccardRatingSimilarity(mutable_dataset.ratings)
        config = CONFIG.with_overrides(peer_threshold=0.05)
        groups = self._groups(mutable_dataset, count=3)
        reference = RecommendationService(
            mutable_dataset, config, similarity=custom
        )
        reference.warm()
        baseline = [r.items for r in reference.recommend_many(groups)]
        pooled = config.with_overrides(exec_backend="pool", exec_workers=2)
        with RecommendationService(
            mutable_dataset, pooled, similarity=custom
        ) as fresh:
            fresh.warm()
            assert (
                fresh.index.snapshot_rows() == reference.index.snapshot_rows()
            )
            got = [r.items for r in fresh.recommend_many(groups)]
        assert got == baseline

    def test_fleet_keeps_service_config(self, mutable_dataset):
        """The fleet a service builds carries the configured knobs and
        reports into the service's registry, so the batch's worker
        telemetry reaches the service."""
        config = CONFIG.with_overrides(
            exec_backend="pool",
            exec_workers=2,
            group_cache_size=0,
            relevance_cache_size=0,
            remote_heartbeat_interval=0.5,
            remote_heartbeat_timeout=3.0,
            degraded_mode="serial",
        )
        groups = self._groups(mutable_dataset, count=4)
        with RecommendationService(mutable_dataset, config) as service:
            service.recommend_many(groups)
            fleet = service.backend
            assert fleet.workers == 2
            assert fleet.metrics is service.metrics
            assert fleet.heartbeat_interval == 0.5
            assert fleet.heartbeat_timeout == 3.0
            assert fleet.degraded_mode == "serial"
            assert fleet.fingerprint == config.fingerprint()
            worker_series = [
                name
                for name, labels, _ in service.metrics.metrics()
                if "worker" in dict(labels)
            ]
            assert worker_series
            # The fleet counted its one boot in the service registry.
            assert service.metrics.value("pool_restarts") == 1
            assert fleet.pool_stats()["live_workers"] == 2

    def test_service_close_releases_owned_fleet(self, mutable_dataset):
        """Closing a service stops the worker fleet it built."""
        service = RecommendationService(
            mutable_dataset,
            CONFIG.with_overrides(exec_backend="pool", exec_workers=2),
        )
        groups = self._groups(mutable_dataset, count=2)
        with service:
            service.recommend_many(groups)
            assert service.backend.pool_stats()["live_workers"] == 2
        assert service.backend.pool_stats()["live_workers"] == 0


class TestWorkerFoldedCacheInvalidation:
    """Regression: group results folded back from worker processes.

    ``_recommend_many_process`` caches worker-computed recommendations
    in the parent's group cache, but the parent may never have built
    the members' peer rows — so the targeted invalidation (which walks
    *built* rows) used to miss those entries, and a group whose members
    merely *depended* on the touched user kept serving its pre-mutation
    result.  The fix treats members without a built parent row as
    conservatively affected.
    """

    def test_folded_results_invalidate_on_ingest(self, mutable_dataset):
        config = CONFIG.with_overrides(exec_backend="pool", exec_workers=2)
        groups = [
            random_group(mutable_dataset.users.ids(), 4, seed=s)
            for s in range(4)
        ]
        service = RecommendationService(mutable_dataset, config)
        service.recommend_many(groups)  # fills the cache from workers
        # Mutate a user from the *first* group, repeatedly, so peer
        # scores move enough to change other groups' recommendations.
        # Those groups' rows were never built in the parent, so only
        # the conservative invalidation drops their folded entries.
        touched = groups[0].member_ids[0]
        for item_id in mutable_dataset.ratings.item_ids()[:4]:
            service.ingest_rating(touched, item_id, 1.0)
        after = [r.items for r in service.recommend_many(groups)]
        service.close()

        cold = RecommendationService(mutable_dataset, CONFIG)
        expected = [cold.recommend_group(g).items for g in groups]
        assert after == expected

    def test_pool_backend_folded_results_invalidate_too(self, mutable_dataset):
        config = CONFIG.with_overrides(exec_backend="pool", exec_workers=2)
        groups = [
            random_group(mutable_dataset.users.ids(), 4, seed=s)
            for s in range(4)
        ]
        with RecommendationService(mutable_dataset, config) as service:
            service.recommend_many(groups)
            touched = groups[0].member_ids[0]
            for item_id in mutable_dataset.ratings.item_ids()[:4]:
                service.ingest_rating(touched, item_id, 1.0)
            after = [r.items for r in service.recommend_many(groups)]

        cold = RecommendationService(mutable_dataset, CONFIG)
        expected = [cold.recommend_group(g).items for g in groups]
        assert after == expected


class TestSharedAndForeignPools:
    """Pool instances that outlive or cross service boundaries."""

    def _groups(self, dataset, count=3):
        return [
            random_group(dataset.users.ids(), 4, seed=seed)
            for seed in range(count)
        ]

    def test_one_pool_shared_by_two_services_over_different_data(
        self, mutable_dataset
    ):
        """Resident workers built from service A's dataset must not
        answer service B's requests — the initargs identity check has
        to force a re-ship on hand-over."""
        from repro.data.datasets import generate_dataset
        from repro.exec import PoolBackend

        other = generate_dataset(
            num_users=30, num_items=40, ratings_per_user=10, seed=77
        )
        with PoolBackend(workers=2) as pool:
            a = RecommendationService(mutable_dataset, CONFIG, backend=pool)
            b = RecommendationService(other, CONFIG, backend=pool)
            groups_a = self._groups(mutable_dataset)
            groups_b = self._groups(other)
            got_a = [r.items for r in a.recommend_many(groups_a)]
            got_b = [r.items for r in b.recommend_many(groups_b)]
        assert got_a == [
            _cold(mutable_dataset, g).items for g in groups_a
        ]
        assert got_b == [_cold(other, g).items for g in groups_b]


class TestKernelStateInvalidation:
    """Mutation paths must drop every kernel-side per-user cache.

    A stale Pearson mean (or a stale packed row) after ``ingest_rating``
    silently skews every later score instead of failing loudly, so both
    are pinned here against the service's mutation paths.
    """

    def _dict_service(self, dataset) -> RecommendationService:
        """A service over the dict Pearson oracle (it keeps a mean cache)."""
        return RecommendationService(
            dataset, CONFIG, similarity=DictPearsonSimilarity(dataset.ratings)
        )

    def test_ingest_rating_invalidates_pearson_mean_cache(
        self, mutable_dataset
    ):
        service = self._dict_service(mutable_dataset)
        pearson = service.similarity.inner
        user_id = mutable_dataset.users.ids()[0]
        service.recommend_user(user_id)
        assert user_id in pearson._mean_cache
        stale_mean = pearson._mean_cache[user_id]
        unrated = mutable_dataset.ratings.unrated_items(
            user_id, mutable_dataset.ratings.item_ids()
        )
        service.ingest_rating(user_id, unrated[0], 1.0)
        # refresh_user may legitimately have re-cached the mean already;
        # what matters is that it is the *post-ingest* mean, not the
        # stale one.
        fresh_mean = mutable_dataset.ratings.mean_rating(user_id)
        assert stale_mean != fresh_mean
        assert pearson._mean(user_id) == fresh_mean

    def test_update_profile_invalidates_pearson_mean_cache(
        self, mutable_dataset, monkeypatch
    ):
        service = self._dict_service(mutable_dataset)
        pearson = service.similarity.inner
        user_id = mutable_dataset.users.ids()[0]
        service.recommend_user(user_id)
        assert user_id in pearson._mean_cache
        dropped: list[str] = []
        original = type(pearson).invalidate_user

        def spy(self, uid):
            dropped.append(uid)
            return original(self, uid)

        monkeypatch.setattr(type(pearson), "invalidate_user", spy)
        service.update_profile(user_id)
        assert user_id in dropped

    def test_stale_mean_would_skew_scores(self, mutable_dataset):
        """Non-vacuousness: with the invalidation hook bypassed, the
        served similarity really would diverge — so the passing tests
        above are load-bearing."""
        service = self._dict_service(mutable_dataset)
        pearson = service.similarity.inner
        users = mutable_dataset.users.ids()
        user_id = users[0]
        service.recommend_user(user_id)
        stale_mean = pearson._mean(user_id)
        unrated = mutable_dataset.ratings.unrated_items(
            user_id, mutable_dataset.ratings.item_ids()
        )
        service.ingest_rating(user_id, unrated[0], 1.0)
        assert stale_mean != mutable_dataset.ratings.mean_rating(user_id)

    def test_ingest_marks_packed_rows_dirty_even_without_ratings_measure(
        self, mutable_dataset
    ):
        """With a profile measure the Pearson invalidation hooks never
        run; the service itself must keep the packed view current for
        the prediction-table kernel."""
        config = CONFIG.with_overrides(similarity="profile")
        service = RecommendationService(mutable_dataset, config)
        user_id = mutable_dataset.users.ids()[0]
        before_row = service.relevance_row(user_id)
        predicted_item = next(iter(before_row))
        service.ingest_rating(user_id, predicted_item, 1.0)
        after_row = service.relevance_row(user_id)
        # The freshly-rated item left the candidate set, and the rest of
        # the row still matches the cold pipeline on the mutated data.
        assert predicted_item not in after_row
        assert service.recommend_user(user_id) == CaregiverPipeline(
            mutable_dataset, config
        ).recommend_for_user(user_id)

    def test_packed_service_repack_lifecycle_matches_dict_service(
        self, mutable_dataset
    ):
        """mutate → incremental repack → serve, repeatedly, against a
        twin whose peers come from the dict Pearson oracle on identical
        data: the packed service's answers must stay bit-identical
        through the whole lifecycle."""
        from repro.data.datasets import HealthDataset

        twin = HealthDataset.from_dict(mutable_dataset.to_dict())
        packed_service = RecommendationService(mutable_dataset, CONFIG)
        dict_service = self._dict_service(twin)
        users = mutable_dataset.users.ids()
        items = mutable_dataset.ratings.item_ids()
        group = random_group(users, 4, seed=3)
        for step in range(4):
            user_id = users[step % len(users)]
            item_id = items[(step * 7) % len(items)]
            value = float(1 + (step % 5))
            packed_service.ingest_rating(user_id, item_id, value)
            dict_service.ingest_rating(user_id, item_id, value)
            assert packed_service.recommend_user(user_id) == (
                dict_service.recommend_user(user_id)
            )
            packed_rec = packed_service.recommend_group(group)
            dict_rec = dict_service.recommend_group(group)
            assert packed_rec.items == dict_rec.items
            assert (
                packed_rec.candidates.group_relevance
                == dict_rec.candidates.group_relevance
            )
