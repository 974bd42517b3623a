"""Behavioural tests of the RecommendationService.

The contract under test: the warm, cached serving path returns results
bit-identical to a cold :class:`CaregiverPipeline` run on the current
data — before updates, after `ingest_rating`, and after
`update_profile`.
"""

from __future__ import annotations

import pytest

from repro.config import RecommenderConfig
from repro.core.pipeline import CaregiverPipeline
from repro.data.groups import Group, random_group
from repro.data.phr import HealthProblem
from repro.kernels.oracle import DictPearsonSimilarity
from repro.serving import RecommendationService

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

    def test_threaded_batch_matches_sequential(self, mutable_dataset):
        sequential = RecommendationService(mutable_dataset, CONFIG)
        threaded = RecommendationService(mutable_dataset, CONFIG)
        groups = self._groups(mutable_dataset, count=8)
        expected = sequential.recommend_many(groups, workers=1)
        actual = threaded.recommend_many(groups, workers=4)
        assert [r.items for r in actual] == [r.items for r in expected]


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

    @pytest.mark.parametrize("backend", ["serial", "thread", "pool", "remote"])
    def test_batch_matches_cold_pipeline(self, mutable_dataset, backend):
        config = CONFIG.with_overrides(exec_backend=backend, exec_workers=2)
        service = RecommendationService(mutable_dataset, config)
        groups = self._groups(mutable_dataset)
        results = service.recommend_many(groups)
        for group, result in zip(groups, results):
            cold = _cold(mutable_dataset, group)
            assert result.items == cold.items
            assert (
                result.candidates.group_relevance
                == cold.candidates.group_relevance
            )

    def test_backend_argument_overrides_service_backend(self, mutable_dataset):
        service = RecommendationService(mutable_dataset, CONFIG)
        groups = self._groups(mutable_dataset)
        baseline = [r.items for r in service.recommend_many(groups)]
        for backend in ("thread", "pool", "remote"):
            fresh = RecommendationService(mutable_dataset, CONFIG)
            got = [
                r.items
                for r in fresh.recommend_many(groups, backend=backend, workers=2)
            ]
            assert got == baseline

    def test_process_batch_populates_group_cache(self, mutable_dataset):
        service = RecommendationService(mutable_dataset, CONFIG)
        groups = self._groups(mutable_dataset, count=3)
        service.recommend_many(groups, backend="pool", workers=2)
        hits_before = service.group_cache.stats.hits
        service.recommend_many(groups)
        assert service.group_cache.stats.hits >= hits_before + 3

    def test_sharded_service_matches_flat(self, mutable_dataset):
        flat = RecommendationService(mutable_dataset, CONFIG)
        sharded = RecommendationService(
            mutable_dataset, CONFIG.with_overrides(index_shards=3)
        )
        flat.warm()
        sharded.warm()
        for group in self._groups(mutable_dataset):
            assert (
                sharded.recommend_group(group).items
                == flat.recommend_group(group).items
            )

    def test_sharded_service_survives_updates(self, mutable_dataset):
        sharded = RecommendationService(
            mutable_dataset, CONFIG.with_overrides(index_shards=3)
        )
        sharded.warm()
        group = random_group(mutable_dataset.users.ids(), 4, seed=2)
        sharded.recommend_group(group)
        user_id = group.member_ids[0]
        unrated = mutable_dataset.ratings.unrated_items(
            user_id, mutable_dataset.ratings.item_ids()
        )
        sharded.ingest_rating(user_id, unrated[0], 5.0)
        fresh = sharded.recommend_group(group)
        assert fresh.items == _cold(mutable_dataset, group).items

    def test_pool_backend_warm_then_serve_rebinds_resident_state(
        self, mutable_dataset
    ):
        """warm() binds the pool to the index-build state, the first
        batch rebinds it to the serve state, and both produce rows and
        recommendations identical to a serial warm service — including
        after an ingest that must survive both rebinds."""
        config = CONFIG.with_overrides(exec_backend="pool", exec_workers=2)
        reference = RecommendationService(mutable_dataset, CONFIG)
        reference.warm()
        groups = self._groups(mutable_dataset, count=3)
        with RecommendationService(mutable_dataset, config) as service:
            service.warm()
            assert (
                service.index.snapshot_rows() == reference.index.snapshot_rows()
            )
            assert service.backend.restarts == 1  # the build pool
            batch = [r.items for r in service.recommend_many(groups)]
            assert service.backend.restarts == 2  # rebound to serve state
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

    def test_stats_report_backend_and_shards(self, mutable_dataset):
        service = RecommendationService(
            mutable_dataset,
            CONFIG.with_overrides(
                exec_backend="thread", exec_workers=2, index_shards=2
            ),
        )
        stats = service.stats()
        assert stats["backend"]["name"] == "thread"
        assert stats["index"]["shards"] == 2


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

    def test_explicit_workers_override_service_backend_width(
        self, mutable_dataset
    ):
        service = RecommendationService(
            mutable_dataset,
            CONFIG.with_overrides(exec_backend="thread", exec_workers=2),
        )
        resolved, owned = service._batch_backend(workers=5, backend=None)
        try:
            assert resolved.name == "thread"
            assert resolved.workers == 5
            assert owned
        finally:
            resolved.close()
        reused, owned = service._batch_backend(workers=2, backend=None)
        assert reused is service.backend
        assert not owned


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
        baseline = [r.items for r in reference.recommend_many(groups)]
        fresh = RecommendationService(mutable_dataset, config, similarity=custom)
        got = [
            r.items
            for r in fresh.recommend_many(groups, backend="pool", workers=2)
        ]
        assert got == baseline

    def test_per_call_width_keeps_the_service_backend_config(
        self, mutable_dataset
    ):
        """Regression: a per-call ``workers`` override built its batch
        backend with default knobs and a private metrics registry, so
        the batch's worker telemetry never reached the service."""
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
            built = []
            pick = service._batch_backend

            def recording_pick(workers, backend):
                resolved, owned = pick(workers, backend)
                built.append(resolved)
                return resolved, owned

            service._batch_backend = recording_pick
            service.recommend_many(groups, workers=3)
            (fleet,) = built
            assert fleet is not service.backend and fleet.workers == 3
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
            # The per-call fleet counted its boot in the service registry.
            assert service.metrics.value("pool_restarts") == 1
            assert service.backend.pool_stats()["live_workers"] == 0

    def test_service_close_releases_owned_thread_pool(self, mutable_dataset):
        service = RecommendationService(
            mutable_dataset,
            CONFIG.with_overrides(exec_backend="thread", exec_workers=2),
        )
        groups = self._groups(mutable_dataset, count=2)
        with service:
            service.recommend_many(groups)
        assert service.backend._pool is None


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

    def test_caller_held_pool_passed_per_call_sees_mutations(
        self, mutable_dataset
    ):
        """A pool handed to recommend_many per call missed the epoch
        bumps; the service must force it to re-ship after a mutation
        instead of letting it serve its fork-time snapshot."""
        from repro.exec import PoolBackend

        groups = self._groups(mutable_dataset)
        service = RecommendationService(mutable_dataset, CONFIG)
        with PoolBackend(workers=2) as pool:
            before = [
                r.items for r in service.recommend_many(groups, backend=pool)
            ]
            # Steady state: a second dispatch must not restart the pool.
            service.recommend_many(groups, backend=pool)
            restarts_before_mutation = pool.restarts
            user_id = groups[0].member_ids[0]
            for item_id in mutable_dataset.ratings.item_ids()[:4]:
                service.ingest_rating(user_id, item_id, 1.0)
            after = [
                r.items for r in service.recommend_many(groups, backend=pool)
            ]
            assert pool.restarts > restarts_before_mutation
        assert before != after  # the mutations really moved results
        assert after == [_cold(mutable_dataset, g).items for g in groups]


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
