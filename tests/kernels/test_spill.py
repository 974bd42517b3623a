"""Spill lifecycle: save → open_mmap → mutate → downgrade → resave.

The mmap'd spill is the worker-bootstrap path of the packed takeover:
a pool worker opens the on-disk CSR arrays instead of receiving a full
state ship.  These tests pin the whole lifecycle — round-trip fidelity,
validation against a mismatched matrix, the dirty-repack *downgrade*
(first mutation copies the mmap views into writable arrays), and that a
downgraded view can be spilled again — plus the service-level chaos
case: a pool worker killed mid-stream must surface loudly and the
respawned pool (bootstrapping from the same spill) must serve correct
results again.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.config import RecommenderConfig
from repro.data.datasets import generate_dataset
from repro.data.groups import Group
from repro.data.ratings import RatingMatrix
from repro.exceptions import ExecutionError
from repro.kernels import (
    SPILL_MANIFEST_NAME,
    PackedRatings,
    SpillError,
    attach_spill,
    get_packed,
    pearson_one_vs_many,
)
from repro.obs import reset_registry
from repro.serving import RecommendationService


def random_matrix(seed: int, users: int = 12, items: int = 18) -> RatingMatrix:
    rng = random.Random(seed)
    matrix = RatingMatrix()
    for u in range(users):
        for i in rng.sample(range(items), rng.randint(1, items - 1)):
            matrix.add(f"u{u}", f"i{i}", float(rng.randint(1, 5)))
    return matrix


def assert_packed_matches_matrix(packed: PackedRatings) -> None:
    """The packed view mirrors its matrix exactly (rows, means, inverse)."""
    matrix = packed.matrix
    assert packed.user_ids == matrix.user_ids()
    assert packed.item_ids == matrix.item_ids()
    assert packed._num_ratings == matrix.num_ratings
    for user_id in matrix.user_ids():
        u = packed.user_index[user_id]
        row = matrix.items_of(user_id)
        expected = sorted(
            (packed.item_index[item_id], value) for item_id, value in row.items()
        )
        assert list(packed.row_items[u]) == [item for item, _ in expected]
        assert list(packed.row_values[u]) == [value for _, value in expected]
        assert packed.means[u] == sum(row.values()) / len(row)
    for item_id in matrix.item_ids():
        i = packed.item_index[item_id]
        got = {
            packed.user_ids[user_int]: value
            for user_int, value in zip(packed.inv_users[i], packed.inv_values[i])
        }
        assert got == matrix.users_of(item_id)


class TestSpillLifecycle:
    def test_save_open_round_trip(self, tmp_path):
        matrix = random_matrix(seed=101)
        fingerprint = PackedRatings(matrix).save(tmp_path)
        assert (tmp_path / SPILL_MANIFEST_NAME).exists()
        view = PackedRatings.open_mmap(tmp_path, matrix)
        assert view.spill_backed
        assert fingerprint
        assert_packed_matches_matrix(view)

    def test_mmap_view_runs_kernels_bit_identically(self, tmp_path):
        matrix = random_matrix(seed=102)
        oracle = PackedRatings(matrix)
        oracle.save(tmp_path)
        view = PackedRatings.open_mmap(tmp_path, matrix)
        candidates = list(range(len(matrix.user_ids())))
        assert list(pearson_one_vs_many(view, 0, candidates)) == list(
            pearson_one_vs_many(oracle, 0, candidates)
        )

    def test_save_is_idempotent_per_fingerprint(self, tmp_path):
        matrix = random_matrix(seed=103)
        packed = PackedRatings(matrix)
        first = packed.save(tmp_path)
        before = (tmp_path / "row_values.bin").stat().st_mtime_ns
        assert packed.save(tmp_path) == first
        assert (tmp_path / "row_values.bin").stat().st_mtime_ns == before

    def test_mutation_downgrades_to_writable_and_repacks(self, tmp_path):
        matrix = random_matrix(seed=104)
        PackedRatings(matrix).save(tmp_path)
        view = PackedRatings.open_mmap(tmp_path, matrix)
        user_id = matrix.user_ids()[0]
        matrix.add(user_id, "i-new", 4.0)
        view.mark_dirty(user_id)
        view.ensure_current()
        assert not view.spill_backed
        assert_packed_matches_matrix(view)

    def test_downgraded_view_resaves_and_reopens(self, tmp_path):
        matrix = random_matrix(seed=105)
        first_dir = tmp_path / "gen0"
        second_dir = tmp_path / "gen1"
        PackedRatings(matrix).save(first_dir)
        view = PackedRatings.open_mmap(first_dir, matrix)
        user_id = matrix.user_ids()[1]
        matrix.add(user_id, "i-resave", 2.0)
        view.mark_dirty(user_id)
        fingerprint = view.save(second_dir)
        reopened = PackedRatings.open_mmap(second_dir, matrix)
        assert reopened.spill_backed
        assert fingerprint
        assert_packed_matches_matrix(reopened)

    def test_open_rejects_mismatched_matrix(self, tmp_path):
        PackedRatings(random_matrix(seed=106)).save(tmp_path)
        other = random_matrix(seed=107)
        with pytest.raises(SpillError):
            PackedRatings.open_mmap(tmp_path, other)

    def test_open_rejects_truncated_arrays(self, tmp_path):
        matrix = random_matrix(seed=108)
        PackedRatings(matrix).save(tmp_path)
        target = tmp_path / "row_values.bin"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(SpillError):
            PackedRatings.open_mmap(tmp_path, matrix)

    def test_open_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(SpillError):
            PackedRatings.open_mmap(tmp_path / "nowhere", RatingMatrix())

    @pytest.mark.parametrize("defect", ["not an object", "files not an object"])
    def test_malformed_manifest_is_a_typed_error_and_a_fallback(
        self, tmp_path, defect
    ):
        """Valid JSON of the wrong shape must fail like any other bad
        spill: ``open_mmap`` raises :class:`SpillError`, and a service
        pointed at the directory packs in memory (counted as a
        ``fallback`` open) and republishes a good spill over it."""
        dataset = generate_dataset(
            num_users=12, num_items=18, ratings_per_user=6, seed=5
        )
        PackedRatings(dataset.ratings).save(tmp_path)
        manifest_path = tmp_path / SPILL_MANIFEST_NAME
        if defect == "not an object":
            manifest_path.write_text(json.dumps("not an object"))
        else:
            manifest = json.loads(manifest_path.read_text())
            manifest["files"] = sorted(manifest["files"])
            manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SpillError, match="manifest"):
            PackedRatings.open_mmap(tmp_path, dataset.ratings)

        registry = reset_registry()
        service = RecommendationService(
            dataset,
            RecommenderConfig(peer_threshold=0.1, packed_spill=str(tmp_path)),
        )
        try:
            fallbacks = registry.counter("packed_spill_opens", outcome="fallback")
            assert fallbacks.value == 1
            assert not service._packed.spill_backed
            assert PackedRatings.open_mmap(tmp_path, dataset.ratings).spill_backed
        finally:
            service.close()

    def test_attach_spill_registers_shared_view(self, tmp_path):
        matrix = random_matrix(seed=109)
        PackedRatings(matrix).save(tmp_path)
        view = attach_spill(matrix, tmp_path)
        assert view.spill_backed
        assert get_packed(matrix) is view


class TestSpillBootChaos:
    """Worker death over the mmap-bootstrap pool surfaces and recovers."""

    def _service(self, dataset, spill_dir):
        # Caches off so every batch actually re-dispatches to the pool
        # — with the group cache on, a repeated batch is one LRU hit
        # and a dead worker would never be noticed.
        config = RecommenderConfig(
            peer_threshold=0.1,
            top_k=5,
            top_z=4,
            exec_backend="pool",
            exec_workers=2,
            group_cache_size=0,
            relevance_cache_size=0,
            packed_spill=str(spill_dir),
        )
        return RecommendationService(dataset, config)

    def test_worker_kill_mid_stream_raises_then_recovers(self, tmp_path):
        dataset = generate_dataset(
            num_users=18, num_items=24, ratings_per_user=8, seed=13
        )
        rng = random.Random(31)
        groups = [
            Group(member_ids=sorted(rng.sample(dataset.users.ids(), 3)))
            for _ in range(3)
        ]

        reference_service = RecommendationService(
            dataset, RecommenderConfig(peer_threshold=0.1, top_k=5, top_z=4)
        )
        try:
            reference = [
                repr(rec) for rec in reference_service.recommend_many(groups, z=4)
            ]
        finally:
            reference_service.close()

        service = self._service(dataset, tmp_path)
        try:
            first = [repr(rec) for rec in service.recommend_many(groups, z=4)]
            assert first == reference

            # Kill every resident worker out from under the pool: the
            # batch is a loud ExecutionError (never a silent hang or a
            # partial batch)...
            for victim in list(service.backend._workers):
                victim.process.terminate()
                victim.process.join()
            with pytest.raises(ExecutionError):
                service.recommend_many(groups, z=4)

            # ...the next batch re-forks the pool, booting from the
            # same mmap spill, and serves bit-identical results again...
            recovered = [repr(rec) for rec in service.recommend_many(groups, z=4)]
            assert recovered == reference

            # ...and losing one of the re-forked workers costs only a
            # requeue onto the survivor.
            victim = service.backend._workers[0]
            victim.process.terminate()
            victim.process.join()
            again = [repr(rec) for rec in service.recommend_many(groups, z=4)]
            assert again == reference
            pool_stats = service.stats()["backend"]["pool"]
            assert pool_stats["live_workers"] >= 1
        finally:
            service.close()
