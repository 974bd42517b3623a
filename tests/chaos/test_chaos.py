"""Chaos parity harness: faults must be bit-identical or loudly typed.

The serving layer's promise under failure is binary — after any fault
(a pool worker killed mid-stream, a journal or spill file torn by a
crashed writer, mutations landing between in-flight batches) a request
either returns results **bit-identical** to the serial reference or
raises a **typed** error (:class:`ExecutionError`, :class:`SpillError`).
Silent degradation — a stale answer, a half-replayed journal, a partial
batch — is the one outcome none of these tests may ever observe.

Layout:

* ``TestJournalTailTruncation`` — the PR 8 torn-append regression: a
  journal whose last line lost its newline (writer died mid-``write``)
  replays its complete prefix and counts the skip, while interior
  corruption stays fatal;
* ``TestSpillFileCorruption`` — truncated spill companions (dataset
  JSON, manifest) raise :class:`SpillError`, and a worker booting from
  a spill with a torn journal converges on the parent's acknowledged
  state;
* ``TestWorkerKillMatrix`` — killing one of two resident pool workers
  mid-stream (flat and sharded index, strict validation on) is absorbed
  by requeue, bit-identically; killing all of them surfaces as
  :class:`FleetLossError` and the respawned pool serves bit-identically;
* ``TestMutationInterleaveParity`` — rating/profile mutations
  interleaved with batches replay bit-identically across the backend
  matrix, with strict validation observing every answer.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.config import RecommenderConfig
from repro.data.datasets import HealthDataset, generate_dataset
from repro.data.groups import Group
from repro.exceptions import ExecutionError
from repro.exec import FleetLossError
from repro.kernels import PackedRatings, SpillError
from repro.obs import get_registry
from repro.serving import RecommendationService
from repro.serving import service as service_module
from repro.serving.service import (
    SPILL_DATASET_NAME,
    SPILL_JOURNAL_NAME,
    _load_spill_dataset,
    _replay_spill_journal,
)


def _config(**overrides) -> RecommenderConfig:
    return RecommenderConfig(
        peer_threshold=0.1, top_k=5, top_z=4, **overrides
    )


def _groups(dataset, count=3, seed=31) -> list[Group]:
    rng = random.Random(seed)
    return [
        Group(member_ids=sorted(rng.sample(dataset.users.ids(), 3)))
        for _ in range(count)
    ]


def _serial_reference(dataset_payload, groups, z=4, mutations=()) -> list[str]:
    """Ground truth: a fresh serial service replaying the same history."""
    service = RecommendationService(
        HealthDataset.from_dict(dataset_payload), _config()
    )
    try:
        for user_id, item_id, value in mutations:
            service.ingest_rating(user_id, item_id, value)
        return [repr(rec) for rec in service.recommend_many(groups, z=z)]
    finally:
        service.close()


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(num_users=18, num_items=24, ratings_per_user=8, seed=13)


class TestJournalTailTruncation:
    """The satellite-1 regression: torn journal tails, byte by byte."""

    @pytest.fixture
    def worker(self, dataset, monkeypatch):
        """A resident worker service for `_replay_spill_journal` to mutate."""
        service = RecommendationService(
            HealthDataset.from_dict(dataset.to_dict()), _config()
        )
        monkeypatch.setattr(service_module, "_SERVE_WORKER", service)
        yield service
        service.close()

    def _write_journal(self, directory: Path, deltas, torn: str = "") -> Path:
        path = directory / SPILL_JOURNAL_NAME
        body = "".join(json.dumps(list(delta)) + "\n" for delta in deltas)
        path.write_text(body + torn, encoding="utf-8")
        return path

    def _torn_skips(self) -> int:
        return int(get_registry().counter("spill_journal_torn_tail").value)

    def test_complete_journal_replays_fully(self, worker, dataset, tmp_path):
        user, item = dataset.users.ids()[0], dataset.items.ids()[0]
        self._write_journal(tmp_path, [("rating", user, item, 5.0)])
        before = self._torn_skips()
        assert _replay_spill_journal(tmp_path) == 1
        assert worker.matrix.has_rating(user, item)
        assert self._torn_skips() == before  # nothing torn, nothing counted

    def test_torn_tail_is_skipped_and_counted(self, worker, dataset, tmp_path):
        user = dataset.users.ids()[0]
        committed, never_acked = dataset.items.ids()[:2]
        self._write_journal(
            tmp_path,
            [("rating", user, committed, 5.0)],
            torn=f'["rating", "{user}", "{never_acked}"',
        )
        before = self._torn_skips()
        assert _replay_spill_journal(tmp_path) == 1
        assert worker.matrix.has_rating(user, committed)
        assert not worker.matrix.has_rating(user, never_acked)
        assert self._torn_skips() == before + 1

    def test_byte_truncated_journal_replays_prefix(
        self, worker, dataset, tmp_path
    ):
        # The regression proper: truncate a valid journal mid-line, the
        # way a crashed writer leaves it.  Pre-fix this raised a bare
        # json.JSONDecodeError out of the replay loop.
        user = dataset.users.ids()[1]
        first, second = dataset.items.ids()[:2]
        path = self._write_journal(
            tmp_path,
            [("rating", user, first, 4.0), ("rating", user, second, 3.0)],
        )
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])  # tear into line 2
        before = self._torn_skips()
        assert _replay_spill_journal(tmp_path) == 1
        assert worker.matrix.has_rating(user, first)
        assert not worker.matrix.has_rating(user, second)
        assert self._torn_skips() == before + 1

    def test_interior_corruption_is_fatal(self, worker, dataset, tmp_path):
        user, item = dataset.users.ids()[0], dataset.items.ids()[0]
        path = tmp_path / SPILL_JOURNAL_NAME
        good = json.dumps(["rating", user, item, 5.0])
        path.write_text(f"{{torn mid-line\n{good}\n", encoding="utf-8")
        with pytest.raises(SpillError, match="line 1"):
            _replay_spill_journal(tmp_path)

    def test_malformed_delta_is_fatal(self, worker, dataset, tmp_path):
        self._write_journal(tmp_path, [("rating", dataset.users.ids()[0])])
        with pytest.raises(SpillError, match="malformed"):
            _replay_spill_journal(tmp_path)
        self._write_journal(tmp_path, [("unknown-kind", "a", "b", 1.0)])
        with pytest.raises(SpillError, match="malformed"):
            _replay_spill_journal(tmp_path)

    def test_missing_or_empty_journal_is_a_noop(self, worker, tmp_path):
        before = self._torn_skips()
        assert _replay_spill_journal(tmp_path) == 0  # no file at all
        (tmp_path / SPILL_JOURNAL_NAME).write_text("", encoding="utf-8")
        assert _replay_spill_journal(tmp_path) == 0
        assert self._torn_skips() == before


class TestSpillFileCorruption:
    """Torn spill companions: loud typed errors, never a quiet boot."""

    def _publish(self, dataset, directory) -> None:
        """Publish a spill the way an owning service does, then release it."""
        service = RecommendationService(
            HealthDataset.from_dict(dataset.to_dict()),
            _config(packed_spill=str(directory)),
        )
        service.close()

    def test_truncated_spill_dataset_raises_spill_error(self, dataset, tmp_path):
        self._publish(dataset, tmp_path)
        target = tmp_path / SPILL_DATASET_NAME
        target.write_bytes(target.read_bytes()[:-40])
        with pytest.raises(SpillError, match="truncated"):
            _load_spill_dataset(tmp_path)

    def test_truncated_manifest_raises_spill_error(self, dataset, tmp_path):
        # ``PackedRatings.open_mmap`` is the loud worker-boot primitive
        # (``attach_spill`` is the parent-side wrapper that may fall
        # back to an in-memory rebuild — correctness never depends on a
        # spill, so only the mmap opener itself is required to raise).
        self._publish(dataset, tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:-5])
        clone = HealthDataset.from_dict(dataset.to_dict())
        with pytest.raises(SpillError, match="manifest"):
            PackedRatings.open_mmap(tmp_path, clone.ratings)

    def test_worker_boot_from_torn_journal_converges(self, dataset, tmp_path):
        """End to end: a worker rebooted from a spill whose journal lost
        its final append serves the parent's last acknowledged state."""
        payload = dataset.to_dict()
        groups = _groups(dataset)
        config = _config(
            exec_backend="pool",
            exec_workers=2,
            group_cache_size=0,
            relevance_cache_size=0,
            packed_spill=str(tmp_path),
        )
        service = RecommendationService(
            HealthDataset.from_dict(payload), config
        )
        try:
            service.recommend_many(groups, z=4)
            user = groups[0].member_ids[0]
            unseen = [
                item
                for item in dataset.items.ids()
                if not service.matrix.has_rating(user, item)
            ]
            mutation = (user, unseen[0], 5.0)
            service.ingest_rating(*mutation)
            reference = _serial_reference(
                payload, groups, mutations=[mutation]
            )
            assert [
                repr(rec) for rec in service.recommend_many(groups, z=4)
            ] == reference

            # A second writer died mid-append: the delta never reached
            # the epoch bump, so no acknowledged state includes it.
            journal = tmp_path / SPILL_JOURNAL_NAME
            with journal.open("ab") as handle:
                handle.write(b'["rating", "' + user.encode() + b'", "d')

            # Kill the resident workers; the pool surfaces a typed
            # fleet loss, then re-forks workers that boot from the torn
            # spill.
            for victim in list(service.backend._workers):
                victim.process.terminate()
                victim.process.join()
            with pytest.raises(FleetLossError):
                service.recommend_many(groups, z=4)
            recovered = [
                repr(rec) for rec in service.recommend_many(groups, z=4)
            ]
            assert recovered == reference
        finally:
            service.close()


class TestWorkerKillMatrix:
    """Pool workers killed mid-stream, across the index matrix."""

    def _service(self, payload, shards) -> RecommendationService:
        config = _config(
            exec_backend="pool",
            exec_workers=2,
            group_cache_size=0,
            relevance_cache_size=0,
            index_shards=shards,
            validation="strict",
        )
        return RecommendationService(HealthDataset.from_dict(payload), config)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_one_kill_is_requeued_bit_identically(self, dataset, shards):
        payload = dataset.to_dict()
        groups = _groups(dataset, seed=47)
        reference = _serial_reference(payload, groups)
        service = self._service(payload, shards)
        try:
            first = [repr(rec) for rec in service.recommend_many(groups, z=4)]
            assert first == reference
            victim = service.backend._workers[0]
            victim.process.terminate()
            victim.process.join()
            again = [repr(rec) for rec in service.recommend_many(groups, z=4)]
            assert again == reference
            stats = service.backend.pool_stats()
            assert stats["dead_workers"] == 1
            assert stats["requeues"] >= 1
            assert stats["live_workers"] == 1
        finally:
            service.close()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_kill_surfaces_typed_error_then_recovers(self, dataset, shards):
        payload = dataset.to_dict()
        groups = _groups(dataset, seed=47)
        reference = _serial_reference(payload, groups)
        service = self._service(payload, shards)
        try:
            first = [repr(rec) for rec in service.recommend_many(groups, z=4)]
            assert first == reference
            for victim in list(service.backend._workers):
                victim.process.terminate()
                victim.process.join()
            with pytest.raises(FleetLossError):
                service.recommend_many(groups, z=4)
            recovered = [
                repr(rec) for rec in service.recommend_many(groups, z=4)
            ]
            assert recovered == reference
            assert service.backend.live_workers == 2
        finally:
            service.close()


class TestMutationInterleaveParity:
    """Mutations between in-flight batches, across the backend matrix."""

    #: ``("serial", 1)`` is the reference; ``("thread", 1)`` runs each
    #: batch's groups as concurrent readers on a 2-thread pool.
    MATRIX = (
        ("serial", 1),
        ("thread", 1),
        ("pool", 1),
        ("pool", 3),
    )

    def _trace(self, payload, script, backend, shards) -> list:
        config = _config(
            exec_backend=backend,
            exec_workers=2,
            index_shards=shards,
            validation="strict" if backend != "serial" or shards != 1 else "off",
        )
        service = RecommendationService(HealthDataset.from_dict(payload), config)
        trace: list = []
        try:
            for op in script:
                if op[0] == "batch":
                    groups = [Group(member_ids=list(m)) for m in op[1]]
                    trace.append(
                        [repr(rec) for rec in service.recommend_many(groups, z=4)]
                    )
                elif op[0] == "ingest":
                    service.ingest_rating(op[1], op[2], op[3])
                else:
                    service.update_profile(
                        op[1], lambda user: setattr(user, "age", 44)
                    )
        finally:
            service.close()
        return trace

    def test_interleaved_mutations_stay_bit_identical(self, dataset):
        payload = dataset.to_dict()
        rng = random.Random(7)
        pool = rng.sample(dataset.users.ids(), 8)
        members = tuple(
            tuple(sorted(rng.sample(pool, 3))) for _ in range(3)
        )
        items = dataset.items.ids()
        script = [
            ("batch", members),
            ("ingest", pool[0], items[0], 1.0),
            ("batch", members),
            ("profile", pool[1]),
            ("ingest", pool[2], items[3], 5.0),
            ("batch", members),
        ]
        reference = self._trace(payload, script, *self.MATRIX[0])
        batches = [step for step in reference if isinstance(step, list)]
        assert batches[0] != batches[1], (
            "the interleaved mutation was supposed to change the second "
            "batch — the scenario is vacuous"
        )
        for backend, shards in self.MATRIX[1:]:
            trace = self._trace(payload, script, backend, shards)
            assert trace == reference, (
                f"backend={backend} shards={shards} diverged from the "
                f"serial reference under interleaved mutations"
            )
