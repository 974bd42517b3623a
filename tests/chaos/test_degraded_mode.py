"""Degraded-mode acceptance: total fleet loss falls back to serial.

The issue's headline chaos scenario, end to end: SIGKILL the *entire*
remote fleet mid-batch with ``degraded_mode="serial"`` and the batch
must still be answered — bit-identical to the serial reference, with
``pool_degraded_dispatches`` counting the fallback and no exception
reaching the caller.  Then the other half of the contract: a worker
(re)connecting through the ordinary handshake is re-admitted at the
parent's *current* epoch and the next batch is served remotely with
zero additional requeues.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

import pytest

from repro.config import RecommenderConfig
from repro.data.datasets import HealthDataset, generate_dataset
from repro.data.groups import Group
from repro.exec import FleetLossError, RemoteBackend, run_worker
from repro.exec.wire import WireError
from repro.serving import RecommendationService

FAST = {"heartbeat_interval": 0.2, "heartbeat_timeout": 5.0}


def _config(**overrides) -> RecommenderConfig:
    return RecommenderConfig(peer_threshold=0.1, top_k=5, top_z=4, **overrides)


def _groups(dataset, count=3, seed=31) -> list[Group]:
    rng = random.Random(seed)
    return [
        Group(member_ids=sorted(rng.sample(dataset.users.ids(), 3)))
        for _ in range(count)
    ]


def _serial_reference(dataset_payload, groups, z=4, mutations=()) -> list[str]:
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


def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    time.sleep(0.15)
    return x * x


def _start_worker(backend: RemoteBackend) -> dict:
    """A real ``run_worker`` loop on a thread against the listener."""
    host, port = backend.listen()
    outcome: dict = {}

    def _run() -> None:
        try:
            outcome["served"] = run_worker(host, port, heartbeat_interval=0.2)
        except (WireError, OSError) as exc:
            outcome["error"] = exc

    threading.Thread(target=_run, daemon=True).start()
    return outcome


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    cutoff = time.monotonic() + timeout
    while time.monotonic() < cutoff:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestDegradedBackend:
    def test_sigkill_entire_fleet_mid_batch_serves_degraded(self):
        """The acceptance scenario at the backend layer, verbatim."""
        with RemoteBackend(
            workers=2, degraded_mode="serial", **FAST
        ) as backend:
            backend.map_items(_square, [0])  # boot the fleet
            victims = [worker.process for worker in backend._workers]

            def massacre() -> None:
                time.sleep(0.3)
                for process in victims:
                    os.kill(process.pid, signal.SIGKILL)

            killer = threading.Thread(target=massacre)
            killer.start()
            try:
                result = backend.map_items(_slow_square, range(24))
            finally:
                killer.join()
            # No exception reached us, and the answer is bit-identical.
            assert result == [x * x for x in range(24)]
            stats = backend.pool_stats()
            assert stats["degraded_dispatches"] >= 1
            assert stats["dead_workers"] >= 2
            # Recovery: the next batch respawns a fleet and is served
            # remotely again — the degraded counter stays where it was.
            assert backend.map_items(_square, range(8)) == [
                x * x for x in range(8)
            ]
            after = backend.pool_stats()
            assert after["degraded_dispatches"] == stats["degraded_dispatches"]
            assert after["live_workers"] == 2

    def test_degraded_off_still_raises_fleet_loss(self):
        """``off`` keeps the loud pre-existing contract, typed."""
        with RemoteBackend(
            workers=1, spawn_workers=False, connect_timeout=0.3, **FAST
        ) as backend:
            with pytest.raises(FleetLossError, match="no remote workers"):
                backend.map_items(_square, [1, 2, 3])

    def test_empty_fleet_degrades_without_ever_connecting(self):
        """Degraded mode also covers never-had-a-fleet, not just loss."""
        with RemoteBackend(
            workers=1,
            spawn_workers=False,
            connect_timeout=0.3,
            degraded_mode="serial",
            **FAST,
        ) as backend:
            assert backend.map_items(_square, range(6)) == [
                x * x for x in range(6)
            ]
            assert backend.pool_stats()["degraded_dispatches"] == 1


class TestDegradedService:
    def test_degrade_then_rejoin_serves_remotely_at_current_epoch(
        self, dataset
    ):
        """Service-level: degrade with no fleet, then rejoin and serve.

        Batch one runs with zero connected workers — the explicit
        remote backend degrades to in-process serial and the payloads
        are bit-identical to the serial reference.  A real worker then
        joins, the service ingests a rating (epoch bump), and batch
        two is served *remotely*: zero requeues, resident epoch equal
        to the parent epoch, degraded counter unchanged.
        """
        payload = dataset.to_dict()
        groups = _groups(dataset, seed=53)
        reference = _serial_reference(payload, groups)
        service = RecommendationService(
            HealthDataset.from_dict(payload),
            _config(
                group_cache_size=0,
                relevance_cache_size=0,
            ),
        )
        backend = RemoteBackend(
            spawn_workers=False,
            connect_timeout=0.5,
            degraded_mode="serial",
            **FAST,
        )
        try:
            degraded = [
                repr(rec)
                for rec in service.recommend_many(groups, z=4, backend=backend)
            ]
            assert degraded == reference
            stats = backend.pool_stats()
            assert stats["degraded_dispatches"] >= 1
            assert stats["live_workers"] == 0

            outcome = _start_worker(backend)
            assert _wait_for(
                lambda: sum(
                    backend.pool_stats()[k]
                    for k in ("live_workers", "pending_workers")
                )
                >= 1
            ), "worker never connected"
            user, item = dataset.users.ids()[0], dataset.items.ids()[0]
            service.ingest_rating(user, item, 4.0)
            reference_after = _serial_reference(
                payload, groups, mutations=[(user, item, 4.0)]
            )
            before = backend.pool_stats()
            again = [
                repr(rec)
                for rec in service.recommend_many(groups, z=4, backend=backend)
            ]
            assert again == reference_after
            after = backend.pool_stats()
            assert after["degraded_dispatches"] == before["degraded_dispatches"]
            assert after["requeues"] == before["requeues"]
            assert after["live_workers"] == 1
            assert after["resident_epoch"] == after["epoch"]
        finally:
            backend.close()
            service.close()
        assert "error" not in outcome  # the worker exited on clean EOF
