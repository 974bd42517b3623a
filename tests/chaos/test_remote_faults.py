"""Network-fault chaos for the worker fleet: bit-identical or loud.

The distributed analogue of ``test_chaos.py``'s binary promise: after
any network fault — a worker process SIGKILLed mid-batch, a frame torn
by a connection dropped mid-write, a worker offering the wrong config
fingerprint, a partition that silences heartbeats — a batch either
completes **bit-identical** to the serial reference (requeue onto ring
survivors) or raises a **typed** error
(:class:`~repro.exceptions.ExecutionError` /
:class:`~repro.exec.wire.WireError`).  A stale answer, a half-answered
batch or a silent hang is the one outcome no scenario may produce.

The fault injectors speak the real wire protocol over real loopback
sockets: :class:`_FakeWorker` is a hand-driven client that handshakes
like ``repro worker`` and then misbehaves on cue.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import threading
import time

import pytest

from repro.config import RecommenderConfig
from repro.data.datasets import HealthDataset, generate_dataset
from repro.data.groups import Group
from repro.exceptions import ExecutionError
from repro.exec import RemoteBackend, run_worker
from repro.exec.wire import (
    Fault,
    FrameConnection,
    Hello,
    Stop,
    Task,
    TaskResult,
    Welcome,
    WireError,
    encode_message,
)
from repro.serving import RecommendationService

# Fast beacons so partition detection fits in test time; the generous
# timeout on the non-partition scenarios keeps loaded CI boxes from
# declaring healthy workers dead.
FAST = {"heartbeat_interval": 0.2, "heartbeat_timeout": 5.0}


def _config(**overrides) -> RecommenderConfig:
    return RecommenderConfig(peer_threshold=0.1, top_k=5, top_z=4, **overrides)


def _groups(dataset, count=3, seed=31) -> list[Group]:
    rng = random.Random(seed)
    return [
        Group(member_ids=sorted(rng.sample(dataset.users.ids(), 3)))
        for _ in range(count)
    ]


def _serial_reference(dataset_payload, groups, z=4) -> list[str]:
    service = RecommendationService(
        HealthDataset.from_dict(dataset_payload), _config()
    )
    try:
        return [repr(rec) for rec in service.recommend_many(groups, z=z)]
    finally:
        service.close()


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(num_users=18, num_items=24, ratings_per_user=8, seed=13)


# -- module-level task functions (pickled by reference across fork) ---------


def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    time.sleep(0.15)
    return x * x


class _FakeWorker:
    """A hand-driven wire client impersonating a ``repro worker``.

    It performs the real HELLO → WELCOME handshake and then misbehaves
    exactly as instructed: tearing a frame mid-write, or going silent
    to simulate a network partition.
    """

    def __init__(self, address: tuple[str, int], fingerprint: str | None = None):
        sock = socket.create_connection(address, timeout=10.0)
        self.conn = FrameConnection(sock)
        self.conn.send(Hello(fingerprint=fingerprint))
        self.greeting = self.conn.recv(timeout=10.0)

    def tear_on_first_task(self) -> None:
        """Answer the first TASK with a torn RESULT frame, then vanish.

        After writing the torn frame it keeps draining inbound frames
        until the dispatcher goes quiet before closing: closing with
        unread TASK frames still queued in the kernel would turn the
        close into a TCP RST, and an RST flushes the parent's receive
        queue — destroying the very torn bytes this injector exists to
        plant.  A drained socket closes with a clean FIN instead, so
        the parent reads partial-frame-then-EOF and must classify it.
        """
        while True:
            message = self.conn.recv(timeout=30.0)
            if message is None or isinstance(message, Stop):
                return
            if isinstance(message, Task):
                index, _item = message.pairs[0]
                frame = encode_message(
                    TaskResult(
                        chunk_id=message.chunk_id,
                        index=index,
                        ok=True,
                        value=12345,  # must never surface in any result
                    )
                )
                self.conn._sock.sendall(frame[: len(frame) - 7])
                break
        while True:  # drain the tail of the dispatch burst, then FIN
            try:
                if self.conn.recv(timeout=0.5) is None:
                    break
            except (TimeoutError, WireError, OSError):
                break
        self.conn.close()

    def close(self) -> None:
        self.conn.close()


class TestWorkerKillRequeue:
    """SIGKILL mid-batch: unanswered items requeue onto ring survivors."""

    def test_one_of_two_killed_mid_batch_stays_bit_identical(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            backend.map_items(_square, [0])  # boot the fleet
            victim = backend._workers[0].process

            def assassinate():
                time.sleep(0.3)
                os.kill(victim.pid, signal.SIGKILL)

            killer = threading.Thread(target=assassinate)
            killer.start()
            try:
                result = backend.map_items(_slow_square, range(24))
            finally:
                killer.join()
            assert result == [x * x for x in range(24)]
            stats = backend.pool_stats()
            assert stats["dead_workers"] >= 1
            assert stats["requeues"] >= 1
            # The next batch respawns back to width and stays correct.
            assert backend.map_items(_square, range(8)) == [
                x * x for x in range(8)
            ]
            assert backend.live_workers == 2

    def test_total_fleet_loss_is_loud_then_recovers(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            backend.map_items(_square, [0])
            victims = [worker.process for worker in backend._workers]

            def massacre():
                time.sleep(0.3)
                for process in victims:
                    os.kill(process.pid, signal.SIGKILL)

            killer = threading.Thread(target=massacre)
            killer.start()
            try:
                with pytest.raises(ExecutionError, match="no workers survive"):
                    backend.map_items(_slow_square, range(24))
            finally:
                killer.join()
            # Recovery: a fresh fleet serves the same batch correctly.
            assert backend.map_items(_slow_square, range(24)) == [
                x * x for x in range(24)
            ]
            assert backend.pool_stats()["dead_workers"] >= 2

    def test_service_results_identical_after_worker_death(self, dataset):
        """The service-level contract: recommendations after a worker
        SIGKILL are bit-identical to the serial reference — the requeue
        is invisible in every payload byte."""
        payload = dataset.to_dict()
        groups = _groups(dataset, seed=47)
        reference = _serial_reference(payload, groups)
        config = _config(
            exec_backend="remote",
            exec_workers=2,
            group_cache_size=0,
            relevance_cache_size=0,
            validation="strict",
            remote_heartbeat_interval=0.2,
            remote_heartbeat_timeout=5.0,
        )
        service = RecommendationService(HealthDataset.from_dict(payload), config)
        try:
            first = [repr(rec) for rec in service.recommend_many(groups, z=4)]
            assert first == reference
            victim = service.backend._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            again = [repr(rec) for rec in service.recommend_many(groups, z=4)]
            assert again == reference
            assert service.backend.pool_stats()["dead_workers"] >= 1
        finally:
            service.close()


class TestTornFrames:
    """A connection dropped mid-frame: counted, requeued, never decoded."""

    def test_torn_result_frame_requeues_and_stays_bit_identical(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            backend.map_items(_square, [0])  # boot the 2 real workers
            fake = _FakeWorker(backend.listen())
            assert isinstance(fake.greeting, Welcome)
            saboteur = threading.Thread(target=fake.tear_on_first_task)
            saboteur.start()
            try:
                # 24 items → 12 chunks dealt round-robin over 3 live
                # workers; the fake (third to join) receives chunks 2,
                # 5, 8 and 11, so it is guaranteed a task to tear.
                result = backend.map_items(_square, range(24))
            finally:
                saboteur.join()
                fake.close()
            assert result == [x * x for x in range(24)]
            assert 12345 not in result  # the torn value never decoded
            stats = backend.pool_stats()
            assert stats["torn_frames"] >= 1
            assert stats["dead_workers"] >= 1
            assert stats["requeues"] >= 1


class TestFingerprintMismatch:
    """A worker built for another config is refused before serving."""

    def test_mismatched_hello_gets_a_fault_and_no_tasks(self):
        with RemoteBackend(
            workers=1, fingerprint="parent-fp", **FAST
        ) as backend:
            address = backend.listen()
            fake = _FakeWorker(address, fingerprint="other-fp")
            try:
                assert isinstance(fake.greeting, Fault)
                assert "fingerprint mismatch" in fake.greeting.message
                assert fake.greeting.details == {
                    "expected": "other-fp",
                    "serving": "parent-fp",
                }
            finally:
                fake.close()
            # The reject is counted and the backend still serves
            # correctly on its (fingerprint-agnostic) forked worker.
            assert backend.map_items(_square, range(6)) == [
                x * x for x in range(6)
            ]
            stats = backend.pool_stats()
            assert stats["handshake_rejects"] == 1
            assert stats["live_workers"] == 1

    def test_run_worker_raises_typed_error_on_rejection(self):
        with RemoteBackend(
            workers=1, fingerprint="parent-fp", **FAST
        ) as backend:
            host, port = backend.listen()
            with pytest.raises(WireError, match="fingerprint mismatch"):
                run_worker(
                    host,
                    port,
                    fingerprint="other-fp",
                    heartbeat_interval=0.2,
                    handshake_timeout=10.0,
                )

    def test_matching_fingerprints_are_admitted(self):
        with RemoteBackend(
            workers=1, fingerprint="parent-fp", **FAST
        ) as backend:
            fake = _FakeWorker(backend.listen(), fingerprint="parent-fp")
            try:
                assert isinstance(fake.greeting, Welcome)
                assert fake.greeting.fingerprint == "parent-fp"
            finally:
                fake.close()


class TestHeartbeatPartition:
    """A silent worker is declared dead; its chunks requeue and finish."""

    def test_partitioned_worker_is_detected_and_requeued_around(self):
        with RemoteBackend(
            workers=1, heartbeat_interval=0.4, heartbeat_timeout=1.0
        ) as backend:
            backend.map_items(_square, [0])  # boot the real worker
            # A worker that handshakes, accepts its BOOT and TASKs, and
            # then never sends another byte — the socket stays open, so
            # only heartbeat silence can expose it.
            mute = _FakeWorker(backend.listen())
            assert isinstance(mute.greeting, Welcome)
            try:
                started = time.monotonic()
                result = backend.map_items(_square, range(24))
                elapsed = time.monotonic() - started
            finally:
                mute.close()
            assert result == [x * x for x in range(24)]
            assert elapsed >= 0.9, (
                "the batch finished before the heartbeat timeout could "
                "have fired — the mute worker never owned a chunk and "
                "the scenario is vacuous"
            )
            stats = backend.pool_stats()
            assert stats["dead_workers"] >= 1
            assert stats["requeues"] >= 1
            assert stats["heartbeats"] >= 1  # the live worker kept beating
