"""Scripted fault-injection chaos suite for the worker fleet's TCP workers.

Where :mod:`tests.chaos.test_remote_faults` kills real processes and
hand-drives raw sockets, this suite scripts the faults *inside* the
worker via :class:`repro.resilience.FaultPlan`: drop the Nth RESULT
frame, tear one mid-write, go mute to simulate a partition, or die
after M served items (and optionally rejoin).  The fault ordinals are
drawn from a seeded RNG — CI runs the file under a seed matrix via the
``REPRO_FAULT_SEED`` environment variable, so each seed exercises a
different cut point while any one seed stays fully deterministic.

Every scenario asserts two things: the batch result is bit-identical
to the serial reference (faults cost retries, never correctness), and
the injector's own counters fired (the scenario actually injected what
it claims — no vacuous passes).
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.exec import RemoteBackend, run_worker
from repro.exec.wire import WireError
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)

#: Seed for the fault-ordinal RNG; CI's chaos job sweeps this.
SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

# Fast beacons, generous timeout: partitions are detected quickly in
# the one scenario that lowers heartbeat_timeout, while every other
# scenario never declares a healthy-but-busy worker dead on slow CI.
FAST = {
    "heartbeat_interval": 0.2,
    "heartbeat_timeout": 5.0,
    "connect_timeout": 10.0,
}
PARTITION = {
    "heartbeat_interval": 0.2,
    "heartbeat_timeout": 1.0,
    "connect_timeout": 10.0,
}

ITEMS = list(range(24))


def _rng(scenario: str) -> random.Random:
    """A per-scenario RNG: same seed + scenario, same fault ordinals."""
    return random.Random(f"{SEED}:{scenario}")


# -- module-level task functions (pickled by reference) ----------------------


def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    time.sleep(0.15)
    return x * x


# -- in-process worker harness ----------------------------------------------


class _WorkerThread:
    """Run :func:`run_worker` on a thread against a backend's listener.

    Threads (not processes) so the test can hand the worker a live
    :class:`FaultInjector` and read its counters back afterwards.
    """

    def __init__(
        self,
        backend: RemoteBackend,
        *,
        injector: FaultInjector | None = None,
        rejoin: RetryPolicy | None = None,
    ) -> None:
        host, port = backend.listen()
        self.result: dict = {}

        def _run() -> None:
            try:
                self.result["served"] = run_worker(
                    host,
                    port,
                    heartbeat_interval=0.2,
                    fault_injector=injector,
                    rejoin=rejoin,
                )
            except (WireError, OSError) as exc:
                self.result["error"] = exc

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()

    def join(self, timeout: float = 10.0) -> None:
        self.thread.join(timeout=timeout)


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    cutoff = time.monotonic() + timeout
    while time.monotonic() < cutoff:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _fleet_size(backend: RemoteBackend) -> int:
    stats = backend.pool_stats()
    return stats["live_workers"] + stats["pending_workers"]


def _connect_sequenced(backend: RemoteBackend, faulty: _WorkerThread) -> None:
    """Admit the faulty worker first, then a clean survivor.

    Sequencing makes the faulty worker the first live worker, so
    round-robin chunk placement hands it chunks 0, 2, 4, ... — half the
    items on every run — and the seeded fault ordinals are guaranteed
    to be reachable.
    """
    assert _wait_for(lambda: _fleet_size(backend) >= 1), (
        "faulty worker never connected"
    )
    _WorkerThread(backend)
    assert _wait_for(lambda: _fleet_size(backend) >= 2), (
        "survivor worker never connected"
    )


class TestScriptedFaults:
    def test_dropped_result_requeues_after_scripted_death(self):
        """A silently dropped RESULT is recovered by the death requeue.

        A drop alone would leave the chunk unanswered while heartbeats
        keep flowing, so the plan pairs it with ``die_after_tasks``:
        the worker's EOF requeues everything it never answered —
        including the item whose RESULT frame the injector swallowed.
        """
        rng = _rng("drop")
        die_after = rng.randint(2, 6)
        plan = FaultPlan(
            drop_results=(rng.randint(1, die_after),),
            die_after_tasks=die_after,
        )
        injector = FaultInjector(plan)
        with RemoteBackend(spawn_workers=False, **FAST) as backend:
            faulty = _WorkerThread(backend, injector=injector)
            _connect_sequenced(backend, faulty)
            assert backend.map_items(_square, ITEMS) == [
                x * x for x in ITEMS
            ]
            stats = backend.pool_stats()
        assert injector.results_dropped == 1
        assert injector.deaths == 1
        assert stats["requeues"] >= 1
        assert stats["dead_workers"] >= 1
        faulty.join()
        assert "error" not in faulty.result  # scripted death exits cleanly

    def test_torn_result_frame_is_detected_and_requeued(self):
        """A mid-write tear fails the worker; survivors re-serve its items."""
        rng = _rng("tear")
        injector = FaultInjector(FaultPlan(tear_result=rng.randint(1, 6)))
        with RemoteBackend(spawn_workers=False, **FAST) as backend:
            faulty = _WorkerThread(backend, injector=injector)
            _connect_sequenced(backend, faulty)
            assert backend.map_items(_square, ITEMS) == [
                x * x for x in ITEMS
            ]
            stats = backend.pool_stats()
        assert injector.frames_torn == 1
        assert stats["torn_frames"] >= 1
        assert stats["requeues"] >= 1
        faulty.join()
        # The tear kills the worker's own connection too: without a
        # rejoin policy that surfaces as a terminal disconnect.
        assert "error" in faulty.result

    def test_muted_worker_is_declared_partitioned(self):
        """A worker that goes silent mid-batch is dead to the parent.

        Muting swallows heartbeats and results alike while the socket
        stays open — exactly a one-way partition.  The parent's
        heartbeat timeout must fire, requeue, and finish the batch.
        """
        rng = _rng("mute")
        injector = FaultInjector(
            FaultPlan(mute_after_frames=rng.randint(2, 5))
        )
        with RemoteBackend(spawn_workers=False, **PARTITION) as backend:
            faulty = _WorkerThread(backend, injector=injector)
            _connect_sequenced(backend, faulty)
            assert backend.map_items(_square, ITEMS) == [
                x * x for x in ITEMS
            ]
            stats = backend.pool_stats()
        assert injector.frames_muted >= 1
        assert stats["dead_workers"] >= 1
        assert stats["requeues"] >= 1
        faulty.join()

    def test_scripted_death_then_rejoin_serves_the_next_batch(self):
        """Crash-then-rejoin: the worker comes back at the current epoch.

        Batch one survives the death via requeue onto the survivor;
        the dead worker then reconnects through the normal handshake
        (counted as ``pool_rejoins``) and batch two is served by a
        full two-worker fleet with zero additional requeues.
        """
        rng = _rng("rejoin")
        injector = FaultInjector(
            FaultPlan(
                die_after_tasks=rng.randint(1, 6), rejoin_after_death=True
            )
        )
        rejoin = RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=0.5)
        with RemoteBackend(spawn_workers=False, **FAST) as backend:
            faulty = _WorkerThread(backend, injector=injector, rejoin=rejoin)
            _connect_sequenced(backend, faulty)
            assert backend.map_items(_square, ITEMS) == [
                x * x for x in ITEMS
            ]
            assert injector.deaths == 1
            assert _wait_for(
                lambda: backend.pool_stats()["rejoins"] >= 1
                and _fleet_size(backend) >= 2
            ), "dead worker never rejoined"
            before = backend.pool_stats()
            second = [x + 100 for x in ITEMS]
            assert backend.map_items(_square, second) == [
                x * x for x in second
            ]
            after = backend.pool_stats()
        assert after["requeues"] == before["requeues"]
        assert after["dead_workers"] == before["dead_workers"]
        assert after["live_workers"] == 2
        assert after["resident_epoch"] == after["epoch"]

    def test_deadline_abort_then_clean_next_batch(self):
        """An expired deadline aborts the batch; stragglers drop as stale.

        The worker keeps streaming answers for the abandoned batch;
        TCP FIFO means they all arrive before any result of the next
        batch, where the globally monotonic chunk ids make them
        unmistakably stale — counted, never merged.
        """
        with RemoteBackend(spawn_workers=False, **FAST) as backend:
            _WorkerThread(backend)
            assert _wait_for(lambda: _fleet_size(backend) >= 1)
            with pytest.raises(DeadlineExceeded, match="unanswered"):
                backend.map_items(
                    _slow_square, ITEMS[:6], deadline=Deadline.after(0.3)
                )
            assert backend.pool_stats()["deadline_aborts"] == 1
            # The fleet is still healthy: the next (budget-less) batch
            # must be answered in full and bit-identically.
            assert backend.map_items(_square, ITEMS) == [
                x * x for x in ITEMS
            ]
            stats = backend.pool_stats()
        assert stats["stale_results"] >= 1
        assert stats["dead_workers"] == 0
