"""The worker fleet's sunny-day contracts: placement, sync, lifecycle.

The chaos-grade fault scenarios (SIGKILL mid-batch, torn frames,
fingerprint mismatch, heartbeat partitions) live in
``tests/chaos/test_remote_faults.py``; this module pins the
consistent-hash ring, the factory registration, the sync protocol,
exception propagation and lifecycle against forked worker processes
speaking the real wire protocol, and the same sync protocol against
``run_worker`` processes that join over TCP.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import time

import pytest

from repro.exceptions import ConfigurationError, ExecutionError
from repro.exec import (
    BACKEND_NAMES,
    HashRing,
    RemoteBackend,
    get_backend,
    run_worker,
)

# Forked workers beat fast so tests never wait on the production
# 2-second beacon; the timeout stays generous so a loaded CI box can
# not spuriously declare healthy workers dead.
FAST = {"heartbeat_interval": 0.2, "heartbeat_timeout": 5.0}

# -- module-level worker state (pickled by reference, inherited on fork) ----

_STATE: dict[str, int] = {"value": 0}


def _set_state(value: int) -> None:
    _STATE["value"] = value


def _read_state(_: object) -> int:
    return _STATE["value"]


def _apply_delta(delta: int) -> None:
    _STATE["value"] += delta


def _square(x: int) -> int:
    return x * x


def _reciprocal(x: int) -> float:
    return 1 / x


def _sum_partition(partition: list[int]) -> int:
    return sum(partition)


def _join_tcp_workers(backend: RemoteBackend, count: int) -> list:
    """Start ``count`` ``run_worker`` processes against ``backend``'s
    listener and wait until all of them are parked as pending."""
    host, port = backend.listen()
    joiners = [
        multiprocessing.Process(
            target=run_worker,
            args=(host, port),
            kwargs={"heartbeat_interval": FAST["heartbeat_interval"]},
            daemon=True,
        )
        for _ in range(count)
    ]
    for joiner in joiners:
        joiner.start()
    cutoff = time.monotonic() + 30.0
    while backend.pool_stats()["pending_workers"] < count:
        assert time.monotonic() < cutoff, "TCP workers never joined"
        time.sleep(0.01)
    return joiners


class TestHashRing:
    def test_lookup_is_deterministic(self):
        ring = HashRing()
        for node in ("worker-0", "worker-1", "worker-2"):
            ring.add(node)
        keys = [f"shard-{i}" for i in range(50)]
        first = [ring.lookup(key) for key in keys]
        assert first == [ring.lookup(key) for key in keys]
        assert set(first) == {"worker-0", "worker-1", "worker-2"}

    def test_independent_rings_agree(self):
        a, b = HashRing(), HashRing()
        for node in ("worker-0", "worker-1"):
            a.add(node)
            b.add(node)
        assert [a.lookup(f"k{i}") for i in range(50)] == [
            b.lookup(f"k{i}") for i in range(50)
        ]

    def test_removal_only_rehomes_the_dead_nodes_keys(self):
        # The property the requeue path leans on: a worker death moves
        # only that worker's shards; everyone else's placement (and
        # warm state) survives untouched.
        ring = HashRing()
        for node in ("worker-0", "worker-1", "worker-2"):
            ring.add(node)
        keys = [f"shard-{i}" for i in range(100)]
        before = {key: ring.lookup(key) for key in keys}
        ring.remove("worker-1")
        for key in keys:
            after = ring.lookup(key)
            if before[key] != "worker-1":
                assert after == before[key]
            else:
                assert after in ("worker-0", "worker-2")

    def test_empty_ring_looks_up_none(self):
        ring = HashRing()
        assert ring.lookup("anything") is None
        assert len(ring) == 0
        assert ring.nodes == frozenset()

    def test_add_and_remove_round_trip(self):
        ring = HashRing()
        ring.add("worker-0")
        assert ring.nodes == frozenset({"worker-0"})
        assert len(ring) == 1
        ring.remove("worker-0")
        assert ring.lookup("k") is None
        ring.remove("worker-0")  # idempotent


class TestFactory:
    def test_remote_is_a_known_backend(self):
        assert "remote" in BACKEND_NAMES
        backend = get_backend("remote", workers=2)
        try:
            assert isinstance(backend, RemoteBackend)
            assert backend.name == "remote"
            assert backend.requires_pickling
        finally:
            backend.close()

    def test_factory_forwards_remote_knobs(self):
        backend = get_backend(
            "remote",
            workers=3,
            remote_heartbeat_interval=0.5,
            remote_heartbeat_timeout=9.0,
            remote_fingerprint="deadbeef",
        )
        try:
            assert backend.workers == 3
            assert backend.heartbeat_interval == 0.5
            assert backend.heartbeat_timeout == 9.0
            assert backend.fingerprint == "deadbeef"
        finally:
            backend.close()

    def test_timeout_must_exceed_interval(self):
        with pytest.raises(ConfigurationError, match="must exceed"):
            RemoteBackend(
                workers=1, heartbeat_interval=2.0, heartbeat_timeout=2.0
            )

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="heartbeat_interval"):
            RemoteBackend(workers=1, heartbeat_interval=0.0)

    def test_negative_delta_log_rejected(self):
        with pytest.raises(ConfigurationError, match="max_delta_log"):
            RemoteBackend(workers=1, max_delta_log=-1)


class TestMapping:
    def test_map_items_matches_serial(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            assert backend.map_items(_square, range(20)) == [
                x * x for x in range(20)
            ]
            assert backend.live_workers == 2

    def test_empty_batch_short_circuits(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            assert backend.map_items(_square, []) == []
            # No dispatch, so no fleet was ever spawned.
            assert backend.live_workers == 0

    def test_map_partitions_matches_serial(self):
        partitions = [[1, 2, 3], [4, 5], [6], [7, 8, 9, 10]]
        with RemoteBackend(workers=2, **FAST) as backend:
            assert backend.map_partitions(_sum_partition, partitions) == [
                sum(p) for p in partitions
            ]

    def test_fleet_survives_across_batches(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            backend.map_items(_square, [1, 2, 3])
            pids = [worker.process.pid for worker in backend._workers]
            backend.map_items(_square, [4, 5, 6])
            stats = backend.pool_stats()
            assert stats["restarts"] == 1
            assert stats["live_workers"] == 2
            assert [worker.process.pid for worker in backend._workers] == pids

    def test_initializer_state_reaches_tasks(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            assert backend.map_items(
                _read_state, [None] * 4, initializer=_set_state, initargs=(7,)
            ) == [7, 7, 7, 7]

    def test_rebinding_initializer_reboots_the_fleet(self):
        with RemoteBackend(workers=1, **FAST) as backend:
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(1,)
            )
            assert backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(2,)
            ) == [2]
            assert backend.pool_stats()["restarts"] == 2


class TestStateSync:
    def test_delta_sync_reaches_resident_workers(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            backend.bind_delta_applier(_apply_delta, _set_state)
            assert backend.map_items(
                _read_state, [None] * 3, initializer=_set_state, initargs=(10,)
            ) == [10, 10, 10]
            backend.notify_state_change(5)
            assert backend.pending_deltas == 1
            assert backend.map_items(
                _read_state, [None] * 3, initializer=_set_state, initargs=(10,)
            ) == [15, 15, 15]
            stats = backend.pool_stats()
            assert stats["delta_syncs"] >= 1
            assert stats["sync_bytes"] > 0
            assert backend.pending_deltas == 0
            assert backend.resident_epoch == backend.epoch == 1

    def test_full_sync_reboots_instead_of_deltas(self):
        with RemoteBackend(workers=1, max_delta_log=0, **FAST) as backend:
            backend.bind_delta_applier(_apply_delta, _set_state)
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(10,)
            )
            backend.notify_state_change(5)
            # A zero-length log re-ships state through the initializer,
            # so the delta's effect is *not* applied — parent state is
            # truth.
            assert backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(10,)
            ) == [10]
            stats = backend.pool_stats()
            assert stats["restarts"] == 2
            assert stats["delta_syncs"] == 0


class TestTcpWorkers:
    """The sync protocol against workers that join over TCP: state
    arrives in pickled BOOT frames, mutations as SYNC frames."""

    def test_boot_sync_and_rebind_reach_tcp_workers(self):
        with RemoteBackend(
            workers=2, spawn_workers=False, port=0, **FAST
        ) as backend:
            joiners = _join_tcp_workers(backend, 2)
            backend.bind_delta_applier(_apply_delta, _set_state)
            assert backend.map_items(
                _read_state, [None] * 4, initializer=_set_state, initargs=(10,)
            ) == [10] * 4
            backend.notify_state_change(5)
            assert backend.map_items(
                _read_state, [None] * 4, initializer=_set_state, initargs=(10,)
            ) == [15] * 4
            # A new binding re-boots the same TCP workers in place.
            assert backend.map_items(
                _read_state, [None] * 4, initializer=_set_state, initargs=(1,)
            ) == [1] * 4
            stats = backend.pool_stats()
            assert stats["delta_syncs"] == 1 and stats["sync_messages"] == 2
            assert stats["restarts"] == 2
            assert stats["live_workers"] == 2 and stats["dead_workers"] == 0
        for joiner in joiners:
            joiner.join(timeout=10.0)
            assert joiner.exitcode == 0  # STOPped, not killed

    def test_zero_delta_log_reships_tcp_workers_as_boot_frames(self):
        with RemoteBackend(
            workers=1, spawn_workers=False, port=0, max_delta_log=0, **FAST
        ) as backend:
            _join_tcp_workers(backend, 1)
            backend.bind_delta_applier(_apply_delta, _set_state)
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(10,)
            )
            booted = backend.pool_stats()["bootstrap_bytes"]
            backend.notify_state_change(5)
            # The re-ship rebuilds state through the initializer, so the
            # delta is not replayed: the parent's state is the truth.
            assert backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(10,)
            ) == [10]
            stats = backend.pool_stats()
            assert stats["restarts"] == 2 and stats["delta_syncs"] == 0
            assert stats["bootstrap_bytes"] == 2 * booted


class TestFailures:
    def test_worker_exception_chains_the_original(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            with pytest.raises(ZeroDivisionError) as excinfo:
                backend.map_items(_reciprocal, [1, 2, 0, 4])
            assert isinstance(excinfo.value.__cause__, ExecutionError)
            # The fleet survives a task failure.
            assert backend.map_items(_square, [3]) == [9]

    def test_unpicklable_task_rejected_with_useful_error(self):
        captured = 3
        with RemoteBackend(workers=1, **FAST) as backend:
            with pytest.raises(ExecutionError, match="picklable"):
                backend.map_items(lambda x: x + captured, [1])


class TestWorkerLoop:
    def test_task_ahead_of_resident_epoch_is_a_typed_violation(
        self, monkeypatch
    ):
        """A TASK can never outrun its SYNC: a worker that receives one
        answers every item with a typed error, never a stale value."""
        from repro.exec import remote as remote_module
        from repro.exec.wire import FrameConnection, Task

        monkeypatch.setattr(remote_module, "_EPOCH", 0)
        parent, child = socket.socketpair()
        with parent, child:
            task = Task(chunk_id=7, fn=_square, pairs=((0, 2), (1, 3)), epoch=5)
            assert remote_module._execute_task(FrameConnection(child), 0, task) == 2
            reader = FrameConnection(parent)
            results = [reader.recv(timeout=5.0), reader.recv(timeout=5.0)]
        assert [(r.index, r.ok) for r in results] == [(0, False), (1, False)]
        assert all("protocol violation" in r.summary for r in results)
        assert isinstance(pickle.loads(results[0].exc_bytes), ExecutionError)


class TestLifecycle:
    def test_pool_opens_no_listener(self):
        with get_backend("pool", workers=1) as backend:
            assert backend.map_items(_square, [2]) == [4]
            assert backend.address is None

    def test_remote_listens_from_the_first_dispatch(self):
        with get_backend("remote", workers=1) as backend:
            assert backend.map_items(_square, [2]) == [4]
            assert backend.address is not None

    def test_listen_exposes_the_rendezvous_address(self):
        backend = RemoteBackend(workers=1, **FAST)
        try:
            assert backend.address is None
            host, port = backend.listen()
            assert host == "127.0.0.1"
            assert port > 0
            assert backend.listen() == (host, port)  # idempotent
            assert backend.address == (host, port)
        finally:
            backend.close()

    def test_close_is_idempotent_and_stops_the_fleet(self):
        backend = RemoteBackend(workers=2, **FAST)
        backend.map_items(_square, [1, 2])
        backend.close()
        assert backend.live_workers == 0
        assert backend.address is None
        backend.close()

    def test_close_does_not_wait_on_the_accept_thread(self):
        """Closing the listener wakes the thread blocked in accept()."""
        backend = RemoteBackend(workers=1, port=0, **FAST)
        backend.map_items(_square, [2])
        started = time.monotonic()
        backend.close()
        assert time.monotonic() - started < 2.0

    def test_backend_recovers_after_close(self):
        backend = RemoteBackend(workers=1, **FAST)
        try:
            assert backend.map_items(_square, [2]) == [4]
            backend.close()
            assert backend.map_items(_square, [3]) == [9]
        finally:
            backend.close()

    def test_remote_stats_shape(self):
        """The fleet's one stats view, ``pool_stats()``, carries the
        transport and fault counters along with the pool ones."""
        with RemoteBackend(workers=2, **FAST) as backend:
            backend.map_items(_square, [1, 2, 3])
            stats = backend.pool_stats()
            for key in (
                "epoch",
                "resident_epoch",
                "address",
                "live_workers",
                "pending_workers",
                "pending_deltas",
                "restarts",
                "delta_syncs",
                "sync_messages",
                "sync_bytes",
                "frames_sent",
                "frames_received",
                "bytes_sent",
                "bytes_received",
                "heartbeats",
                "requeues",
                "dead_workers",
                "torn_frames",
                "handshake_rejects",
                "heartbeat_interval",
                "heartbeat_timeout",
                "scale_ups",
                "forced_stops",
                "bootstrap_bytes",
            ):
                assert key in stats, key
            assert stats["live_workers"] == 2
            assert stats["restarts"] == 1
            assert stats["frames_sent"] > 0
            assert stats["bytes_received"] > 0
            assert stats["dead_workers"] == 0
