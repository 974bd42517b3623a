"""The ``"pool"`` worker fleet and its epoch-based state sync.

``PoolBackend`` is the worker fleet with local workers only: forked
children on a socketpair, booted from fork-inherited state.  Resident
workers are exactly as fresh as the parent only through the epoch
protocol — the staleness counterexample (mutating parent state
*without* ``notify_state_change``) is pinned as the documented hazard.
Local workers share the fleet's fault paths: a dead worker's items are
requeued onto the survivors, losing every worker is a typed
:class:`FleetLossError`, and a deadline aborts a batch mid-collect.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.exceptions import ConfigurationError, ExecutionError
from repro.exec import BACKEND_NAMES, FleetLossError, PoolBackend, get_backend
from repro.resilience import Deadline, DeadlineExceeded

# -- module-level worker state (pickled by reference, inherited on fork) ----

_STATE: dict[str, int] = {"value": 0}


def _set_state(value: int) -> None:
    _STATE["value"] = value


def _read_state(_: object) -> int:
    return _STATE["value"]


def _apply_delta(delta: int) -> None:
    _STATE["value"] += delta


#: The parent-side "live" state a serving layer would own: mutated in
#: the parent *and* described as deltas, so a fresh fork (initializer
#: over the live object) and a delta replay must converge on the same
#: value.
_LIVE: dict[str, int] = {"value": 0}


def _boot_from_live(live: dict) -> None:
    _STATE["value"] = live["value"]


def _square(x: int) -> int:
    return x * x


def _reciprocal(x: int) -> float:
    return 1 / x


def _keep_state(*_: object) -> None:
    """An initializer that keeps the fork-inherited ``_STATE`` as is."""


def _slow_square(x: int) -> int:
    time.sleep(0.15)
    return x * x


def _echo(blob: bytes) -> bytes:
    return blob


class TestFactory:
    def test_pool_is_a_known_backend(self):
        assert "pool" in BACKEND_NAMES
        backend = get_backend("pool", workers=2)
        assert isinstance(backend, PoolBackend)
        assert backend.name == "pool"
        assert backend.requires_pickling
        backend.close()

    def test_negative_delta_log_rejected(self):
        with pytest.raises(ConfigurationError, match="max_delta_log"):
            PoolBackend(workers=1, max_delta_log=-1)


class TestResidentState:
    def test_steady_state_reuses_one_pool(self):
        with PoolBackend(workers=2) as backend:
            for _ in range(3):
                assert backend.map_items(_square, [1, 2, 3]) == [1, 4, 9]
            assert backend.restarts == 1
            # A batch far wider than the fleet does not widen it.
            burst = list(range(200))
            assert backend.map_items(_square, burst) == [x * x for x in burst]
            assert backend.live_workers == 2
            assert backend.restarts == 1

    def test_initializer_state_reaches_tasks(self):
        with PoolBackend(workers=2) as backend:
            result = backend.map_items(
                _read_state, [None] * 4, initializer=_set_state, initargs=(7,)
            )
            assert result == [7, 7, 7, 7]

    def test_rebinding_initializer_restarts_the_pool(self):
        with PoolBackend(workers=1) as backend:
            backend.map_items(_square, [1])
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(1,)
            )
            assert backend.restarts == 2

    def test_unpicklable_task_rejected_with_useful_error(self):
        captured = 3
        with PoolBackend(workers=1) as backend:
            with pytest.raises(ExecutionError, match="picklable"):
                backend.map_items(lambda x: x + captured, [1])

    def test_unpicklable_item_rejected_not_hung(self):
        """An unpicklable *item* must raise, not hang the collect loop.

        The messages are serialised in the dispatching thread; leaving
        that to the queue's feeder thread would silently drop the task
        message and leave the parent waiting forever.
        """
        with PoolBackend(workers=1) as backend:
            backend.map_items(_square, [1])  # boot the pool
            with pytest.raises(ExecutionError, match="picklable task items"):
                backend.map_items(_square, [lambda: None])
            # The pool survives the rejected dispatch.
            assert backend.map_items(_square, [3]) == [9]

    def test_worker_exception_chains_the_worker_traceback(self):
        """The original exception type crosses the boundary with the
        worker-side stack attached as its cause."""
        with PoolBackend(workers=1) as backend:
            with pytest.raises(ZeroDivisionError) as excinfo:
                backend.map_items(_reciprocal, [1, 0])
            assert isinstance(excinfo.value.__cause__, ExecutionError)
            assert "_reciprocal" in str(excinfo.value.__cause__)

    def test_empty_items_short_circuit(self):
        with PoolBackend(workers=1) as backend:
            assert backend.map_items(_square, []) == []
            assert backend.restarts == 0  # nothing ever forked

    def test_large_tasks_and_results_do_not_deadlock(self):
        """Task and result frames far larger than a socket buffer.

        The parent writes a whole batch before it reads; a worker
        blocked writing results must still drain its task stream, or
        both sides wait on each other's full buffers forever.
        """
        blobs = [bytes([i]) * 200_000 for i in range(16)]
        outcome: dict = {}

        def _run() -> None:
            with PoolBackend(workers=1) as backend:
                outcome["result"] = backend.map_items(_echo, blobs)

        runner = threading.Thread(target=_run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "map_items deadlocked on full buffers"
        assert outcome["result"] == blobs

    def test_close_is_idempotent(self):
        backend = PoolBackend(workers=1)
        backend.map_items(_square, [2])
        backend.close()
        backend.close()
        # A closed pool restarts transparently on the next use.
        assert backend.map_items(_square, [3]) == [9]
        backend.close()


class TestFreshnessContracts:
    """The load-bearing staleness semantics, pinned both ways."""

    def test_pool_backend_staleness_counterexample(self):
        """A resident worker keeps serving its fork-time snapshot when
        the parent mutates state without ``notify_state_change`` — the
        counterexample that makes the epoch protocol necessary rather
        than decorative.
        """
        with PoolBackend(workers=1) as backend:
            _set_state(20)
            assert backend.map_items(_read_state, [None]) == [20]
            _set_state(21)  # mutation NOT reported
            assert backend.map_items(_read_state, [None]) == [20]  # stale!

    def test_notify_restores_freshness_via_full_resync(self):
        """``max_delta_log=0`` re-ships after every reported mutation,
        even one that comes with a replayable delta."""
        with PoolBackend(workers=1, max_delta_log=0) as backend:
            backend.bind_delta_applier(_apply_delta, _keep_state)
            _set_state(30)
            assert backend.map_items(
                _read_state, [None], initializer=_keep_state
            ) == [30]
            _set_state(31)
            backend.notify_state_change(delta=1)
            assert backend.map_items(
                _read_state, [None], initializer=_keep_state
            ) == [31]
            assert backend.restarts == 2  # the resync was a re-ship
            assert backend.pool_stats()["delta_syncs"] == 0

    def test_notify_without_delta_in_delta_mode_restarts(self):
        """An undescribed mutation cannot be replayed — full re-ship."""
        with PoolBackend(workers=1) as backend:
            _set_state(40)
            assert backend.map_items(_read_state, [None]) == [40]
            _set_state(41)
            backend.notify_state_change()  # no delta payload
            assert backend.map_items(_read_state, [None]) == [41]
            assert backend.restarts == 2


class TestDeltaSync:
    def test_deltas_replay_without_restart(self):
        with PoolBackend(workers=2) as backend:
            backend.bind_delta_applier(_apply_delta, _set_state)
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(100,)
            )
            backend.notify_state_change(delta=5)
            backend.notify_state_change(delta=2)
            result = backend.map_items(
                _read_state,
                [None] * 4,
                initializer=_set_state,
                initargs=(100,),
            )
            assert result == [107, 107, 107, 107]
            assert backend.restarts == 1  # resident, never re-shipped

    def test_delta_replay_is_idempotent_across_batches(self):
        """Workers that already applied a delta must not re-apply it."""
        with PoolBackend(workers=2) as backend:
            backend.bind_delta_applier(_apply_delta, _set_state)
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(0,)
            )
            backend.notify_state_change(delta=3)
            first = backend.map_items(
                _read_state, [None] * 3, initializer=_set_state, initargs=(0,)
            )
            second = backend.map_items(
                _read_state, [None] * 3, initializer=_set_state, initargs=(0,)
            )
            assert first == second == [3, 3, 3]

    def test_delta_log_overflow_falls_back_to_restart(self):
        with PoolBackend(workers=1, max_delta_log=2) as backend:
            backend.bind_delta_applier(_apply_delta, _set_state)
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(0,)
            )
            for _ in range(3):  # one past the cap
                backend.notify_state_change(delta=1)
            # The next dispatch re-ships instead of replaying: the
            # fresh fork re-runs the initializer (value 0), whereas a
            # delta replay would have produced 3.
            assert backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(0,)
            ) == [0]
            assert backend.restarts == 2
            assert backend.pending_deltas == 0

    def test_applier_bound_after_boot_restarts_instead_of_broadcasting(self):
        """Workers spawned before the applier was bound cannot replay a
        packet; the parent must fall back to a restart, not broadcast
        into workers whose resident applier is still None."""
        with PoolBackend(workers=1) as backend:
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(50,)
            )
            backend.bind_delta_applier(_apply_delta, _set_state)  # late bind
            backend.notify_state_change(delta=3)
            # A broadcast here would kill the worker (no resident
            # applier); the restart re-runs the initializer instead.
            assert backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(50,)
            ) == [50]
            assert backend.restarts == 2
            # The new generation captured the binding: from now on
            # deltas broadcast without restarts.
            backend.notify_state_change(delta=4)
            assert backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(50,)
            ) == [54]
            assert backend.restarts == 2

    def test_deltas_do_not_apply_to_a_different_resident_state(self):
        """Replaying serve deltas into build-state would corrupt it."""
        with PoolBackend(workers=1) as backend:
            backend.bind_delta_applier(_apply_delta, _set_state)
            # Bind a *different* initializer than the applier's.
            backend.map_items(_square, [2])
            backend.notify_state_change(delta=9)
            backend.map_items(_square, [2])
            assert backend.restarts == 2  # restart, not a bogus replay

    def test_pool_stats_shape(self):
        with PoolBackend(workers=1) as backend:
            backend.bind_delta_applier(_apply_delta, _set_state)
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(0,)
            )
            backend.notify_state_change(delta=1)
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(0,)
            )
            stats = backend.pool_stats()
            assert stats["epoch"] == 1
            assert stats["restarts"] == 1
            assert stats["delta_syncs"] == 1
            # Broadcast sync: the packet reached every stream at dispatch
            # time, so the parent cleared the log then and there.
            assert stats["pending_deltas"] == 0
            assert stats["resident_epoch"] == 1
            assert stats["sync_messages"] == 1  # one worker, one message
            assert stats["sync_bytes"] > 0
            assert stats["live_workers"] == 1
            # The width is fixed: no scaling bounds, policy or counters.
            for key in (
                "min_workers", "max_workers", "idle_ttl", "target_p99_ms",
                "batch_p99_ms", "scale_ups", "scale_downs",
            ):
                assert key not in stats, key

    def test_broadcast_is_one_message_per_worker_not_per_task(self):
        """The tentpole invariant: sync cost is O(workers), O(1) in the
        task count.  A stale dispatch of many tasks over W workers must
        send exactly W sync messages, and a second (clean) dispatch of
        the same size must send none."""
        with PoolBackend(workers=3) as backend:
            backend.bind_delta_applier(_apply_delta, _set_state)
            backend.map_items(
                _read_state, [None] * 30, initializer=_set_state, initargs=(0,)
            )
            backend.notify_state_change(delta=5)
            assert backend.pending_deltas == 1
            result = backend.map_items(
                _read_state, [None] * 30, initializer=_set_state, initargs=(0,)
            )
            assert result == [5] * 30
            stats = backend.pool_stats()
            assert stats["sync_messages"] == 3  # == workers, despite 30 tasks
            assert stats["pending_deltas"] == 0
            backend.map_items(
                _read_state, [None] * 30, initializer=_set_state, initargs=(0,)
            )
            assert backend.pool_stats()["sync_messages"] == 3  # unchanged


# -- forced-stop escalation -------------------------------------------------


def _wedge_worker(x: int) -> int:
    """Leave the worker process unable to exit cleanly.

    Ignoring SIGTERM defeats ``terminate()``, and the non-daemon
    sleeper thread blocks interpreter shutdown after the worker loop
    reads its stop message — the exact shape of a wedged worker that
    used to hang ``close()`` forever on an unbounded ``join()``.
    """
    import signal
    import threading
    import time

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    threading.Thread(target=time.sleep, args=(300,), daemon=False).start()
    return x


class TestForcedStop:
    def test_wedged_worker_is_killed_not_joined_forever(self, monkeypatch):
        """Regression: ``close()`` must time-bound its joins and
        escalate terminate → kill on a worker that will not exit,
        counting the escalation in ``pool_forced_stops``."""
        import time

        from repro.exec import remote as remote_module

        monkeypatch.setattr(remote_module, "_JOIN_TIMEOUT_SECONDS", 0.2)
        backend = PoolBackend(workers=1)
        try:
            assert backend.map_items(_wedge_worker, [7]) == [7]
            started = time.monotonic()
            backend.close()
            elapsed = time.monotonic() - started
        finally:
            backend.close()
        assert elapsed < 5.0, f"close() took {elapsed:.1f}s on a wedged worker"
        assert backend.metrics.counter("pool_forced_stops").value >= 1
        assert backend.pool_stats()["forced_stops"] >= 1

    def test_clean_workers_stop_without_escalation(self):
        with PoolBackend(workers=2) as backend:
            backend.map_items(_square, [1, 2, 3])
        assert backend.metrics.counter("pool_forced_stops").value == 0


# -- local workers on the fleet's fault paths --------------------------------


def _kill_after(delay: float, pids: list[int]) -> threading.Thread:
    def _kill() -> None:
        time.sleep(delay)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)

    killer = threading.Thread(target=_kill)
    killer.start()
    return killer


class TestLocalWorkerFaults:
    def test_one_of_two_killed_mid_batch_is_requeued(self):
        with PoolBackend(workers=2) as backend:
            backend.map_items(_square, [0])  # boot the fleet
            victim = backend._workers[0].process
            killer = _kill_after(0.3, [victim.pid])
            try:
                result = backend.map_items(_slow_square, range(24))
            finally:
                killer.join()
            assert result == [x * x for x in range(24)]
            stats = backend.pool_stats()
            assert stats["dead_workers"] == 1
            assert stats["requeues"] >= 1
            # The next batch regrows the fleet to its width.
            assert backend.map_items(_square, range(8)) == [
                x * x for x in range(8)
            ]
            assert backend.live_workers == 2

    def test_worker_dead_between_batches_is_replaced_in_time(self):
        """A local worker that died between batches is discarded and
        re-forked before the next batch is placed, so that batch runs
        at full width with nothing requeued."""
        with PoolBackend(workers=2) as backend:
            backend.map_items(_square, [0])  # boot the fleet
            victim = backend._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            assert backend.map_items(_square, range(16)) == [
                x * x for x in range(16)
            ]
            stats = backend.pool_stats()
            assert stats["requeues"] == 0
            assert stats["dead_workers"] == 1
            assert stats["live_workers"] == 2

    def test_total_loss_raises_fleet_loss_then_respawns(self):
        with PoolBackend(workers=2) as backend:
            backend.map_items(_square, [0])
            pids = [worker.process.pid for worker in backend._workers]
            killer = _kill_after(0.3, pids)
            try:
                with pytest.raises(FleetLossError, match="no workers survive"):
                    backend.map_items(_slow_square, range(24))
            finally:
                killer.join()
            assert backend.map_items(_square, range(24)) == [
                x * x for x in range(24)
            ]
            assert backend.live_workers == 2

    def test_deadline_aborts_mid_batch_then_next_batch_is_clean(self):
        """A deadline fires between collect rounds, not only before
        dispatch; stragglers of the abandoned batch are dropped."""
        with PoolBackend(workers=1) as backend:
            backend.map_items(_square, [0])
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded, match="unanswered"):
                backend.map_items(
                    _slow_square, range(8), deadline=Deadline.after(0.3)
                )
            # 8 items x 0.15 s would take 1.2 s to drain.
            assert time.monotonic() - started < 1.0
            assert backend.pool_stats()["deadline_aborts"] == 1
            assert backend.map_items(_square, range(6)) == [
                x * x for x in range(6)
            ]
            assert backend.pool_stats()["stale_results"] >= 1


class TestBootstrapMidMutationStream:
    def test_regrown_worker_sees_a_consistent_epoch(self):
        """A replacement forked after a death, with deltas pending, must
        answer from the parent's *current* state: the survivor replays
        the broadcast packet, the replacement forks the already-mutated
        live state at the current epoch, and both land on one value."""
        _LIVE["value"] = 100
        with PoolBackend(workers=2) as backend:
            backend.bind_delta_applier(_apply_delta, _boot_from_live)
            assert backend.map_items(
                _read_state, [None], initializer=_boot_from_live, initargs=(_LIVE,)
            ) == [100]
            victim = backend._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            assert not victim.is_alive()
            # Two mutations land between batches: the parent applies
            # them to its live state AND logs them as deltas, exactly
            # like the serving layer's ingest path.
            for delta in (5, 2):
                _LIVE["value"] += delta
                backend.notify_state_change(delta=delta)
            result = backend.map_items(
                _read_state,
                [None] * 24,
                initializer=_boot_from_live,
                initargs=(_LIVE,),
            )
            assert result == [107] * 24
            stats = backend.pool_stats()
            assert stats["live_workers"] == 2
            assert stats["restarts"] == 1  # regrowth is not a re-ship
            assert stats["delta_syncs"] == 1
            assert stats["dead_workers"] == 1
            # Only the survivor needed the packet.
            assert stats["sync_messages"] == 1
