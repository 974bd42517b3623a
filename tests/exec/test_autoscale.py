"""Autoscaling edge cases of the worker fleet's local workers.

The autoscaling contract: grow toward ``max_workers`` when a
dispatch's queue depth exceeds the live width (each new worker forks
the parent's current state and then joins delta sync), and shrink
idle workers back to ``min_workers`` once
``idle_ttl`` passes with no dispatch.  Scaling must never change
results — a burst is served completely (no rejected tasks) and a worker
spawned mid-mutation-stream must see exactly the parent's current
epoch, not its boot-time initargs replayed stale.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.exec import PoolBackend
from repro.obs import MetricsRegistry


class FakeClock:
    """Deterministic monotonic clock for idle-TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- module-level worker state (pickled by reference, inherited on fork) ----

_STATE: dict[str, int] = {"value": 0}

#: The parent-side "live" state a serving layer would own: mutated in
#: the parent *and* described as deltas, so a fresh fork (initializer
#: over the live object) and a delta replay must converge on the same
#: value — the mid-stream-bootstrap consistency contract.
_LIVE: dict[str, int] = {"value": 0}


def _boot_from_live(live: dict) -> None:
    _STATE["value"] = live["value"]


def _apply_delta(delta: int) -> None:
    _STATE["value"] += delta


def _read_state(_: object) -> int:
    return _STATE["value"]


def _square(x: int) -> int:
    return x * x


class TestBounds:
    def test_defaults_are_a_fixed_size_pool(self):
        backend = PoolBackend(workers=3)
        assert backend.min_workers == backend.max_workers == 3
        backend.close()

    def test_min_above_max_rejected(self):
        with pytest.raises(ConfigurationError, match="min_workers"):
            PoolBackend(workers=2, min_workers=5, max_workers=3)

    def test_nonpositive_bounds_rejected(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            PoolBackend(workers=2, max_workers=0)
        with pytest.raises(ConfigurationError, match="min_workers"):
            PoolBackend(workers=2, min_workers=0, max_workers=2)

    def test_nonpositive_idle_ttl_rejected(self):
        with pytest.raises(ConfigurationError, match="idle_ttl"):
            PoolBackend(workers=2, min_workers=1, max_workers=2, idle_ttl=0)

    def test_workers_seeds_both_bounds(self):
        backend = PoolBackend(workers=2, max_workers=6)
        assert backend.min_workers == 2
        assert backend.max_workers == 6
        backend.close()

    def test_lone_floor_raises_the_default_ceiling(self):
        """min_workers=4 with no explicit ceiling must not contradict a
        smaller default width — the ceiling follows the floor."""
        backend = PoolBackend(workers=2, min_workers=4)
        assert backend.min_workers == 4
        assert backend.max_workers == 4
        backend.close()


class TestGrow:
    def test_boot_width_follows_queue_depth_within_bounds(self):
        with PoolBackend(workers=1, min_workers=1, max_workers=4) as backend:
            backend.map_items(_square, range(2))
            assert backend.live_workers == 2  # depth 2, not the max

    def test_grow_under_burst_serves_every_task(self):
        with PoolBackend(workers=1, min_workers=1, max_workers=4) as backend:
            assert backend.map_items(_square, [3]) == [9]
            assert backend.live_workers == 1
            burst = list(range(200))
            assert backend.map_items(_square, burst) == [x * x for x in burst]
            assert backend.live_workers == 4  # grew to the ceiling
            stats = backend.pool_stats()
            assert stats["scale_ups"] == 3
            assert stats["restarts"] == 1  # growth is not a re-ship

    def test_growth_never_exceeds_max_workers(self):
        with PoolBackend(workers=1, min_workers=1, max_workers=2) as backend:
            backend.map_items(_square, range(50))
            assert backend.live_workers == 2


class TestShrink:
    def test_shrink_to_min_under_zero_load(self):
        clock = FakeClock()
        with PoolBackend(
            workers=1, min_workers=1, max_workers=4, idle_ttl=10.0, clock=clock
        ) as backend:
            backend.map_items(_square, range(8))
            assert backend.live_workers == 4
            clock.advance(9.0)
            assert backend.autoscale() == 4  # TTL not yet reached
            clock.advance(2.0)
            assert backend.autoscale() == 1  # converged to the floor
            stats = backend.pool_stats()
            assert stats["scale_downs"] == 3
            assert stats["live_workers"] == 1

    def test_no_shrink_without_idle_ttl(self):
        clock = FakeClock()
        with PoolBackend(
            workers=1, min_workers=1, max_workers=4, clock=clock
        ) as backend:
            backend.map_items(_square, range(8))
            clock.advance(1e6)
            assert backend.autoscale() == 4

    def test_pool_stats_applies_due_shrink(self):
        clock = FakeClock()
        with PoolBackend(
            workers=1, min_workers=1, max_workers=3, idle_ttl=5.0, clock=clock
        ) as backend:
            backend.map_items(_square, range(6))
            clock.advance(6.0)
            assert backend.pool_stats()["live_workers"] == 1

    def test_shrunk_pool_still_serves_correctly(self):
        clock = FakeClock()
        with PoolBackend(
            workers=1, min_workers=1, max_workers=4, idle_ttl=1.0, clock=clock
        ) as backend:
            backend.map_items(_square, range(12))
            clock.advance(2.0)
            backend.autoscale()
            assert backend.map_items(_square, range(12)) == [
                x * x for x in range(12)
            ]


class TestBootstrapMidMutationStream:
    def test_grown_worker_sees_a_consistent_epoch(self):
        """A worker spawned mid-mutation-stream must answer from the
        parent's *current* state: resident workers replay the broadcast
        deltas while the fresh worker full-ships at spawn time — both
        must land on the same value for every task."""
        _LIVE["value"] = 100
        with PoolBackend(
            workers=1, min_workers=1, max_workers=4
        ) as backend:
            backend.bind_delta_applier(_apply_delta, _boot_from_live)
            assert backend.map_items(
                _read_state, [None], initializer=_boot_from_live, initargs=(_LIVE,)
            ) == [100]
            # Two mutations land between batches: the parent applies
            # them to its live state AND logs them as deltas, exactly
            # like the serving layer's ingest path.
            for delta in (5, 2):
                _LIVE["value"] += delta
                backend.notify_state_change(delta=delta)
            # The next batch is a burst: the resident worker syncs via
            # the broadcast packet, the three new workers fork the
            # already-mutated live state and boot at the current epoch.
            result = backend.map_items(
                _read_state,
                [None] * 24,
                initializer=_boot_from_live,
                initargs=(_LIVE,),
            )
            assert result == [107] * 24
            assert backend.live_workers == 4
            stats = backend.pool_stats()
            assert stats["restarts"] == 1  # nobody forced a re-ship
            assert stats["delta_syncs"] == 1
            # Only the one pre-existing worker needed the packet.
            assert stats["sync_messages"] == 1

    def test_mutation_after_growth_broadcasts_to_every_worker(self):
        _LIVE["value"] = 0
        with PoolBackend(
            workers=1, min_workers=1, max_workers=3
        ) as backend:
            backend.bind_delta_applier(_apply_delta, _boot_from_live)
            backend.map_items(
                _read_state,
                [None] * 9,
                initializer=_boot_from_live,
                initargs=(_LIVE,),
            )
            assert backend.live_workers == 3
            _LIVE["value"] += 7
            backend.notify_state_change(delta=7)
            result = backend.map_items(
                _read_state,
                [None] * 9,
                initializer=_boot_from_live,
                initargs=(_LIVE,),
            )
            assert result == [7] * 9
            assert backend.pool_stats()["sync_messages"] == 3


class TestP99Autoscaling:
    """Latency-target scaling: grow on a windowed-p99 breach, shrink on
    recovery, and never act on an empty window."""

    def _booted_backend(self, clock, **kwargs):
        backend = PoolBackend(
            workers=1, min_workers=1, max_workers=4,
            target_p99_ms=50.0, clock=clock, **kwargs,
        )
        assert backend.map_items(_square, [2]) == [4]  # boot one worker
        return backend

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ConfigurationError, match="target_p99_ms"):
            PoolBackend(workers=2, target_p99_ms=0.0)
        with pytest.raises(ConfigurationError, match="target_p99_ms"):
            PoolBackend(workers=2, target_p99_ms=-1.0)

    def test_pool_stats_exposes_the_latency_target(self):
        clock = FakeClock()
        with self._booted_backend(clock) as backend:
            stats = backend.pool_stats()
            assert stats["target_p99_ms"] == 50.0
            # The boot batch was observed, so the window is non-empty.
            assert stats["batch_p99_ms"] is not None

    def test_grow_one_worker_per_breached_autoscale(self):
        clock = FakeClock()
        with self._booted_backend(clock) as backend:
            for _ in range(10):
                backend._batch_latency.observe(200.0)  # 4x the target
            assert backend.autoscale() == 2
            assert backend.autoscale() == 3
            assert backend.autoscale() == 4
            assert backend.autoscale() == 4  # ceiling holds
            assert backend.pool_stats()["scale_ups"] >= 3

    def test_dispatch_grows_under_breach_without_shrinking(self):
        clock = FakeClock()
        with self._booted_backend(clock) as backend:
            for _ in range(10):
                backend._batch_latency.observe(200.0)
            assert backend.map_items(_square, [3]) == [9]
            assert backend.live_workers == 2  # grew on the dispatch path

    def test_shrink_after_recovery_below_half_target(self):
        clock = FakeClock()
        with self._booted_backend(clock) as backend:
            for _ in range(10):
                backend._batch_latency.observe(200.0)
            while backend.autoscale() < 4:
                pass
            # Age the breach out of the 30 s window, then observe a
            # healthy p99 at <= half the target.
            clock.advance(60.0)
            for _ in range(10):
                backend._batch_latency.observe(10.0)
            assert backend.autoscale() == 3
            assert backend.autoscale() == 2
            assert backend.autoscale() == 1  # floor holds
            assert backend.autoscale() == 1
            assert backend.pool_stats()["scale_downs"] >= 3

    def test_empty_window_takes_no_action(self):
        clock = FakeClock()
        with self._booted_backend(clock) as backend:
            for _ in range(10):
                backend._batch_latency.observe(200.0)
            assert backend.autoscale() == 2
            # Everything ages out: no evidence either way, hold width.
            clock.advance(120.0)
            assert backend.autoscale() == 2

    def test_between_half_and_full_target_holds_width(self):
        clock = FakeClock()
        with self._booted_backend(clock) as backend:
            for _ in range(10):
                backend._batch_latency.observe(200.0)
            assert backend.autoscale() == 2
            clock.advance(60.0)
            for _ in range(10):
                backend._batch_latency.observe(40.0)  # < target, > half
            assert backend.autoscale() == 2

    def test_shared_registry_latency_does_not_scale_this_fleet(self):
        """Fleets reporting into one registry share its ``pool_batch_ms``
        series; the p99 policy reads only this fleet's own batches."""
        clock = FakeClock()
        registry = MetricsRegistry()
        with self._booted_backend(clock, metrics=registry) as backend:
            shared = registry.histogram("pool_batch_ms")
            for _ in range(10):
                shared.observe(200.0)  # another fleet's breached batches
            assert shared.count == 11  # the boot batch reported here too
            assert backend.autoscale() == 1
            assert backend.pool_stats()["scale_ups"] == 0

    def test_scaling_never_changes_results(self):
        clock = FakeClock()
        with self._booted_backend(clock) as backend:
            for _ in range(10):
                backend._batch_latency.observe(200.0)
            backend.autoscale()
            burst = list(range(40))
            assert backend.map_items(_square, burst) == [x * x for x in burst]
