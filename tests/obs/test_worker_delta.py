"""Worker metrics-delta piggyback: merge, labels, and worker death.

Pool workers keep the fork-copied default registry as their child
registry and attach a :meth:`MetricsRegistry.drain_delta` payload to
the last result frame of each task chunk; the parent merges each
delta under a ``worker="N"`` label.  A worker dying mid-batch loses at
most its own undelivered delta: a survivor re-serves its items, or —
when every worker dies — the batch fails loudly, and either way the
parent's counts stay consistent.
"""

from __future__ import annotations

import os

import pytest

from repro.exec import FleetLossError, PoolBackend
from repro.obs import get_registry


def _bump_and_square(x: int) -> int:
    get_registry().inc("task_bumps")
    return x * x


def _bump_or_die(x: int) -> int:
    get_registry().inc("task_bumps")
    if x == 13:
        os._exit(1)
    return x * x


def _bump_or_die_once(spec: tuple[int, str]) -> int:
    """Kill the first worker that serves 13; a requeued 13 is answered.

    ``spec`` is ``(x, marker_path)``: the marker file records the death
    so the survivor that re-serves the item does not die too.
    """
    x, marker = spec
    get_registry().inc("task_bumps")
    if x == 13 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return x * x


def _observe_ms(x: float) -> float:
    get_registry().observe("worker_task_ms", x)
    return x


class TestDeltaMerge:
    def test_worker_counters_merge_under_worker_labels(self):
        with PoolBackend(workers=2) as backend:
            items = list(range(8))
            assert backend.map_items(_bump_and_square, items) == [
                x * x for x in items
            ]
            assert backend.metrics.total("task_bumps") == 8
            labeled = {
                labels
                for name, labels, _ in backend.metrics.metrics()
                if name == "task_bumps"
            }
            # Every label set carries the worker that produced it.
            assert labeled
            assert all(("worker" in dict(labels)) for labels in labeled)

    def test_deltas_accumulate_across_batches(self):
        with PoolBackend(workers=2) as backend:
            backend.map_items(_bump_and_square, range(4))
            backend.map_items(_bump_and_square, range(6))
            assert backend.metrics.total("task_bumps") == 10

    def test_worker_histograms_travel_with_stats(self):
        with PoolBackend(workers=2) as backend:
            backend.map_items(_observe_ms, [1.0, 2.0, 4.0, 8.0])
            merged = backend.metrics.merged_histogram("worker_task_ms")
            assert merged is not None
            assert merged.count == 4
            assert merged.sum == pytest.approx(15.0)
            assert merged.min == 1.0
            assert merged.max == 8.0

    def test_parent_baseline_excludes_boot_time_counts(self):
        """Only worker-side increments travel: the parent's own global
        registry activity before the fork must not be re-merged."""
        get_registry().inc("task_bumps", 100)  # parent-side noise
        try:
            with PoolBackend(workers=1) as backend:
                backend.map_items(_bump_and_square, range(3))
                assert backend.metrics.total("task_bumps") == 3
        finally:
            from repro.obs import reset_registry

            reset_registry()


class TestWorkerDeathMidBatch:
    def test_death_fails_loudly_and_counts_stay_consistent(self):
        """Item 13 kills whichever worker serves it, so the requeue
        kills the survivor too: total fleet loss, loud and typed."""
        with PoolBackend(workers=2) as backend:
            backend.map_items(_bump_and_square, range(4))
            before = backend.metrics.total("task_bumps")
            assert before == 4
            with pytest.raises(FleetLossError, match="died"):
                backend.map_items(_bump_or_die, [1, 2, 13, 4, 5, 6])
            # Deltas from messages that never arrived are simply lost;
            # whatever did arrive merged cleanly on top of the old total.
            after = backend.metrics.total("task_bumps")
            assert after >= before
            assert after == int(after)  # no torn/partial merge
            # The pool recovers on the next dispatch and keeps counting.
            assert backend.map_items(_bump_and_square, [3]) == [9]
            assert backend.metrics.total("task_bumps") >= after + 1
            assert backend.pool_stats()["dead_workers"] == 2

    def test_one_death_is_requeued_and_counts_stay_consistent(self, tmp_path):
        marker = str(tmp_path / "died")
        with PoolBackend(workers=2) as backend:
            items = [1, 2, 13, 4, 5, 6]
            specs = [(x, marker) for x in items]
            assert backend.map_items(_bump_or_die_once, specs) == [
                x * x for x in items
            ]
            # One item per chunk, so each result carries its own bump:
            # the dead worker's bump for 13 died with it, the
            # survivor's re-serve is counted — once per item, exactly.
            assert backend.metrics.total("task_bumps") == len(items)
            stats = backend.pool_stats()
            assert stats["dead_workers"] == 1
            assert stats["requeues"] >= 1
