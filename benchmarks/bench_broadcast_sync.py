"""Broadcast delta fan-out vs per-task delta replay.

PR 3's pool shipped the pending mutation log *with every task*: a batch
of T tasks after a mutation burst serialised the delta packet T times.
The broadcast protocol sends the packet once per **worker** as one SYNC
frame on its stream instead — sync cost per batch is O(workers), no
matter how many tasks the batch carries.

This benchmark reproduces both wire shapes over the same worker fleet
(:class:`~repro.exec.PoolBackend`, the fleet with forked local workers)
and the same mutation-heavy workload, so the measured gap is exactly
the per-task packet shipping:

* **serial** — the reference arm; recomputes every answer from the
  parent's live state (bit-identity oracle);
* **per-task replay** — the legacy shape, emulated faithfully: every
  task spec embeds the current delta packet, the worker applies the
  unseen suffix before computing (idempotent via a resident epoch
  guard);
* **broadcast** — the shipped protocol: mutations go through
  ``notify_state_change``, the pool broadcasts one per-epoch packet per
  worker, tasks ship only their arguments.

Checked claims (all land in ``BENCH_broadcast.json``):

1. **bit-identity** — all three arms agree on every result of every
   batch, mutations included;
2. **O(workers) sync** — the broadcast arm's control-message counter
   equals ``workers × stale batches``, independent of the task count;
3. **speedup** — broadcast serves the batch sequence at least
   :data:`SPEEDUP_FLOOR` times faster than per-task replay at
   :data:`WORKERS` workers (the acceptance bar; typical runs land
   higher).

Run directly (``python benchmarks/bench_broadcast_sync.py [--quick]``)
or via ``pytest benchmarks/bench_broadcast_sync.py``.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.eval.reporting import format_table  # noqa: E402
from repro.eval.timing import stopwatch  # noqa: E402
from repro.exec import PoolBackend  # noqa: E402

#: Where the measured numbers are written for regression diffing.
RESULT_PATH = _ROOT / "BENCH_broadcast.json"

#: Acceptance bar: broadcast sync vs per-task delta replay.
SPEEDUP_FLOOR = 1.3

#: Worker count the speedup claim is made at (the issue's "8+ workers";
#: the tasks are payload-dominated, so oversubscribed cores are fine).
WORKERS = 8


# -- resident worker state ---------------------------------------------------
#
# A profile table standing in for the serving layer's rating matrix:
# every answer reads *every* profile, so a single missed mutation
# changes results — bit-identity cannot pass by accident.

_BSTATE: dict = {"profiles": {}, "epoch": 0}


def _boot_profiles(profiles: dict) -> None:
    """Full ship: deep-copy the parent's live table into the worker."""
    _BSTATE["profiles"] = {user: list(vec) for user, vec in profiles.items()}
    _BSTATE["epoch"] = 0


def _apply_profile_delta(delta: tuple) -> None:
    """Replay one mutation (broadcast arm's bound applier)."""
    user, vector = delta
    _BSTATE["profiles"][user] = list(vector)


def _score_user(user: str) -> float:
    """An answer that depends on the whole table (and so on every delta)."""
    profiles = _BSTATE["profiles"]
    total = sum(sum(vector) for vector in profiles.values())
    return round(total + sum(profiles[user]), 6)


def _score_task(user: str) -> tuple[str, float]:
    """Broadcast-arm task: bare arguments, sync already happened."""
    return user, _score_user(user)


def _score_task_with_packet(spec: tuple) -> tuple[str, float]:
    """Per-task-replay arm: the delta packet rides along with the task.

    This is the faithful emulation of the pre-broadcast wire shape —
    the packet is serialised once per *task*.  The epoch guard keeps
    replay idempotent exactly like the old suffix protocol did.
    """
    user, target_epoch, entries = spec
    if target_epoch > _BSTATE["epoch"]:
        for delta_epoch, delta in entries:
            if delta_epoch > _BSTATE["epoch"]:
                _apply_profile_delta(delta)
        _BSTATE["epoch"] = target_epoch
    return user, _score_user(user)


# -- workload ----------------------------------------------------------------


def _make_profiles(num_users: int, dim: int, seed: int) -> dict:
    rng = random.Random(seed)
    return {
        f"u{i:04d}": [round(rng.uniform(-1, 1), 6) for _ in range(dim)]
        for i in range(num_users)
    }


def _make_bursts(
    users: list[str], batches: int, mutations: int, dim: int, seed: int
) -> list[list[tuple]]:
    """One mutation burst per batch: (user, new profile vector) deltas."""
    rng = random.Random(seed * 31)
    bursts = []
    for _ in range(batches):
        burst = []
        for _ in range(mutations):
            user = rng.choice(users)
            vector = tuple(round(rng.uniform(-1, 1), 6) for _ in range(dim))
            burst.append((user, vector))
        bursts.append(burst)
    return bursts


@dataclass
class ArmTiming:
    """Wall-clock of one protocol arm over the batch sequence."""

    arm: str
    workers: int
    total_ms: float
    per_batch_ms: float


@dataclass
class BroadcastBenchResult:
    """All arms on one mutation-heavy workload, plus the verdicts."""

    num_users: int
    dim: int
    batches: int
    tasks_per_batch: int
    mutations_per_batch: int
    workers: int
    timings: list[ArmTiming] = field(default_factory=list)
    identical_results: bool = True
    sync_messages: int = 0
    sync_messages_expected: int = 0

    def timing(self, arm: str) -> ArmTiming:
        for row in self.timings:
            if row.arm == arm:
                return row
        raise KeyError(arm)

    @property
    def broadcast_speedup(self) -> float:
        """Broadcast over per-task replay on the same pool and workload."""
        per_task = self.timing("per-task-replay").total_ms
        broadcast = self.timing("broadcast").total_ms
        return per_task / broadcast if broadcast > 0 else float("inf")

    @property
    def sync_is_o_workers(self) -> bool:
        """One control message per worker per stale batch — never per task."""
        return (
            self.sync_messages == self.sync_messages_expected
            and self.tasks_per_batch > self.workers
        )


def run_broadcast_comparison(
    num_users: int = 200,
    dim: int = 64,
    batches: int = 6,
    tasks_per_batch: int = 64,
    mutations_per_batch: int = 48,
    workers: int = WORKERS,
    seed: int = 42,
) -> BroadcastBenchResult:
    """Time the mutation-heavy batch sequence on all three arms.

    Every batch is preceded by a mutation burst, so every batch is a
    *stale* dispatch — the worst case for sync cost, which is the cost
    this benchmark isolates.  Task order and results are compared
    exactly across arms.
    """
    profiles = _make_profiles(num_users, dim, seed)
    users = sorted(profiles)
    bursts = _make_bursts(users, batches, mutations_per_batch, dim, seed)
    rng = random.Random(seed * 7)
    task_batches = [
        [rng.choice(users) for _ in range(tasks_per_batch)]
        for _ in range(batches)
    ]
    result = BroadcastBenchResult(
        num_users=num_users,
        dim=dim,
        batches=batches,
        tasks_per_batch=tasks_per_batch,
        mutations_per_batch=mutations_per_batch,
        workers=workers,
    )

    # Arm 1: serial reference over the live table.
    live = {user: list(vec) for user, vec in profiles.items()}
    reference: list[list[tuple[str, float]]] = []
    with stopwatch() as elapsed:
        for burst, tasks in zip(bursts, task_batches):
            for user, vector in burst:
                live[user] = list(vector)
            _BSTATE["profiles"] = live
            reference.append([(user, _score_user(user)) for user in tasks])
        serial_ms = elapsed()
    result.timings.append(
        ArmTiming("serial", 1, serial_ms, serial_ms / batches)
    )

    # Arm 2: per-task replay — the packet rides with every task.
    live = {user: list(vec) for user, vec in profiles.items()}
    outputs: list[list[tuple[str, float]]] = []
    with PoolBackend(workers=workers) as backend:
        # Prime the pool (untimed).
        backend.map_items(
            _score_task_with_packet,
            [(users[0], 0, ())],
            initializer=_boot_profiles,
            initargs=(live,),
        )
        epoch = 0
        entries: list[tuple[int, tuple]] = []
        with stopwatch() as elapsed:
            for burst, tasks in zip(bursts, task_batches):
                for user, vector in burst:
                    epoch += 1
                    entries.append((epoch, (user, vector)))
                packet = tuple(entries)
                outputs.append(
                    backend.map_items(
                        _score_task_with_packet,
                        [(user, epoch, packet) for user in tasks],
                        initializer=_boot_profiles,
                        initargs=(live,),
                    )
                )
            per_task_ms = elapsed()
    result.timings.append(
        ArmTiming(
            "per-task-replay", workers, per_task_ms, per_task_ms / batches
        )
    )
    if outputs != reference:
        result.identical_results = False

    # Arm 3: broadcast — one packet per worker, bare tasks.
    live = {user: list(vec) for user, vec in profiles.items()}
    outputs = []
    with PoolBackend(workers=workers) as backend:
        backend.bind_delta_applier(_apply_profile_delta, _boot_profiles)
        backend.map_items(
            _score_task,
            [users[0]],
            initializer=_boot_profiles,
            initargs=(live,),
        )
        with stopwatch() as elapsed:
            for burst, tasks in zip(bursts, task_batches):
                for user, vector in burst:
                    live[user] = list(vector)
                    backend.notify_state_change(delta=(user, vector))
                outputs.append(
                    backend.map_items(
                        _score_task,
                        tasks,
                        initializer=_boot_profiles,
                        initargs=(live,),
                    )
                )
            broadcast_ms = elapsed()
        stats = backend.pool_stats()
    result.timings.append(
        ArmTiming("broadcast", workers, broadcast_ms, broadcast_ms / batches)
    )
    if outputs != reference:
        result.identical_results = False
    result.sync_messages = stats["sync_messages"]
    result.sync_messages_expected = workers * batches
    return result


def write_result(
    result: BroadcastBenchResult, path: Path = RESULT_PATH
) -> Path:
    """Persist the measurements as JSON for regression diffing."""
    payload = {
        "benchmark": "broadcast_sync",
        "workload": {
            "num_users": result.num_users,
            "profile_dim": result.dim,
            "batches": result.batches,
            "tasks_per_batch": result.tasks_per_batch,
            "mutations_per_batch": result.mutations_per_batch,
            "workers": result.workers,
            "every_batch_stale": True,
        },
        "identical_results": result.identical_results,
        "broadcast_vs_pertask_speedup": result.broadcast_speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "sync_cost": {
            "sync_messages": result.sync_messages,
            "expected_o_workers": result.sync_messages_expected,
            "tasks_dispatched": result.tasks_per_batch * result.batches,
            "is_o_workers_not_o_tasks": result.sync_is_o_workers,
        },
        "timings": [
            {
                "arm": row.arm,
                "workers": row.workers,
                "total_ms": row.total_ms,
                "per_batch_ms": row.per_batch_ms,
            }
            for row in result.timings
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def test_broadcast_bit_identical():
    """All three arms must agree on every answer (quick workload)."""
    result = run_broadcast_comparison(
        num_users=60, dim=16, batches=3, tasks_per_batch=24,
        mutations_per_batch=12, workers=4,
    )
    assert result.identical_results
    assert result.sync_is_o_workers


def test_broadcast_beats_per_task_replay():
    """The acceptance bar: broadcast >= 1.3x per-task replay at 8 workers.

    The gap is pure payload: per-task replay serialises the mutation
    packet once per task, broadcast once per worker — the margin does
    not depend on core count, so this asserts on any machine.
    """
    result = run_broadcast_comparison()
    write_result(result)
    assert result.identical_results
    assert result.sync_is_o_workers, (
        f"broadcast sent {result.sync_messages} sync messages, expected "
        f"workers x stale batches = {result.sync_messages_expected}"
    )
    assert result.broadcast_speedup >= SPEEDUP_FLOOR, (
        f"broadcast {result.timing('broadcast').total_ms:.0f} ms is only "
        f"{result.broadcast_speedup:.2f}x faster than per-task replay "
        f"{result.timing('per-task-replay').total_ms:.0f} ms "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def main(argv: list[str] | None = None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    if quick:
        result = run_broadcast_comparison(
            num_users=60, dim=16, batches=3, tasks_per_batch=24,
            mutations_per_batch=12, workers=4,
        )
    else:
        result = run_broadcast_comparison()
    rows = [
        [row.arm, row.workers, row.total_ms, row.per_batch_ms]
        for row in result.timings
    ]
    print(
        format_table(
            ["arm", "workers", "total (ms)", "per batch (ms)"],
            rows,
            float_format="{:.1f}",
        )
    )
    print(
        f"\nbit-identical across arms: {result.identical_results}\n"
        f"sync messages: {result.sync_messages} "
        f"(= workers x stale batches: {result.sync_is_o_workers})\n"
        f"broadcast vs per-task replay speedup: "
        f"{result.broadcast_speedup:.2f}x (floor {SPEEDUP_FLOOR}x)"
    )
    if not quick:
        path = write_result(result)
        print(f"wrote {path}")
    if not result.identical_results:
        print("ERROR: arms disagree on results", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
