"""Workload definitions, seeded request plans and the correctness oracle.

Every input is derived from ``--seed``: the dataset (``generate_scale_dataset``
with Zipf items and power-law groups), the hot sets, the Poisson arrival
schedules and the fresh groups.  The serving process only ever sees the
dataset file and the request stream.

Sizes and rates are set so that all runs the benchmark contract asks for
fit its time budget on a 2-core host; see ``README.md`` for where they
differ from the first design and why.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from typing import Any

NUM_ITEMS = 1000
RATINGS_PER_USER = 20
#: Zipf exponent of request popularity over a hot set.
HOT_ZIPF = 1.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one service configuration."""

    name: str
    why: str
    users: int
    #: "open" (Poisson arrivals), "closed" (clients wait for replies)
    #: or "batch" (recommend_many in the serving process)
    loop: str
    #: shipped cache sizes, or all three caches at 0
    caches: bool
    #: full Eq. 2 neighbour-index build during setup
    warm_index: bool
    items: int = NUM_ITEMS
    read_rps: float = 0.0
    write_rps: float = 0.0
    clients: int = 2
    hot_groups: int = 0
    hot_users: int = 0
    closed_requests: int = 0
    pool_workers: int = 0
    batch_size: int = 0
    batches: int = 0

    def config(self) -> dict[str, Any]:
        """``RecommenderConfig`` keyword arguments of the served instance."""
        config: dict[str, Any] = {"max_peers": 50}
        if not self.caches:
            config.update(
                similarity_cache_size=0, relevance_cache_size=0, group_cache_size=0
            )
        if self.pool_workers:
            config.update(exec_backend="pool", exec_workers=self.pool_workers)
        return config

    def record(self) -> dict[str, Any]:
        """The workload's shape for the run record."""
        shape = {
            "users": self.users,
            "items": self.items,
            "ratings_per_user": RATINGS_PER_USER,
            "loop": self.loop,
            "config": self.config(),
            "warm_index": self.warm_index,
        }
        if self.loop == "open":
            shape.update(read_rps=self.read_rps, write_rps=self.write_rps)
            shape.update(hot_groups=self.hot_groups, hot_users=self.hot_users)
        elif self.loop == "closed":
            shape.update(clients=self.clients)
        else:
            shape.update(batch_size=self.batch_size, batches=self.batches)
        return shape


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dashboard",
            why=(
                "repeated hot groups/users, so nearly every request is a group- or "
                "relevance-cache hit and serving.server plus serving.cache do the work"
            ),
            users=1000,
            loop="open",
            caches=True,
            warm_index=False,
            read_rps=1000.0,
            hot_groups=100,
            hot_users=100,
        ),
        Workload(
            name="recompute",
            why=(
                "caches off, fresh groups: every request runs Eq. 1 rows, the scan, "
                "aggregation and Def. 3 greedy selection, so kernels and core do the work"
            ),
            users=1000,
            loop="closed",
            caches=False,
            warm_index=True,
            closed_requests=100,
        ),
        Workload(
            name="ingest_mix",
            why=(
                "rate writes beside hot reads: each write takes the write lock, runs "
                "index.refresh_user and invalidates cached rows, the opposite use of the cache"
            ),
            users=500,
            loop="open",
            caches=True,
            warm_index=True,
            read_rps=100.0,
            write_rps=0.5,
            hot_groups=100,
            hot_users=100,
        ),
        Workload(
            name="batch_pool",
            why=(
                "recommend_many of 32 fresh groups on the pool backend (2 workers): "
                "the only workload where exec dispatch and worker compute carry the time"
            ),
            users=1000,
            loop="batch",
            caches=False,
            warm_index=False,
            pool_workers=2,
            batch_size=32,
            batches=6,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A few-second version of ``workload`` for the benchmark's own tests."""
    return replace(
        workload,
        users=120,
        items=200,
        read_rps=min(workload.read_rps, 200.0),
        write_rps=workload.write_rps and 4.0,
        hot_groups=workload.hot_groups and 12,
        hot_users=workload.hot_users and 12,
        closed_requests=workload.closed_requests and 40,
        batch_size=workload.batch_size and 6,
        batches=workload.batches and 2,
    )


# -- requests -----------------------------------------------------------------


def request_line(key: tuple, rid: Any = None) -> bytes:
    """The JSONL wire form of a request key (see :func:`Plan` keys)."""
    kind = key[0]
    if kind == "group":
        payload: dict[str, Any] = {"type": "group", "members": list(key[1])}
    elif kind == "user":
        payload = {"type": "user", "user_id": key[1]}
    else:
        payload = {"type": "rate", "user_id": key[1], "item_id": key[2], "value": key[3]}
    if rid is not None:
        payload["rid"] = rid
    return (json.dumps(payload) + "\n").encode()


def _zipf_cum(count: int) -> list[float]:
    return list(itertools.accumulate((rank + 1) ** -HOT_ZIPF for rank in range(count)))


@dataclass
class Plan:
    """Seeded inputs of one run; every segment of the run replays them.

    Request keys: ``("group", members)``, ``("user", user_id)`` and
    ``("rate", user_id, item_id, value)``.
    """

    hot: list[tuple]
    #: open loop: per connection, ``(due_s, key)`` sorted by due time
    schedules: list[list[tuple[float, tuple]]]
    #: closed loop: the request list the clients cycle through
    closed: list[tuple]
    #: batch loop: lists of group member tuples
    batches: list[list[tuple[str, ...]]]


def size_quota(count: int, config: Any) -> list[int]:
    """Group sizes for ``count`` groups in the power-law proportions, exactly.

    ``sample_scale_groups`` draws each size at random; a few hundred
    draws leave the share of large (slow) groups varying by seed, and
    with it every latency.  Largest-remainder apportionment fixes the
    count of each size instead.
    """
    sizes = range(config.min_group_size, config.max_group_size + 1)
    weights = [size ** -config.group_size_exponent for size in sizes]
    shares = [count * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
    for index in by_remainder[: count - sum(counts)]:
        counts[index] += 1
    return [size for size, n in zip(sizes, counts) for _ in range(n)]


def make_plan(workload: Workload, user_ids: list[str], seed: int, window_s: float) -> Plan:
    """Build the hot set, schedules, fresh groups and batches from ``seed``."""
    from repro.data import ScaleConfig, sample_scale_groups

    rng = random.Random(f"{workload.name}:{seed}")
    shape = ScaleConfig(num_users=len(user_ids), num_items=workload.items)

    def fresh_groups(count: int) -> list[tuple[str, ...]]:
        """``count`` groups from ``sample_scale_groups``, sizes by quota, shuffled."""
        groups = []
        for size in size_quota(count, shape):
            exact = replace(shape, min_group_size=size, max_group_size=size)
            group = sample_scale_groups(user_ids, 1, exact, seed=rng.randrange(1 << 30))[0]
            groups.append(tuple(group.member_ids))
        rng.shuffle(groups)
        return groups

    hot_groups = [("group", members) for members in fresh_groups(workload.hot_groups)]
    hot_users = [("user", uid) for uid in rng.sample(user_ids, workload.hot_users)]
    hot = hot_groups + hot_users
    schedules: list[list[tuple[float, tuple]]] = []
    if workload.loop == "open":
        group_cum = _zipf_cum(len(hot_groups))
        user_cum = _zipf_cum(len(hot_users))
        reads: list[tuple[float, tuple]] = []
        due = rng.expovariate(workload.read_rps)
        while due < window_s:
            if rng.random() < 0.8:
                key = rng.choices(hot_groups, cum_weights=group_cum)[0]
            else:
                key = rng.choices(hot_users, cum_weights=user_cum)[0]
            reads.append((due, key))
            due += rng.expovariate(workload.read_rps)
        if workload.write_rps:
            # One connection reads, the other writes on a fixed period:
            # a steady write count per window keeps the p99 steady.
            item_ids = [f"item-{index:05d}" for index in range(workload.items)]
            item_cum = list(
                itertools.accumulate((rank + 1) ** -1.05 for rank in range(workload.items))
            )
            writes = []
            period = 1.0 / workload.write_rps
            due = period / 2
            while due < window_s:
                members = rng.choices(hot_groups, cum_weights=group_cum)[0][1]
                item = rng.choices(item_ids, cum_weights=item_cum)[0]
                writes.append(
                    (due, ("rate", rng.choice(members), item, float(rng.randint(1, 5))))
                )
                due += period
            schedules = [reads, writes]
        else:
            schedules = [reads[index :: workload.clients] for index in range(workload.clients)]
    closed: list[tuple] = []
    if workload.loop == "closed":
        # Every fifth request is a single-user one: 80% groups, exactly.
        groups = iter(fresh_groups(workload.closed_requests - workload.closed_requests // 5))
        for position in range(workload.closed_requests):
            if position % 5 == 4:
                closed.append(("user", rng.choice(user_ids)))
            else:
                closed.append(("group", next(groups)))
    batches = [fresh_groups(workload.batch_size) for _ in range(workload.batches)]
    return Plan(hot=hot, schedules=schedules, closed=closed, batches=batches)


# -- correctness --------------------------------------------------------------


def reference_answers(
    dataset_path: str, keys: set[tuple], writes: list[tuple] = ()
) -> dict[tuple, Any]:
    """Answers of the cold, serial, in-process pipeline for ``keys``.

    The dataset is loaded from the same file the server read and the
    acknowledged writes are applied in acknowledgement order, so the
    matrix matches the server's final state entry for entry.  Group
    answers are ``(items, fairness)``; user answers are item lists.
    """
    from repro.config import RecommenderConfig
    from repro.core.pipeline import CaregiverPipeline
    from repro.data.groups import Group
    from repro.data.serialization import load_dataset

    dataset = load_dataset(dataset_path)
    for _, user_id, item_id, value in writes:
        dataset.ratings.add(user_id, item_id, value)
    config = RecommenderConfig(max_peers=50)
    pipeline = CaregiverPipeline(dataset, config)
    answers: dict[tuple, Any] = {}
    for key in sorted(keys):
        if key[0] == "group":
            recommendation = pipeline.recommend(Group(member_ids=list(key[1])))
            answers[key] = (list(recommendation.items), recommendation.report.fairness)
        elif key[0] == "user":
            answers[key] = [item.item_id for item in pipeline.recommend_for_user(key[1])]
    return answers


def matches(key: tuple, response: dict[str, Any], answers: dict[tuple, Any]) -> bool:
    """Whether one decoded response equals the reference, bit for bit."""
    if "error" in response:
        return False
    kind = key[0]
    if kind == "rate":
        return response.get("ok") is True
    expected = answers[key]
    if kind == "group":
        return [response.get("items"), response.get("fairness")] == list(expected)
    return response.get("items") == expected


def tamper(response: dict[str, Any]) -> dict[str, Any]:
    """A copy of a read response with one recommended item replaced."""
    changed = dict(response)
    items = list(changed["items"])
    items[-1] = items[-1] + "-tampered"
    changed["items"] = items
    return changed
