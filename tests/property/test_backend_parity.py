"""Randomized cross-backend parity: every backend, bit-identical, always.

The execution layer's load-bearing promise is that the backend is a
pure performance knob — serial and the worker fleet (forked ``"pool"``
workers, and ``"remote"`` workers that join over TCP and boot from
pickled BOOT frames) must produce **bit-identical** recommendations on
any workload.  Long-lived workers make
that promise fragile in exactly one place: state mutated *between*
batches.  So the workloads here are seeded random interleavings of

* batch group requests (``recommend_many`` — the fan-out path),
* single-user requests,
* ``ingest_rating`` mutations targeting members of already-served
  groups (the staleness trap for resident workers), and
* ``update_profile`` mutations,

with the first three operations pinned to ``batch → ingest → batch`` so
every seed exercises the mutation-between-batches case even before the
random tail begins.

Each run replays the identical script against a fresh service per
configuration and compares full recommendation
payloads — item ids, the plain top-z, and the float relevance tables —
with ``==`` (no tolerance) against the **oracle replay**: the paper's
pipeline (:class:`~repro.core.group.GroupRecommender` and its
single-user recommender) over the dict Pearson oracle
(:class:`~repro.kernels.oracle.DictPearsonSimilarity`), with group
candidates from :meth:`~repro.data.ratings.RatingMatrix.items_unrated_by_all`
— no service, no caches, no packed kernel.
"""

from __future__ import annotations

import multiprocessing
import random
import shutil
import tempfile
import time

import pytest

from repro.config import RecommenderConfig
from repro.core.group import GroupRecommender
from repro.core.pipeline import build_selector
from repro.data.datasets import HealthDataset, generate_dataset
from repro.data.groups import Group
from repro.exec import DEFAULT_MAX_DELTA_LOG, RemoteBackend, run_worker
from repro.kernels.oracle import DictPearsonSimilarity
from repro.serving import RecommendationService
from repro.serving import index as index_module
from repro.similarity.peers import PeerSelector

#: The fixed seed matrix (acceptance: >= 3 seeds).
SEEDS = (3, 11, 29)

#: Every backend, plus its re-ship, spill and other variants, as
#: (backend, extras) — ``extras`` overrides further config knobs:
#: ``spill=True`` variants where workers bootstrap from the mmap'd
#: packed spill directory instead of pickled initargs, and
#: ``max_delta_log=0`` variants, run on an explicitly built fleet whose
#: zero-length delta log re-ships the state after every mutation
#: instead of broadcasting it.  ``"remote"`` rows run a fleet with no
#: local workers, joined by two ``run_worker`` processes over loopback
#: TCP (see :func:`_join_tcp_workers`); ``mixed=True`` instead joins
#: one TCP worker to the config-built ``"remote"`` fleet beside its two
#: forked workers.  Every row must equal the oracle replay
#: (:func:`_oracle_trace`) bit-for-bit.
CONFIGURATIONS = (
    ("serial", {}),
    ("pool", {}),
    ("pool", {"max_delta_log": 0}),
    ("pool", {"spill": True}),
    ("pool", {"spill": True, "max_delta_log": 0}),
    # Strict response validation must be a pure observer: on clean
    # traffic it re-checks every served answer against the paper
    # invariants and changes nothing.
    ("serial", {"validation": "strict"}),
    ("pool", {"validation": "strict"}),
    # TCP-joined workers: HELLO/WELCOME, then state from pickled BOOT
    # frames (the mmap'd spill for the spill row) and SYNC replay over
    # loopback sockets, broadcast/re-ship × spill × strict validation,
    # including the pinned batch → ingest → batch staleness scenario.
    ("remote", {}),
    ("remote", {"max_delta_log": 0}),
    ("remote", {"spill": True, "max_delta_log": 0}),
    ("remote", {"validation": "strict"}),
    ("remote", {"mixed": True}),
    # Capped rows (the path every perfbench workload serves): stored
    # prefixes of max_peers + ROW_SLACK entries, with ROW_SLACK
    # lowered to 1 (see _capped_slack) so group exclusions can reach
    # past the slack and grow a prefix; the random workload's closing
    # _growth_steps make sure one does, then write to a peer only the
    # grown prefix holds.  The oracle replays with the same max_peers.
    ("serial", {"max_peers": 2}),
    ("pool", {"max_peers": 2}),
)

#: The recommendation semantics every row and the oracle share.
SEMANTICS = RecommenderConfig(peer_threshold=0.1, top_k=5, top_z=4)

#: Seconds the TCP joiners of a ``"remote"`` row get to connect.
_JOIN_SECONDS = 30.0


@pytest.fixture(autouse=True)
def _capped_slack(monkeypatch):
    """A one-entry slack for the capped rows; forked workers inherit it."""
    monkeypatch.setattr(index_module, "ROW_SLACK", 1)


def _capped_stats(index_stats: dict[tuple, dict]) -> dict[tuple, dict]:
    """The capped rows' parent index stats; each must hold truncated rows."""
    capped = {
        key: stats for key, stats in index_stats.items() if "max_peers" in key[1]
    }
    assert capped
    for key, stats in capped.items():
        assert stats["truncated_rows"] > 0, key
    return capped


def _join_tcp_workers(
    fleet: RemoteBackend, count: int, fingerprint: str
) -> list:
    """Start ``count`` TCP worker processes against ``fleet``'s listener.

    Each joiner is a plain :func:`run_worker` process (what ``repro
    worker --connect`` runs): it handshakes with the config fingerprint
    and builds every resident copy from a pickled BOOT frame, so the
    ``"remote"`` rows keep the TCP join, re-boot and SYNC paths under
    the parity check.  All joiners are parked before the first
    dispatch, so every batch runs at full width.
    """
    host, port = fleet.listen()
    joiners = [
        multiprocessing.Process(
            target=run_worker,
            args=(host, port),
            kwargs={"fingerprint": fingerprint, "heartbeat_interval": 0.2},
            daemon=True,
        )
        for _ in range(count)
    ]
    for joiner in joiners:
        joiner.start()
    cutoff = time.monotonic() + _JOIN_SECONDS
    while fleet.pool_stats()["pending_workers"] < count:
        assert time.monotonic() < cutoff, "TCP workers never joined"
        time.sleep(0.01)
    return joiners


def _build_script(seed: int, user_ids: list[str], item_ids: list[str]) -> list[tuple]:
    """A deterministic operation script from one seed.

    Groups are drawn from a small member pool so they overlap (shared
    relevance rows, the realistic caregiver shape) and mutations target
    users from that same pool, so they hit members of groups that are
    already cached and already resident in pool workers.
    """
    rng = random.Random(seed * 7919)
    pool = rng.sample(user_ids, min(len(user_ids), 10))

    def random_batch() -> tuple:
        groups = []
        for _ in range(rng.randint(2, 3)):
            groups.append(tuple(sorted(rng.sample(pool, rng.randint(3, 4)))))
        return ("batch", tuple(groups), rng.randint(3, 5))

    def random_ingest() -> tuple:
        return (
            "ingest",
            rng.choice(pool),
            rng.choice(item_ids),
            float(rng.randint(1, 5)),
        )

    # The pinned staleness scenario, then a random tail.
    script = [random_batch(), random_ingest(), random_batch()]
    for _ in range(5):
        pick = rng.randrange(4)
        if pick == 0:
            script.append(random_batch())
        elif pick == 1:
            script.append(random_ingest())
        elif pick == 2:
            script.append(("user", rng.choice(pool), rng.randint(3, 5)))
        else:
            script.append(("profile", rng.choice(pool)))
    return script


def _age_bump(user) -> None:
    user.age = (user.age or 30) + 1


def _oracle_trace(
    payload: dict, script: list[tuple], max_peers: int | None = None
) -> list:
    """Replay ``script`` through the paper's pipeline on the dict oracle.

    Each step builds a fresh :class:`GroupRecommender` over
    :class:`DictPearsonSimilarity` on the current matrix (so no cached
    peer or mean survives a mutation) and scans group candidates with
    ``RatingMatrix.items_unrated_by_all`` — nothing packed, nothing
    cached, no service.  The trace has the shape of :func:`_run_script`.
    """
    dataset = HealthDataset.from_dict(payload)
    matrix = dataset.ratings
    selector = build_selector("greedy")
    trace: list = []
    for op in script:
        recommender = GroupRecommender(
            matrix,
            DictPearsonSimilarity(matrix),
            aggregation=SEMANTICS.aggregation,
            peer_threshold=SEMANTICS.peer_threshold,
            max_peers=max_peers,
            top_k=SEMANTICS.top_k,
        )
        if op[0] == "batch":
            step = []
            for members in op[1]:
                group = Group(member_ids=list(members), caregiver_id="cg")
                candidates = recommender.build_candidates(
                    group,
                    matrix.items_unrated_by_all(group.member_ids),
                    candidate_limit=SEMANTICS.candidate_pool_size,
                )
                step.append(
                    (
                        selector.select(candidates, op[2]).items,
                        tuple(candidates.top_group_items(op[2])),
                        candidates.group_relevance,
                    )
                )
            trace.append(step)
        elif op[0] == "user":
            scored = recommender.single_user.recommend(op[1], k=op[2])
            trace.append([(item.item_id, item.score) for item in scored])
        elif op[0] == "ingest":
            matrix.add(op[1], op[2], op[3])
            trace.append(("ingested", op[1], op[2]))
        elif op[0] == "profile":
            _age_bump(dataset.users.get(op[1]))
            trace.append(("profiled", op[1]))
        else:  # pragma: no cover - script generator bug
            raise AssertionError(f"unknown op {op[0]!r}")
    return trace


def _run_script(
    payload: dict,
    script: list[tuple],
    backend: str,
    extras: dict | None = None,
) -> tuple[list, dict]:
    """Replay one script against a fresh service.

    Returns the trace and the parent service's ``stats()["index"]``.

    The trace captures every *recommendation* observable: recommended
    item tuples, the unfair plain top-z, exact float relevance tables
    and the ranked single-user lists.  Mutations contribute only a
    marker — their return value (the set of invalidated users) depends
    by design on how much the parent has cached locally, which differs
    between a serial parent (computes everything itself) and a
    pool parent (offloads to workers), without ever changing what is
    recommended.
    """
    dataset = HealthDataset.from_dict(payload)
    overrides = dict(extras or {})
    max_delta_log = overrides.pop("max_delta_log", None)
    mixed = overrides.pop("mixed", False)
    spill_dir = None
    if overrides.pop("spill", False):
        spill_dir = tempfile.mkdtemp(prefix="parity-spill-")
        overrides["packed_spill"] = spill_dir
    config = SEMANTICS.with_overrides(
        exec_backend=backend,
        exec_workers=2,
        **overrides,
    )
    fleet = None
    if backend == "remote" and not mixed:
        fleet = RemoteBackend(
            workers=2,
            spawn_workers=False,
            port=0,
            max_delta_log=(
                DEFAULT_MAX_DELTA_LOG if max_delta_log is None else max_delta_log
            ),
            fingerprint=config.fingerprint(),
            heartbeat_interval=0.2,
            heartbeat_timeout=5.0,
        )
    elif max_delta_log is not None:
        fleet = RemoteBackend(workers=2, max_delta_log=max_delta_log)
    service = RecommendationService(dataset, config, backend=fleet)
    joiners: list = []
    if backend == "remote":
        joiners = _join_tcp_workers(
            service.backend, 1 if mixed else 2, config.fingerprint()
        )
    trace: list = []
    try:
        for op in script:
            if op[0] == "batch":
                groups = [
                    Group(member_ids=list(members), caregiver_id="cg")
                    for members in op[1]
                ]
                results = service.recommend_many(groups, z=op[2])
                trace.append(
                    [
                        (
                            rec.items,
                            rec.plain_top_z,
                            rec.candidates.group_relevance,
                        )
                        for rec in results
                    ]
                )
            elif op[0] == "user":
                scored = service.recommend_user(op[1], k=op[2])
                trace.append([(item.item_id, item.score) for item in scored])
            elif op[0] == "ingest":
                affected = service.ingest_rating(op[1], op[2], op[3])
                assert op[1] in affected
                trace.append(("ingested", op[1], op[2]))
            elif op[0] == "profile":
                affected = service.update_profile(op[1], _age_bump)
                assert op[1] in affected
                trace.append(("profiled", op[1]))
            else:  # pragma: no cover - script generator bug
                raise AssertionError(f"unknown op {op[0]!r}")
        if joiners:
            # Non-vacuous: the TCP workers booted from BOOT frames, took
            # the script's mutations as SYNC replays (or, with a
            # zero-length log, as re-shipped BOOTs) and served to the
            # end beside the forked workers of a mixed fleet.
            stats = service.backend.pool_stats()
            forked = config.exec_workers if mixed else 0
            assert stats["live_workers"] == forked + len(joiners)
            assert stats["bootstrap_bytes"] > 0
            if max_delta_log == 0:
                assert stats["restarts"] >= 2
            else:
                assert stats["delta_syncs"] >= 1
        index_stats = service.stats()["index"]
    finally:
        service.close()
        if fleet is not None:
            fleet.close()
        for joiner in joiners:
            joiner.join(timeout=10.0)
            if joiner.is_alive():
                joiner.kill()
                joiner.join()
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)
    return trace, index_stats


def _growth_steps(payload: dict, script: list[tuple]) -> list[tuple]:
    """Steps that grow a capped row, then write to a peer only it holds.

    The first group is a user plus that user's top three peers once
    the script's writes are applied.  Under ``max_peers=2`` and a slack
    of 1 the user's stored prefix is exactly the other three members, so
    whoever computes the group (the parent, or a pool worker in its
    own index) must store a longer prefix first, and the answer uses
    the user's fourth peer.  Single-user requests then build the
    parent's rows of every member if nothing had (a pool parent drops
    cached groups with an unbuilt member on any write), the fourth peer
    rates one of the group's candidates so that the capped answer
    changes, and the same batch runs again: a parent whose row of the
    user lacks the fourth peer would serve the cached pre-write answer.
    """
    matrix = HealthDataset.from_dict(payload).ratings
    for op in script:
        if op[0] == "ingest":
            matrix.add(op[1], op[2], op[3])
    selector = PeerSelector(
        DictPearsonSimilarity(matrix), threshold=SEMANTICS.peer_threshold
    )
    for user_id in matrix.user_ids():
        peers = selector.peers_from_matrix(user_id, matrix)
        if len(peers) <= 3:
            continue
        members = tuple(sorted([user_id] + [peer.user_id for peer in peers[:3]]))
        fourth = peers[3].user_id
        # A second group sends the batch to the workers of a pool row.
        batch = ("batch", (members, members[1:]), 3)
        before = _oracle_trace(payload, script + [batch], max_peers=2)[-1]
        for item_id in sorted(before[0][2]):
            value = 1.0 if matrix.get(fourth, item_id) == 5.0 else 5.0
            steps = [
                batch,
                *(("user", member, 3) for member in members),
                ("ingest", fourth, item_id, value),
                batch,
            ]
            after = _oracle_trace(payload, script + steps, max_peers=2)[-1]
            if after != before:
                return steps
    raise AssertionError("no write to a fourth peer changes a group answer")


def _replay_all(
    payload: dict, script: list[tuple], reference: list, label: str
) -> dict[tuple, dict]:
    """Every configuration replays ``script`` exactly like the oracle.

    ``reference`` is the uncapped oracle trace; capped rows compare
    against a replay with their own ``max_peers``.  Returns each
    configuration's parent ``stats()["index"]``.
    """
    references: dict[int | None, list] = {None: reference}
    index_stats: dict[tuple, dict] = {}
    for backend, extras in CONFIGURATIONS:
        max_peers = extras.get("max_peers")
        if max_peers not in references:
            references[max_peers] = _oracle_trace(payload, script, max_peers)
        trace, stats = _run_script(payload, script, backend, extras)
        assert trace == references[max_peers], (
            f"backend={backend} extras={extras} {label}"
        )
        index_stats[(backend, tuple(extras))] = stats
    return index_stats


@pytest.mark.parametrize("seed", SEEDS)
def test_random_workload_parity_across_backends(seed):
    """Every backend (and its re-ship, spill and capped variants)
    replays one random workload bit-identically, mutations between
    batches included."""
    dataset = generate_dataset(
        num_users=24, num_items=36, ratings_per_user=10, seed=seed
    )
    payload = dataset.to_dict()
    script = _build_script(seed, dataset.users.ids(), dataset.ratings.item_ids())
    assert script[0][0] == "batch" and script[1][0] == "ingest"
    script.extend(_growth_steps(payload, script))

    reference = _oracle_trace(payload, script)
    assert any(isinstance(step, list) and step for step in reference)
    capped = _capped_stats(
        _replay_all(
            payload,
            script,
            reference,
            f"diverged from the oracle replay on seed {seed}",
        )
    )
    # Pool parents grow their rows when they cache a worker's answer
    # for a group past the slack (NeighborIndex.cover).
    for key, stats in capped.items():
        assert stats["row_growths"] > 0, key


def test_mutation_between_batches_changes_results_and_keeps_parity():
    """The staleness trap, non-vacuously: serve a batch, mutate members'
    ratings, serve the *same* batch again.  The second answers must
    differ from the first (so a resident worker serving its fork-time
    snapshot could not pass by accident) and every backend must agree
    with the serial reference on both."""
    dataset = generate_dataset(
        num_users=24, num_items=36, ratings_per_user=10, seed=5
    )
    payload = dataset.to_dict()
    rng = random.Random(99)
    pool = rng.sample(dataset.users.ids(), 8)
    groups = tuple(tuple(sorted(rng.sample(pool, 4))) for _ in range(3))
    member = groups[0][0]
    script: list[tuple] = [("batch", groups, 4)]
    for item_id in dataset.ratings.item_ids()[:3]:
        script.append(("ingest", member, item_id, 1.0))
    script.append(("batch", groups, 4))

    reference = _oracle_trace(payload, script)
    assert reference[0] != reference[-1], (
        "the mutations were supposed to change at least one group's "
        "recommendations — the staleness scenario is vacuous"
    )
    _capped_stats(
        _replay_all(
            payload,
            script,
            reference,
            "served stale results after mutations between batches",
        )
    )
