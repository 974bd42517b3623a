"""The stateful recommendation service (serving layer).

The paper's pipeline is a stateless library: every call recomputes user
similarities, peer sets and relevance tables from scratch.  That is the
right shape for reproducing Table II and the wrong shape for serving
heavy traffic.  :class:`RecommendationService` wraps one
:class:`~repro.data.datasets.HealthDataset` and one
:class:`~repro.config.RecommenderConfig` behind a warm, index-backed
façade:

* a :class:`~repro.serving.index.NeighborIndex` holds each user's
  thresholded peer row (with ``max_peers`` set, a sorted prefix long
  enough for the cap plus group exclusions), built once (or lazily)
  and patched on updates;
* a :class:`~repro.serving.cache.ScoreCache` holds pairwise similarity
  scores, another one holds single-user relevance rows;
* :meth:`ingest_rating` / :meth:`update_profile` apply *targeted*
  invalidation — only the touched user, the users whose indexed peer
  list changed, and the users that count the touched user as a peer
  lose cached state;
* :meth:`recommend_many` answers a batch of group requests, sharing
  peer rows across overlapping groups, on the service's one backend;
* :meth:`cached_group` / :meth:`cached_user` are the one cache-hit
  path of group and user requests: :meth:`recommend_group`,
  :meth:`recommend_user` and :meth:`recommend_many` look there first.

Warm results are bit-identical to the cold
:class:`~repro.core.pipeline.CaregiverPipeline`: both use the same peer
ordering, and the warm Equation 1 kernels
(:func:`~repro.kernels.predict_row_packed`,
:func:`~repro.kernels.group_columns_packed`) sum each item's peer terms
in the same order as the cold path's
:func:`~repro.core.relevance.predict_table`.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

from ..config import DEFAULT_CONFIG, RecommenderConfig, resolve_positive
from ..core.candidates import GroupCandidates
from ..core.pipeline import (
    CaregiverRecommendation,
    build_selector,
    build_similarity,
)
from ..core.aggregation import get_aggregation
from ..core.relevance import ScoredItem, rank_items
from ..data.datasets import HealthDataset
from ..data.groups import Group
from ..data.serialization import atomic_write
from ..data.users import User
from ..exceptions import ExecutionError, ValidationError
from ..exec import ExecutionBackend, chunk_evenly, get_backend
from ..kernels import (
    SpillError,
    attach_spill,
    get_packed,
    group_columns_packed,
    items_unrated_by_all_packed,  # noqa: F401 - perfbench's span wrapper patches it
    predict_row_packed,
    predict_topk_packed,
)
from ..obs import MetricsRegistry, get_registry, span
from ..resilience import Deadline
from ..similarity.base import UserSimilarity
from ..validation import validate_group_response, validate_user_response
from ..similarity.peers import Peer, peers_as_mapping
from .cache import CachedSimilarity, ScoreCache
from .index import NeighborIndex
from .snapshot import (
    load_sharded_snapshot,
    save_sharded_snapshot,
    snapshot_fingerprint,
)


class _ReadWriteLock:
    """Many concurrent readers, one exclusive writer.

    Request paths read the rating matrix (whose dicts must not be
    mutated mid-iteration); the update paths mutate it.  Readers on
    different threads (a library caller sharing one service) run in
    parallel; a writer waits for the readers to drain and blocks new
    ones.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextmanager
    def read(self) -> Iterator[None]:
        """Hold the lock as a reader, waiting out any writer."""
        with self._condition:
            while self._writing:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                self._condition.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._condition:
            while self._writing or self._readers:
                self._condition.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._condition:
                self._writing = False
                self._condition.notify_all()


# -- worker-fleet state ------------------------------------------------------
#
# On the pool/remote worker fleet each worker holds one resident
# service (from the dataset/config of the backend initializer);
# ``warm`` builds index rows and ``recommend_many`` answers group
# requests from it.  The warm/cold bit-identity invariant makes the
# worker's answers equal to the parent's.  The worker service stays
# resident between batches; ``_apply_serve_delta`` replays the
# parent's rating/profile mutations into it so an epoch-stale worker
# converges on exactly the parent's state.

_SERVE_WORKER: "RecommendationService | None" = None

#: Companion files of a packed spill directory (``config.packed_spill``):
#: the JSON dataset the workers bootstrap their matrix from, and the
#: append-only mutation journal replayed on top of it.
SPILL_DATASET_NAME = "dataset.json"
SPILL_JOURNAL_NAME = "journal.jsonl"


def _load_spill_dataset(directory: str | Path) -> HealthDataset:
    """Rebuild the dataset a spill directory was published from.

    The ratings payload carries the parent matrix's ``user_order`` /
    ``item_order`` interning orders (see
    :meth:`~repro.data.ratings.RatingMatrix.from_dict`), so the rebuilt
    matrix validates bit-for-bit against the mmap'd CSR arrays.  A
    truncated or otherwise unparsable dataset file raises a typed
    :class:`~repro.kernels.SpillError` instead of a bare JSON decode
    error — a worker must never boot from a torn publish.
    """
    path = Path(directory) / SPILL_DATASET_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpillError(
            f"spill dataset {path} is not valid JSON ({exc}); the spill "
            f"publish was interrupted or the file was truncated — delete "
            f"the spill directory and restart the owning service to "
            f"republish it"
        ) from exc
    return HealthDataset.from_dict(payload)


#: Expected journal-delta arity per kind (see ``_apply_serve_delta``).
_JOURNAL_DELTA_ARITY = {"rating": 4, "profile": 3}


def _replay_spill_journal(directory: str | Path) -> int:
    """Replay the spill journal into the resident worker service.

    Each line is one delta tuple as logged by the parent's mutation
    paths; replaying goes through :func:`_apply_serve_delta`, the exact
    code path the pool's broadcast sync uses.  Replays are idempotent
    (a rating re-add overwrites, a profile payload overwrites), so a
    delta that also arrives through a later sync packet is harmless.
    Returns the number of deltas applied.

    A journal whose final line lacks its trailing newline is a *torn
    append* — the writer died mid-``write``.  The torn tail is safe to
    drop (the parent journals **before** bumping the backend epoch, so
    a torn delta was never acknowledged anywhere) but never silent: the
    skip is counted as ``spill_journal_torn_tail`` in the process
    registry.  Any other malformed line — bad JSON on an interior line,
    a delta of the wrong shape — means the journal itself is corrupt
    and raises a typed :class:`~repro.kernels.SpillError` rather than
    replaying a half-understood mutation.
    """
    path = Path(directory) / SPILL_JOURNAL_NAME
    if not path.exists():
        return 0
    raw = path.read_text(encoding="utf-8")
    lines = raw.split("\n")
    # A complete journal ends with a newline, leaving a final empty
    # element; a non-empty final element is the torn append.
    torn_tail = lines[-1] if lines[-1] else None
    applied = 0
    for number, line in enumerate(lines[:-1], start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SpillError(
                f"spill journal {path} line {number} is not valid JSON "
                f"({exc}); the journal is corrupt — delete the spill "
                f"directory and restart the owning service to republish"
            ) from exc
        delta = tuple(payload) if isinstance(payload, list) else ()
        kind = delta[0] if delta else None
        if _JOURNAL_DELTA_ARITY.get(kind) != len(delta):
            raise SpillError(
                f"spill journal {path} line {number} holds a malformed "
                f"delta {payload!r}; expected a [kind, ...] list with "
                f"arities {_JOURNAL_DELTA_ARITY} — the journal is corrupt, "
                f"delete the spill directory and republish"
            )
        _apply_serve_delta(delta)
        applied += 1
    if torn_tail is not None:
        # Loud but non-fatal: the delta never committed (journal write
        # precedes the epoch bump), so skipping reproduces the parent's
        # last acknowledged state.
        get_registry().counter("spill_journal_torn_tail").inc()
    return applied


def _init_serve_worker(
    dataset: HealthDataset | None,
    config: RecommenderConfig,
    selector: str,
    similarity: UserSimilarity | None,
) -> None:
    global _SERVE_WORKER
    # ``dataset=None`` is the spill-bootstrap sentinel: instead of a
    # pickled dataset/measure pair, the worker loads the published
    # dataset JSON, attaches the mmap'd packed arrays (inside the
    # service constructor, via ``config.packed_spill``) and replays the
    # mutation journal — worker bootstrap cost stops scaling with the
    # rating volume.
    from_spill = dataset is None
    if from_spill:
        dataset = _load_spill_dataset(config.packed_spill)
    # The worker service records into the process-default registry —
    # the same one the kernels use — so one drained delta carries the
    # worker's whole telemetry (requests, caches, kernels, repacks)
    # back to the parent.
    _SERVE_WORKER = RecommendationService(
        dataset,
        config,
        selector=selector,
        similarity=similarity,
        metrics=get_registry(),
        spill_writer=False,
    )
    if from_spill:
        _replay_spill_journal(config.packed_spill)


def _serve_group_task(
    spec: tuple[Group, int],
) -> CaregiverRecommendation:
    group, z = spec
    assert _SERVE_WORKER is not None
    return _SERVE_WORKER.recommend_group(group, z=z)


def _build_rows_task(
    spec: tuple[list[str], int | None],
) -> list[tuple[str, list[Peer], bool]]:
    """``(user_id, row, truncated)`` for one chunk of users, cut at ``limit``."""
    user_ids, limit = spec
    assert _SERVE_WORKER is not None
    index = _SERVE_WORKER.index
    return [(user_id, *index._compute_row(user_id, limit)) for user_id in user_ids]


def _apply_serve_delta(delta: tuple) -> None:
    """Replay one parent-side mutation into the resident worker service.

    The delta payloads are produced by :meth:`RecommendationService.
    ingest_rating` / :meth:`RecommendationService.update_profile`.
    Replaying goes through the worker service's own update path, so the
    worker performs the same matrix mutation and the same targeted
    invalidation the parent did — deterministic, hence bit-identical.
    """
    assert _SERVE_WORKER is not None
    kind = delta[0]
    if kind == "rating":
        _, user_id, item_id, value = delta
        _SERVE_WORKER.ingest_rating(user_id, item_id, value)
    elif kind == "profile":
        _, user_id, payload = delta
        fresh = User.from_dict(payload)

        def _overwrite(user: User) -> None:
            user.name = fresh.name
            user.age = fresh.age
            user.gender = fresh.gender
            user.record = fresh.record
            user.attributes = dict(fresh.attributes)

        _SERVE_WORKER.update_profile(user_id, _overwrite)
    else:  # pragma: no cover - guards future delta kinds
        raise ExecutionError(f"unknown serve delta kind {kind!r}")


class RecommendationService:
    """Cached, index-backed façade over the caregiver pipeline.

    Parameters
    ----------
    dataset:
        The data bundle served by this instance.
    config:
        Recommendation parameters; also supplies the cache sizes
        (``similarity_cache_size``, ``relevance_cache_size``) and the
        execution backend (``exec_backend``/``exec_workers``).
    selector:
        Fairness-aware selection algorithm name (as in the pipeline).
    similarity:
        Optional pre-built similarity measure; defaults to the one the
        config selects.
    backend:
        The service's one execution backend (instance or name) for
        index builds and batch requests, bound for the service's
        lifetime; defaults to the config's ``exec_backend``.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` every service-side
        counter, cache statistic, latency histogram and span records
        into.  Defaults to a fresh per-service registry (stats stay
        per-instance); the CLI passes the process-default registry so
        service, pool and kernel telemetry form one view.
    spill_writer:
        Whether this instance may *publish* to ``config.packed_spill``
        (write the CSR spill, the dataset JSON and a fresh journal) and
        append mutations to the journal.  ``True`` (default) for the
        parent service that owns the authoritative matrix;
        :func:`_init_serve_worker` passes ``False`` so resident workers
        only ever read the spill.
    """

    def __init__(
        self,
        dataset: HealthDataset,
        config: RecommenderConfig = DEFAULT_CONFIG,
        selector: str = "greedy",
        similarity: UserSimilarity | None = None,
        backend: ExecutionBackend | str | None = None,
        metrics: MetricsRegistry | None = None,
        spill_writer: bool = True,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.matrix = dataset.ratings
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # A backend instance stays the caller's to close; one the
        # service instantiates from a name/config is owned (see close()).
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        if isinstance(backend, ExecutionBackend):
            self.backend = backend
        else:
            self.backend = get_backend(
                backend or config.exec_backend,
                config.exec_workers or None,
                remote_heartbeat_interval=config.remote_heartbeat_interval,
                remote_heartbeat_timeout=config.remote_heartbeat_timeout,
                remote_fingerprint=config.fingerprint(),
                degraded_mode=config.degraded_mode,
                metrics=self.metrics,
            )
        # A worker fleet keeps a resident worker service between
        # batches; teach it how to replay this service's mutations so
        # a stale worker can delta-sync instead of a full re-ship.
        bind_applier = getattr(self.backend, "bind_delta_applier", None)
        if bind_applier is not None:
            bind_applier(_apply_serve_delta, _init_serve_worker)
        base = similarity or build_similarity(dataset, config)
        # The packed CSR view behind the kernels: shared per matrix, so
        # the Pearson measure, the neighbour index and the prediction-
        # table path all read (and dirty-mark) the same arrays.  The
        # mutation paths repack incrementally; pool workers never see
        # packed blobs — with a spill directory configured they mmap
        # the published arrays, otherwise they repack from their own
        # replayed deltas.
        self._spill_writer = spill_writer
        if config.packed_spill:
            # Reuse the on-disk spill when it matches this matrix
            # (service restart, worker bootstrap); any mismatch falls
            # back to an in-memory pack, which the publish below then
            # rewrites to disk.
            self._packed = attach_spill(self.matrix, config.packed_spill)
            if spill_writer:
                self._publish_spill()
        else:
            self._packed = get_packed(self.matrix)
        self.similarity_cache = ScoreCache(
            config.similarity_cache_size, name="similarity", metrics=self.metrics
        )
        self.similarity = CachedSimilarity(base, self.similarity_cache)
        self.index = NeighborIndex(
            self.matrix,
            self.similarity,
            threshold=config.peer_threshold,
            max_peers=config.max_peers,
        )
        self.relevance_cache = ScoreCache(
            config.relevance_cache_size, name="relevance", metrics=self.metrics
        )
        self.group_cache = ScoreCache(
            config.group_cache_size, name="group", metrics=self.metrics
        )
        self.selector_name = selector
        self.selector = build_selector(selector)
        self.aggregation = get_aggregation(config.aggregation)
        self._data_lock = _ReadWriteLock()
        # Index version at the last save/load, keyed by resolved
        # snapshot directory — drives incremental saves.
        self._snapshot_versions: dict[str, int] = {}
        # One stable initargs tuple per service: pool backends compare
        # initargs by element identity to decide whether their resident
        # workers were built from *this* service's state.
        self._serve_initargs: tuple | None = None
        # Request counters and latency histograms live in the registry;
        # stats() is a view over them.  The counter handles are cached
        # so the request paths pay one attribute load, not a registry
        # lookup, per bump.
        self._request_counters = {
            name: self.metrics.counter(name)
            for name in (
                "group_requests",
                "user_requests",
                "batch_requests",
                "ingested_ratings",
                "profile_updates",
            )
        }
        self._request_ms = {
            kind: self.metrics.histogram("request_ms", kind=kind)
            for kind in ("group", "user", "ingest")
        }
        # Response-shape enforcement (repro.validation): "off" skips,
        # "log" counts violations as validation_failures{shape=...},
        # "strict" additionally fails the request with a typed error.
        # Counter handles are created lazily per shape and cached.
        self._validation = config.validation
        self._validation_counters: dict[str, Any] = {}
        # Per-answer validation memo: id(answer) -> (weakref, epoch at
        # which it fully validated).  A cache hit whose entry object and
        # epoch both match was already checked against this exact matrix
        # state — re-deriving the same invariants per dashboard refresh
        # would put an O(members × z) tax on every hit.  The weakref
        # guards id() reuse: a recycled id cannot satisfy the identity
        # check through a dead reference.
        self._validated_answers: dict[int, tuple[Any, int]] = {}

    # -- response validation -------------------------------------------------

    def _flag_violations(self, violations: list) -> None:
        """Count (and in strict mode raise) response-shape violations."""
        if not violations:
            return
        for violation in violations:
            counter = self._validation_counters.get(violation.shape)
            if counter is None:
                counter = self.metrics.counter(
                    "validation_failures", shape=violation.shape
                )
                self._validation_counters[violation.shape] = counter
            counter.inc()
        if self._validation == "strict":
            raise ValidationError(
                "response violates declared shapes", tuple(violations)
            )

    def _validate_group(
        self,
        recommendation: CaregiverRecommendation,
        z: int,
        observed_epoch: int,
        locked: bool = False,
    ) -> None:
        """Validate one group answer against the declared shapes.

        ``observed_epoch`` is the group-cache epoch read before the
        answer was computed (or fetched).  Every mutation path bumps
        that epoch, so an unchanged epoch proves the live matrix still
        matches the answer and the already-rated shape can run; a
        changed epoch degrades to the matrix-independent shapes instead
        of flagging a legitimately-computed answer as stale.
        ``locked`` says the caller already holds the data read lock.

        Answers that fully validated once are memoised per epoch: a
        cache hit serving the *same object* under the *same epoch* is
        bit-identical to the answer already checked, so re-checking it
        buys nothing.  Any mutation bumps the epoch and forces one
        fresh full validation; a replaced (poisoned) entry is a new
        object and never matches the memo.
        """
        if self._validation == "off":
            return
        memo = self._validated_answers.get(id(recommendation))
        if (
            memo is not None
            and memo[0]() is recommendation
            and memo[1] == observed_epoch
        ):
            return
        if locked:
            matrix = (
                self.matrix
                if self.group_cache.epoch == observed_epoch
                else None
            )
            violations = validate_group_response(
                recommendation,
                z=z,
                matrix=matrix,
                selector=self.selector_name,
            )
        else:
            with self._data_lock.read():
                matrix = (
                    self.matrix
                    if self.group_cache.epoch == observed_epoch
                    else None
                )
                violations = validate_group_response(
                    recommendation,
                    z=z,
                    matrix=matrix,
                    selector=self.selector_name,
                )
        self._flag_violations(violations)
        if matrix is not None:
            # Only a full (matrix-backed) pass is worth memoising; the
            # degraded pass re-runs until an epoch-stable one lands.
            if len(self._validated_answers) > 4096:
                self._validated_answers = {
                    key: entry
                    for key, entry in self._validated_answers.items()
                    if entry[0]() is not None
                }
            self._validated_answers[id(recommendation)] = (
                weakref.ref(recommendation),
                observed_epoch,
            )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the service's backend workers (if the service owns them)."""
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "RecommendationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- warm-up -------------------------------------------------------------

    def warm(self, user_ids: Iterable[str] | None = None) -> int:
        """Precompute peer rows (and nothing else); returns rows built.

        On a worker fleet the resident serve workers compute the rows,
        so the fleet stays bound to the one state the batch path uses;
        the serial backend builds them in-process.  Rows are
        bit-identical for every backend.
        """
        compute = self._fleet_rows if self.backend.requires_pickling else None
        with self._data_lock.read():
            with span("warm_index", self.metrics):
                return self.index.build(user_ids, compute)

    def _fleet_rows(
        self, user_ids: list[str], limit: int | None
    ) -> list[tuple[str, list[Peer], bool]]:
        """Compute peer rows on the serve workers, four chunks per worker."""
        chunks = chunk_evenly(user_ids, max(1, self.backend.workers * 4))
        row_chunks = self.backend.map_items(
            _build_rows_task,
            [(chunk, limit) for chunk in chunks],
            initializer=_init_serve_worker,
            initargs=self._worker_initargs(),
        )
        return [entry for chunk in row_chunks for entry in chunk]

    # -- packed spill --------------------------------------------------------

    def _publish_spill(self) -> None:
        """Publish this service's state to ``config.packed_spill``.

        Three artefacts, enough for a worker to boot without a pickled
        dataset: the packed CSR spill (:meth:`PackedRatings.save` — a
        no-op when the on-disk fingerprint already matches), the
        dataset JSON augmented with the matrix's interning orders, and
        an empty mutation journal (the published state *is* the
        journal's base).  Files are written atomically
        (:func:`~repro.data.serialization.atomic_write`), so a worker
        opening mid-publish sees the old complete file, never a torn one.
        """
        directory = Path(self.config.packed_spill)
        directory.mkdir(parents=True, exist_ok=True)
        self._packed.save(directory)
        payload = self.dataset.to_dict()
        payload["ratings"]["user_order"] = self.matrix.user_ids()
        payload["ratings"]["item_order"] = self.matrix.item_ids()
        atomic_write(directory / SPILL_DATASET_NAME, json.dumps(payload))
        atomic_write(directory / SPILL_JOURNAL_NAME, "")

    def _journal_delta(self, delta: tuple) -> None:
        """Append one mutation delta to the spill journal (writer only).

        Runs under the data write lock, *before* the backend epoch bump
        — a worker spawned later either finds the delta in the journal
        or receives it through a sync packet (or both; replay is
        idempotent), never neither.
        """
        if not (self._spill_writer and self.config.packed_spill):
            return
        path = Path(self.config.packed_spill) / SPILL_JOURNAL_NAME
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(list(delta)) + "\n")

    # -- snapshots -----------------------------------------------------------

    def snapshot_fingerprint(self) -> str:
        """Fingerprint binding snapshots to this config/dataset pair."""
        return snapshot_fingerprint(self.config, self.dataset)

    def save_snapshot(self, path: str | Path) -> Path:
        """Persist the warm neighbour-index rows to the directory ``path``.

        The layout is a manifest plus one shard file (see
        :mod:`repro.serving.snapshot`).  Saves are incremental —
        repeating a save with no update since the last save or load of
        ``path`` rewrites only the manifest.
        """
        path = Path(path)
        with self._data_lock.read():
            version = self.index.version
            key = str(path.resolve())
            saved = self._snapshot_versions.get(key)
            # A bound method, not materialised rows: a clean index never
            # pays for a row copy.
            result = save_sharded_snapshot(
                [self.index.snapshot_rows],
                path,
                self.snapshot_fingerprint(),
                self.config.fingerprint(),
                dirty=None if saved is None else [saved != version],
            )
            self._snapshot_versions[key] = version
            return result

    def load_snapshot(self, path: str | Path) -> int:
        """Restore the neighbour index from a snapshot; returns rows loaded.

        A directory saved with any number of shard files loads: the
        rows of every shard form the index.  Raises
        :class:`~repro.exceptions.SnapshotError` when the
        snapshot's fingerprint does not match this service's config
        semantics and dataset shape — serving from a stale index would
        silently change recommendations — when any shard file is
        missing, corrupt, or out of step with its manifest, or when
        ``path`` is a regular file rather than a snapshot directory.
        """
        path = Path(path)
        rows = load_sharded_snapshot(
            path, self.snapshot_fingerprint(), self.config.fingerprint()
        )
        with self._data_lock.write():
            loaded = self.index.load_rows(rows)
            # Cached answers may use peers the loaded (possibly cut)
            # rows no longer store, where a write could not find them.
            self.relevance_cache.clear()
            self.group_cache.clear()
            # The directory now mirrors the in-memory rows: a save back
            # to it before any update can skip the row file.
            self._snapshot_versions[str(path.resolve())] = self.index.version
            return loaded

    # -- relevance rows ------------------------------------------------------

    def _known(self, user_id: str) -> bool:
        """Whether ``user_id`` has ratings or a registry entry.

        Only such ids get a stored index row, relevance row or group
        answer, so unknown ids can neither grow the index nor evict
        cached answers.
        """
        return user_id in self.dataset.users or bool(self.matrix.item_ids_of(user_id))

    def _peers(self, user_id: str, exclude: Collection[str] = ()) -> dict[str, float]:
        """``user_id``'s capped peer similarities without ``exclude``."""
        peers = self.index.peers_excluding(
            user_id, exclude, self.config.max_peers, store=self._known(user_id)
        )
        return peers_as_mapping(peers)

    def relevance_row(
        self, user_id: str, exclude: Iterable[str] = ()
    ) -> dict[str, float]:
        """Equation 1 predictions for every item ``user_id`` has not rated.

        ``exclude`` removes users from the peer pool.  The row without
        exclusions is the single-user row, cached per known user id; a
        row with exclusions is computed on each call and not cached.
        """
        exclude = frozenset(exclude)
        with self._data_lock.read():
            if exclude or not self._known(user_id):
                return self._compute_relevance_row(user_id, exclude)
            return self.relevance_cache.get_or_compute(
                user_id, lambda: self._compute_relevance_row(user_id)
            )

    def _compute_relevance_row(
        self, user_id: str, exclude: Collection[str] = ()
    ) -> dict[str, float]:
        # One pass over the packed row in intern space: the unrated set
        # is derived from the CSR row itself (no string-keyed
        # unrated_items scan, no candidate-list decode/re-encode).
        return predict_row_packed(
            self._packed, user_id, self._peers(user_id, exclude)
        )

    # -- single-user requests ------------------------------------------------

    def recommend_user(
        self,
        user_id: str,
        k: int | None = None,
        *,
        deadline: Deadline | None = None,
    ) -> list[ScoredItem]:
        """Top-``k`` single-user recommendation (Section III.A), warm.

        ``k`` defaults to ``config.top_k``; an explicit non-positive
        ``k`` raises :class:`~repro.exceptions.ConfigurationError`.
        A ``deadline`` is checked on entry (single-user requests are
        parent-side and short; the budget gates admission, it never
        interrupts a row computation mid-way).
        """
        k = resolve_positive(k, self.config.top_k, "k")
        if deadline is not None:
            deadline.check(f"recommend_user({user_id!r})")
        started = time.perf_counter()
        if self.config.relevance_cache_size == 0:
            # Streaming top-k: with no relevance cache to warm there is
            # no reason to materialise the full row — the packed kernel
            # feeds a bounded heap directly.  Output is bit-identical
            # to rank_items over the full row (same pinned tie-break).
            with self._data_lock.read():
                pairs = predict_topk_packed(
                    self._packed, user_id, self._peers(user_id), k
                )
                result = [
                    ScoredItem(item_id=item_id, score=score)
                    for item_id, score in pairs
                ]
                # Validated under the same read lock the answer was
                # computed under, so the already-rated shape compares
                # against exactly the matrix state that produced it.
                # The dict matrix is the independent source here — this
                # cross-checks the packed decode against it.
                self._validate_user(result, user_id, k)
            self._record("user", started, "user_requests")
            return result
        result = self.cached_user(user_id, k)
        if result is not None:
            return result
        with self._data_lock.read():
            epoch = self.relevance_cache.epoch
            row = self._compute_relevance_row(user_id)
            if self._known(user_id):
                self.relevance_cache.put(user_id, row, epoch=epoch)
            result = rank_items(row, k)
            self._validate_user(result, user_id, k)
        self._record("user", started, "user_requests")
        return result

    def cached_user(
        self, user_id: str, k: int | None = None
    ) -> list[ScoredItem] | None:
        """Top-``k`` from ``user_id``'s cached relevance row, or ``None``.

        The row is the one :meth:`recommend_user` caches, under key
        ``user_id``.  The lookup counts one hit or one miss.  A hit is
        ranked under the data read lock, as on the compute path,
        validated (unless ``validation`` is ``off``) and recorded as
        one user request.
        """
        k = resolve_positive(k, self.config.top_k, "k")
        started = time.perf_counter()
        with self._data_lock.read():
            row = self.relevance_cache.get(user_id)
            if row is None:
                return None
            result = rank_items(row, k)
            self._validate_user(result, user_id, k)
        self._record("user", started, "user_requests")
        return result

    def _validate_user(
        self, result: list[ScoredItem], user_id: str, k: int
    ) -> None:
        """Validate one user answer (caller holds the data read lock)."""
        if self._validation == "off":
            return
        self._flag_violations(
            validate_user_response(
                result, user_id=user_id, k=k, matrix=self.matrix
            )
        )

    # -- group requests ------------------------------------------------------

    def recommend_group(
        self,
        group: Group,
        z: int | None = None,
        *,
        deadline: Deadline | None = None,
    ) -> CaregiverRecommendation:
        """Fairness-aware group recommendation, warm.

        Produces the same :class:`CaregiverRecommendation` as
        :meth:`CaregiverPipeline.recommend` on the same inputs.
        Finished recommendations are cached per ``(members, z)`` —
        repeated dashboard refreshes are answered without recomputing —
        and invalidated as soon as an update touches any member.  A
        group with a member the dataset does not know is not cached.
        ``z`` defaults to ``config.top_z``; an explicit non-positive
        ``z`` raises :class:`~repro.exceptions.ConfigurationError`.
        A ``deadline`` is checked on entry — between group requests in
        a serial batch, never inside one group's computation.
        """
        z = resolve_positive(z, self.config.top_z, "z")
        if deadline is not None:
            deadline.check(
                f"recommend_group of {len(group.member_ids)} member(s)"
            )
        started = time.perf_counter()
        cache_key = (tuple(group.member_ids), z)
        group_epoch = self.group_cache.epoch
        cached = self.cached_group(group.member_ids, z)
        if cached is not None:
            return cached
        with self._data_lock.read():
            storable = all(map(self._known, group.member_ids))
            # Each member's peers leave the other members out.
            member_peers = {
                member_id: self._peers(
                    member_id, [uid for uid in group.member_ids if uid != member_id]
                )
                for member_id in group.member_ids
            }
            item_ids, columns = group_columns_packed(self._packed, member_peers)
        candidates = GroupCandidates.from_columns(
            group,
            item_ids,
            columns,
            aggregation=self.aggregation,
            top_k=self.config.top_k,
            candidate_limit=self.config.candidate_pool_size,
        )
        selection = self.selector.select(candidates, z)
        plain = tuple(candidates.top_group_items(z))
        recommendation = CaregiverRecommendation(
            group=group,
            selection=selection,
            plain_top_z=plain,
            candidates=candidates,
        )
        self._validate_group(recommendation, z, group_epoch)
        if storable:
            self.group_cache.put(cache_key, recommendation, epoch=group_epoch)
        self._record("group", started, "group_requests")
        return recommendation

    def cached_group(
        self, members: Sequence[str], z: int | None = None
    ) -> CaregiverRecommendation | None:
        """The cached answer for ``(members, z)``, or ``None`` on a miss.

        The lookup counts one hit or one miss.  A hit is a served
        response: it is validated (unless ``validation`` is ``off``;
        strict mode must catch a corrupted entry, not just a fresh
        compute) under the data read lock and recorded as one group
        request.
        """
        z = resolve_positive(z, self.config.top_z, "z")
        cache = self.group_cache
        started = time.perf_counter()
        key = (tuple(members), z)
        if self._validation == "off":
            cached = cache.get(key)
        else:
            with self._data_lock.read():
                epoch = cache.epoch
                cached = cache.get(key)
                if cached is not None:
                    self._validate_group(cached, z, epoch, locked=True)
        if cached is not None:
            self._record("group", started, "group_requests")
        return cached

    def recommend_many(
        self,
        groups: Sequence[Group],
        z: int | None = None,
        *,
        deadline: Deadline | None = None,
    ) -> list[CaregiverRecommendation]:
        """Answer a batch of group requests, in input order.

        Identical groups in the batch are computed once; overlapping
        groups share the members' stored peer rows.  The serial backend
        answers the groups one by one.  On the **pool / remote** fleet
        each resident worker process holds the dataset and config and
        computes groups CPU-parallel; results are bit-identical (the
        warm/cold invariant) and are folded back into this service's
        group cache.

        A ``deadline`` (see :class:`~repro.resilience.Deadline`) caps
        the whole batch end-to-end: it is checked on entry, between
        groups on the serial path, and between dispatch rounds on the
        fleet — :class:`~repro.exceptions.DeadlineExceeded`
        propagates before any partial results are recorded.
        """
        z_value = resolve_positive(z, self.config.top_z, "z")
        if deadline is not None:
            deadline.check(f"recommend_many of {len(groups)} group(s)")
        self._request_counters["batch_requests"].inc()
        distinct: dict[tuple[str, ...], Group] = {}
        for group in groups:
            distinct.setdefault(tuple(group.member_ids), group)
        with span(
            "recommend_many",
            self.metrics,
            groups=len(groups),
            distinct=len(distinct),
            backend=self.backend.name,
        ):
            if len(distinct) <= 1 or not self.backend.requires_pickling:
                results = {
                    key: self.recommend_group(group, z_value, deadline=deadline)
                    for key, group in distinct.items()
                }
            else:
                results = self._recommend_many_process(
                    distinct, z_value, deadline
                )
        return [results[tuple(group.member_ids)] for group in groups]

    def _worker_initargs(self) -> tuple:
        """The (cached) initializer arguments for serve worker processes.

        Built once per service and reused for every dispatch: a pool
        backend decides whether its resident workers still match this
        service by comparing initargs *identity*, so a fresh tuple per
        call would force a pointless re-ship per batch, while a stable
        one both enables steady-state reuse and makes two services
        sharing a backend restart it on hand-over instead of serving
        each other's data.  Ships this service's actual measure
        (unwrapped from its cache) — a custom similarity must survive
        the process hop or bit-identity silently breaks.

        With a packed spill published (``config.packed_spill``) the
        dataset and measure are replaced by ``None``
        sentinels: workers bootstrap from the spill directory (mmap'd
        CSR arrays + dataset JSON + journal) and rebuild the
        config-selected measure locally, so the initargs stop carrying
        the rating volume.  A custom ``similarity`` instance is not
        forwarded on this path — combine the two only with
        config-constructible measures.
        """
        if self._serve_initargs is None:
            spill_boot = bool(self.config.packed_spill) and self._spill_writer
            self._serve_initargs = (
                None if spill_boot else self.dataset,
                # Workers skip response validation: the parent validates
                # every folded-back answer at its own boundary, so a
                # worker-side re-check would double the cost without
                # adding coverage.  Their pair-score cache is off: row
                # builds would fill it, and its contract keeps scores
                # bit-identical either way.
                self.config.with_overrides(
                    exec_backend="serial",
                    exec_workers=0,
                    validation="off",
                    similarity_cache_size=0,
                ),
                self.selector_name,
                None if spill_boot else self.similarity.picklable_measure(),
            )
        return self._serve_initargs

    def _recommend_many_process(
        self,
        distinct: dict[tuple[str, ...], Group],
        z: int,
        deadline: Deadline | None = None,
    ) -> dict[tuple[str, ...], CaregiverRecommendation]:
        """Fan distinct groups out to worker processes.

        Cached results are answered locally; only the misses cross the
        process boundary.  The read lock is held for the whole dispatch
        so the pickled dataset cannot change mid-batch.
        """
        results: dict[tuple[str, ...], CaregiverRecommendation] = {}
        missing: dict[tuple[str, ...], Group] = {}
        for key, group in distinct.items():
            cached = self.cached_group(key, z)
            if cached is not None:
                results[key] = cached
            else:
                missing[key] = group
        if not missing:
            return results
        started = time.perf_counter()
        with self._data_lock.read():
            epoch = self.group_cache.epoch
            with span(
                "exec_dispatch", self.metrics,
                backend=self.backend.name, tasks=len(missing),
            ):
                # The deadline kwarg is only forwarded when one is set:
                # a caller-supplied ExecutionBackend subclass predating
                # the deadline seam keeps working for budget-less calls.
                deadline_kwargs = (
                    {"deadline": deadline} if deadline is not None else {}
                )
                recommendations = self.backend.map_items(
                    _serve_group_task,
                    [(group, z) for group in missing.values()],
                    initializer=_init_serve_worker,
                    initargs=self._worker_initargs(),
                    **deadline_kwargs,
                )
            # Worker-computed answers cross the service boundary here:
            # validate them before they are folded into the cache and
            # returned.  Still under the read lock, so the matrix is
            # exactly the state the workers computed from.
            for recommendation in recommendations:
                self._validate_group(recommendation, z, epoch, locked=True)
            # A worker grows a member's capped row for a large group's
            # exclusions in its own index; store rows here that hold
            # the same peers, so a write to any of them drops the
            # cached answer (see _drop_affected).  A group with an
            # unknown member is answered but not cached.
            storable: set[tuple[str, ...]] = set()
            for key in missing:
                known = list(filter(self._known, key))
                for member in known:
                    self.index.cover(
                        member, {uid for uid in key if uid != member}
                    )
                if len(known) == len(key):
                    storable.add(key)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        per_group_ms = elapsed_ms / len(missing)
        group_requests = self._request_counters["group_requests"]
        group_hist = self._request_ms["group"]
        for key, recommendation in zip(missing.keys(), recommendations):
            if key in storable:
                self.group_cache.put((key, z), recommendation, epoch=epoch)
            group_requests.inc()
            group_hist.observe(per_group_ms)
            results[key] = recommendation
        return results

    # -- online updates ------------------------------------------------------

    def ingest_rating(self, user_id: str, item_id: str, value: float) -> set[str]:
        """Apply one rating and drop exactly the stale cached state.

        Returns the set of users whose cached relevance rows were
        invalidated.  The similarity pair cache loses only the pairs
        involving ``user_id``; the neighbour index rebuilds
        ``user_id``'s row with one score sweep and patches ``user_id``'s
        entry only in the rows that hold it or that its new score
        enters; relevance rows are dropped for the touched user, for
        every user whose stored row changed, and for every user whose
        row holds the touched user (their Equation 1 inputs changed
        even if their row did not).
        """
        started = time.perf_counter()
        with self._data_lock.write():
            self.matrix.add(user_id, item_id, value)
            # The packed view repacks exactly this user's row (plus the
            # touched inverted-index entries) on its next kernel call —
            # marked here so the repack happens even when the active
            # measure is not ratings-backed.
            self._packed.mark_dirty(user_id)
            # Ratings-only invalidation: profile/semantic components
            # keep their state, a TF-IDF corpus refit is not triggered.
            self.similarity.invalidate_user_ratings(user_id)
            changed = self.index.refresh_user(user_id)
            affected = (
                {user_id} | changed | self.index.users_with_neighbor(user_id)
            )
            self._drop_affected(affected)
            # Resident worker pools must learn about the mutation: bump
            # the backend's state epoch (and log the replayable delta).
            # The spill journal entry lands first, so a worker spawned
            # from the spill can never miss a delta (see _journal_delta).
            delta = ("rating", user_id, item_id, value)
            self._journal_delta(delta)
            self.backend.notify_state_change(delta)
            self._record("ingest", started, "ingested_ratings")
            return affected

    def update_profile(
        self, user_id: str, mutate: Callable[[User], None] | None = None
    ) -> set[str]:
        """Apply a profile change and drop exactly the stale cached state.

        ``mutate`` (optional) receives the :class:`~repro.data.users.User`
        and edits it in place; calling without it signals an external
        edit.

        With a measure whose scores react corpus-wide to one profile
        (TF-IDF: one edit shifts every IDF weight), targeted
        invalidation would leave pairs not involving ``user_id``
        stale, so everything is dropped instead.  For the other
        measures only users whose stored peer row changed lose cached
        state.
        """
        with self._data_lock.write():
            if mutate is not None:
                mutate(self.dataset.users.get(user_id))
            self.similarity.invalidate_user(user_id)
            if self.similarity.profile_corpus_sensitive:
                self.similarity_cache.clear()
                self.index.clear()
                self.relevance_cache.clear()
                self.group_cache.clear()
                affected = set(self.matrix.user_ids())
                affected.add(user_id)
            else:
                changed = self.index.refresh_user(user_id)
                affected = {user_id} | changed
                self._drop_affected(affected)
            # Ship the post-mutation profile, not the mutate callable —
            # closures don't cross process boundaries.  The worker-side
            # applier overwrites its resident copy of the user and runs
            # the same update_profile invalidation the parent just did.
            delta = (
                "profile", user_id, self.dataset.users.get(user_id).to_dict()
            )
            self._journal_delta(delta)
            self.backend.notify_state_change(delta)
            self._request_counters["profile_updates"].inc()
            return affected

    def _drop_affected(self, affected: set[str]) -> None:
        """Drop the relevance rows and group results touching ``affected``.

        A group entry is also dropped when any member's peer row is not
        built in this service's index: results folded back from worker
        processes (the pool/remote batch path) can be cached before
        the parent ever builds the supporting rows, and without a row
        the targeted-invalidation machinery cannot know whether the
        member depends on the touched user — conservatively treating
        such members as affected is what keeps worker-computed cache
        entries from being served stale after an update.  A built
        member row holds every peer such an entry used, whenever it
        was built: :meth:`NeighborIndex.cover` grows it at fold-back
        for groups whose exclusions pass the row slack.
        """
        self.relevance_cache.invalidate_where(lambda key: key in affected)
        self.group_cache.invalidate_where(
            lambda key: any(
                member in affected or not self.index.is_built(member)
                for member in key[0]
            )
        )

    # -- introspection -------------------------------------------------------

    def _record(self, kind: str, started: float, counter: str) -> None:
        """Bump one request counter and observe its latency histogram."""
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._request_counters[counter].inc()
        self._request_ms[kind].observe(elapsed_ms)

    def stats(self) -> dict[str, Any]:
        """Operational statistics, as a view over the metrics registry.

        The dict shape is backward compatible (``requests``,
        ``mean_group_ms``/``mean_user_ms``, the three cache dicts,
        ``index`` and ``backend``) with one addition: ``latency`` maps
        each request kind to the shared histogram's
        count/mean/p50/p95/p99 readout.
        """
        counters = {
            name: int(counter.value)
            for name, counter in self._request_counters.items()
        }
        return {
            "requests": counters,
            "mean_group_ms": self._request_ms["group"].mean,
            "mean_user_ms": self._request_ms["user"].mean,
            "latency": {
                kind: histogram.as_dict()
                for kind, histogram in self._request_ms.items()
            },
            "similarity_cache": self.similarity_cache.stats.as_dict(),
            "relevance_cache": self.relevance_cache.stats.as_dict(),
            "group_cache": self.group_cache.stats.as_dict(),
            "index": {
                "built_rows": self.index.built_rows,
                "users": self.matrix.num_users,
                "threshold": self.index.threshold,
                "stored_peers": self.index.stored_peers,
                "truncated_rows": self.index.truncated_rows,
                "row_growths": self.index.row_growths,
            },
            "backend": self._backend_stats(),
        }

    def _backend_stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = {
            "name": self.backend.name,
            "workers": self.backend.workers,
        }
        pool_stats = getattr(self.backend, "pool_stats", None)
        if pool_stats is not None:
            stats["pool"] = pool_stats()
        return stats
