"""The worker fleet: one frame protocol for local and TCP workers.

:class:`RemoteBackend` runs every :mod:`repro.exec` task that leaves the
parent process.  Its workers speak the length-prefixed frames of
:mod:`repro.exec.wire` and join the fleet along one of two paths:

* **local workers** are forked :mod:`multiprocessing` children, each
  holding one end of a :func:`socket.socketpair`.  A local worker builds
  its resident state from the fork-inherited ``initializer`` /
  ``initargs`` (nothing is pickled) at the parent's current epoch, and
  is re-forked, never re-booted, when that binding changes;
* **TCP workers** are ``repro worker --connect HOST:PORT`` processes on
  any host.  They handshake (``HELLO``/``WELCOME`` carries the config
  fingerprint; a mismatch is refused with a typed ``FAULT`` before any
  task) and build their resident state from a pickled ``BOOT`` frame.

After the join there is one code path for every worker:

* the state owner reports each mutation through
  :meth:`RemoteBackend.notify_state_change`, which bumps an **epoch**
  and logs the delta.  A stale fleet gets one ``SYNC`` frame per worker
  carrying the pending log, so sync cost is O(workers), never O(tasks).
  Every stream is FIFO, so the parent clears its log at broadcast time:
  a ``TASK`` written after the ``SYNC`` is read after it.  Without a
  usable delta (an undescribed mutation, a log past ``max_delta_log``,
  a new initializer or initargs) the fleet is re-shipped instead;
* ``map_items`` places chunk *i* on live worker *i mod width*, the
  one placement rule for every caller (MapReduce partitions included);
* workers stream tagged ``RESULT`` frames plus ``HEARTBEAT`` beacons.
  A worker whose stream ends, tears a frame or stays silent past
  ``heartbeat_timeout`` is declared dead and its unanswered items are
  **requeued** round-robin onto the survivors, so the batch stays
  bit-identical while one worker lives.  Losing every worker raises
  :class:`FleetLossError`, or serves the batch in-process under
  ``degraded_mode="serial"``;
* a ``deadline`` is checked between collect rounds.

The fleet has a **fixed width**: ``workers`` local workers, forked at
the first dispatch or a rebind and regrown to that width after a death
(a local worker found dead between batches is replaced before the next
one runs).  Load never resizes it.

Results are bit-identical to the serial backend as long as every
mutation of the state behind the resident copies is reported: skipping
:meth:`~RemoteBackend.notify_state_change` leaves workers serving their
boot-time snapshot.  ``docs/ARCHITECTURE.md`` has the sequence diagram.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import selectors
import socket
import threading
import time
import traceback
from typing import Any, Callable, Iterable, Sequence, TypeVar

from ..exceptions import ConfigurationError, ExecutionError
from ..obs import MetricsRegistry, get_registry
from ..resilience import (
    CircuitBreaker,
    Deadline,
    FaultInjector,
    RetryPolicy,
    mark_degraded,
)
from .backends import ExecutionBackend, chunk_evenly, ensure_picklable
from .wire import (
    DEFAULT_MAX_FRAME_BYTES,
    Boot,
    Fault,
    FrameConnection,
    Heartbeat,
    Hello,
    PeerDisconnected,
    Stop,
    Sync,
    Task,
    TaskResult,
    TruncatedFrameError,
    Welcome,
    WireError,
    encode_message,
)

T = TypeVar("T")
R = TypeVar("R")

#: Default seconds between a worker's heartbeat beacons.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Default seconds of silence after which the parent declares a worker
#: dead mid-batch and requeues its in-flight tasks.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: Default seconds a TCP-only fleet (``spawn_workers=False``) waits for
#: its first TCP worker before failing the dispatch loudly.
DEFAULT_CONNECT_TIMEOUT = 30.0

#: Degraded-mode policies for total fleet loss: ``"off"`` raises
#: :class:`FleetLossError`, ``"serial"`` falls back to bit-identical
#: in-process serial execution.
DEGRADED_MODES: tuple[str, ...] = ("off", "serial")

#: Delta-log length beyond which replaying mutations costs more than a
#: re-ship; the fleet re-ships the full state instead.
DEFAULT_MAX_DELTA_LOG = 256

#: Seconds each side of the TCP handshake waits for the other's frame.
_HANDSHAKE_TIMEOUT_SECONDS = 30.0

#: Seconds between liveness re-checks while waiting for results.
_RESULT_POLL_SECONDS = 0.1

#: Seconds a stopping local worker gets per escalation step (join after
#: STOP, join after terminate, join after kill).
_JOIN_TIMEOUT_SECONDS = 5.0

#: Task chunks dispatched per worker per ``map_items`` batch: enough
#: slack to absorb uneven task costs without O(tasks) frames.
_CHUNKS_PER_WORKER = 4

#: The fleet's counters, registered as ``pool_<name>`` and reported by
#: :meth:`RemoteBackend.pool_stats` under the bare name.
_COUNTERS: tuple[str, ...] = (
    "restarts",
    "delta_syncs",
    "sync_messages",
    "sync_bytes",
    "bootstrap_bytes",
    "forced_stops",
    "frames_sent",
    "frames_received",
    "bytes_sent",
    "bytes_received",
    "heartbeats",
    "requeues",
    "dead_workers",
    "torn_frames",
    "handshake_rejects",
    "rejoins",
    "breaker_deferrals",
    "degraded_dispatches",
    "deadline_aborts",
    "stale_results",
)

#: The escalation ladder a stopping local worker is driven through:
#: one bounded join per attempt (after STOP, after ``terminate()``,
#: after ``kill()``).  Each join's timeout is ``delay(attempt) *
#: _JOIN_TIMEOUT_SECONDS``, so the module constant (which tests shrink)
#: scales the whole ladder.
_STOP_ESCALATION = RetryPolicy(
    max_attempts=3, base_delay=1.0, multiplier=1.0, max_delay=1.0
)


def join_with_escalation(
    process: Any, policy: RetryPolicy = _STOP_ESCALATION
) -> bool:
    """Join ``process``, escalating terminate → kill between bounded joins.

    Returns ``True`` when escalation was needed — the process ignored
    its orderly stop and had to be signalled (``pool_forced_stops``).
    """
    escalation = (
        process.terminate,
        getattr(process, "kill", process.terminate),
    )
    forced = False
    for attempt in policy.attempts():
        process.join(timeout=policy.delay(attempt) * _JOIN_TIMEOUT_SECONDS)
        if not process.is_alive() or attempt > len(escalation):
            break
        forced = True
        escalation[attempt - 1]()
    return forced


def _same_elements(a: tuple[Any, ...], b: tuple[Any, ...]) -> bool:
    """Element-wise identity of two initarg tuples.

    Identity (not equality): comparing a large dataset by value per
    dispatch would cost more than the dispatch, and the resident-state
    contract is about *which objects* the workers were built from.
    Call sites that want worker reuse must pass a stable initargs tuple
    (the serving layer caches its per-service tuple for this reason).
    """
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class FleetLossError(ExecutionError):
    """The entire fleet is gone and the batch cannot complete.

    Raised when no TCP worker connects within the connect timeout, when
    the last worker dies mid-batch with task items still unanswered, or
    when fleet preparation ends with zero live workers.  The degraded
    fallback (``degraded_mode="serial"``) catches exactly this type —
    single-worker failures with survivors requeue instead.
    """


# -- worker side -------------------------------------------------------------
#
# One resident copy per worker process.  ``_EPOCH`` is the age of the
# resident state; SYNC frames advance it, boots set it.

_EPOCH: int = -1
_APPLIER: Callable[[Any], None] | None = None


def _boot(
    initializer: Callable[..., None] | None,
    initargs: tuple[Any, ...],
    epoch: int,
    applier: Callable[[Any], None] | None,
) -> None:
    """(Re)build this process's resident state, current at ``epoch``.

    Local workers call it on fork-inherited arguments, TCP workers on
    the contents of a BOOT frame.  The registry is baselined afterwards:
    whatever the parent or the initializer recorded (journal replay,
    repacks) is not this worker's task-time activity.
    """
    global _EPOCH, _APPLIER
    if initializer is not None:
        initializer(*initargs)
    _EPOCH = epoch
    _APPLIER = applier
    get_registry().drain_delta()


def _drain_worker_delta(worker_id: int) -> Any:
    """This worker's metrics increments since the last drain (or None)."""
    delta = get_registry().drain_delta()
    if delta is None:
        return None
    return (worker_id, delta)


def _apply_sync(packet: Sync) -> None:
    """Replay the unseen suffix of one broadcast delta packet.

    Timed into the worker's registry (``worker_sync_ms`` /
    ``worker_syncs`` / ``worker_deltas_applied``); the parent surfaces
    these per worker once the next result frame carries them home.
    """
    global _EPOCH
    started = time.perf_counter()
    applied = 0
    for delta_epoch, delta in packet.entries:
        if delta_epoch > _EPOCH:
            if _APPLIER is None:
                raise ExecutionError(
                    "worker received a SYNC frame but no delta applier is "
                    "bound; the parent should have re-shipped the state "
                    "instead of broadcasting"
                )
            _APPLIER(delta)
            applied += 1
    _EPOCH = max(_EPOCH, packet.epoch)
    registry = get_registry()
    registry.observe(
        "worker_sync_ms", (time.perf_counter() - started) * 1000.0
    )
    registry.inc("worker_syncs")
    if applied:
        registry.inc("worker_deltas_applied", applied)


def _execute_task(conn: FrameConnection, worker_id: int, task: Task) -> int:
    """Run one task chunk, streaming per-item RESULT frames back.

    A task exception becomes an error result carrying the pickled
    original, an epoch-ahead task fails every item with a typed
    protocol-violation error, and the last result of the chunk
    piggybacks the drained worker metrics delta.  Returns the number of
    items served.
    """
    # A task may never outrun its SYNC frame (FIFO): an epoch ahead of
    # the resident one means the parent cleared its log without telling
    # this worker — fail loudly rather than serve stale state.
    violation = (
        ExecutionError(
            f"sync protocol violation: task epoch {task.epoch} is ahead "
            f"of resident epoch {_EPOCH} with no SYNC frame on the stream"
        )
        if task.epoch > _EPOCH
        else None
    )
    for position, (index, item) in enumerate(task.pairs):
        last = position == len(task.pairs) - 1
        delta: Any = None
        try:
            if violation is not None:
                raise violation
            value = task.fn(item)
            if last:
                delta = _drain_worker_delta(worker_id)
            try:
                conn.send(
                    TaskResult(task.chunk_id, index, True, value, delta=delta)
                )
                continue
            except PeerDisconnected:
                # The connection itself died (or a scripted tear fired):
                # not a payload problem — propagate to the serve loop.
                raise
            except WireError as exc:
                # Encoding failed before any bytes hit the wire: report
                # the unpicklable result as a typed task error instead.
                raise ExecutionError(
                    f"task result for index {index} is not picklable: {exc}"
                ) from exc
        except KeyboardInterrupt:  # pragma: no cover - interactive
            raise
        except BaseException as exc:
            if last and delta is None:
                delta = _drain_worker_delta(worker_id)
            try:
                exc_bytes: bytes | None = pickle.dumps(exc)
            except Exception:
                exc_bytes = None
            conn.send(
                TaskResult(
                    task.chunk_id,
                    index,
                    False,
                    exc_bytes=exc_bytes,
                    summary=repr(exc),
                    traceback=traceback.format_exc(),
                    delta=delta,
                )
            )
    return len(task.pairs)


class _ScriptedDeath(Exception):
    """Control-flow signal: a plan's ``die_after_tasks`` trigger fired."""


def _serve(
    conn: FrameConnection,
    worker_id: int,
    heartbeat_interval: float,
    injector: FaultInjector | None,
    progress: list[int],
    boot: tuple[Any, ...] | None = None,
) -> bool:
    """The worker loop: serve BOOT/SYNC/TASK frames in stream order.

    A background thread sends a HEARTBEAT every ``heartbeat_interval``
    seconds, starting before ``boot`` (a local worker's inherited
    :func:`_boot` arguments) runs, so a slow boot is never mistaken for
    a dead worker.  Another drains the stream into an in-memory inbox
    as frames arrive: the parent writes a whole batch before it reads
    results, so a worker blocked writing results must keep reading, or
    both sides wait on each other's full socket buffers.  Returns
    ``True`` on a STOP frame and ``False`` when the parent closes the
    stream without one; ``progress[0]`` accumulates served task items,
    so a caller still knows the count when the loop dies mid-stream.
    ``injector`` is the scripted-fault seam (chaos tests only).
    """
    stop_beacon = threading.Event()
    inbox: queue.SimpleQueue = queue.SimpleQueue()

    def _read() -> None:
        try:
            while True:
                message = conn.recv()
                inbox.put(message)
                if message is None or isinstance(message, Stop):
                    return
        except WireError as exc:  # re-raised by the serve loop
            inbox.put(exc)

    def _beat() -> None:
        period = heartbeat_interval
        if injector is not None:
            period += injector.heartbeat_delay()
        while not stop_beacon.wait(period):
            try:
                conn.send(Heartbeat(epoch=_EPOCH))
            except (WireError, OSError):  # parent gone; main loop exits
                return

    threading.Thread(
        target=_beat, name=f"repro-worker-beat-{worker_id}", daemon=True
    ).start()
    threading.Thread(
        target=_read, name=f"repro-worker-read-{worker_id}", daemon=True
    ).start()
    try:
        if boot is not None:
            _boot(*boot)
        while True:
            message = inbox.get()
            if isinstance(message, WireError):
                raise message
            if message is None:
                return False
            if isinstance(message, Stop):
                return True
            if isinstance(message, Boot):
                _boot(
                    message.initializer,
                    message.initargs,
                    message.epoch,
                    message.applier,
                )
            elif isinstance(message, Sync):
                _apply_sync(message)
            elif isinstance(message, Task):
                served = _execute_task(conn, worker_id, message)
                progress[0] += served
                if injector is not None:
                    injector.note_served(served)
                    if injector.should_die():
                        raise _ScriptedDeath()
            elif isinstance(message, Fault):
                raise WireError(
                    f"parent faulted this worker: {message.message}"
                )
            else:  # pragma: no cover - guards future frame types
                raise WireError(
                    f"unexpected {type(message).__name__} frame in the "
                    f"worker message loop"
                )
    finally:
        stop_beacon.set()
        # Wake the reader and end the stream now: a close() alone would
        # wait for the reader's blocked recv before the parent saw EOF.
        conn.shutdown()


def _serve_session(
    host: str,
    port: int,
    *,
    fingerprint: str | None,
    heartbeat_interval: float,
    max_frame_bytes: int,
    handshake_timeout: float,
    injector: FaultInjector | None,
    progress: list[int],
) -> bool:
    """One TCP connect/handshake/serve cycle; ``True`` on a clean STOP."""
    if injector is not None:
        injector.session_started()
    sock = socket.create_connection((host, port), timeout=handshake_timeout)
    sock.settimeout(None)
    conn = FrameConnection(sock, max_frame_bytes, injector=injector)
    try:
        conn.send(Hello(fingerprint=fingerprint))
        reply = conn.recv(timeout=handshake_timeout)
        if isinstance(reply, Fault):
            raise WireError(
                f"parent at {host}:{port} rejected this worker: "
                f"{reply.message}"
            )
        if not isinstance(reply, Welcome):
            raise WireError(
                f"expected WELCOME from {host}:{port}, got "
                f"{type(reply).__name__ if reply is not None else 'EOF'}"
            )
        if (
            fingerprint is not None
            and reply.fingerprint is not None
            and reply.fingerprint != fingerprint
        ):
            raise WireError(
                f"config fingerprint mismatch: this worker expects "
                f"{fingerprint}, parent at {host}:{port} serves "
                f"{reply.fingerprint}"
            )
        return _serve(
            conn, reply.worker_id, heartbeat_interval, injector, progress
        )
    finally:
        conn.close()


def run_worker(
    host: str,
    port: int,
    *,
    fingerprint: str | None = None,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    handshake_timeout: float = _HANDSHAKE_TIMEOUT_SECONDS,
    rejoin: RetryPolicy | None = None,
    fault_injector: FaultInjector | None = None,
) -> int:
    """Connect to a :class:`RemoteBackend` listener and serve until stopped.

    The ``repro worker --connect HOST:PORT`` entry point.  Performs the
    fingerprint handshake, then serves BOOT/SYNC/TASK frames in stream
    order until a STOP frame or the parent closes the connection.
    Returns the number of task items served; raises
    :class:`~repro.exec.wire.WireError` when the parent rejects the
    handshake (e.g. a config-fingerprint mismatch).

    With a ``rejoin`` policy, a dropped connection (parent closed the
    stream without STOP, socket error, torn frame) is transient: the
    worker backs off per the policy and reconnects through the normal
    handshake, getting a fresh worker id and a full BOOT at the
    parent's current epoch.  A session that served at least one task
    item resets the attempt budget — only *consecutive* dead sessions
    exhaust it.  Fingerprint rejection stays permanent.

    ``fault_injector`` wires a scripted :class:`~repro.resilience.FaultPlan`
    into the send path and the serve loop (chaos tests only): dropped or
    torn RESULT frames, delayed heartbeats, and a one-shot scripted
    death after N served items — rejoined afterwards only when the plan
    sets ``rejoin_after_death``.
    """
    if heartbeat_interval <= 0:
        raise ConfigurationError("heartbeat_interval must be positive")
    total = 0
    attempt = 0
    while True:
        attempt += 1
        progress = [0]
        rejoinable = rejoin is not None and attempt < rejoin.max_attempts
        try:
            stopped = _serve_session(
                host,
                port,
                fingerprint=fingerprint,
                heartbeat_interval=heartbeat_interval,
                max_frame_bytes=max_frame_bytes,
                handshake_timeout=handshake_timeout,
                injector=fault_injector,
                progress=progress,
            )
        except _ScriptedDeath:
            total += progress[0]
            if not (
                rejoinable
                and fault_injector is not None
                and fault_injector.plan.rejoin_after_death
            ):
                return total
        except (PeerDisconnected, TruncatedFrameError, OSError):
            total += progress[0]
            if not rejoinable:
                raise
        else:
            total += progress[0]
            if stopped or not rejoinable:
                return total
        if progress[0] > 0:
            attempt = 1  # a productive session refreshes the rejoin budget
        assert rejoin is not None
        time.sleep(rejoin.delay(attempt))


def _local_worker_main(
    sock: socket.socket,
    inherited: list[Any],
    worker_id: int,
    initializer: Callable[..., None] | None,
    initargs: tuple[Any, ...],
    epoch: int,
    applier: Callable[[Any], None] | None,
    heartbeat_interval: float,
    max_frame_bytes: int,
) -> None:
    """Process target of a forked local worker.

    First closes the parent-side sockets the fork copied (its own
    pair's other end, the other workers' streams, the listener), so a
    stream the parent closes reaches its worker as EOF.  Then boots
    from the inherited arguments and serves its end of the socketpair.
    """
    for other in inherited:
        other.close()
    conn = FrameConnection(sock, max_frame_bytes)
    try:
        _serve(
            conn,
            worker_id,
            heartbeat_interval,
            None,
            [0],
            boot=(initializer, initargs, epoch, applier),
        )
    except (WireError, OSError):
        pass  # the parent is gone: exit quietly
    finally:
        conn.close()


# -- parent side -------------------------------------------------------------


class _Worker:
    """Parent-side handle of one worker: its stream, plus its process if local."""

    __slots__ = (
        "worker_id", "conn", "host", "process", "last_seen", "chunks",
        "counted_rx",
    )

    def __init__(
        self,
        worker_id: int,
        conn: FrameConnection,
        host: str,
        process: Any = None,
    ) -> None:
        self.worker_id = worker_id
        self.conn = conn
        #: Peer host (``"local"`` for forked workers) — the circuit
        #: breaker's key, so fault history survives the fresh worker id
        #: a rejoin gets.
        self.host = host
        #: The :class:`multiprocessing.Process` of a local worker;
        #: ``None`` for TCP workers.
        self.process = process
        self.last_seen = 0.0
        #: chunk_id -> {input index: item} of result-pending pairs.
        self.chunks: dict[int, dict[int, Any]] = {}
        self.counted_rx = 0


class RemoteBackend(ExecutionBackend):
    """The worker fleet: resident workers, epoch sync, requeue, regrowth.

    Parameters
    ----------
    workers:
        Fleet width: the local workers forked at the first dispatch or
        a rebind.  A dispatch after a worker died forks replacements,
        at the parent's current epoch, back up to this width.
    max_delta_log:
        Pending-delta count beyond which a stale fleet is re-shipped
        instead of replaying the log; ``0`` re-ships after every
        mutation.
    host / port:
        Bind address of the TCP listener ``repro worker`` processes
        connect to.  ``port=None`` (default) opens no listener until
        :meth:`listen` is called and names the backend ``"pool"``; a
        port (``0`` picks a free one) opens it at the first dispatch
        and names it ``"remote"``.
    spawn_workers:
        Fork local workers.  ``False`` serves only TCP workers (and
        names the backend ``"remote"``).
    heartbeat_interval / heartbeat_timeout:
        Beacon period of the local workers, and the silence after which
        the parent declares any worker dead mid-batch.  The timeout
        must exceed the interval.
    connect_timeout:
        Seconds a TCP-only fleet (``spawn_workers=False``) waits for its
        first TCP worker before the dispatch fails with
        :class:`FleetLossError`.
    degraded_mode:
        ``"off"`` (default) raises :class:`FleetLossError` on total
        fleet loss; ``"serial"`` re-runs the batch in-process on the
        parent's own state — bit-identical results, no parallelism,
        counted as ``pool_degraded_dispatches``.
    breaker_threshold / breaker_cooldown:
        Per-host circuit breaker over TCP workers: after
        ``breaker_threshold`` consecutive faults from one host, its
        reconnecting workers wait ``breaker_cooldown`` seconds (default
        the heartbeat interval), then one probe is admitted.  ``0``
        disables it; it never refuses the last admissible worker.
    fingerprint:
        Config fingerprint offered in WELCOME frames and checked against
        each HELLO.
    max_frame_bytes:
        Per-frame payload ceiling on every stream.
    metrics:
        Registry of the ``pool_*`` counters, the ``pool_batch_ms``
        histogram and the merged worker deltas (labelled
        ``worker="N"``).  Defaults to a fresh registry.  The series are
        per registry, not per fleet: fleets sharing one registry add
        into the same counters.
    clock:
        Monotonic time source (injectable for tests): heartbeat
        silence, the circuit breaker and the connect wait.

    The resident state is bound by the first dispatch's ``initializer``
    and ``initargs``.  A later dispatch with a different initializer or
    initargs tuple (compared by identity) rebinds: local workers are
    re-forked and TCP workers re-booted, so one backend can serve two
    state owners in turn (two services sharing one fleet hand it over
    this way).
    """

    requires_pickling = True

    def __init__(
        self,
        workers: int | None = None,
        max_delta_log: int = DEFAULT_MAX_DELTA_LOG,
        host: str = "127.0.0.1",
        port: int | None = None,
        spawn_workers: bool = True,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        degraded_mode: str = "off",
        breaker_threshold: int = 3,
        breaker_cooldown: float | None = None,
        fingerprint: str | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(workers)
        if max_delta_log < 0:
            raise ConfigurationError("max_delta_log must be >= 0")
        if heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")
        if heartbeat_timeout <= heartbeat_interval:
            raise ConfigurationError(
                f"heartbeat_timeout ({heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({heartbeat_interval}); a timeout "
                f"inside one beacon period declares healthy workers dead"
            )
        if connect_timeout <= 0:
            raise ConfigurationError("connect_timeout must be positive")
        if degraded_mode not in DEGRADED_MODES:
            raise ConfigurationError(
                f"unknown degraded_mode {degraded_mode!r}; "
                f"expected one of {DEGRADED_MODES}"
            )
        #: ``"pool"`` for a local-only fleet, ``"remote"`` when the
        #: fleet takes TCP workers (the CLI/config spelling).
        self.name = "remote" if port is not None or not spawn_workers else "pool"
        self.max_delta_log = max_delta_log
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout
        self.degraded_mode = degraded_mode
        self.fingerprint = fingerprint
        self.max_frame_bytes = max_frame_bytes
        self._clock = clock or time.monotonic
        self._breaker = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown=(
                breaker_cooldown
                if breaker_cooldown is not None
                else heartbeat_interval
            ),
            clock=self._clock,
        )
        #: Peer hosts that have ever faulted — a reconnect from one of
        #: these is a rejoin, not a first join.
        self._faulted_hosts: set[str] = set()
        # Degraded-mode cache: which (initializer, initargs, epoch) the
        # parent last ran in-line, so serial fallbacks only rebuild
        # parent-resident state when it is actually stale.
        self._degraded_init: Callable[..., None] | None = None
        self._degraded_initargs: tuple[Any, ...] = ()
        self._degraded_epoch = -1
        self._chunk_seq = 0
        methods = multiprocessing.get_all_start_methods()
        # fork keeps local boots cheap: the initializer arguments are
        # inherited through the fork snapshot, never pickled — which is
        # also what lets a mid-stream spawn see the current epoch.
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        # _lock guards protocol state (shared with the accept thread;
        # _cond signals new pending workers); _dispatch_lock serialises
        # whole batches (dispatch + collection).
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._dispatch_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._pending: list[_Worker] = []
        self._workers: list[_Worker] = []
        self._next_worker_id = 0
        self._bound_init: Callable[..., None] | None = None
        self._bound_initargs: tuple[Any, ...] = ()
        self._applier: Callable[[Any], None] | None = None
        self._applier_init: Callable[..., None] | None = None
        # The applier the *live workers* booted with.  Broadcast is
        # only sound while this matches the parent's current binding —
        # an applier bound (or re-bound) after boot forces a re-ship.
        self._fleet_applier: Callable[[Any], None] | None = None
        self._epoch = 0
        self._fleet_epoch = -1
        self._deltas: list[tuple[int, Any]] = []
        self._log_complete = True
        self._booted = False
        # Pickled size of the bound initargs, cached per binding.
        self._initargs_size_cache: tuple[tuple[Any, ...], int] | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(f"pool_{name}") for name in _COUNTERS
        }
        self._registry_latency = self.metrics.histogram("pool_batch_ms")

    # -- listener / handshake ------------------------------------------------

    def listen(self) -> tuple[str, int]:
        """Start the TCP listener (idempotent); returns ``(host, port)``.

        The CLI's ``serve --listen`` front end calls this to print the
        address external ``repro worker`` processes connect to.
        """
        with self._lock:
            self._ensure_listener()
            assert self._listener is not None
            return self._listener.getsockname()[:2]

    @property
    def address(self) -> tuple[str, int] | None:
        """``(host, port)`` of the live listener, or ``None``."""
        with self._lock:
            if self._listener is None:
                return None
            return self._listener.getsockname()[:2]

    def _ensure_listener(self) -> None:
        """Bind the listener and start the accept thread (under _lock)."""
        if self._listener is not None:
            return
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port or 0))
        listener.listen(128)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(listener,),
            name="repro-fleet-accept",
            daemon=True,
        )
        self._accept_thread.start()

    def _accept_loop(self, listener: socket.socket) -> None:
        """Admit connecting workers: handshake, then park them as pending."""
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:  # listener closed: shutdown
                return
            try:
                self._handshake(sock)
            except Exception:  # never let one bad client kill admission
                try:
                    sock.close()
                except OSError:
                    pass

    def _handshake(self, sock: socket.socket) -> None:
        """Validate one connecting worker's HELLO and park it as pending."""
        conn = FrameConnection(sock, self.max_frame_bytes)
        try:
            hello = conn.recv(timeout=_HANDSHAKE_TIMEOUT_SECONDS)
        except (WireError, TimeoutError, OSError):
            hello = None
        if not isinstance(hello, Hello):
            self._counters["handshake_rejects"].inc()
            conn.close()
            return
        if (
            self.fingerprint is not None
            and hello.fingerprint is not None
            and hello.fingerprint != self.fingerprint
        ):
            self._counters["handshake_rejects"].inc()
            try:
                conn.send(
                    Fault(
                        f"config fingerprint mismatch: worker expects "
                        f"{hello.fingerprint}, this parent serves "
                        f"{self.fingerprint}",
                        details={
                            "expected": hello.fingerprint,
                            "serving": self.fingerprint,
                        },
                    )
                )
            except (WireError, OSError):
                pass
            conn.close()
            return
        # The breaker keys on the bare peer host (ephemeral source
        # ports change every reconnect, worker ids are never reused).
        host = conn.peer.rsplit(":", 1)[0]
        # WELCOME goes out under the lock that parks the worker, so a
        # worker holding its WELCOME is already pending: the very next
        # dispatch boots it, and no BOOT can overtake the WELCOME.
        with self._cond:
            worker = _Worker(self._next_worker_id, conn, host=host)
            self._next_worker_id += 1
            try:
                self._send(
                    worker,
                    Welcome(
                        worker_id=worker.worker_id,
                        fingerprint=self.fingerprint,
                    ),
                )
            except (WireError, OSError):
                conn.close()
                return
            if host in self._faulted_hosts:
                self._counters["rejoins"].inc()
            self._pending.append(worker)
            self._cond.notify_all()

    # -- state registration --------------------------------------------------

    def bind_delta_applier(
        self,
        applier: Callable[[Any], None],
        initializer: Callable[..., None],
    ) -> None:
        """Register the worker-side mutation applier for delta sync.

        ``applier`` must be a module-level (picklable) function that
        applies one delta payload to the resident state built by
        ``initializer``.  Deltas are only broadcast while the fleet is
        bound to that same initializer; any other resident state is
        re-shipped instead.
        """
        with self._lock:
            self._applier = applier
            self._applier_init = initializer

    def notify_state_change(self, delta: Any = None) -> int:
        """Record one mutation of the state behind the resident copies.

        ``delta`` is an opaque, picklable description of the mutation
        (broadcast to and replayed by every live worker before its next
        task).  ``None`` means the change cannot be described as a
        delta — the next dispatch re-ships the full state.  Returns the
        new epoch.
        """
        with self._lock:
            self._epoch += 1
            if delta is not None:
                self._deltas.append((self._epoch, delta))
            else:
                # An undescribed mutation poisons the log: replaying
                # the surviving entries would skip this change.
                self._deltas.clear()
                self._log_complete = False
            return self._epoch

    # -- introspection -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The parent-side state epoch (mutations seen so far)."""
        with self._lock:
            return self._epoch

    @property
    def resident_epoch(self) -> int:
        """Epoch every live worker is guaranteed to have reached.

        Advances at each re-ship and broadcast (-1 before the first
        dispatch).  FIFO streams make advancing at broadcast time
        sound: no worker can run a later task without first reading
        the SYNC frame written ahead of it.
        """
        with self._lock:
            return self._fleet_epoch

    @property
    def restarts(self) -> int:
        """Full re-ships (rebinds and overflowed delta logs) counted in
        :attr:`metrics` — by every fleet sharing that registry."""
        return int(self._counters["restarts"].value)

    @property
    def pending_deltas(self) -> int:
        """Logged mutations not yet broadcast to the fleet."""
        with self._lock:
            return len(self._deltas)

    @property
    def live_workers(self) -> int:
        """Booted workers (local and TCP) currently serving tasks."""
        with self._lock:
            return len(self._workers)

    def pool_stats(self) -> dict[str, Any]:
        """Operational counters for service/CLI statistics output.

        Every ``pool_*`` counter under its bare name — re-ships
        (``restarts``), broadcasts and their O(workers) control-plane
        volume (``delta_syncs``, ``sync_messages``, ``sync_bytes``),
        state-ship cost (``bootstrap_bytes``), frame traffic, heartbeats
        and the fault paths (requeues, dead workers, torn frames,
        handshake rejects, rejoins, breaker deferrals, degraded
        dispatches, deadline aborts, stale results) — plus the epochs
        and the live and pending widths.

        The counters are read from :attr:`metrics`, so they are per
        registry, not per fleet: fleets sharing a registry report each
        other's re-ships and faults.  The epochs and widths are this
        fleet's own.
        """
        with self._lock:
            stats: dict[str, Any] = {
                name: int(counter.value)
                for name, counter in self._counters.items()
            }
            stats.update(
                epoch=self._epoch,
                resident_epoch=self._fleet_epoch,
                pending_deltas=len(self._deltas),
                address=(
                    list(self._listener.getsockname()[:2])
                    if self._listener is not None
                    else None
                ),
                live_workers=len(self._workers),
                pending_workers=len(self._pending),
                heartbeat_interval=self.heartbeat_interval,
                heartbeat_timeout=self.heartbeat_timeout,
                connect_timeout=self.connect_timeout,
                degraded_mode=self.degraded_mode,
            )
            return stats

    # -- local workers -------------------------------------------------------

    def _local_workers(self) -> list[_Worker]:
        return [worker for worker in self._workers if worker.process is not None]

    def _spawn_local(self) -> None:
        """Fork one local worker at the parent's current epoch (under _lock).

        The child inherits the bound initializer, initargs and the
        fleet's applier through the fork snapshot — never the parent's
        possibly newer applier binding, which would break the
        broadcast soundness argument.
        """
        parent_end, child_end = socket.socketpair()
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        inherited: list[Any] = [parent_end] + [
            worker.conn for worker in self._workers + self._pending
        ]
        if self._listener is not None:
            inherited.append(self._listener)
        process = self._context.Process(
            target=_local_worker_main,
            args=(
                child_end,
                inherited,
                worker_id,
                self._bound_init,
                self._bound_initargs,
                self._epoch,
                self._fleet_applier,
                self.heartbeat_interval,
                self.max_frame_bytes,
            ),
            daemon=True,
        )
        process.start()
        child_end.close()
        self._counters["bootstrap_bytes"].inc(self._initargs_bytes())
        worker = _Worker(
            worker_id,
            FrameConnection(parent_end, self.max_frame_bytes),
            host="local",
            process=process,
        )
        worker.last_seen = self._clock()
        self._workers.append(worker)

    def _initargs_bytes(self) -> int:
        """Pickled size of the bound initargs — the per-worker ship cost.

        Local workers inherit the state through fork; this models what
        each spawn *would* ship as a BOOT frame, the number the mmap'd
        spill bootstrap (tiny initargs, state mapped from disk) is
        measured against.  Unpicklable initargs count as 0.
        """
        cached = self._initargs_size_cache
        if cached is not None and _same_elements(cached[0], self._bound_initargs):
            return cached[1]
        try:
            size = len(pickle.dumps(self._bound_initargs))
        except Exception:
            size = 0
        self._initargs_size_cache = (self._bound_initargs, size)
        return size

    def _stop_workers(self, workers: list[_Worker]) -> None:
        """Send STOP to ``workers``, close their streams, join local processes.

        Every join is time-bounded: a local worker that ignores STOP is
        driven through :func:`join_with_escalation`'s terminate → kill
        ladder, counted as ``pool_forced_stops``.
        """
        for worker in workers:
            try:
                worker.conn.send(Stop())
            except (WireError, OSError):
                pass
            worker.conn.close()
        for worker in workers:
            if worker.process is not None and join_with_escalation(
                worker.process
            ):
                self._counters["forced_stops"].inc()

    # -- fleet preparation ---------------------------------------------------

    def _send(self, worker: _Worker, message: Any) -> int:
        """Write one message (or encoded frame) to ``worker``, counting traffic."""
        if isinstance(message, bytes):
            sent = worker.conn.send_frame(message)
        else:
            sent = worker.conn.send(message)
        self._counters["frames_sent"].inc()
        self._counters["bytes_sent"].inc(sent)
        return sent

    def _send_boot(self, worker: _Worker) -> bool:
        """Ship the bound state to one TCP worker as a BOOT frame (under _lock)."""
        boot = Boot(
            initializer=self._bound_init,
            initargs=self._bound_initargs,
            epoch=self._epoch,
            applier=self._fleet_applier,
        )
        try:
            sent = self._send(worker, boot)
        except (WireError, OSError):
            return False
        self._counters["bootstrap_bytes"].inc(sent)
        worker.last_seen = self._clock()
        return True

    def _discard_worker(self, worker: _Worker) -> None:
        """Drop a live worker outside a batch (no chunks to requeue)."""
        if worker in self._workers:
            self._workers.remove(worker)
        self._reap(worker)
        self._counters["dead_workers"].inc()

    def _reap(self, worker: _Worker) -> None:
        """Close a dead worker's stream and reap its process, if local."""
        worker.conn.close()
        if worker.process is not None:
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=_JOIN_TIMEOUT_SECONDS)

    def _restart(
        self,
        initializer: Callable[..., None] | None,
        initargs: tuple[Any, ...],
    ) -> None:
        """Full re-ship at the current epoch (under _lock).

        Local workers are stopped and re-forked from the new binding by
        :meth:`_prepare_dispatch`; TCP workers are re-booted in place.
        """
        local = self._local_workers()
        for worker in local:
            self._workers.remove(worker)
        self._stop_workers(local)
        self._bound_init = initializer
        self._bound_initargs = initargs
        self._fleet_applier = (
            self._applier if initializer is self._applier_init else None
        )
        self._booted = True
        self._counters["restarts"].inc()
        for worker in list(self._workers):
            if not self._send_boot(worker):
                self._discard_worker(worker)

    def _broadcast_sync(self) -> None:
        """Fan the pending delta packet out: one SYNC frame per worker.

        The packet is encoded once; after the fan-out the parent may
        clear its log, because every stream now holds the packet ahead
        of any later TASK.
        """
        frame = encode_message(
            Sync(epoch=self._epoch, entries=tuple(self._deltas)),
            self.max_frame_bytes,
        )
        for worker in list(self._workers):
            try:
                sent = self._send(worker, frame)
            except (WireError, OSError):
                self._discard_worker(worker)
                continue
            self._counters["sync_messages"].inc()
            self._counters["sync_bytes"].inc(sent)
        self._counters["delta_syncs"].inc()

    def _can_delta_sync(self, initializer: Callable[..., None] | None) -> bool:
        if not self._log_complete or self._applier is None:
            return False
        # The live workers must have booted with this applier: one bound
        # (or re-bound) after boot could not replay the packet.
        if initializer is not self._applier_init:
            return False
        if self._applier is not self._fleet_applier:
            return False
        return len(self._deltas) <= self.max_delta_log

    def _admit_pending(self) -> None:
        """Boot parked TCP workers into the live fleet (under _lock).

        A worker from a host whose circuit is open stays parked
        (counted as ``pool_breaker_deferrals``) — unless admitting
        open-circuit hosts is the only way to have a fleet at all: the
        breaker sheds suspect peers, it never refuses the last hope.
        """
        deferred: list[_Worker] = []
        while self._pending:
            worker = self._pending.pop(0)
            if not self._breaker.allow(worker.host):
                self._counters["breaker_deferrals"].inc()
                deferred.append(worker)
                continue
            self._boot_pending(worker)
        while deferred and not self._workers:
            self._boot_pending(deferred.pop(0))
        self._pending.extend(deferred)

    def _boot_pending(self, worker: _Worker) -> None:
        """Boot one parked TCP worker into the live fleet (under _lock)."""
        if self._send_boot(worker):
            self._workers.append(worker)
        else:
            worker.conn.close()

    def _await_tcp_workers(self) -> None:
        """Wait for a first TCP worker when no local ones exist (under _lock)."""
        deadline = self._clock() + self.connect_timeout
        while not self._workers and not self._pending:
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise FleetLossError(
                    f"no remote workers connected within "
                    f"{self.connect_timeout:.0f}s (listener "
                    f"{self.address}); start workers with "
                    f"'repro worker --connect HOST:PORT'"
                )
            self._cond.wait(timeout=min(remaining, 0.25))

    def _prepare_dispatch(
        self,
        initializer: Callable[..., None] | None,
        initargs: tuple[Any, ...],
    ) -> tuple[list[_Worker], int]:
        """Bring the fleet to the current epoch; returns (workers, epoch).

        Must run under :attr:`_lock`.  Order matters: drop the local
        workers that died since the last batch (they get no packet),
        re-ship or broadcast (stale workers get the packet), then fork
        up to ``workers`` and admit (new workers boot at the current
        epoch and need none).
        """
        for worker in self._local_workers():
            if not worker.process.is_alive():
                self._discard_worker(worker)
        if self.port is not None or not self.spawn_workers:
            self._ensure_listener()
        rebind = (
            not self._booted
            or initializer is not self._bound_init
            or not _same_elements(initargs, self._bound_initargs)
        )
        stale = self._epoch > self._fleet_epoch
        if rebind or (stale and not self._can_delta_sync(initializer)):
            self._restart(initializer, initargs)
        elif stale:
            self._broadcast_sync()
        self._fleet_epoch = self._epoch
        self._deltas.clear()
        self._log_complete = True
        if self.spawn_workers:
            # Boot, a rebind or a death leaves fewer than ``workers``.
            for _ in range(self.workers - len(self._local_workers())):
                self._spawn_local()
        elif not self._workers:
            self._await_tcp_workers()
        self._admit_pending()
        if not self._workers:
            raise FleetLossError(
                "worker fleet has no live workers after fleet preparation"
            )
        now = self._clock()
        for worker in self._workers:
            worker.last_seen = now
        return list(self._workers), self._fleet_epoch

    # -- dispatch ------------------------------------------------------------

    def map_items(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        deadline: Deadline | None = None,
    ) -> list[R]:
        """``[fn(item) for item in items]`` on the fleet.

        Tasks are split into contiguous chunks (a few per worker) and
        chunk *i* goes to live worker *i mod width*.  Results stream
        back tagged with their input index and are reordered, so output
        order and content are bit-identical to the serial backend.  A
        task exception is re-raised in the parent for the earliest
        failing item once the batch drains; a worker lost mid-batch has
        its unanswered items requeued onto the survivors.
        """
        return self._dispatch(fn, list(items), initializer, initargs, deadline)

    def _dispatch(
        self,
        fn: Callable[..., Any],
        items: list[Any],
        initializer: Callable[..., None] | None,
        initargs: tuple[Any, ...],
        deadline: Deadline | None,
    ) -> list[Any]:
        """Prepare the fleet, place ``items``, run the batch (or degrade)."""
        if not items:
            return []
        ensure_picklable(fn)
        if deadline is not None:
            deadline.check(f"dispatch of {len(items)} task item(s)")
        started = self._clock()
        with self._dispatch_lock:
            try:
                with self._lock:
                    workers, epoch = self._prepare_dispatch(
                        initializer, initargs
                    )
                chunks = chunk_evenly(
                    list(enumerate(items)),
                    min(len(items), len(workers) * _CHUNKS_PER_WORKER),
                )
                placed = [
                    (workers[position % len(workers)], chunk)
                    for position, chunk in enumerate(chunks)
                ]
                return self._run_batch(fn, placed, epoch, len(items), deadline)
            except FleetLossError:
                if self.degraded_mode != "serial":
                    raise
                return self._degraded_batch(
                    fn, items, initializer, initargs, deadline
                )
            finally:
                self._registry_latency.observe(
                    (self._clock() - started) * 1000.0
                )

    def _degraded_batch(
        self,
        fn: Callable[..., Any],
        items: Sequence[Any],
        initializer: Callable[..., None] | None,
        initargs: tuple[Any, ...],
        deadline: Deadline | None = None,
    ) -> list[Any]:
        """Serve one batch in-process after total fleet loss.

        The serial fallback runs ``fn`` on the parent's own resident
        state, so results are bit-identical to the serial backend (and
        to what the fleet would have produced) — the price is losing
        parallelism, not correctness.  The worker initializer (already
        required to be idempotent by the re-ship contract) reruns in
        the parent only when the bound state or epoch changed since the
        last degraded run; the whole batch is recomputed even if the
        fleet answered part of it before dying, which is safe because
        task functions are pure.  The batch also marks the calling
        context (:func:`~repro.resilience.mark_degraded`), so the
        request server flags exactly the response this batch served.
        """
        self._counters["degraded_dispatches"].inc()
        mark_degraded()
        with self._lock:
            epoch = self._epoch
            stale = (
                initializer is not self._degraded_init
                or not _same_elements(initargs, self._degraded_initargs)
                or epoch != self._degraded_epoch
            )
        if stale and initializer is not None:
            initializer(*initargs)
        with self._lock:
            self._degraded_init = initializer
            self._degraded_initargs = initargs
            self._degraded_epoch = epoch
        results: list[Any] = []
        for position, item in enumerate(items):
            if deadline is not None:
                deadline.check(f"degraded serial task {position}")
            results.append(fn(item))
        return results

    def _run_batch(
        self,
        fn: Callable[..., Any],
        placed: list[tuple[_Worker, list[tuple[int, Any]]]],
        epoch: int,
        expected: int,
        deadline: Deadline | None = None,
    ) -> list[Any]:
        """Encode, send and collect one batch (under _dispatch_lock).

        Every TASK frame is encoded before any is sent, so an
        unpicklable item surfaces as an error with nothing dispatched.
        Chunk ids are globally monotonic, never per-batch: a result
        that straggles in after its batch was abandoned (deadline
        abort) can never alias a chunk of the next batch.
        """
        with self._lock:
            sends: list[tuple[_Worker, int, list[tuple[int, Any]]]] = []
            for worker, pairs in placed:
                sends.append((worker, self._chunk_seq, pairs))
                self._chunk_seq += 1
        try:
            frames = [
                encode_message(
                    Task(chunk_id=chunk_id, fn=fn, pairs=tuple(pairs), epoch=epoch),
                    self.max_frame_bytes,
                )
                for _worker, chunk_id, pairs in sends
            ]
        except WireError as exc:
            raise ExecutionError(
                f"worker fleet requires picklable task items; cannot "
                f"serialise a chunk for {fn!r}: {exc}"
            ) from exc
        with self._lock:
            for worker, chunk_id, pairs in sends:
                worker.chunks[chunk_id] = dict(pairs)
        failed: list[_Worker] = []
        for (worker, _chunk_id, _pairs), frame in zip(sends, frames):
            if worker in failed:
                continue  # its chunks requeue through the failure path
            try:
                self._send(worker, frame)
            except (WireError, OSError):
                failed.append(worker)
        values: dict[int, Any] = {}
        failures: dict[int, tuple[bytes | None, str, str]] = {}
        try:
            self._collect(fn, expected, epoch, values, failures, failed, deadline)
        finally:
            with self._lock:
                for worker in self._workers:
                    worker.chunks.clear()
        with self._lock:
            for worker in self._workers:
                self._breaker.record_success(worker.host)
        if failures:
            index = min(failures)
            exc_bytes, summary, tb = failures[index]
            original: BaseException | None = None
            if exc_bytes is not None:
                try:
                    loaded = pickle.loads(exc_bytes)
                except Exception:  # pragma: no cover - defensive
                    loaded = None
                if isinstance(loaded, BaseException):
                    original = loaded
            if original is not None:
                # Keep the original exception type (callers catch it),
                # chaining the worker-side stack so the failure's
                # origin is not lost at the process boundary.
                raise original from ExecutionError(
                    f"task {fn!r} failed in a worker process; "
                    f"worker traceback:\n{tb}"
                )
            raise ExecutionError(
                f"task {fn!r} failed with an unpicklable exception "
                f"{summary}; worker traceback:\n{tb}"
            )
        return [values[index] for index in range(expected)]

    def _collect(
        self,
        fn: Callable[..., Any],
        expected: int,
        epoch: int,
        values: dict[int, Any],
        failures: dict[int, tuple[bytes | None, str, str]],
        initially_failed: list[_Worker],
        deadline: Deadline | None = None,
    ) -> None:
        """Drain results, policing liveness and requeuing onto survivors.

        A ``deadline`` is checked between selector rounds, never inside
        one: an aborted batch leaves no half-recorded results, and any
        straggler frames from its abandoned chunks are dropped as stale
        by :meth:`_handle_message` in later batches.
        """
        selector = selectors.DefaultSelector()
        with self._lock:
            for worker in self._workers:
                selector.register(worker.conn, selectors.EVENT_READ, worker)

        def fail(worker: _Worker, reason: str) -> None:
            self._fail_worker(
                worker, reason, fn, epoch, selector, values, failures
            )

        try:
            for worker in initially_failed:
                fail(worker, "send failed at dispatch")
            while len(values) + len(failures) < expected:
                if deadline is not None and deadline.expired():
                    self._counters["deadline_aborts"].inc()
                    deadline.check(
                        f"batch for {fn!r} "
                        f"({expected - len(values) - len(failures)} of "
                        f"{expected} task item(s) unanswered)"
                    )
                events = selector.select(timeout=_RESULT_POLL_SECONDS)
                now = self._clock()
                for key, _mask in events:
                    worker = key.data
                    try:
                        messages, eof = worker.conn.poll()
                    except TruncatedFrameError as exc:
                        self._counters["torn_frames"].inc()
                        fail(worker, f"torn frame: {exc}")
                        continue
                    except WireError as exc:
                        fail(worker, f"wire fault: {exc}")
                        continue
                    worker.last_seen = now
                    rx = worker.conn.bytes_received
                    self._counters["bytes_received"].inc(rx - worker.counted_rx)
                    worker.counted_rx = rx
                    self._counters["frames_received"].inc(len(messages))
                    for message in messages:
                        self._handle_message(worker, message, values, failures)
                    if eof:
                        fail(worker, "connection closed")
                if len(values) + len(failures) >= expected:
                    return
                silence_cutoff = self._clock() - self.heartbeat_timeout
                with self._lock:
                    silent = [
                        worker
                        for worker in self._workers
                        if worker.last_seen < silence_cutoff
                    ]
                for worker in silent:
                    fail(
                        worker,
                        f"no heartbeat for {self.heartbeat_timeout:.1f}s "
                        f"(partitioned or hung)",
                    )
        finally:
            selector.close()

    def _handle_message(
        self,
        worker: _Worker,
        message: Any,
        values: dict[int, Any],
        failures: dict[int, tuple[bytes | None, str, str]],
    ) -> None:
        """Process one frame from a live worker during collection.

        Result frames may carry a piggybacked worker metrics delta; it
        is merged into the registry under a ``worker="N"`` label — a
        worker that dies mid-batch loses only its undelivered delta.
        """
        if isinstance(message, TaskResult):
            chunk = worker.chunks.get(message.chunk_id)
            if chunk is not None:
                chunk.pop(message.index, None)
                if not chunk:
                    del worker.chunks[message.chunk_id]
                if (
                    message.index not in values
                    and message.index not in failures
                ):
                    if message.ok:
                        values[message.index] = message.value
                    else:
                        failures[message.index] = (
                            message.exc_bytes,
                            message.summary,
                            message.traceback,
                        )
            else:
                # A straggler from an abandoned batch (deadline abort):
                # chunk ids are globally monotonic, so it can't alias a
                # live chunk — count it, keep only its metrics delta.
                self._counters["stale_results"].inc()
            if message.delta is not None:
                worker_id, payload = message.delta
                self.metrics.merge_delta(
                    payload, extra_labels={"worker": str(worker_id)}
                )
        elif isinstance(message, Heartbeat):
            self._counters["heartbeats"].inc()
        # Any other frame type from a worker is unexpected but harmless
        # liveness; decode_message already rejected malformed payloads.

    def _fail_worker(
        self,
        worker: _Worker,
        reason: str,
        fn: Callable[..., Any],
        epoch: int,
        selector: selectors.BaseSelector,
        values: dict[int, Any],
        failures: dict[int, tuple[bytes | None, str, str]],
    ) -> None:
        """Declare ``worker`` dead mid-batch and requeue its task items.

        The dead worker leaves the fleet (a local one is killed if still
        running, and reaped), its in-flight chunks go round-robin (by
        their new chunk id) onto the survivors, and the unanswered pairs
        are re-sent at the same epoch — survivors share the broadcast
        state, so requeued results are bit-identical.  With no
        survivors left the batch fails loudly with
        :class:`FleetLossError` (which degraded mode may absorb).
        """
        with self._lock:
            if worker not in self._workers:
                return
            self._workers.remove(worker)
            self._breaker.record_failure(worker.host)
            self._faulted_hosts.add(worker.host)
        try:
            selector.unregister(worker.conn)
        except (KeyError, ValueError):
            pass
        self._reap(worker)
        self._counters["dead_workers"].inc()
        queue = list(worker.chunks.values())
        worker.chunks.clear()
        while queue:
            chunk = queue.pop(0)
            remaining = [
                (index, item)
                for index, item in chunk.items()
                if index not in values and index not in failures
            ]
            if not remaining:
                continue
            with self._lock:
                if not self._workers:
                    raise FleetLossError(
                        f"worker {worker.worker_id} died mid-batch "
                        f"({reason}) and no workers survive to requeue "
                        f"task items for {fn!r}"
                    )
                chunk_id = self._chunk_seq
                self._chunk_seq += 1
                target = self._workers[chunk_id % len(self._workers)]
                requeued = dict(remaining)
                target.chunks[chunk_id] = requeued
            try:
                self._send(
                    target,
                    Task(
                        chunk_id=chunk_id,
                        fn=fn,
                        pairs=tuple(remaining),
                        epoch=epoch,
                    ),
                )
            except (WireError, OSError):
                # The survivor died while absorbing the requeue: recurse
                # through the same failure path (its own chunks included).
                self._fail_worker(
                    target, "send failed during requeue", fn, epoch,
                    selector, values, failures,
                )
                queue.append(requeued)
                continue
            self._counters["requeues"].inc(len(remaining))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker, the listener and the accept thread (idempotent).

        A closed backend starts a fresh fleet on its next dispatch.
        """
        with self._dispatch_lock:
            with self._lock:
                workers = self._workers + self._pending
                self._workers = []
                self._pending = []
                listener, self._listener = self._listener, None
                accept_thread, self._accept_thread = self._accept_thread, None
                self._booted = False
                self._fleet_epoch = -1
                self._bound_init = None
                self._bound_initargs = ()
            if listener is not None:
                # close() alone does not wake a thread blocked in
                # accept(); shutdown() does, so the join below is quick.
                try:
                    listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                listener.close()
            self._stop_workers(workers)
        if accept_thread is not None:
            accept_thread.join(timeout=_JOIN_TIMEOUT_SECONDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteBackend(name={self.name!r}, workers={self.workers}, "
            f"address={self.address}, live={self.live_workers})"
        )
