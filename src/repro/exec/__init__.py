"""repro.exec — the execution substrate shared by every compute layer.

One abstraction (:class:`~repro.exec.backends.ExecutionBackend`) with
four backend names — serial, thread, pool, remote — used by the
MapReduce engine, the similarity batch builds, the neighbour index, the
serving batch API and the evaluation grids.  All backends produce
bit-identical results; they differ only in wall-clock and in how state
reaches the workers.  ``"pool"`` and ``"remote"`` are one class,
:class:`~repro.exec.remote.RemoteBackend`: resident worker processes
speaking the frames of :mod:`repro.exec.wire`, with broadcast epoch
sync, heartbeats, dead-peer requeue and autoscaling
(``docs/ARCHITECTURE.md`` has the cross-layer picture).
"""

from .backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    backend_scope,
    chunk_evenly,
    default_workers,
    ensure_picklable,
    get_backend,
    resolve_backend,
)
from .pool import PoolBackend
from .remote import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_IDLE_TTL,
    DEFAULT_MAX_DELTA_LOG,
    DEGRADED_MODES,
    FleetLossError,
    HashRing,
    RemoteBackend,
    run_worker,
)
from .wire import PeerDisconnected, TruncatedFrameError, WireError

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_CONNECT_TIMEOUT",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DEFAULT_IDLE_TTL",
    "DEFAULT_MAX_DELTA_LOG",
    "DEGRADED_MODES",
    "ExecutionBackend",
    "FleetLossError",
    "HashRing",
    "PeerDisconnected",
    "PoolBackend",
    "RemoteBackend",
    "SerialBackend",
    "ThreadBackend",
    "TruncatedFrameError",
    "WireError",
    "backend_scope",
    "chunk_evenly",
    "default_workers",
    "ensure_picklable",
    "get_backend",
    "resolve_backend",
    "run_worker",
]
