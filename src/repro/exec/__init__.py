"""repro.exec — the execution substrate shared by every compute layer.

One abstraction (:class:`~repro.exec.backends.ExecutionBackend`) with
three backend names — serial, pool, remote — used by the MapReduce
engine, the recommendation service (one backend per service, for its
index builds and batches) and the evaluation grids.  All backends
produce bit-identical results; they differ only in wall-clock and in
how state reaches the workers.  ``"pool"`` and ``"remote"`` are one
class, :class:`~repro.exec.remote.RemoteBackend`: resident worker
processes speaking the frames of :mod:`repro.exec.wire`, with
broadcast epoch sync, heartbeats, round-robin requeue after a death
and regrowth to a fixed width (``docs/ARCHITECTURE.md`` has the
cross-layer picture).
"""

from .backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    SerialBackend,
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
    DEFAULT_MAX_DELTA_LOG,
    DEGRADED_MODES,
    FleetLossError,
    RemoteBackend,
    run_worker,
)
from .wire import PeerDisconnected, TruncatedFrameError, WireError

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_CONNECT_TIMEOUT",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DEFAULT_MAX_DELTA_LOG",
    "DEGRADED_MODES",
    "ExecutionBackend",
    "FleetLossError",
    "PeerDisconnected",
    "PoolBackend",
    "RemoteBackend",
    "SerialBackend",
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
