"""repro.resilience — failure policies for the distributed stack.

The policy layer the remote/pool/serving stack shares instead of
hard-coding failure behaviour per site:

* :class:`~repro.resilience.policy.RetryPolicy` — bounded attempts,
  exponential backoff, deterministic jitter (injectable clock/rng).
  Drives worker rejoin and the pool's stop escalation.
* :class:`~repro.resilience.policy.Deadline` — an end-to-end time
  budget threaded from the JSONL front end through
  ``recommend_many`` into backend dispatch; raises the typed
  :class:`~repro.exceptions.DeadlineExceeded`.
* :class:`~repro.resilience.policy.CircuitBreaker` — per-worker-host
  fault accounting with half-open probes before re-admission.
* :class:`~repro.resilience.faults.FaultPlan` /
  :class:`~repro.resilience.faults.FaultInjector` — scripted,
  deterministic fault injection for the chaos suite (drop/tear the
  Nth frame, delay heartbeats, die after task M).

``docs/RESILIENCE.md`` has the cross-layer picture: how the policies
compose with the worker fleet's requeue, rejoin and degraded-mode
serving.
"""

from ..exceptions import DeadlineExceeded
from .faults import FaultInjector, FaultPlan
from .policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
]
