"""Failure policies: bounded retries, time budgets, circuit breakers.

Three small, deterministic policy objects that the distributed stack
wires through its failure paths instead of hard-coding behaviour at
each site:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic* jitter: randomness comes only from an injected
  ``random.Random``, the clock only from an injected callable, so every
  retry schedule is replayable in tests.
* :class:`Deadline` — an absolute point in time a request must finish
  by, threaded from the JSONL front end through
  ``RecommendationService.recommend_many`` down to backend dispatch.
  Checks raise the typed
  :class:`~repro.exceptions.DeadlineExceeded`; dispatch loops check
  *between* tasks, so a timed-out batch never leaves half-recorded
  results.
* :class:`CircuitBreaker` — per-key (per-worker-host) failure
  accounting: ``threshold`` consecutive faults open the circuit, a
  ``cooldown`` later one half-open probe is admitted, and its outcome
  closes or re-opens the circuit.

Beside them, :func:`mark_degraded` / :func:`degraded_scope` carry the
"served without the fleet" signal from a degraded dispatch to the
response of the request that caused it, through a context variable.

None of these objects perform I/O or sleep on their own — callers own
the waiting (``RetryPolicy.call`` takes an injectable ``sleep``), which
keeps the policies trivially testable with fake clocks.
"""

from __future__ import annotations

import contextvars
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..exceptions import ConfigurationError, DeadlineExceeded

#: Circuit states reported by :meth:`CircuitBreaker.state`.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``delay(attempt)`` is the pause *after* failed attempt number
    ``attempt`` (1-based): ``base_delay * multiplier**(attempt-1)``,
    clamped to ``max_delay``.  With ``jitter > 0`` the delay is scaled
    by a factor drawn uniformly from ``[1-jitter, 1+jitter]`` — but
    only from an explicitly injected ``random.Random``, so two runs
    with the same seed produce the same schedule.

    The policy is a frozen dataclass: picklable (it crosses the fork
    boundary into spawned remote workers) and safely shared.

    >>> policy = RetryPolicy(max_attempts=3, base_delay=0.1, multiplier=2.0)
    >>> [round(policy.delay(n), 2) for n in policy.attempts()]
    [0.1, 0.2, 0.4]
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ConfigurationError("base_delay must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1.0")
        if self.max_delay < self.base_delay:
            raise ConfigurationError(
                f"max_delay ({self.max_delay}) must be >= base_delay "
                f"({self.base_delay})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must lie in [0, 1)")

    def attempts(self) -> Iterator[int]:
        """Yield the 1-based attempt numbers: ``1 .. max_attempts``."""
        return iter(range(1, self.max_attempts + 1))

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff (seconds) after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError("attempt numbers are 1-based")
        raw = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if self.jitter and rng is not None:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)

    def call(
        self,
        fn: Callable[[], Any],
        *,
        retry_on: tuple[type[BaseException], ...] = (Exception,),
        sleep: Callable[[float], Any] = time.sleep,
        rng: random.Random | None = None,
    ) -> Any:
        """Run ``fn`` under this policy; re-raise its last failure.

        ``retry_on`` names the retriable exception types — anything
        else propagates immediately.  ``sleep`` is injectable so tests
        (and callers with cancellation events) control the waiting.
        """
        last: BaseException | None = None
        for attempt in self.attempts():
            try:
                return fn()
            except retry_on as exc:
                last = exc
                if attempt < self.max_attempts:
                    sleep(self.delay(attempt, rng))
        assert last is not None
        raise last


class Deadline:
    """An absolute completion time carried through a request's layers.

    Built once at the boundary (:meth:`after`) and passed down by
    reference; every layer asks the *same* clock, so the budget is
    end-to-end, not per-layer.  ``clock`` is injectable for tests and
    defaults to :func:`time.monotonic`.
    """

    __slots__ = ("_expires_at", "_budget", "_clock")

    def __init__(
        self,
        expires_at: float,
        budget: float,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if budget <= 0:
            raise ConfigurationError("deadline budget must be positive")
        self._expires_at = expires_at
        self._budget = budget
        self._clock = clock or time.monotonic

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] | None = None
    ) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock``."""
        tick = clock or time.monotonic
        return cls(tick() + seconds, seconds, tick)

    @property
    def budget(self) -> float:
        """The original time budget, in seconds."""
        return self._budget

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self.remaining() <= 0

    def check(self, context: str) -> None:
        """Raise :class:`~repro.exceptions.DeadlineExceeded` if expired.

        ``context`` names what was being attempted; it surfaces in the
        error (and the server's ``detail`` field) so a timed-out
        request says *where* the budget ran out.
        """
        remaining = self.remaining()
        if remaining <= 0:
            raise DeadlineExceeded(context, self._budget, -remaining)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(budget={self._budget:.3f}s, "
            f"remaining={self.remaining():.3f}s)"
        )


#: Whether a degraded (in-process fallback) dispatch served the current
#: context since the innermost :func:`degraded_scope` opened.
_DEGRADED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_degraded", default=False
)


def mark_degraded() -> None:
    """Record that a degraded dispatch served the calling context.

    The worker fleet's serial fallback runs in the thread that
    dispatched, so the mark lands on the request that asked for the
    work, never on a concurrent one sharing the same metrics registry.
    """
    _DEGRADED.set(True)


@contextmanager
def degraded_scope() -> Iterator[Callable[[], bool]]:
    """Open a fresh degraded mark; yields a reader of it.

    The request server wraps each executed request in one scope and
    sets the response's ``"degraded"`` flag from the reader.
    """
    token = _DEGRADED.set(False)
    try:
        yield _DEGRADED.get
    finally:
        _DEGRADED.reset(token)


class CircuitBreaker:
    """Per-key circuit breaker: open after N consecutive faults.

    Keys are arbitrary strings (the remote backend keys by worker peer
    host).  The life cycle per key:

    * **closed** — requests flow; each :meth:`record_failure` counts,
      each :meth:`record_success` resets the count.
    * **open** — ``threshold`` consecutive failures were recorded;
      :meth:`allow` answers ``False`` until ``cooldown`` seconds pass.
    * **half-open** — after the cooldown exactly one probe is admitted
      (:meth:`allow` returns ``True`` once); its
      :meth:`record_success` closes the circuit, another failure
      re-opens it for a fresh cooldown.

    ``threshold=0`` disables the breaker entirely (always allow).
    Thread-safe: the remote backend's accept thread and collect loop
    record into the same breaker.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 5.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if threshold < 0:
            raise ConfigurationError("threshold must be >= 0 (0 = disabled)")
        if cooldown <= 0:
            raise ConfigurationError("cooldown must be positive")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._failures: dict[str, int] = {}
        self._opened_at: dict[str, float] = {}
        self._probing: set[str] = set()

    def record_failure(self, key: str) -> None:
        """Count one fault against ``key`` (opens at ``threshold``)."""
        if self.threshold == 0:
            return
        with self._lock:
            if key in self._probing:
                # The half-open probe failed: re-open for a new cooldown.
                self._probing.discard(key)
                self._opened_at[key] = self._clock()
                return
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            if count >= self.threshold and key not in self._opened_at:
                self._opened_at[key] = self._clock()

    def record_success(self, key: str) -> None:
        """Reset ``key`` to closed (also resolves a half-open probe)."""
        with self._lock:
            self._failures.pop(key, None)
            self._opened_at.pop(key, None)
            self._probing.discard(key)

    def state(self, key: str) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` for ``key``."""
        with self._lock:
            if key in self._probing:
                return BREAKER_HALF_OPEN
            opened = self._opened_at.get(key)
            if opened is None:
                return BREAKER_CLOSED
            if self._clock() - opened >= self.cooldown:
                return BREAKER_HALF_OPEN
            return BREAKER_OPEN

    def allow(self, key: str) -> bool:
        """Whether a request to ``key`` may proceed right now.

        In the half-open window this admits exactly one probe; further
        calls answer ``False`` until the probe's outcome is recorded.
        """
        if self.threshold == 0:
            return True
        with self._lock:
            opened = self._opened_at.get(key)
            if opened is None:
                return True
            if key in self._probing:
                return False
            if self._clock() - opened < self.cooldown:
                return False
            self._probing.add(key)
            return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            open_keys = sorted(self._opened_at)
        return (
            f"CircuitBreaker(threshold={self.threshold}, "
            f"cooldown={self.cooldown}, open={open_keys})"
        )
