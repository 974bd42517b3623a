"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses exist for
the main failure categories (unknown entities, invalid ratings, empty
inputs, configuration problems, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class UnknownUserError(ReproError, KeyError):
    """Raised when a user id is not present in a registry or matrix."""

    def __init__(self, user_id: str) -> None:
        super().__init__(f"unknown user: {user_id!r}")
        self.user_id = user_id


class UnknownItemError(ReproError, KeyError):
    """Raised when an item id is not present in a catalog or matrix."""

    def __init__(self, item_id: str) -> None:
        super().__init__(f"unknown item: {item_id!r}")
        self.item_id = item_id


class UnknownConceptError(ReproError, KeyError):
    """Raised when an ontology concept id cannot be resolved."""

    def __init__(self, concept_id: str) -> None:
        super().__init__(f"unknown ontology concept: {concept_id!r}")
        self.concept_id = concept_id


class InvalidRatingError(ReproError, ValueError):
    """Raised when a rating falls outside the allowed scale."""

    def __init__(self, value: float, low: float, high: float) -> None:
        super().__init__(
            f"rating {value!r} outside the allowed scale [{low}, {high}]"
        )
        self.value = value
        self.low = low
        self.high = high


class EmptyGroupError(ReproError, ValueError):
    """Raised when a caregiver group contains no members."""


class InsufficientCandidatesError(ReproError, ValueError):
    """Raised when fewer candidate items exist than the requested top-z."""

    def __init__(self, requested: int, available: int) -> None:
        super().__init__(
            f"requested {requested} recommendations but only "
            f"{available} candidate items are available"
        )
        self.requested = requested
        self.available = available


class ConfigurationError(ReproError, ValueError):
    """Raised for invalid configuration values (thresholds, weights, ...)."""


class SerializationError(ReproError):
    """Raised when persisted data cannot be parsed or written."""


class OntologyStructureError(ReproError, ValueError):
    """Raised when an ontology violates structural requirements.

    For example adding a concept whose parent does not exist, or creating
    a cycle in the IS-A hierarchy.
    """


class MapReduceError(ReproError, RuntimeError):
    """Raised when a MapReduce job is misconfigured or fails."""


class ExecutionError(ReproError, RuntimeError):
    """Raised when an execution backend cannot run a task.

    The most common cause is handing the pool backend a task that
    cannot be pickled (a closure, a lambda, or state holding a lock);
    the error message names the offending callable.
    """


class DeadlineExceeded(ReproError, TimeoutError):
    """Raised when a request's time budget runs out before its work does.

    Carries the deadline's human-readable ``context`` (what was being
    attempted) and how far past the budget the check ran.  The JSONL
    front end maps it to a ``{"error": "deadline"}`` response; backend
    dispatch paths raise it between tasks, never mid-task, so a timed-
    out batch leaves no partially recorded results behind.
    """

    def __init__(self, context: str, budget: float, overrun: float) -> None:
        super().__init__(
            f"deadline exceeded in {context}: budget {budget:.3f}s "
            f"overrun by {overrun:.3f}s"
        )
        self.context = context
        self.budget = budget
        self.overrun = overrun


class ValidationError(ReproError, ValueError):
    """Raised when data or a served response violates a declared shape.

    Carries the individual :class:`~repro.validation.Violation` records
    so callers (and tests) can inspect exactly which shapes failed.  The
    serving layer raises it in ``validation="strict"`` mode; the
    ``repro validate`` CLI renders the same violations as exit-code-1
    diagnostics instead.
    """

    def __init__(self, summary: str, violations: tuple = ()) -> None:
        self.violations = tuple(violations)
        details = "; ".join(
            f"[{getattr(v, 'shape', '?')}] {getattr(v, 'message', v)}"
            for v in self.violations
        )
        message = f"{summary}: {details}" if details else summary
        super().__init__(message)


class SnapshotError(SerializationError):
    """Raised when an index snapshot cannot be loaded.

    Covers unreadable or malformed snapshot files as well as snapshots
    whose config/dataset fingerprint no longer matches the service that
    is trying to restore them.
    """
