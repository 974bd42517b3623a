"""Common interface of the user-to-user similarity measures.

Section V presents three ways to measure the similarity between two
users (ratings, profile text, semantic/ontology).  Each one implements
:class:`UserSimilarity`: a callable that maps a pair of user ids to a
score, plus an optional vectorised helper for computing all similarities
of a user against a set of candidates.  Implementations are free to
cache whatever intermediate state they need (TF-IDF vectors, mean
ratings, ...), which keeps peer search over large user sets tractable.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from typing import Iterable, Mapping

from ..exec import ExecutionBackend, chunk_evenly, resolve_backend

#: Per-process worker state for the process-backend batch path: the
#: measure and candidate pool shipped once per worker via the backend's
#: initializer instead of once per task.
_WORKER_STATE: dict[str, object] = {}


def _init_similarity_worker(
    measure: "UserSimilarity", candidates: list[str]
) -> None:
    _WORKER_STATE["measure"] = measure
    _WORKER_STATE["candidates"] = candidates


def _similarity_rows_task(user_chunk: list[str]) -> list[dict[str, float]]:
    measure = _WORKER_STATE["measure"]
    candidates = _WORKER_STATE["candidates"]
    return [measure.similarities(user_id, candidates) for user_id in user_chunk]


class UserSimilarity(ABC):
    """Abstract user-to-user similarity measure ``simU``.

    Subclasses document their score range; the peer-selection threshold
    ``δ`` of Definition 1 is interpreted against that range.
    """

    #: Human readable name used by reports and the CLI.
    name: str = "similarity"

    #: Whether a *profile* edit of one user can shift the scores of
    #: pairs not involving that user (e.g. TF-IDF: one profile changes
    #: the corpus-wide IDF weights).  The serving layer falls back to
    #: full invalidation on profile updates when this is set.
    profile_corpus_sensitive: bool = False

    @abstractmethod
    def similarity(self, user_a: str, user_b: str) -> float:
        """Return ``simU(user_a, user_b)``.

        Implementations must be symmetric; they return 0 when there is
        insufficient information to compare the two users (no co-rated
        items, empty profiles, ...).
        """

    def __call__(self, user_a: str, user_b: str) -> float:
        return self.similarity(user_a, user_b)

    def similarities(
        self, user_id: str, candidates: Iterable[str]
    ) -> dict[str, float]:
        """Similarity of ``user_id`` against every candidate.

        The default implementation simply loops; subclasses can override
        it when a batched computation is cheaper.
        """
        return {
            candidate: self.similarity(user_id, candidate)
            for candidate in candidates
            if candidate != user_id
        }

    def similarities_many(
        self,
        user_ids: Iterable[str],
        candidates: Iterable[str],
        backend: "ExecutionBackend | str | None" = None,
    ) -> dict[str, dict[str, float]]:
        """One :meth:`similarities` row per user, through a backend.

        The rows are computed independently, so they fan out on the
        execution backend: threads share this measure in place, while
        the pool backend ships :meth:`picklable_measure` and the
        candidate pool to each worker once and chunks the users.  Row
        order follows ``user_ids``; scores are bit-identical across
        backends.
        """
        users = list(user_ids)
        candidate_list = list(candidates)
        backend = resolve_backend(backend)
        if backend.requires_pickling:
            chunks = chunk_evenly(users, max(1, backend.workers * 4))
            row_chunks = backend.map_items(
                _similarity_rows_task,
                chunks,
                initializer=_init_similarity_worker,
                initargs=(self.picklable_measure(), candidate_list),
            )
            rows = [row for chunk in row_chunks for row in chunk]
        else:
            rows = backend.map_items(
                functools.partial(self._similarities_for, candidate_list), users
            )
        return dict(zip(users, rows))

    def _similarities_for(
        self, candidates: list[str], user_id: str
    ) -> dict[str, float]:
        """Argument-flipped :meth:`similarities` (partial-friendly)."""
        return self.similarities(user_id, candidates)

    def picklable_measure(self) -> "UserSimilarity":
        """The measure to ship across a process boundary.

        Measures are plain data and return ``self``; decorators holding
        unpicklable state (locks, caches) override this to unwrap.
        Scores must be bit-identical to this measure's own.
        """
        return self

    def invalidate_user(self, user_id: str) -> None:
        """Drop any cached state about ``user_id``.

        Called by the serving layer after a rating or profile update so
        that subsequent scores reflect the new data.  The default is a
        no-op; measures that cache per-user state (means, vectors)
        override it.
        """

    def invalidate_user_ratings(self, user_id: str) -> None:
        """Drop cached state of ``user_id`` that depends on ratings.

        Called after a rating ingest.  The default delegates to
        :meth:`invalidate_user` (safe for rating-based measures);
        measures that ignore ratings entirely (profile text, ontology)
        override this as a no-op so a rating write does not trigger an
        expensive profile recomputation.
        """
        self.invalidate_user(user_id)

    def pairwise(self, user_ids: Iterable[str]) -> dict[tuple[str, str], float]:
        """Similarity for every unordered pair of ``user_ids``."""
        users = list(user_ids)
        scores: dict[tuple[str, str], float] = {}
        for index, user_a in enumerate(users):
            for user_b in users[index + 1 :]:
                scores[(user_a, user_b)] = self.similarity(user_a, user_b)
        return scores


class PrecomputedSimilarity(UserSimilarity):
    """A similarity backed by an explicit score table.

    Useful in tests, for injecting hand-crafted scenarios, and as the
    output representation of the MapReduce similarity job (Job 2).
    Missing pairs score ``default`` (0 by default).
    """

    name = "precomputed"

    def __init__(
        self,
        scores: Mapping[tuple[str, str], float],
        default: float = 0.0,
    ) -> None:
        self._scores: dict[tuple[str, str], float] = {}
        for (user_a, user_b), value in scores.items():
            self._scores[self._key(user_a, user_b)] = float(value)
        self._default = default

    @staticmethod
    def _key(user_a: str, user_b: str) -> tuple[str, str]:
        return (user_a, user_b) if user_a <= user_b else (user_b, user_a)

    def similarity(self, user_a: str, user_b: str) -> float:
        if user_a == user_b:
            return 1.0
        return self._scores.get(self._key(user_a, user_b), self._default)

    def set(self, user_a: str, user_b: str, value: float) -> None:
        """Store a similarity score for the unordered pair."""
        self._scores[self._key(user_a, user_b)] = float(value)

    def known_pairs(self) -> list[tuple[str, str]]:
        """All pairs with an explicit score."""
        return list(self._scores.keys())
