"""Precomputed peer neighbourhoods (Definition 1, served from memory).

Every group request needs, for each member, the peers above the
threshold ``δ`` — at most ``max_peers`` of them once the other group
members are excluded.  The cold pipeline recomputes them per request;
the :class:`NeighborIndex` stores each user's thresholded peer row
sorted by ``(-similarity, user_id)`` and answers every later request by
filtering and slicing.

Without ``max_peers`` (Definition 1 has no cap) a row holds every
thresholded peer.  With it, a row holds an exact *prefix* of that
sorted list: the first ``max_peers + ROW_SLACK`` entries, the truncated
precomputed neighbourhood ("model size") of Sarwar et al. (WWW 2001).
A request whose exclusions leave fewer than ``max_peers`` entries in a
truncated prefix first stores a longer prefix.  Three properties keep
the index exactly equivalent to
:class:`~repro.similarity.peers.PeerSelector`:

* filtering out the excluded users and then applying the ``max_peers``
  cap to a long enough sorted prefix reproduces what the selector
  computes against the reduced candidate pool;
* every peer an answer used is in its owner's stored row, so the
  reverse index (who lists ``u`` as a peer) names every owner whose
  answers a change to ``u`` can stale;
* rows are built through the measure's (batched, possibly cached)
  :meth:`~repro.similarity.base.UserSimilarity.similarities`, whose
  scores are bit-identical to the pairwise path — in this process, or
  by whatever computes them for :meth:`NeighborIndex.build` (the
  serving layer's worker fleet).

After ``u``'s data changed, :meth:`NeighborIndex.refresh_user` rebuilds
``u``'s row with one batch, takes ``simU(v, u)`` for every other ``v``
from :meth:`~repro.similarity.base.UserSimilarity.similarities_toward`
(free for the bit-symmetric Pearson measure), and patches only the
rows that hold ``u`` or that ``u``'s new score enters.
"""

from __future__ import annotations

import heapq
import threading
from bisect import insort
from typing import Callable, Collection, Iterable, Mapping

from ..data.ratings import RatingMatrix
from ..similarity.base import UserSimilarity
from ..similarity.peers import Peer

#: Entries a capped row keeps beyond ``max_peers``: room for the other
#: members of a group (at most 10 in the scale generator) to be
#: excluded without recomputing the row.  Snapshots do not record
#: which rows are truncated (see :meth:`NeighborIndex.load_rows`), so
#: raising it would load truncated rows of older snapshots as complete.
ROW_SLACK = 16

def _sort_key(peer: Peer) -> tuple[float, str]:
    return (-peer.similarity, peer.user_id)


class NeighborIndex:
    """Per-user thresholded peer rows over a rating matrix.

    Parameters
    ----------
    matrix:
        The rating matrix whose users form the candidate pool (matching
        :meth:`PeerSelector.peers_from_matrix`).
    similarity:
        The ``simU`` measure; typically a
        :class:`~repro.serving.cache.CachedSimilarity`.
    threshold:
        The ``δ`` of Definition 1 (``simU >= δ`` qualifies).
    max_peers:
        The cap the index answers for.  ``None`` stores every
        thresholded peer; a number stores sorted prefixes of
        ``max_peers + ROW_SLACK`` entries (longer where exclusions
        need it).
    """

    def __init__(
        self,
        matrix: RatingMatrix,
        similarity: UserSimilarity,
        threshold: float = 0.0,
        max_peers: int | None = None,
    ) -> None:
        self.matrix = matrix
        self.similarity = similarity
        self.threshold = threshold
        self.max_peers = max_peers
        self._rows: dict[str, list[Peer]] = {}
        #: Owners whose stored row is a prefix that may omit peers.
        self._truncated: set[str] = set()
        self._reverse: dict[str, set[str]] = {}
        self._lock = threading.RLock()
        self._version = 0
        self._growths = 0

    # -- construction --------------------------------------------------------

    def _limit(self) -> int | None:
        """Entries a freshly computed row keeps (``None``: all of them)."""
        return None if self.max_peers is None else self.max_peers + ROW_SLACK

    def _row_from_scores(
        self, scores: Mapping[str, float], limit: int | None
    ) -> tuple[list[Peer], bool]:
        """Threshold, sort and cut a score row: ``(row, truncated)``.

        A cut selects the first ``limit`` keys with a bounded heap, not
        a full sort.  ``Peer(similarity=-key)`` restores each score
        exactly: negation only flips the sign bit.
        """
        keys = [
            (-score, candidate)
            for candidate, score in scores.items()
            if score >= self.threshold
        ]
        truncated = limit is not None and len(keys) > limit
        keys = heapq.nsmallest(limit, keys) if truncated else sorted(keys)
        return [Peer(user_id=uid, similarity=-key) for key, uid in keys], truncated

    def _scores(self, user_id: str) -> dict[str, float]:
        """``simU(user_id, ·)`` against every other user of the matrix."""
        candidates = [uid for uid in self.matrix.user_ids() if uid != user_id]
        return self.similarity.similarities(user_id, candidates)

    def _compute_row(
        self, user_id: str, limit: int | None
    ) -> tuple[list[Peer], bool]:
        return self._row_from_scores(self._scores(user_id), limit)

    def _store_row(self, user_id: str, row: list[Peer], truncated: bool) -> None:
        old = self._rows.get(user_id)
        if old is not None:
            for peer in old:
                self._reverse.get(peer.user_id, set()).discard(user_id)
        self._rows[user_id] = row
        if truncated:
            self._truncated.add(user_id)
        else:
            self._truncated.discard(user_id)
        for peer in row:
            self._reverse.setdefault(peer.user_id, set()).add(user_id)
        self._version += 1

    def build(
        self,
        user_ids: Iterable[str] | None = None,
        compute: (
            Callable[[list[str], int | None], Iterable[tuple[str, list[Peer], bool]]]
            | None
        ) = None,
    ) -> int:
        """Eagerly index ``user_ids`` (default: every user of the matrix).

        Returns the number of rows built.  Already-indexed users are
        skipped, so repeated calls are cheap.  Each row is thresholded
        and cut as it is computed, so only peer rows (not O(users²) raw
        score tables) are ever held at once.  ``compute`` replaces the
        in-process row builds: it receives the missing user ids and the
        row limit and returns ``(user_id, row, truncated)`` entries,
        which must be bit-identical to this index's own.
        """
        targets = list(user_ids) if user_ids is not None else self.matrix.user_ids()
        with self._lock:
            seen: set[str] = set()
            missing = [
                uid
                for uid in targets
                if uid not in self._rows and not (uid in seen or seen.add(uid))
            ]
        if not missing:
            return 0
        limit = self._limit()
        if compute is None:
            computed = [(uid, *self._compute_row(uid, limit)) for uid in missing]
        else:
            computed = compute(missing, limit)
        built = 0
        with self._lock:
            for user_id, row, truncated in computed:
                if user_id in self._rows:
                    continue
                self._store_row(user_id, row, truncated)
                built += 1
        return built

    # -- queries -------------------------------------------------------------

    def row(
        self, user_id: str, exclude: Collection[str] = (), store: bool = True
    ) -> list[Peer]:
        """The stored peer row of ``user_id`` (built lazily).

        Every thresholded peer without ``max_peers``.  With it, an exact
        sorted prefix that still holds ``max_peers`` peers once
        ``exclude`` is dropped: a truncated prefix too short for that
        is first recomputed to ``max_peers + len(exclude)`` entries and
        stored, so every peer an answer uses stays in the stored row.
        With ``store=False`` a user without a stored row gets a full row
        computed for this call only.
        """
        with self._lock:
            row = self._rows.get(user_id)
            if row is None and not store:
                return self._compute_row(user_id, None)[0]
            if row is None:
                row, truncated = self._compute_row(user_id, self._limit())
                self._store_row(user_id, row, truncated)
            if user_id in self._truncated:
                kept = sum(1 for peer in row if peer.user_id not in exclude)
                if kept < self.max_peers:
                    row, truncated = self._compute_row(
                        user_id, self.max_peers + len(exclude)
                    )
                    self._store_row(user_id, row, truncated)
                    self._growths += 1
            return row

    def cover(self, user_id: str, exclude: Collection[str]) -> None:
        """Store a row of ``user_id`` that holds every peer an answer
        for ``exclude`` uses, when that answer was computed elsewhere.

        A worker process answers a group from its own index, growing
        its rows as :meth:`row` does.  For exclusions that fit in
        ``ROW_SLACK`` every prefix this index stores, now or later,
        already holds the peers such an answer used; larger exclusions
        build and grow the row here now.  Either way a write to any of
        those peers finds ``user_id`` through
        :meth:`users_with_neighbor`.
        """
        if self.max_peers is not None and len(exclude) > ROW_SLACK:
            self.row(user_id, exclude)

    def peers_excluding(
        self,
        user_id: str,
        exclude: Iterable[str] = (),
        max_peers: int | None = None,
        store: bool = True,
    ) -> list[Peer]:
        """``P_u`` with some users excluded and an optional cap applied.

        Equivalent to running the peer selector against the candidate
        pool minus ``exclude`` — the row is sorted, so filtering then
        slicing reproduces the threshold + cap semantics.  A capped
        index answers caps up to its own ``max_peers``.
        """
        if self.max_peers is not None and (
            max_peers is None or max_peers > self.max_peers
        ):
            raise ValueError(
                f"an index capped at max_peers={self.max_peers} cannot "
                f"answer max_peers={max_peers}"
            )
        excluded = set(exclude)
        row = self.row(user_id, excluded, store)
        peers = [peer for peer in row if peer.user_id not in excluded]
        if max_peers is not None:
            peers = peers[:max_peers]
        return peers

    def users_with_neighbor(self, user_id: str) -> set[str]:
        """The indexed users whose stored row contains ``user_id``."""
        with self._lock:
            return set(self._reverse.get(user_id, set()))

    @property
    def built_rows(self) -> int:
        """Number of users currently indexed."""
        return len(self._rows)

    @property
    def stored_peers(self) -> int:
        """Sum of the stored row lengths."""
        with self._lock:
            return sum(map(len, self._rows.values()))

    @property
    def truncated_rows(self) -> int:
        """Stored rows that are prefixes (they may omit thresholded peers)."""
        return len(self._truncated)

    @property
    def row_growths(self) -> int:
        """Truncated rows recomputed longer for a request's exclusions."""
        return self._growths

    @property
    def version(self) -> int:
        """Monotonic mutation counter over the stored rows.

        Bumped whenever a row is stored, dropped or cleared.  Equal
        versions guarantee unchanged content, which is what the
        incremental snapshot save keys on; the converse does not hold
        (a rebuild to identical rows still bumps it).
        """
        with self._lock:
            return self._version

    def is_built(self, user_id: str) -> bool:
        """Whether ``user_id`` is currently indexed."""
        with self._lock:
            return user_id in self._rows

    # -- maintenance ---------------------------------------------------------

    def refresh_user(self, user_id: str) -> set[str]:
        """Rebuild one user's row and patch their entry where it moved.

        After ``user_id``'s ratings or profile changed, ``simU(u, v)``
        changed for every ``v`` — but each *other* row can only move its
        single entry for ``u``.  The row of ``u`` is rebuilt from one
        score sweep; the measure's
        :meth:`~repro.similarity.base.UserSimilarity.similarities_toward`
        turns that sweep into ``simU(owner, u)`` for every built owner —
        the direction the cold path evaluates — and only the rows that
        hold ``u`` or that its new score qualifies for are patched.
        Everything runs under the index lock, so a concurrent lazy
        :meth:`row` build cannot interleave and resurrect a stale row.

        Returns the set of users whose stored row changed (including
        ``user_id`` itself), which is exactly the set whose cached
        relevance rows the service must drop.
        """
        with self._lock:
            scores = self._scores(user_id)
            self._store_row(user_id, *self._row_from_scores(scores, self._limit()))
            owners = [owner for owner in self._rows if owner != user_id]
            toward = self.similarity.similarities_toward(user_id, owners, scores)
            holders = set(self._reverse.get(user_id, ()))
            # A user without ratings is in no candidate pool.
            candidate = bool(self.matrix.item_ids_of(user_id))
            changed = {user_id}
            for owner in owners:
                score = toward[owner]
                qualifies = candidate and score >= self.threshold
                held = owner in holders
                if (qualifies or held) and self._patch_row(
                    owner, user_id, score if qualifies else None, held
                ):
                    changed.add(owner)
            return changed

    def _patch_row(
        self, owner: str, user_id: str, score: float | None, held: bool
    ) -> bool:
        """Give ``user_id`` its new ``score`` in ``owner``'s row.

        ``score`` is ``None`` when ``user_id`` no longer qualifies;
        ``held`` says whether the row lists ``user_id`` now.  A complete
        row adds, moves or removes the entry, and becomes a prefix when
        an added entry takes it past the row limit.  A truncated prefix
        admits ``user_id`` only ahead of its last entry (dropping that
        entry when ``user_id`` is new to it); a prefix that loses
        ``user_id`` cannot know the entry that follows it, so the row
        is dropped and rebuilds lazily (at 3,000 users that made a
        write about 3x cheaper than recomputing such rows in place).
        Returns whether the row changed.
        """
        row = self._rows[owner]
        old = next((p for p in row if p.user_id == user_id), None) if held else None
        if old is not None and score is not None and old.similarity == score:
            return False
        truncated = owner in self._truncated
        if truncated:
            last = row[-1]
            enters = score is not None and (-score, user_id) < _sort_key(last)
            if not enters:
                if old is None:
                    return False
                self.invalidate_user(owner)
                return True
        patched = [peer for peer in row if peer.user_id != user_id]
        if score is not None:
            insort(patched, Peer(user_id=user_id, similarity=score), key=_sort_key)
            limit = self._limit()
            if old is None and (
                truncated or (limit is not None and len(patched) > limit)
            ):
                patched.pop()
                truncated = True
        self._store_row(owner, patched, truncated)
        return True

    def invalidate_user(self, user_id: str) -> None:
        """Drop one user's row (it rebuilds lazily on next access)."""
        with self._lock:
            row = self._rows.pop(user_id, None)
            if row is not None:
                self._truncated.discard(user_id)
                for peer in row:
                    self._reverse.get(peer.user_id, set()).discard(user_id)
                self._version += 1

    def clear(self) -> None:
        """Drop every row."""
        with self._lock:
            if self._rows:
                self._version += 1
            self._rows.clear()
            self._truncated.clear()
            self._reverse.clear()

    # -- persistence -----------------------------------------------------------

    def snapshot_rows(self) -> dict[str, list[Peer]]:
        """A copy of every built row (for snapshot persistence)."""
        with self._lock:
            return {uid: list(row) for uid, row in self._rows.items()}

    def load_rows(self, rows: Mapping[str, Iterable[Peer]]) -> int:
        """Replace the indexed rows with ``rows`` (snapshot restore).

        Snapshots do not record which rows are truncated.  With
        ``max_peers`` set, a row at least ``max_peers + ROW_SLACK`` long
        (every row of a snapshot saved before rows were capped, among
        others) is cut to that length and loads as a truncated prefix;
        a shorter row loads as complete.  The reverse index is rebuilt
        from the loaded rows.  Returns the number of rows loaded.
        """
        limit = self._limit()
        with self._lock:
            # Dropping the previous rows is a content change even when
            # ``rows`` is empty — clear() moves the version, or an
            # incremental snapshot save would consider the index clean
            # and keep the pre-load rows on disk.
            self.clear()
            for user_id, row in rows.items():
                row = list(row)
                truncated = limit is not None and len(row) >= limit
                self._store_row(user_id, row[:limit] if truncated else row, truncated)
            return len(self._rows)
