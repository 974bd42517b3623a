"""Hash-sharded neighbour index.

A single :class:`~repro.serving.index.NeighborIndex` serialises every
build and refresh behind one lock.  :class:`ShardedNeighborIndex` hash-
partitions users into ``num_shards`` independent
:class:`NeighborIndex` instances (CRC32 of the user id, the same
deterministic hash the MapReduce partitioner uses), so that

* each shard can be built or refreshed independently — and in parallel
  under a non-serial :class:`~repro.exec.ExecutionBackend`;
* an update only takes its home shard's lock for the row rebuild, while
  the single-entry patches fan out shard by shard, all fed from the
  home shard's one score sweep.

Every query answers exactly what the flat index would: a user's row
lives wholly in one shard, so ``row``/``peers_excluding`` delegate, and
the cross-user queries (``users_with_neighbor``) union over shards.
"""

from __future__ import annotations

import zlib
from typing import Collection, Iterable, Mapping

from ..data.ratings import RatingMatrix
from ..exec import ExecutionBackend, resolve_backend
from ..similarity.base import UserSimilarity
from ..similarity.peers import Peer
from .index import NeighborIndex


def shard_of(user_id: str, num_shards: int) -> int:
    """Deterministic shard index of ``user_id`` (CRC32 hash)."""
    return zlib.crc32(user_id.encode("utf-8")) % num_shards


class ShardedNeighborIndex:
    """``num_shards`` independent :class:`NeighborIndex` partitions.

    Implements the same query/maintenance surface as the flat index —
    the service code is agnostic to which one it holds.

    Parameters
    ----------
    matrix, similarity, threshold, max_peers:
        As for :class:`NeighborIndex`; every shard stores rows under
        the same cap.  When the measure supports
        ``with_private_packed`` (the packed Pearson kernel) and there
        is more than one shard, each shard gets a private sub-view of
        the packed state so shard builds and refreshes never serialise
        on one repack lock; otherwise every shard shares the measure.
    num_shards:
        Number of hash partitions (>= 1).
    """

    def __init__(
        self,
        matrix: RatingMatrix,
        similarity: UserSimilarity,
        threshold: float = 0.0,
        num_shards: int = 2,
        max_peers: int | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.matrix = matrix
        self.similarity = similarity
        self.threshold = threshold
        self.num_shards = num_shards
        self.max_peers = max_peers
        # Measures that can privatise their packed view (the Pearson
        # kernel, possibly under a CachedSimilarity wrapper) give each
        # shard its own sub-view, so parallel shard builds never
        # serialise on one global repack lock.  A single shard reads
        # the shared view — there is no contention to avoid.
        maker = getattr(similarity, "with_private_packed", None)
        if num_shards > 1 and callable(maker):
            measures = [maker() for _ in range(num_shards)]
        else:
            measures = [similarity] * num_shards
        self.shards = [
            NeighborIndex(matrix, measures[index], threshold, max_peers)
            for index in range(num_shards)
        ]

    # -- routing ---------------------------------------------------------------

    def shard_index(self, user_id: str) -> int:
        """The shard number owning ``user_id``'s row."""
        return shard_of(user_id, self.num_shards)

    def shard(self, user_id: str) -> NeighborIndex:
        """The shard owning ``user_id``'s row."""
        return self.shards[self.shard_index(user_id)]

    def _users_by_shard(
        self, user_ids: Iterable[str] | None
    ) -> list[list[str]]:
        targets = (
            list(user_ids) if user_ids is not None else self.matrix.user_ids()
        )
        buckets: list[list[str]] = [[] for _ in range(self.num_shards)]
        for user_id in targets:
            buckets[self.shard_index(user_id)].append(user_id)
        return buckets

    # -- construction ----------------------------------------------------------

    def build(
        self,
        user_ids: Iterable[str] | None = None,
        backend: "ExecutionBackend | str | None" = None,
    ) -> int:
        """Build the missing rows of every shard; returns rows built.

        Each shard builds its own users; the per-user fan-out runs on
        ``backend`` exactly as the flat index's build does, so sharded
        and flat builds produce identical rows.
        """
        backend = resolve_backend(backend)
        return sum(
            self.shards[index].build(users, backend=backend)
            for index, users in enumerate(self._users_by_shard(user_ids))
            if users
        )

    def build_shard(
        self,
        index: int,
        backend: "ExecutionBackend | str | None" = None,
    ) -> int:
        """Build one shard's rows only (independent warm-up unit)."""
        users = self._users_by_shard(None)[index]
        return self.shards[index].build(users, backend=backend)

    # -- queries ---------------------------------------------------------------

    def row(
        self, user_id: str, exclude: Collection[str] = (), store: bool = True
    ) -> list[Peer]:
        """The stored peer row of ``user_id`` (see NeighborIndex.row)."""
        return self.shard(user_id).row(user_id, exclude, store)

    def cover(self, user_id: str, exclude: Collection[str]) -> None:
        """Store a row covering an answer computed elsewhere (see
        NeighborIndex.cover)."""
        self.shard(user_id).cover(user_id, exclude)

    def peers_excluding(
        self,
        user_id: str,
        exclude: Iterable[str] = (),
        max_peers: int | None = None,
        store: bool = True,
    ) -> list[Peer]:
        """``P_u`` with some users excluded and an optional cap applied."""
        return self.shard(user_id).peers_excluding(
            user_id, exclude, max_peers=max_peers, store=store
        )

    def users_with_neighbor(self, user_id: str) -> set[str]:
        """The indexed users (any shard) whose stored row has ``user_id``."""
        found: set[str] = set()
        for shard in self.shards:
            found |= shard.users_with_neighbor(user_id)
        return found

    @property
    def built_rows(self) -> int:
        """Number of users currently indexed across every shard."""
        return sum(shard.built_rows for shard in self.shards)

    @property
    def stored_peers(self) -> int:
        """Sum of the stored row lengths across every shard."""
        return sum(shard.stored_peers for shard in self.shards)

    @property
    def truncated_rows(self) -> int:
        """Stored prefix rows across every shard."""
        return sum(shard.truncated_rows for shard in self.shards)

    @property
    def row_growths(self) -> int:
        """Prefix growths across every shard (see NeighborIndex.row)."""
        return sum(shard.row_growths for shard in self.shards)

    @property
    def version(self) -> int:
        """Total mutation count across shards (see NeighborIndex.version)."""
        return sum(shard.version for shard in self.shards)

    def is_built(self, user_id: str) -> bool:
        """Whether ``user_id`` is currently indexed."""
        return self.shard(user_id).is_built(user_id)

    # -- maintenance -----------------------------------------------------------

    def refresh_user(self, user_id: str) -> set[str]:
        """Rebuild one user's row, patch their entry in every shard.

        Same contract as :meth:`NeighborIndex.refresh_user`: returns
        the users whose stored row changed (including ``user_id``).
        The home shard's score table feeds every shard's patch.
        """
        scores = self.shard(user_id).rebuild_row(user_id)
        changed = {user_id}
        for shard in self.shards:
            changed |= shard.patch_neighbor(user_id, scores)
        return changed

    def invalidate_user(self, user_id: str) -> None:
        """Drop one user's row (it rebuilds lazily on next access)."""
        self.shard(user_id).invalidate_user(user_id)

    def clear(self) -> None:
        """Drop every row of every shard."""
        for shard in self.shards:
            shard.clear()

    # -- persistence -----------------------------------------------------------

    def snapshot_rows(self) -> dict[str, list[Peer]]:
        """Every built row across the shards (for snapshot persistence)."""
        rows: dict[str, list[Peer]] = {}
        for shard in self.shards:
            rows.update(shard.snapshot_rows())
        return rows

    def load_rows(self, rows: Mapping[str, Iterable[Peer]]) -> int:
        """Replace all rows, routing each to its owning shard."""
        self.clear()
        loaded = 0
        buckets: list[dict[str, list[Peer]]] = [
            {} for _ in range(self.num_shards)
        ]
        for user_id, row in rows.items():
            buckets[self.shard_index(user_id)][user_id] = list(row)
        for index, bucket in enumerate(buckets):
            loaded += self.shards[index].load_rows(bucket)
        return loaded
