"""Packed, integer-interned CSR view of a :class:`RatingMatrix`.

The dict-of-dicts :class:`~repro.data.ratings.RatingMatrix` is the right
shape for mutation and for the paper-faithful oracle code, and the wrong
shape for the similarity/prediction inner loops: every pair score hashes
strings, builds throwaway sets and recomputes means.  This module packs
the same data into flat, contiguous storage once and lets the kernels in
:mod:`repro.kernels.pearson` / :mod:`repro.kernels.relevance` run over
integers:

* **interning tables** — user and item ids are mapped to dense ints in
  the matrix's *insertion order* (``matrix.user_ids()`` /
  ``matrix.item_ids()``), so the ascending-int order of a packed row is
  exactly the canonical co-rated summation order the dict oracle uses
  (see :class:`~repro.similarity.ratings_sim.PearsonRatingSimilarity`);
* **CSR rows** — per user, an ``array('l')`` of item ints sorted
  ascending with parallel ``array('d')`` arrays of raw ratings and of
  centered deviations (``value - μ_u``), plus the precomputed per-user
  mean;
* **an inverted index** — per item, parallel arrays of the rater ints
  and their raw ratings, powering candidate overlap counting and the
  prediction-table kernel without per-item dict copies.

Packing is cheap (one pass over the ratings) but not free, so packed
views are shared per matrix (:func:`get_packed`) and kept current
incrementally: the serving layer marks users dirty as it mutates the
matrix (:meth:`PackedRatings.mark_dirty`) and the next kernel call
repacks only those rows (:meth:`PackedRatings.ensure_current`).  Any
mutation the packed view was *not* told about — a removal, or a version
move with no dirty marks — falls back to a full rebuild, so results
stay correct (just slower) for out-of-band mutation patterns.

**Contract** (same as the Pearson mean cache): callers that mutate the
matrix directly must call the owning measure's ``invalidate_user`` (or
:meth:`PackedRatings.mark_dirty`) for every touched user before the
next kernel call.  The serving layer's ``ingest_rating`` /
``update_profile`` paths do this; the one unsupported pattern is
overwriting a rating of user A directly while only marking user B.
"""

from __future__ import annotations

import threading
import time
import weakref
from array import array
from itertools import islice

from ..data.ratings import RatingMatrix
from ..obs import get_registry, is_enabled


def _observe_repack(kind: str, started: float) -> None:
    """Record one hot-path repack into the default metrics registry.

    ``packed_repacks{kind=full|incremental}`` counts the events and
    ``repack_ms{kind=...}`` times them; the constructor's initial build
    is deliberately not counted — it is a build, not a re-pack.
    """
    if not is_enabled():
        return
    registry = get_registry()
    registry.observe(
        "repack_ms", (time.perf_counter() - started) * 1000.0, kind=kind
    )
    registry.inc("packed_repacks", kind=kind)

#: Shared packed views, one per live matrix (keyed by matrix identity).
#: Both sides are weak — the value holds the matrix strongly, so a
#: strong value reference here would pin the entry forever.  Consumers
#: (the similarity measure, the serving layer) hold the view strongly
#: for as long as they need it.
_REGISTRY: "weakref.WeakKeyDictionary[RatingMatrix, weakref.ref[PackedRatings]]" = (
    weakref.WeakKeyDictionary()
)


def get_packed(matrix: RatingMatrix) -> "PackedRatings":
    """The shared :class:`PackedRatings` view of ``matrix``.

    Views are cached per matrix *identity* (weakly, so a dropped matrix
    frees its packed arrays): the similarity measure, the neighbour
    index and the serving layer all read — and dirty-mark — the same
    packed state.
    """
    ref = _REGISTRY.get(matrix)
    packed = ref() if ref is not None else None
    if packed is None:
        packed = PackedRatings(matrix)
        _REGISTRY[matrix] = weakref.ref(packed)
    return packed


def attach_spill(matrix: RatingMatrix, directory) -> "PackedRatings":
    """Bind ``matrix``'s shared packed view to the spill at ``directory``.

    Tries :meth:`PackedRatings.open_mmap` and registers the mmap-backed
    view as the matrix's shared view, so every later
    :func:`get_packed` caller (the similarity measure, the serving
    layer) reads the mapped arrays.  Any :class:`SpillError` or OS
    failure falls back to the ordinary in-memory rebuild recipe —
    correctness never depends on a spill being present.  The outcome is
    counted as ``packed_spill_opens{outcome="mmap"|"fallback"}``.
    """
    from .spill import SpillError

    try:
        packed = PackedRatings.open_mmap(directory, matrix)
        outcome = "mmap"
    except (SpillError, OSError):
        packed = get_packed(matrix)
        outcome = "fallback"
    else:
        _REGISTRY[matrix] = weakref.ref(packed)
    if is_enabled():
        get_registry().inc("packed_spill_opens", outcome=outcome)
    return packed


class PackedRatings:
    """Flat CSR mirror of one :class:`RatingMatrix` (see module docs).

    All attributes are parallel per-int structures: ``row_items[u]``,
    ``row_values[u]``, ``row_devs[u]`` and ``row_maps[u]`` (an
    int-keyed dict for O(1) probes and C-speed key intersections)
    describe user int ``u``; ``inv_users[i]`` / ``inv_values[i]``
    describe item int ``i``.  Treat them as read-only outside this
    module; mutate the underlying matrix and call :meth:`mark_dirty` /
    :meth:`ensure_current` instead.
    """

    def __init__(self, matrix: RatingMatrix) -> None:
        self.matrix = matrix
        self._dirty: set[str] = set()
        self._stale = True  # force the initial full build
        self._spill_backed = False
        # Serialises repacks: the request server runs kernel calls as
        # concurrent readers, and two threads racing ensure_current()
        # after a mutation would both extend the interning tables.
        # Reentrant because the locked ensure_current/_repack_dirty
        # paths escalate to rebuild(), which locks on its own behalf
        # for direct callers.
        self._repack_lock = threading.RLock()
        self.rebuild()

    # -- construction --------------------------------------------------------

    def rebuild(self) -> None:
        """Re-derive every packed structure from the current matrix."""
        with self._repack_lock:
            self._rebuild()

    def _rebuild(self) -> None:
        matrix = self.matrix
        self.user_ids: list[str] = matrix.user_ids()
        self.user_index: dict[str, int] = {
            user_id: index for index, user_id in enumerate(self.user_ids)
        }
        self.item_ids: list[str] = matrix.item_ids()
        self.item_index: dict[str, int] = {
            item_id: index for index, item_id in enumerate(self.item_ids)
        }
        self.row_items: list[array] = []
        self.row_values: list[array] = []
        self.row_devs: list[array] = []
        self.row_maps: list[dict[int, float]] = []
        self.means: list[float] = []
        for user_id in self.user_ids:
            self._append_row(user_id)
        self.inv_users: list[array] = [array("l") for _ in self.item_ids]
        self.inv_values: list[array] = [array("d") for _ in self.item_ids]
        for user_int, items in enumerate(self.row_items):
            values = self.row_values[user_int]
            for position, item_int in enumerate(items):
                self.inv_users[item_int].append(user_int)
                self.inv_values[item_int].append(values[position])
        self._num_ratings = matrix.num_ratings
        self._version = matrix.version
        self._removals = matrix.removals
        self._dirty.clear()
        self._stale = False
        # A full rebuild always yields ordinary in-memory arrays, so a
        # spill-backed view that rebuilt is no longer mmap-backed.
        self._spill_backed = False

    def _packed_row(self, user_id: str) -> tuple[array, array, array, float]:
        """One user's row as (items, values, devs, mean), sorted by item int.

        The mean (and hence every deviation) is accumulated in the
        user's *row insertion order* — the identical operation sequence
        :meth:`RatingMatrix.mean_rating` performs — so packed means and
        deviations are bit-equal to what the dict oracle computes.
        """
        row = self.matrix.items_of(user_id)
        mean = sum(row.values()) / len(row)
        item_index = self.item_index
        pairs = sorted((item_index[item_id], value) for item_id, value in row.items())
        items = array("l", (pair[0] for pair in pairs))
        values = array("d", (pair[1] for pair in pairs))
        devs = array("d", (pair[1] - mean for pair in pairs))
        return items, values, devs, mean

    def _append_row(self, user_id: str) -> None:
        items, values, devs, mean = self._packed_row(user_id)
        self.row_items.append(items)
        self.row_values.append(values)
        self.row_devs.append(devs)
        self.row_maps.append(dict(zip(items, values)))
        self.means.append(mean)

    # -- dirtiness -----------------------------------------------------------

    @property
    def num_users(self) -> int:
        """Number of interned users."""
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        """Number of interned items."""
        return len(self.item_ids)

    def mark_dirty(self, user_id: str) -> None:
        """Record that ``user_id``'s ratings changed since the last repack."""
        with self._repack_lock:
            self._dirty.add(user_id)

    def mark_all_dirty(self) -> None:
        """Force a full rebuild at the next :meth:`ensure_current`."""
        with self._repack_lock:
            self._stale = True

    def ensure_current(self) -> None:
        """Bring the packed state up to the matrix, as cheaply as possible.

        In sync (the common case) this is two int compares.  With only
        dirty-marked additive mutations outstanding it reparses exactly
        the dirty rows (plus interning-table extensions for brand-new
        users/items).  Anything else — a removal, or a version move the
        packed view was never told about — triggers :meth:`rebuild`.

        Thread-safe: threads sharing one service may call the kernels
        as concurrent readers, so the staleness check and the repack
        run under one lock — at most the first caller mutates,
        the rest re-check and fall through.
        """
        matrix = self.matrix
        with self._repack_lock:
            if not self._stale and matrix.version == self._version:
                # Spurious marks (e.g. a profile-only invalidation):
                # the rows already match the matrix.
                if self._dirty:
                    self._dirty.clear()
                return
            if (
                self._stale
                or matrix.removals != self._removals
                or not self._dirty
            ):
                started = time.perf_counter()
                self.rebuild()
                _observe_repack("full", started)
                return
            if self._spill_backed:
                # Mutating an mmap-backed view: downgrade to writable
                # in-memory arrays first, then repack incrementally as
                # usual.  The spill on disk is untouched (and now
                # stale); re-save to refresh it.
                self._materialize()
            started = time.perf_counter()
            self._repack_dirty()
            _observe_repack("incremental", started)

    def _materialize(self) -> None:
        """Copy every mmap-backed structure into writable arrays.

        The "dirty-repack downgrade" of a spill-backed view: after this
        the instance is indistinguishable from one built in memory.
        Timed as ``repack_ms{kind="downgrade"}``.
        """
        started = time.perf_counter()
        self.row_items = [array("l", row) for row in self.row_items]
        self.row_values = [array("d", row) for row in self.row_values]
        self.row_devs = [array("d", row) for row in self.row_devs]
        self.row_maps = [
            dict(zip(items, values))
            for items, values in zip(self.row_items, self.row_values)
        ]
        self.means = list(self.means)
        self.inv_users = [array("l", row) for row in self.inv_users]
        self.inv_values = [array("d", row) for row in self.inv_values]
        self._spill_backed = False
        _observe_repack("downgrade", started)

    def _repack_dirty(self) -> None:
        matrix = self.matrix
        # New items/users append to the matrix dicts (no removals
        # happened, per the caller's check), so the interning tables
        # extend from a slice — insertion order, hence canonical
        # summation order, is preserved.
        for item_id in islice(matrix.iter_item_ids(), len(self.item_ids), None):
            self.item_index[item_id] = len(self.item_ids)
            self.item_ids.append(item_id)
            self.inv_users.append(array("l"))
            self.inv_values.append(array("d"))
        for user_id in islice(matrix.iter_user_ids(), len(self.user_ids), None):
            self.user_index[user_id] = len(self.user_ids)
            self.user_ids.append(user_id)
            self.row_items.append(array("l"))
            self.row_values.append(array("d"))
            self.row_devs.append(array("d"))
            self.row_maps.append({})
            self.means.append(0.0)
            self._dirty.add(user_id)
        ratings_delta = 0
        for user_id in self._dirty:
            user_int = self.user_index.get(user_id)
            if user_int is None:
                # Marked but never rated anything — nothing to pack.
                continue
            if not matrix.items_of(user_id):
                # An interned user lost their whole row; only remove()
                # can do that and it forces a full rebuild upstream,
                # but guard against it anyway.
                self.rebuild()
                return
            ratings_delta += self._repack_user(user_int, user_id)
        self._num_ratings += ratings_delta
        if self._num_ratings != matrix.num_ratings:
            # More mutated than was marked dirty; start over from the
            # matrix rather than serve a stale row.
            self.rebuild()
            return
        self._version = matrix.version
        self._dirty.clear()

    def _repack_user(self, user_int: int, user_id: str) -> int:
        """Repack one row and patch the inverted index; returns Δratings."""
        old_map = self.row_maps[user_int]
        items, values, devs, mean = self._packed_row(user_id)
        self.row_items[user_int] = items
        self.row_values[user_int] = values
        self.row_devs[user_int] = devs
        self.means[user_int] = mean
        new_map = dict(zip(items, values))
        self.row_maps[user_int] = new_map
        affected = old_map.keys() ^ new_map.keys()
        affected.update(
            item_int
            for item_int in old_map.keys() & new_map.keys()
            if old_map[item_int] != new_map[item_int]
        )
        user_index = self.user_index
        for item_int in affected:
            raters = self.matrix.users_of(self.item_ids[item_int])
            self.inv_users[item_int] = array(
                "l", (user_index[rater] for rater in raters)
            )
            self.inv_values[item_int] = array("d", raters.values())
        return len(new_map) - len(old_map)

    # -- spill ---------------------------------------------------------------

    @property
    def spill_backed(self) -> bool:
        """True while the packed arrays are read-only ``mmap`` views."""
        return self._spill_backed

    def save(self, directory) -> str:
        """Spill the packed CSR arrays to ``directory``; returns the fingerprint.

        Brings the view current first, then writes the
        :mod:`repro.kernels.spill` layout (atomic per-file writes,
        manifest last).  A no-op when the on-disk spill already carries
        the fingerprint of this state.
        """
        from .spill import write_spill

        with self._repack_lock:
            self.ensure_current()
            return write_spill(self, directory)

    @classmethod
    def open_mmap(cls, directory, matrix: RatingMatrix) -> "PackedRatings":
        """Open the spill at ``directory`` as an mmap-backed view of ``matrix``.

        The returned view shares the operating system's page-cache copy
        of the arrays with every other process that opened the same
        spill; nothing is deserialised beyond the interning tables.
        Raises :class:`~repro.kernels.spill.SpillError` when the spill
        is missing, torn, or disagrees with ``matrix`` — callers fall
        back to the in-memory rebuild recipe then (:func:`attach_spill`
        automates that).
        """
        from .spill import open_spill

        state = open_spill(directory, matrix)
        packed = cls.__new__(cls)
        packed.matrix = matrix
        packed._dirty = set()
        packed._stale = False
        packed._repack_lock = threading.RLock()
        packed.user_ids = state["user_ids"]
        packed.user_index = state["user_index"]
        packed.item_ids = state["item_ids"]
        packed.item_index = state["item_index"]
        packed.row_items = state["row_items"]
        packed.row_values = state["row_values"]
        packed.row_devs = state["row_devs"]
        packed.row_maps = state["row_maps"]
        packed.means = state["means"]
        packed.inv_users = state["inv_users"]
        packed.inv_values = state["inv_values"]
        packed._num_ratings = state["num_ratings"]
        packed._version = matrix.version
        packed._removals = matrix.removals
        packed._spill_backed = True
        return packed

    # -- pickling ------------------------------------------------------------

    def __reduce__(self):
        """Pickle as a rebuild recipe, not as the packed arrays.

        Shipping a worker the matrix and letting it repack locally is
        both smaller on the wire and exactly the delta-sync story: pool
        workers replay mutations into their own matrix copy and repack
        from it, so packed blobs never cross the process boundary.
        """
        return (PackedRatings, (self.matrix,))
