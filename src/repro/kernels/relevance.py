"""Packed prediction kernels (Equation 1 over the CSR rows).

The kernels never *decode* a candidate set — candidates are enumerated
in intern space, and each emitted item id is decoded exactly once:

* :func:`predict_row_packed` — one user's full unrated row as a
  ``{item_id: score}`` dict (the serving layer's single-user row).
* :func:`predict_topk_packed` — the same row, emitted straight into a
  bounded heap of size ``k`` instead of materialising the full score
  dict; the heap orders by the pinned score-desc/item-asc tie-break, so
  its output equals ``rank_items(predict_row_packed(...), k)``.
* :func:`group_columns_packed` — a group's candidates (items no member
  rated) that every member has a prediction for, with one aligned score
  column per member; only those items are decoded.

One loop, :func:`_scatter`, sits behind all three.  It is peer-major: it
walks each peer's CSR row (``row_items[p]``, ``row_values[p]``) once
and adds ``sim·r`` and ``sim`` into per-item numerator and denominator
accumulators, so a row costs Σ|peer row| instead of items × peers.

Bit-identity with :func:`repro.core.relevance.predict_table` holds
because every item still receives its float additions in *peer* order:
the dict path iterates ``peer_similarities`` and probes each peer's
rating of the item; the scatter iterates the same mapping and adds each
peer's terms to the items that peer rated.  Per item, the sequence of
summands — and so every rounding step — is the same.
"""

from __future__ import annotations

import heapq
import time
from typing import Mapping

from ..obs import observe_kernel
from .packed import PackedRatings
from .scan import candidate_ints_unrated_by_all


def _scatter(
    packed: PackedRatings,
    user_id: str,
    peer_similarities: Mapping[str, float],
) -> tuple[list[float], list[float], set[int]]:
    """Equation 1's sums for every item, plus the user's own items.

    Returns per-item-int ``numerators`` and ``denominators`` and the set
    of item ints ``user_id`` already rated (empty for an unknown user).
    Peers are visited in the mapping's iteration order — the dict
    path's accumulation order; peers unknown to the matrix never rated
    anything and are skipped.  The accumulators are allocated per call:
    the request server runs the kernels from concurrent reader threads.
    """
    user_index = packed.user_index
    row_items = packed.row_items
    row_values = packed.row_values
    numerators = [0.0] * packed.num_items
    denominators = [0.0] * packed.num_items
    for peer_id, similarity in peer_similarities.items():
        peer_int = user_index.get(peer_id)
        if peer_int is None:
            continue
        for item_int, rating in zip(row_items[peer_int], row_values[peer_int]):
            numerators[item_int] += similarity * rating
            denominators[item_int] += similarity
    user_int = user_index.get(user_id)
    own_items = set(row_items[user_int]) if user_int is not None else set()
    return numerators, denominators, own_items


def predict_row_packed(
    packed: PackedRatings,
    user_id: str,
    peer_similarities: Mapping[str, float],
    default_score: float | None = None,
) -> dict[str, float]:
    """Equation 1 over *every* item the user has not rated, packed.

    Equal, key order included, to :func:`repro.core.relevance.predict_table`
    over ``matrix.unrated_items(user_id, matrix.item_ids())`` — the
    serving layer's relevance-row shape.  Items whose prediction is
    undefined (no peer rated them, or zero similarity mass) are omitted
    unless ``default_score`` is given.  Timed as
    ``kernel_ms{kernel="predict_row_packed"}``.
    """
    started = time.perf_counter()
    packed.ensure_current()
    numerators, denominators, own_items = _scatter(
        packed, user_id, peer_similarities
    )
    item_ids = packed.item_ids
    predictions: dict[str, float] = {}
    for item_int, denominator in enumerate(denominators):
        if item_int in own_items:
            continue
        if denominator != 0.0:
            predictions[item_ids[item_int]] = numerators[item_int] / denominator
        elif default_score is not None:
            predictions[item_ids[item_int]] = default_score
    observe_kernel("predict_row_packed", started)
    return predictions


class _HeapEntry:
    """A candidate in the bounded top-k heap.

    ``heapq`` keeps the *smallest* entry at the root, so "smallest"
    must mean "worst under the pinned ranking": lower score first, and
    among equal scores the lexicographically larger item id (ascending
    item id wins ties in the ranking, so the larger id is worse).
    """

    __slots__ = ("score", "item_id")

    def __init__(self, score: float, item_id: str) -> None:
        self.score = score
        self.item_id = item_id

    def __lt__(self, other: "_HeapEntry") -> bool:
        if self.score != other.score:
            return self.score < other.score
        return self.item_id > other.item_id


def predict_topk_packed(
    packed: PackedRatings,
    user_id: str,
    peer_similarities: Mapping[str, float],
    k: int,
    default_score: float | None = None,
) -> list[tuple[str, float]]:
    """Top-``k`` of the user's unrated row, emitted straight into a heap.

    Returns ``(item_id, score)`` pairs in ranking order — exactly
    ``[(s.item_id, s.score) for s in
    rank_items(predict_row_packed(...), k)]`` — without materialising
    the full score dict: each candidate either displaces the heap root
    or is dropped on the spot.  Item ids are unique, so the pinned
    (score desc, item asc) ranking is a total order and heap selection
    is trivially equal to sort-then-slice, ties included.  Timed as
    ``kernel_ms{kernel="predict_topk_packed"}``.
    """
    started = time.perf_counter()
    packed.ensure_current()
    if k <= 0:
        observe_kernel("predict_topk_packed", started)
        return []
    numerators, denominators, own_items = _scatter(
        packed, user_id, peer_similarities
    )
    item_ids = packed.item_ids
    heap: list[_HeapEntry] = []
    for item_int, denominator in enumerate(denominators):
        if item_int in own_items:
            continue
        if denominator != 0.0:
            score = numerators[item_int] / denominator
        elif default_score is not None:
            score = default_score
        else:
            continue
        if len(heap) < k:
            heapq.heappush(heap, _HeapEntry(score, item_ids[item_int]))
        else:
            root = heap[0]
            item_id = item_ids[item_int]
            if score > root.score or (
                score == root.score and item_id < root.item_id
            ):
                heapq.heapreplace(heap, _HeapEntry(score, item_id))
    ranked = sorted(heap, key=lambda entry: (-entry.score, entry.item_id))
    observe_kernel("predict_topk_packed", started)
    return [(entry.item_id, entry.score) for entry in ranked]


def group_columns_packed(
    packed: PackedRatings,
    member_peers: Mapping[str, Mapping[str, float]],
) -> tuple[list[str], list[list[float]]]:
    """A group's candidates every member has a prediction for, as columns.

    ``member_peers`` maps each member, in group order, to its peer
    similarities.  Of the items no member rated, an item survives only
    if every member's similarity mass is nonzero (the test
    :func:`predict_row_packed` applies before it emits).  Returns the
    survivors' ids in ascending intern order and one column per member
    holding the floats :func:`predict_row_packed` emits for them.
    Timed as ``kernel_ms{kernel="group_columns_packed"}``, its
    candidate scan included.
    """
    started = time.perf_counter()
    survivors = candidate_ints_unrated_by_all(packed, member_peers)
    sums = [_scatter(packed, member, peers)[:2] for member, peers in member_peers.items()]
    for _, denominators in sums:
        survivors = [j for j in survivors if denominators[j] != 0.0]
    columns = [[nums[j] / dens[j] for j in survivors] for nums, dens in sums]
    item_ids = [packed.item_ids[j] for j in survivors]
    observe_kernel("group_columns_packed", started)
    return item_ids, columns
