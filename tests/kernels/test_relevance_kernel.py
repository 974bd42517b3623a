"""Packed Equation 1 kernels vs predict_table: bit-identical.

The reference for one user's row is the dict path over every item the
user has not rated, in matrix order — the serving layer's relevance-row
shape.  ``predict_row_packed`` must equal it key order included, and
``predict_topk_packed`` must equal ``rank_items`` over it.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.relevance import predict_table, rank_items
from repro.data.ratings import RatingMatrix
from repro.kernels import PackedRatings, predict_row_packed, predict_topk_packed


def random_matrix(seed: int, users: int = 14, items: int = 18) -> RatingMatrix:
    rng = random.Random(seed)
    matrix = RatingMatrix()
    for u in range(users):
        for i in rng.sample(range(items), rng.randint(1, items - 1)):
            matrix.add(f"u{u}", f"i{i}", float(rng.randint(1, 5)))
    return matrix


def random_peers(matrix: RatingMatrix, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    peers = rng.sample(matrix.user_ids(), 6)
    # Include negative similarities (possible under Pearson) and an
    # unknown peer the dict path would probe and miss.
    table = {peer: rng.uniform(-0.5, 1.0) for peer in peers}
    table["ghost-peer"] = 0.9
    return table


def expected_row(
    matrix: RatingMatrix,
    user_id: str,
    peers: dict[str, float],
    default_score: float | None = None,
) -> dict[str, float]:
    candidates = matrix.unrated_items(user_id, matrix.item_ids())
    return predict_table(
        matrix, user_id, peers, candidates, default_score=default_score
    )


def assert_row_matches(
    packed: PackedRatings,
    user_id: str,
    peers: dict[str, float],
    default_score: float | None = None,
) -> dict[str, float]:
    expected = expected_row(packed.matrix, user_id, peers, default_score)
    got = predict_row_packed(packed, user_id, peers, default_score=default_score)
    assert list(got.items()) == list(expected.items())
    return expected


def ranked_pairs(row: dict[str, float], k: int) -> list[tuple[str, float]]:
    return [scored.as_tuple() for scored in rank_items(row, k)]


@pytest.mark.parametrize("seed", [1, 12, 33])
@pytest.mark.parametrize("default_score", [None, 0.0, 2.5])
def test_bit_identical_to_dict_path(seed, default_score):
    matrix = random_matrix(seed)
    peers = random_peers(matrix, seed * 3)
    packed = PackedRatings(matrix)
    for user_id in matrix.user_ids()[:4]:
        assert_row_matches(packed, user_id, peers, default_score)


@pytest.mark.parametrize("seed", [1, 12, 33])
@pytest.mark.parametrize("default_score", [None, 0.0, 2.5])
def test_topk_equals_rank_items_over_the_row(seed, default_score):
    matrix = random_matrix(seed)
    peers = random_peers(matrix, seed * 3)
    packed = PackedRatings(matrix)
    for user_id in matrix.user_ids()[:4]:
        row = expected_row(matrix, user_id, peers, default_score)
        for k in (1, 3, len(row), len(row) + 5):
            got = predict_topk_packed(
                packed, user_id, peers, k, default_score=default_score
            )
            assert got == ranked_pairs(row, k)
        assert predict_topk_packed(packed, user_id, peers, 0) == []


def test_topk_breaks_score_ties_by_item_id():
    # Interned z, y, x: a tie-break on intern order would rank z first.
    matrix = RatingMatrix(
        [("b", "z", 3.0), ("b", "y", 3.0), ("b", "x", 3.0), ("a", "w", 1.0)]
    )
    packed = PackedRatings(matrix)
    peers = {"b": 0.5}
    row = assert_row_matches(packed, "a", peers)
    assert set(row.values()) == {3.0}
    assert predict_topk_packed(packed, "a", peers, 2) == [("x", 3.0), ("y", 3.0)]


def test_zero_similarity_mass_is_omitted():
    matrix = RatingMatrix([("a", "x", 4.0), ("b", "y", 2.0), ("c", "y", 3.0)])
    packed = PackedRatings(matrix)
    # +1 and -1 peers cancel exactly: the prediction is undefined.
    peers = {"b": 1.0, "c": -1.0}
    assert assert_row_matches(packed, "a", peers) == {}
    assert predict_topk_packed(packed, "a", peers, 5) == []
    assert predict_row_packed(packed, "a", peers, default_score=2.5) == {"y": 2.5}


def test_unknown_requesting_user_matches_dict_path():
    matrix = random_matrix(5)
    packed = PackedRatings(matrix)
    peers = random_peers(matrix, 9)
    row = assert_row_matches(packed, "nobody", peers)
    assert predict_topk_packed(packed, "nobody", peers, 4) == ranked_pairs(row, 4)


def test_parity_after_incremental_repack():
    matrix = random_matrix(8)
    packed = PackedRatings(matrix)
    user_id = matrix.user_ids()[0]
    peers = random_peers(matrix, 4)
    rng = random.Random(21)
    for _ in range(8):
        mutated = f"u{rng.randrange(14)}"
        matrix.add(mutated, f"i{rng.randrange(20)}", float(rng.randint(1, 5)))
        packed.mark_dirty(mutated)
        row = assert_row_matches(packed, user_id, peers)
        assert predict_topk_packed(packed, user_id, peers, 3) == ranked_pairs(row, 3)


def test_mmap_spill_view_matches_dict_path(tmp_path):
    """Over a spill-backed view the CSR rows are memoryview slices."""
    matrix = random_matrix(27)
    PackedRatings(matrix).save(tmp_path)
    view = PackedRatings.open_mmap(tmp_path, matrix)
    assert view.spill_backed
    peers = random_peers(matrix, 6)
    for user_id in matrix.user_ids()[:4]:
        row = assert_row_matches(view, user_id, peers)
        assert predict_topk_packed(view, user_id, peers, 3) == ranked_pairs(row, 3)
    assert view.spill_backed


def test_concurrent_calls_match_serial_results():
    """Batch serving runs relevance rows from many reader threads; the
    accumulators must be per call, or one thread's sums would leak into
    another's row."""
    matrix = random_matrix(19, users=40, items=30)
    packed = PackedRatings(matrix)
    users = matrix.user_ids()
    peer_table = {
        user_id: random_peers(matrix, seed)
        for seed, user_id in enumerate(users)
    }
    expected = {
        user_id: list(expected_row(matrix, user_id, peer_table[user_id]).items())
        for user_id in users
    }
    results: dict[str, list] = {user_id: [] for user_id in users}
    barrier = threading.Barrier(8)

    def worker(offset: int) -> None:
        barrier.wait()
        for index in range(len(users) * 3):
            user_id = users[(offset + index) % len(users)]
            row = predict_row_packed(packed, user_id, peer_table[user_id])
            results[user_id].append(list(row.items()))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for user_id, rows in results.items():
        assert rows and all(row == expected[user_id] for row in rows)
