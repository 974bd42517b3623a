"""Equation 2 is bit-symmetric: ``RS(u, v)`` and ``RS(v, u)`` are one float.

The neighbour index's write path relies on it: after ``u``'s ratings
change, one ``pearson_one_vs_many(u, ·)`` sweep supplies both ``u``'s
new row and ``RS(v, u)`` for every other row owner ``v``, the direction
the cold pipeline evaluates (see
:meth:`~repro.similarity.ratings_sim.PearsonRatingSimilarity.similarities_toward`).
Both directions sum the same products over the co-rated items in
interned item order, so the property holds exactly, not to an ulp.
Scores are compared through ``float.hex`` so that ``-0.0`` and ``0.0``
count as different.
"""

from __future__ import annotations

import random

import pytest

from repro.data.ratings import RatingMatrix
from repro.kernels import get_packed, pearson_one_vs_many, pearson_pair
from repro.kernels.oracle import DictPearsonSimilarity


def _random_matrix(rng: random.Random, users: int, items: int) -> RatingMatrix:
    matrix = RatingMatrix()
    for user in range(users):
        for item in rng.sample(range(items), rng.randint(1, items // 2)):
            matrix.add(f"u{user}", f"i{item}", float(rng.randint(1, 5)))
    return matrix


def _assert_symmetric(
    matrix: RatingMatrix, min_common: int, common_mean: bool
) -> int:
    """Check every ordered pair three ways; returns the pairs checked."""
    packed = get_packed(matrix)
    oracle = DictPearsonSimilarity(
        matrix, min_common, mean_over_common_only=common_mean
    )
    users = matrix.user_ids()
    checked = 0
    for user in users:
        sweep = pearson_one_vs_many(packed, user, users, min_common, common_mean)
        for other in users:
            if other == user:
                continue
            forward = sweep[other].hex()
            backward = pearson_pair(
                packed, other, user, min_common, common_mean
            ).hex()
            dict_backward = oracle.similarity(other, user).hex()
            assert forward == backward == dict_backward, (user, other)
            checked += 1
    return checked


@pytest.mark.parametrize("seed", [3, 17, 40])
@pytest.mark.parametrize("min_common", [1, 2, 3])
@pytest.mark.parametrize("common_mean", [False, True])
def test_sweep_pair_and_oracle_agree_in_both_directions(
    seed, min_common, common_mean
):
    rng = random.Random(seed)
    matrix = _random_matrix(rng, users=18, items=14)
    assert _assert_symmetric(matrix, min_common, common_mean) == 18 * 17


@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("common_mean", [False, True])
def test_symmetry_survives_incremental_repacks(seed, common_mean):
    """New users, new items and overwritten ratings go through the
    packed view's incremental repack; the property must hold after
    each of them."""
    rng = random.Random(seed)
    matrix = _random_matrix(rng, users=12, items=10)
    packed = get_packed(matrix)
    _assert_symmetric(matrix, 2, common_mean)
    for step in range(12):
        kind = step % 3
        if kind == 0:  # a new user
            user = f"n{step}"
        else:  # an existing user
            user = rng.choice(matrix.user_ids())
        if kind == 1:  # a new item
            item = f"x{step}"
        elif kind == 2:  # overwrite one of the user's ratings
            item = rng.choice(sorted(matrix.item_ids_of(user)))
        else:
            item = rng.choice(matrix.item_ids())
        matrix.add(user, item, float(rng.randint(1, 5)))
        packed.mark_dirty(user)
        for min_common in (1, 2, 3):
            _assert_symmetric(matrix, min_common, common_mean)
