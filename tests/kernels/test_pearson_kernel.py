"""Packed Pearson kernels vs the dict oracle: bit-identical, always."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from repro.data.ratings import RatingMatrix
from repro.kernels import (
    PackedRatings,
    overlap_counts,
    pearson_one_vs_many,
    pearson_pair,
)
from repro.kernels.oracle import DictPearsonSimilarity
from repro.similarity.ratings_sim import PearsonRatingSimilarity


def random_matrix(seed: int, users: int = 15, items: int = 20) -> RatingMatrix:
    rng = random.Random(seed)
    matrix = RatingMatrix()
    for u in range(users):
        for i in rng.sample(range(items), rng.randint(0, items - 1)):
            matrix.add(f"u{u}", f"i{i}", float(rng.randint(1, 5)))
    return matrix


@pytest.mark.parametrize("seed", [1, 8, 21])
@pytest.mark.parametrize("min_common", [1, 2, 4])
@pytest.mark.parametrize("common_mean", [False, True])
def test_pair_scores_bit_identical_to_oracle(seed, min_common, common_mean):
    matrix = random_matrix(seed)
    oracle = DictPearsonSimilarity(
        matrix, min_common, mean_over_common_only=common_mean
    )
    packed_measure = PearsonRatingSimilarity(
        matrix, min_common, mean_over_common_only=common_mean
    )
    users = matrix.user_ids()
    for user_a in users:
        for user_b in users:
            expected = oracle.similarity(user_a, user_b)
            assert packed_measure.similarity(user_a, user_b) == expected


@pytest.mark.parametrize("seed", [2, 9])
def test_batched_rows_bit_identical_to_oracle(seed):
    matrix = random_matrix(seed)
    oracle = DictPearsonSimilarity(matrix)
    packed_measure = PearsonRatingSimilarity(matrix)
    users = matrix.user_ids()
    for user_id in users:
        assert packed_measure.similarities(user_id, users) == oracle.similarities(
            user_id, users
        )


def test_parity_through_interleaved_mutations():
    matrix = random_matrix(4)
    oracle = DictPearsonSimilarity(matrix)
    packed_measure = PearsonRatingSimilarity(matrix)
    rng = random.Random(77)
    for step in range(15):
        user = f"u{rng.randrange(17)}"
        item = f"i{rng.randrange(24)}"
        matrix.add(user, item, float(rng.randint(1, 5)))
        oracle.invalidate_user(user)
        packed_measure.invalidate_user(user)
        probe = rng.sample(matrix.user_ids(), min(6, matrix.num_users))
        for user_a in probe:
            assert packed_measure.similarities(
                user_a, probe
            ) == oracle.similarities(user_a, probe)


def test_parity_after_removal():
    matrix = random_matrix(6)
    oracle = DictPearsonSimilarity(matrix)
    packed_measure = PearsonRatingSimilarity(matrix)
    users = matrix.user_ids()
    packed_measure.similarities(users[0], users)  # force the initial pack
    victim = users[1]
    for item_id in list(matrix.item_ids_of(victim)):
        matrix.remove(victim, item_id)
    oracle.invalidate_cache()
    packed_measure.invalidate_cache()
    for user_a in matrix.user_ids()[:5]:
        assert packed_measure.similarities(
            user_a, users
        ) == oracle.similarities(user_a, users)
    assert packed_measure.similarity(users[0], victim) == 0.0


def test_unknown_and_self_candidates():
    matrix = random_matrix(3)
    measure = PearsonRatingSimilarity(matrix)
    users = matrix.user_ids()
    scores = measure.similarities(users[0], [users[0], users[1], "ghost"])
    assert users[0] not in scores
    assert scores["ghost"] == 0.0
    assert measure.similarity("ghost", "phantom") == 0.0
    assert measure.similarity("ghost", "ghost") == 1.0


def test_empty_candidate_list():
    matrix = random_matrix(3)
    measure = PearsonRatingSimilarity(matrix)
    assert measure.similarities(matrix.user_ids()[0], []) == {}


def test_overlap_counts_match_set_intersections():
    matrix = random_matrix(5)
    packed = PackedRatings(matrix)
    users = matrix.user_ids()
    for user_a in users[:6]:
        counts = overlap_counts(packed, packed.user_index[user_a])
        for user_b in users:
            expected = len(matrix.co_rated_items(user_a, user_b))
            assert counts[packed.user_index[user_b]] == expected


def test_kernel_functions_on_raw_packed_view():
    matrix = RatingMatrix(
        [
            ("a", "x", 5.0),
            ("a", "y", 1.0),
            ("a", "z", 3.0),
            ("b", "x", 4.0),
            ("b", "y", 2.0),
            ("c", "z", 5.0),
        ]
    )
    packed = PackedRatings(matrix)
    oracle = DictPearsonSimilarity(matrix)
    assert pearson_pair(packed, "a", "b") == oracle.similarity("a", "b")
    assert pearson_pair(packed, "a", "c") == 0.0  # below min_common_items
    batch = pearson_one_vs_many(packed, "a", ["b", "c"])
    assert batch == oracle.similarities("a", ["b", "c"])



def _imported_modules(path: Path, package: str) -> set[str]:
    """Absolute names of every module ``path`` imports (relative resolved)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                module = ".".join(parts + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_only_tests_and_benchmarks_import_the_oracle():
    """The dict Pearson is a test oracle, never a library code path."""
    import repro

    src = Path(repro.__file__).parent.parent
    importers = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        package = module.rpartition(".")[0]
        if module != "repro.kernels.oracle" and (
            "repro.kernels.oracle" in _imported_modules(path, package)
        ):
            importers.append(module)
    assert importers == []
