"""Unit tests for the experiment harness (Table II, Proposition 1, ablations)."""

from __future__ import annotations

import pytest

from repro.eval.experiments import (
    run_aggregation_ablation,
    run_similarity_ablation,
    run_table2,
    run_value_quality,
    synthetic_candidates,
    verify_proposition1,
)


class TestSyntheticCandidates:
    def test_requested_sizes(self):
        candidates = synthetic_candidates(num_candidates=25, group_size=5, seed=1)
        assert candidates.num_candidates == 25
        assert len(candidates.group) == 5

    def test_deterministic(self):
        first = synthetic_candidates(num_candidates=10, group_size=3, seed=4)
        second = synthetic_candidates(num_candidates=10, group_size=3, seed=4)
        assert first.group_relevance == second.group_relevance

    def test_scores_within_scale(self):
        candidates = synthetic_candidates(num_candidates=10, group_size=3, seed=4)
        for member_scores in candidates.relevance.values():
            for score in member_scores.values():
                assert 1.0 <= score <= 5.0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            synthetic_candidates(num_candidates=0)
        with pytest.raises(ValueError):
            synthetic_candidates(num_candidates=5, group_size=0)


class TestTable2:
    def test_small_grid_has_expected_cells(self):
        result = run_table2(m_values=[10], z_values=[4, 8], repeats=1)
        assert {(row.m, row.z) for row in result.rows} == {(10, 4), (10, 8)}

    def test_z_larger_than_m_skipped(self):
        result = run_table2(m_values=[10], z_values=[12], repeats=1)
        assert result.rows == []

    def test_heuristic_faster_than_brute_force(self):
        """The shape of Table II: the heuristic wins, by a growing factor."""
        result = run_table2(m_values=[12], z_values=[4, 6], repeats=1)
        for row in result.rows:
            assert row.heuristic_ms <= row.brute_force_ms

    def test_fairness_of_both_algorithms_is_one(self):
        """'the fairness of the produced results are identical in both
        cases verifying Proposition 1' (z >= |G| in every Table II cell)."""
        result = run_table2(m_values=[10, 12], z_values=[4, 8], group_size=4, repeats=1)
        for row in result.rows:
            assert row.heuristic_fairness == 1.0
            assert row.brute_force_fairness == 1.0

    def test_brute_force_value_at_least_heuristic(self):
        result = run_table2(m_values=[10], z_values=[4], repeats=1)
        row = result.rows[0]
        assert row.brute_force_value >= row.heuristic_value - 1e-9

    def test_max_subsets_skips_expensive_cells(self):
        result = run_table2(m_values=[20], z_values=[4, 8], repeats=1, max_subsets=10_000)
        assert {(row.m, row.z) for row in result.rows} == {(20, 4)}

    def test_row_lookup(self):
        result = run_table2(m_values=[10], z_values=[4], repeats=1)
        assert result.row(10, 4).m == 10
        with pytest.raises(KeyError):
            result.row(99, 4)


class TestProposition1:
    def test_holds_for_all_swept_configurations(self):
        rows = verify_proposition1(
            group_sizes=(2, 3, 4, 6), z_values=(2, 4, 6, 8), num_candidates=20
        )
        assert rows
        assert all(row.holds for row in rows)

    def test_rows_where_premise_applies_have_fairness_one(self):
        rows = verify_proposition1(group_sizes=(3,), z_values=(3, 5), num_candidates=15)
        for row in rows:
            if row.z >= row.group_size:
                assert row.fairness == 1.0


@pytest.fixture
def ablation_dataset(small_dataset):
    """The shared session dataset (see ``tests/conftest.py``)."""
    return small_dataset


class TestAblations:
    def test_aggregation_ablation_rows(self, ablation_dataset):
        rows = run_aggregation_ablation(
            dataset=ablation_dataset,
            group_size=4,
            z=6,
            aggregations=("average", "minimum"),
            seed=3,
        )
        assert {row.aggregation for row in rows} == {"average", "minimum"}
        for row in rows:
            assert 0.0 <= row.fairness <= 1.0
            assert row.min_satisfaction <= row.mean_satisfaction + 1e-9

    def test_similarity_ablation_covers_paper_measures(self, ablation_dataset):
        rows = run_similarity_ablation(dataset=ablation_dataset, group_size=4, z=6, seed=3)
        names = {row.similarity for row in rows}
        assert {"ratings-pearson", "profile-tfidf", "semantic-snomed", "hybrid"} <= names
        for row in rows:
            assert row.candidates > 0
            assert row.elapsed_ms >= 0.0

    def test_value_quality_ratios_bounded_by_one(self):
        rows = run_value_quality(m_values=(10,), z_values=(4, 6), seed=3)
        for row in rows:
            assert row.greedy_ratio <= 1.0 + 1e-9
            assert row.swap_ratio <= 1.0 + 1e-9
            assert row.swap_ratio >= row.greedy_ratio - 1e-9


class TestExperimentBackends:
    """Grid sweeps must produce identical rows on every backend."""

    @pytest.mark.parametrize("backend", ["pool"])
    def test_value_quality_rows_match_serial(self, backend):
        serial = run_value_quality(m_values=(8, 10), z_values=(3, 5))
        parallel = run_value_quality(
            m_values=(8, 10), z_values=(3, 5), backend=backend
        )
        assert parallel == serial

    @pytest.mark.parametrize("backend", ["pool"])
    def test_proposition1_rows_match_serial(self, backend):
        serial = verify_proposition1(
            group_sizes=(2, 3), z_values=(2, 4), num_candidates=12
        )
        parallel = verify_proposition1(
            group_sizes=(2, 3), z_values=(2, 4), num_candidates=12,
            backend=backend,
        )
        assert parallel == serial

    def test_table2_grid_shape_matches_serial(self):
        # Timings are machine noise; the grid cells and the
        # deterministic columns must line up.
        serial = run_table2(
            m_values=(6, 8), z_values=(2, 4), max_subsets=1000
        )
        pooled = run_table2(
            m_values=(6, 8), z_values=(2, 4), max_subsets=1000,
            backend="pool",
        )
        assert [(r.m, r.z) for r in pooled.rows] == [
            (r.m, r.z) for r in serial.rows
        ]
        for serial_row, pool_row in zip(serial.rows, pooled.rows):
            assert pool_row.brute_force_value == serial_row.brute_force_value
            assert pool_row.heuristic_value == serial_row.heuristic_value
            assert pool_row.brute_force_fairness == serial_row.brute_force_fairness
            assert pool_row.subsets_enumerated == serial_row.subsets_enumerated
