"""Unit tests for the ASCII reporting helpers."""

from __future__ import annotations

from repro.eval.experiments import (
    run_table2,
    run_value_quality,
    verify_proposition1,
)
from repro.eval.reporting import (
    format_metrics,
    format_proposition1,
    format_serving_stats,
    format_table,
    format_table2,
    format_value_quality,
)


class TestFormatTable:
    def test_header_and_rows_aligned(self):
        table = format_table(["name", "value"], [["a", 1.0], ["longer-name", 12.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines padded to the same width

    def test_float_format_applied(self):
        table = format_table(["x"], [[1.23456]], float_format="{:.1f}")
        assert "1.2" in table
        assert "1.23" not in table

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table


class TestExperimentFormatters:
    def test_format_table2_contains_all_cells(self):
        result = run_table2(m_values=[10], z_values=[4, 8], repeats=1)
        rendered = format_table2(result)
        assert "Brute-force (ms)" in rendered
        assert rendered.count("\n") >= 3

    def test_format_proposition1(self):
        rows = verify_proposition1(group_sizes=(2,), z_values=(2, 4), num_candidates=10)
        rendered = format_proposition1(rows)
        assert "fairness" in rendered
        assert "True" in rendered

    def test_format_value_quality(self):
        rows = run_value_quality(m_values=(8,), z_values=(4,), seed=1)
        rendered = format_value_quality(rows)
        assert "greedy/opt" in rendered

    def test_format_metrics(self):
        rendered = format_metrics({"fairness": 1.0, "count": 3})
        assert "fairness" in rendered
        assert "1.0000" in rendered
        assert "count" in rendered

    def test_format_serving_stats_renders_pool_counters(self):
        """The broadcast counters reach the serve output."""
        rendered = format_serving_stats(
            {
                "requests": {"group_requests": 2},
                "backend": {
                    "name": "pool",
                    "workers": 4,
                    "pool": {
                        "epoch": 5,
                        "resident_epoch": 5,
                        "restarts": 2,
                        "delta_syncs": 5,
                        "sync_messages": 18,
                        "sync_bytes": 1188,
                        "pending_deltas": 0,
                        "live_workers": 4,
                    },
                },
            }
        )
        assert "backend: pool (workers=4)" in rendered
        assert (
            "pool: epoch 5 (resident 5), 4 live workers, 2 restarts, "
            "5 broadcasts (18 messages, 1188 B)"
        ) in rendered
        assert "scale" not in rendered

    def test_format_serving_stats_without_pool_section(self):
        rendered = format_serving_stats(
            {"requests": {}, "backend": {"name": "serial", "workers": 1}}
        )
        assert "backend: serial" in rendered
        assert "pool:" not in rendered
