"""Plain-text reporting of experiment results.

The benchmarks and the CLI print the reproduced tables in the same shape
the paper uses (Table II has columns m, z, brute-force time, heuristic
time).  Everything here renders to simple aligned ASCII so the output
reads well in a terminal and in the EXPERIMENTS.md log.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Sequence

from ..obs import Histogram

from .experiments import (
    AggregationAblationRow,
    Proposition1Row,
    SimilarityAblationRow,
    Table2Result,
    ValueQualityRow,
)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    float_format: str = "{:.2f}",
) -> str:
    """Render ``rows`` as an aligned ASCII table with ``headers``."""
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered: list[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.rjust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_table2(result: Table2Result) -> str:
    """Render the Table II reproduction like the paper's Table II."""
    headers = [
        "m",
        "z",
        "Brute-force (ms)",
        "Heuristic (ms)",
        "Speedup",
        "BF fairness",
        "Heur fairness",
    ]
    rows = [
        [
            row.m,
            row.z,
            row.brute_force_ms,
            row.heuristic_ms,
            row.speedup,
            row.brute_force_fairness,
            row.heuristic_fairness,
        ]
        for row in result.rows
    ]
    return format_table(headers, rows, float_format="{:.3f}")


def format_proposition1(rows: Sequence[Proposition1Row]) -> str:
    """Render the Proposition 1 verification sweep."""
    headers = ["|G|", "z", "m", "fairness", "z >= |G|", "holds"]
    table_rows = [
        [row.group_size, row.z, row.m, row.fairness, row.z >= row.group_size, row.holds]
        for row in rows
    ]
    return format_table(headers, table_rows, float_format="{:.3f}")


def format_aggregation_ablation(rows: Sequence[AggregationAblationRow]) -> str:
    """Render the aggregation ablation (Ablation A)."""
    headers = [
        "aggregation",
        "group",
        "fairness",
        "value",
        "min satisfaction",
        "mean satisfaction",
    ]
    table_rows = [
        [
            row.aggregation,
            row.group_kind,
            row.fairness,
            row.value,
            row.min_satisfaction,
            row.mean_satisfaction,
        ]
        for row in rows
    ]
    return format_table(headers, table_rows, float_format="{:.3f}")


def format_similarity_ablation(rows: Sequence[SimilarityAblationRow]) -> str:
    """Render the similarity ablation (Ablation B)."""
    headers = [
        "similarity",
        "fairness",
        "value",
        "mean satisfaction",
        "candidates",
        "time (ms)",
    ]
    table_rows = [
        [
            row.similarity,
            row.fairness,
            row.value,
            row.mean_satisfaction,
            row.candidates,
            row.elapsed_ms,
        ]
        for row in rows
    ]
    return format_table(headers, table_rows, float_format="{:.3f}")


def format_value_quality(rows: Sequence[ValueQualityRow]) -> str:
    """Render the selection-quality ablation (Ablation C)."""
    headers = ["m", "z", "greedy/opt", "swap/opt", "greedy value", "optimal value"]
    table_rows = [
        [
            row.m,
            row.z,
            row.greedy_ratio,
            row.swap_ratio,
            row.greedy_value,
            row.brute_force_value,
        ]
        for row in rows
    ]
    return format_table(headers, table_rows, float_format="{:.3f}")


#: Latency table columns shared by :func:`format_latency` and
#: :func:`format_latency_histogram` — every surface that prints a
#: latency distribution prints these.
_LATENCY_COLUMNS = ("count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms")


def _latency_row(summary: Mapping[str, float]) -> list[Any]:
    return [
        "latency",
        summary["count"],
        summary["mean"],
        summary["p50"],
        summary["p95"],
        summary["p99"],
        summary["max"],
    ]


def format_latency(samples_ms: Sequence[float], label: str = "request") -> str:
    """Render a latency distribution (mean / p50 / p95 / p99 / max).

    The samples are routed through the shared
    :class:`~repro.obs.Histogram` type, so CLI serve output, benchmarks
    and registry-backed stats views all report *identical* percentile
    math (nearest-rank over log-spaced buckets, clamped to the observed
    range).
    """
    if not samples_ms:
        return format_table([label, "count"], [["-", 0]])
    histogram = Histogram("latency", (), threading.RLock())
    for sample in samples_ms:
        # The unconditional record path: a report renders whatever it
        # was handed even while live instrumentation is disabled.
        histogram._observe(sample)
    return format_latency_histogram(histogram, label)


def format_latency_histogram(
    histogram: Histogram | None, label: str = "request"
) -> str:
    """Render one (possibly merged) registry histogram as a latency table.

    ``None`` (no such histogram in the registry yet) renders the same
    empty table as a histogram with zero observations.
    """
    if histogram is None:
        return format_table([label, "count"], [["-", 0]])
    summary = histogram.as_dict()
    if not summary["count"]:
        return format_table([label, "count"], [["-", 0]])
    headers = [label, *_LATENCY_COLUMNS]
    return format_table(headers, [_latency_row(summary)], float_format="{:.3f}")


def format_serving_stats(stats: Mapping[str, Any]) -> str:
    """Render :meth:`RecommendationService.stats` output for the terminal.

    The stats dict is the service's registry view; alongside the
    request counters, cache table, index and backend lines this renders
    the per-kind ``latency`` percentiles when any were recorded.
    """
    lines = [format_metrics(stats.get("requests", {}))]
    latency_rows = [
        [kind, *_latency_row(summary)[1:]]
        for kind, summary in (stats.get("latency") or {}).items()
        if summary.get("count")
    ]
    if latency_rows:
        lines.append("")
        lines.append(
            format_table(
                ["kind", *_LATENCY_COLUMNS],
                latency_rows,
                float_format="{:.3f}",
            )
        )
    cache_rows = []
    for name in ("similarity_cache", "relevance_cache", "group_cache"):
        cache = stats.get(name)
        if cache:
            cache_rows.append(
                [
                    name.replace("_cache", ""),
                    cache["hits"],
                    cache["misses"],
                    cache["evictions"],
                    cache["invalidations"],
                    cache["hit_rate"],
                ]
            )
    if cache_rows:
        lines.append("")
        lines.append(
            format_table(
                ["cache", "hits", "misses", "evictions", "invalidated", "hit rate"],
                cache_rows,
                float_format="{:.3f}",
            )
        )
    index = stats.get("index")
    if index:
        lines.append("")
        lines.append(
            f"neighbor index: {index['built_rows']}/{index['users']} rows "
            f"(δ={index['threshold']})"
        )
    backend = stats.get("backend")
    if backend:
        lines.append(
            f"backend: {backend['name']} (workers={backend['workers']})"
        )
        pool = backend.get("pool")
        if pool:
            lines.append(
                f"pool: epoch {pool['epoch']} (resident "
                f"{pool['resident_epoch']}), {pool['live_workers']} live "
                f"workers, {pool['restarts']} restarts, "
                f"{pool['delta_syncs']} broadcasts "
                f"({pool['sync_messages']} messages, {pool['sync_bytes']} B)"
            )
    return "\n".join(lines)


def format_metrics(metrics: Mapping[str, float]) -> str:
    """Render a flat metric mapping as ``name: value`` lines."""
    width = max((len(name) for name in metrics), default=0)
    return "\n".join(
        f"{name.ljust(width)} : {value:.4f}" if isinstance(value, float)
        else f"{name.ljust(width)} : {value}"
        for name, value in metrics.items()
    )
