"""Per-layer self times from recorded spans, joined with client latencies.

A span's self time is its duration minus the durations of its direct
children (children of one span never overlap: they are sequential
calls, or the single executor hop of ``server.respond``).  Per request,
the self times of its spans are summed by layer -- the part of a span
name before the dot.  Whatever part of the client-side latency no span
covers (socket queues, loopback, the generator itself) is reported as
unattributed, so layers plus unattributed add up to the end-to-end time
by construction; the size of the remainder says how much the spans miss.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

LAYERS = ("server", "service", "cache", "index", "kernels", "core", "exec", "data")


def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time (seconds) of every span, keyed by span id."""
    ids = {record[0] for record in spans}
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _, _ in spans:
        if parent in ids:
            covered[parent] += end - start
    return {
        span_id: max(0.0, (end - start) - covered[span_id])
        for span_id, _, _, start, end, _, _ in spans
    }


@dataclass
class SegmentTrace:
    """Spans of one traced segment plus what the client saw."""

    spans: list[tuple]
    #: rid -> (request kind, client latency in seconds)
    client: dict[Any, tuple[str, float]]
    counters: dict[str, float]
    pool: dict[str, Any] | None
    built_rows: int
    batches: int = 0
    own: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.own = self_times(self.spans)


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(traces: list[SegmentTrace], workers: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from the traced segments."""
    # Per request: layer self sums, service span duration, kind, latency.
    per_request: list[tuple[str, float, dict[str, float], dict[str, float]]] = []
    durations: dict[str, list[float]] = defaultdict(list)
    self_by_name: dict[str, list[float]] = defaultdict(list)
    sizes: dict[str, list[float]] = defaultdict(list)
    segment_totals: list[dict[str, float]] = []
    for trace in traces:
        by_rid: dict[Any, list[tuple]] = defaultdict(list)
        totals: dict[str, float] = defaultdict(float)
        for record in trace.spans:
            span_id, _, name, start, end, rid, size = record
            own = trace.own[span_id]
            totals[name + ".self"] += own
            totals[name + ".calls"] += 1
            if rid is None:
                totals[name + ".setup_dur"] += end - start
                continue
            by_rid[rid].append(record)
            if rid in trace.client:
                durations[name].append(end - start)
                self_by_name[name].append(own)
                if size is not None:
                    sizes[name].append(size)
        segment_totals.append(totals)
        for rid, (kind, latency) in trace.client.items():
            layers: dict[str, float] = defaultdict(float)
            names: dict[str, float] = defaultdict(float)
            service_time = 0.0
            for span_id, _, name, start, end, _, _ in by_rid.get(rid, ()):
                layer = name.split(".", 1)[0]
                if layer in LAYERS:
                    layers[layer] += trace.own[span_id]
                names[name] += trace.own[span_id]
                if name in ("service.group", "service.user", "service.ingest", "service.many"):
                    service_time = max(service_time, end - start)
            layers["unattributed"] = latency - sum(layers[name] for name in LAYERS)
            names["service_time"] = service_time
            per_request.append((kind, latency, dict(layers), dict(names)))

    reads = [r for r in per_request if r[0] in ("group", "user", "batch")]
    ms = 1000.0

    def per_read(*span_names: str) -> float:
        return _mean([sum(r[3].get(n, 0.0) for n in span_names) for r in reads]) * ms

    def per_segment(key: str) -> float:
        return _mean([totals.get(key, 0.0) for totals in segment_totals])

    def counter(name: str) -> float:
        return _mean([trace.counters.get(name, 0.0) for trace in traces])

    def hit_ratio(cache: str) -> float:
        hits = sum(t.counters.get(f"{cache}.hits", 0.0) for t in traces)
        misses = sum(t.counters.get(f"{cache}.misses", 0.0) for t in traces)
        return hits / (hits + misses) if hits + misses else 0.0

    dispatch = durations.get("exec.dispatch", [])
    batches = sum(trace.batches for trace in traces)
    worker_ms = sum(trace.counters.get("worker_request_ms", 0.0) for trace in traces)
    pools = [trace.pool for trace in traces if trace.pool]
    total_latency = sum(r[1] for r in per_request)
    unattributed = sum(r[2]["unattributed"] for r in per_request)
    return {
        "server.overhead_ms": (
            statistics.median([r[1] - r[3]["service_time"] for r in reads]) * ms
            if reads
            else 0.0
        ),
        "server.overloaded": sum(t.counters.get("server_overloads", 0.0) for t in traces),
        "service.group_ms": _mean(durations.get("service.group", [])) * ms,
        "service.user_ms": _mean(durations.get("service.user", [])) * ms,
        "service.group_self_ms": _mean(self_by_name.get("service.group", [])) * ms,
        "service.ingest_ms": _mean(durations.get("service.ingest", [])) * ms,
        "service.init_ms": per_segment("service.init.setup_dur") * ms,
        "data.load_ms": per_segment("data.load.setup_dur") * ms,
        "cache.group_hit_ratio": hit_ratio("group_cache"),
        "cache.relevance_hit_ratio": hit_ratio("relevance_cache"),
        "cache.similarity_hit_ratio": hit_ratio("similarity_cache"),
        "cache.invalidations": counter("relevance_cache.invalidations")
        + counter("group_cache.invalidations"),
        "cache.similarity_self_ms": (
            per_segment("cache.similarity.self") + per_segment("cache.similarities.self")
        )
        * ms,
        "index.build_ms": per_segment("index.build.setup_dur") * ms,
        "index.rows_built": _mean([float(t.built_rows) for t in traces]),
        "index.refresh_ms": _mean(durations.get("index.refresh", [])) * ms,
        "index.rows_changed": _mean(sizes.get("index.refresh", [])),
        "index.peers_ms": per_read("index.peers", "index.row", "index.reverse"),
        "kernels.pearson_ms": per_segment("kernels.pearson.self") * ms,
        "kernels.pearson_calls": per_segment("kernels.pearson.calls"),
        "kernels.relevance_ms": per_read("kernels.relevance"),
        "kernels.scan_ms": per_read("kernels.scan"),
        "kernels.repack_ms": _mean(
            [r[3].get("kernels.repack", 0.0) for r in per_request]
        )
        * ms,
        "core.aggregate_ms": per_read("core.aggregate"),
        "core.select_ms": per_read("core.select"),
        "exec.dispatch_ms": _mean(dispatch) * ms,
        "exec.worker_busy_ms": worker_ms / batches if batches else 0.0,
        "exec.parallel_efficiency": (
            worker_ms / (sum(dispatch) * ms * workers) if dispatch and workers else 0.0
        ),
        "exec.bootstrap_bytes": _mean([float(p["bootstrap_bytes"]) for p in pools]),
        "exec.sync_messages": _mean([float(p["sync_messages"]) for p in pools]),
        "trace.unattributed_frac": unattributed / total_latency if total_latency else 0.0,
        "_layers": {
            layer: _mean([r[2].get(layer, 0.0) for r in per_request]) * ms
            for layer in LAYERS + ("unattributed",)
        },
        "_latency_ms": _mean([r[1] for r in per_request]) * ms,
        "_requests": len(per_request),
    }
