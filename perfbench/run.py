#!/usr/bin/env python3
"""One end-to-end benchmark of the serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 8 --trace 0

Each run starts the serving process (``perfbench/serve_proc.py``: a
``RecommendationService`` behind a ``RequestServer``, as ``repro serve
--listen`` builds them) three times in a row.  Each start is one
segment: set-up, then a timed window of ``--seconds / 3`` seconds of
load, then a stop.  Every segment replays the same seeded inputs, so
``setup_s`` is the median of three set-ups and the latency samples of
the three windows are pooled.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
first segment untraced and the other two with span wrappers on every
layer, and prints the per-layer metrics plus the self-time breakdown.
Every answer is checked against the cold serial pipeline after the
windows, off the clock.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--tiny`` shrinks every workload to a few seconds for the tests in
``perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SEGMENTS = 3
#: An open-loop run whose generator sent later than this (p99) did not
#: offer the load it claims; it is reported invalid instead of a number.
LAG_BOUND_MS = 25.0
#: Wall-clock budget of one run, below the 180 s the contract allows.
RUN_BUDGET_S = 170.0
clock = time.perf_counter


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- the serving process -------------------------------------------------------


class ServeProcess:
    """One serving process and its JSON-lines command pipe."""

    def __init__(self, job: dict[str, Any], job_path: Path, log_path: Path, deadline: float):
        job_path.write_text(json.dumps(job), encoding="utf-8")
        self.deadline = deadline
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-B", str(HERE / "serve_proc.py"), str(job_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            cwd=str(ROOT),
        )

    def expect(self, event: str) -> dict[str, Any]:
        remaining = self.deadline - clock()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise BenchError(f"serving process gave no {event!r} reply (see {self.log.name})")
        message = json.loads(line)
        if message.get("event") != event:
            raise BenchError(f"expected {event!r} from serving process, got {message}")
        return message

    def command(self, cmd: str, event: str, **fields: Any) -> dict[str, Any]:
        self.proc.stdin.write((json.dumps({"cmd": cmd, **fields}) + "\n").encode())
        self.proc.stdin.flush()
        return self.expect(event)

    def close(self) -> None:
        """Stop the process (politely if it still listens) and wait for it."""
        if self.proc.poll() is None:
            try:
                self.command("stop", "stopped")
            except (BenchError, OSError, ValueError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        self.log.close()


# -- one segment --------------------------------------------------------------


@dataclass
class Segment:
    setup_s: float
    rss_peak_mb: float
    counters: dict[str, float]
    pool: dict[str, Any] | None
    built_rows: int
    traced: bool = False
    #: (key, latency_s, response-or-None); None means unanswered
    timed: list[tuple[tuple, float, dict | None]] = field(default_factory=list)
    #: untimed answers that are also checked, warm-up and read-back, as
    #: (key, response-or-None, writes acknowledged before it)
    checked: list[tuple[tuple, dict | None, tuple]] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    window_s: float = 0.0
    writes_acked: tuple = ()
    spans: list[tuple] = field(default_factory=list)
    rid_latency: dict[Any, tuple[str, float]] = field(default_factory=dict)
    #: batch mode: (position, latency_s, results)
    batches: list[tuple[int, float, list]] = field(default_factory=list)


def _decode(line: bytes) -> dict | None:
    try:
        return json.loads(line)
    except ValueError:
        return None


def _run_segment(ctx: "Run", index: int, traced: bool) -> Segment:
    """Start the serving process, set it up, load it for one window, stop it."""
    from breakdown import load_spans

    workload, plan = ctx.workload, ctx.plan
    spans_path = ctx.dir / f"spans-{index}.jsonl"
    job = {
        "src": str(SRC),
        "dataset": str(ctx.dataset_path),
        "config": workload.config(),
        "mode": "batch" if workload.loop == "batch" else "server",
        "warm_index": workload.warm_index,
        "trace": traced,
        "spans_out": str(spans_path),
        "batches": [[list(group) for group in batch] for batch in plan.batches],
    }
    launched = clock()
    server = ServeProcess(
        job, ctx.dir / f"job-{index}.json", ctx.dir / "serve.log", ctx.deadline
    )
    try:
        ready = server.expect("ready")
        if workload.loop == "batch":
            segment = _batch_window(ctx, server, launched)
        else:
            segment = _server_window(ctx, server, launched, ready, index, traced)
        server.command("stop", "stopped")
    finally:
        server.close()
    segment.traced = traced
    if traced:
        segment.spans = load_spans(str(spans_path))
    return segment


def _server_window(
    ctx: "Run", server: ServeProcess, launched: float, ready: dict, index: int, traced: bool
) -> Segment:
    """Warm-up, timed window and read-back over loopback TCP."""
    from loadgen import Connections
    from workloads import request_line

    workload, plan = ctx.workload, ctx.plan
    seq = itertools.count()
    keys: dict[int, tuple] = {}

    def tagged(key: tuple) -> tuple[bytes, int]:
        number = next(seq)
        keys[number] = key
        return request_line(key, f"s{index}-{number}" if traced else None), number

    with Connections((ready["host"], ready["port"]), workload.clients) as conns:
        warm = conns.closed_loop(iter([tagged(k) for k in plan.hot]), None)
        setup_s = clock() - launched
        server.command("mark", "marked")
        if workload.loop == "open":
            schedules = [
                [(due, *tagged(key)) for due, key in schedule] for schedule in plan.schedules
            ]
            outcome = conns.open_loop(schedules)
        else:
            cycle = (tagged(key) for key in itertools.cycle(plan.closed))
            outcome = conns.closed_loop(cycle, ctx.window_s)
        stats = server.command("stats", "stats")
        readback = None
        if workload.write_rps:
            readback = conns.closed_loop(iter([tagged(k) for k in plan.hot]), None)

    segment = _segment_from_stats(setup_s, stats)
    segment.lags_ms = [lag * 1000.0 for lag in outcome.lags]
    segment.window_s = outcome.finished - outcome.started
    writes = []
    for tag, t_ref, t_done, line in outcome.answered:
        key, response = keys[tag], _decode(line)
        segment.timed.append((key, t_done - t_ref, response))
        segment.rid_latency[f"s{index}-{tag}"] = (key[0], t_done - t_ref)
        if key[0] == "rate" and response is not None and response.get("ok") is True:
            writes.append(key)
    segment.timed.extend((keys[tag], 0.0, None) for tag in outcome.unanswered)
    segment.writes_acked = tuple(writes)
    for untimed, writes in ((warm, ()), (readback, segment.writes_acked)):
        if untimed is None:
            continue
        segment.checked.extend(
            (keys[t], _decode(line), writes) for t, _, _, line in untimed.answered
        )
        segment.checked.extend((keys[t], None, writes) for t in untimed.unanswered)
    return segment


def _batch_window(ctx: "Run", server: ServeProcess, launched: float) -> Segment:
    """The serving process runs the batch loop itself; collect its timings."""
    setup_s = clock() - launched
    server.command("mark", "marked")
    ran = server.command("run", "ran", seconds=ctx.window_s)
    segment = _segment_from_stats(setup_s, server.command("stats", "stats"))
    batches = ran["batches"]
    if batches:
        segment.window_s = batches[-1]["end"] - batches[0]["start"]
    for batch in batches:
        latency = batch["end"] - batch["start"]
        segment.batches.append((batch["position"], latency, batch["results"]))
        segment.rid_latency[batch["rid"]] = ("batch", latency)
    return segment


def _segment_from_stats(setup_s: float, stats: dict) -> Segment:
    return Segment(
        setup_s=setup_s,
        rss_peak_mb=stats["rss_peak_mb"],
        counters=stats["counters"],
        pool=stats["pool"],
        built_rows=stats["built_rows"],
    )


# -- the run ------------------------------------------------------------------


@dataclass
class Run:
    workload: Any
    seed: int
    seconds: float
    trace: bool
    dir: Path
    deadline: float
    dataset_path: Path = Path()
    plan: Any = None

    @property
    def window_s(self) -> float:
        return self.seconds / SEGMENTS


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=str(ROOT), capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _host_record() -> dict[str, Any]:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "available_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
    }


def _check(ctx: Run, segments: list[Segment]) -> tuple[int, int, bool]:
    """Compare every answer with the cold pipeline.

    Returns ``(attempted, failed, self_test_ok)``.  Each checked answer
    carries the writes acknowledged before it was computed; the reference
    is the cold pipeline over the dataset plus those writes.  Reads sent
    beside writes (``writes is None``) saw an intermediate state: they
    count as failed only on an error, and their values are checked in
    the read-back after the window.
    """
    from workloads import matches, reference_answers

    entries: list[tuple[tuple, dict | None, tuple | None]] = []
    for segment in segments:
        for position, _, results in segment.batches:
            for group, (items, fairness) in zip(ctx.plan.batches[position], results):
                entries.append((("group", tuple(group)), {"items": items, "fairness": fairness}, ()))
        for key, _, response in segment.timed:
            beside_writes = ctx.workload.write_rps and key[0] != "rate"
            entries.append((key, response, None if beside_writes else ()))
        entries.extend(segment.checked)
    needed: dict[tuple, set] = {}
    for key, _, writes in entries:
        if writes is not None and key[0] != "rate":
            needed.setdefault(writes, set()).add(key)
    references = {
        writes: reference_answers(str(ctx.dataset_path), keys, list(writes))
        for writes, keys in needed.items()
    }
    failed = 0
    sample = None
    for key, response, writes in entries:
        if response is None:
            ok = False
        elif writes is None:
            ok = "error" not in response
        else:
            ok = matches(key, response, references.get(writes, {}))
        failed += not ok
        if ok and sample is None and writes is not None and response.get("items"):
            sample = (key, response, references[writes])
    return len(entries), failed, _self_test(sample)


def _self_test(sample: tuple | None) -> bool:
    """The checker must reject a tampered copy of an accepted answer."""
    from workloads import matches, tamper

    if sample is None:
        return False
    key, response, answers = sample
    return matches(key, response, answers) and not matches(key, tamper(response), answers)


def _read_latencies(ctx: Run, segments: list[Segment]) -> list[float]:
    """Latencies (s) of answered reads; in ``batch_pool``, of whole batches."""
    if ctx.workload.loop == "batch":
        return [lat for s in segments for _, lat, _ in s.batches]
    return [
        lat for s in segments for key, lat, resp in s.timed
        if key[0] != "rate" and resp is not None and "error" not in resp
    ]


def _e2e(ctx: Run, segments: list[Segment]) -> dict[str, float]:
    """End-to-end metrics over the untraced segments."""
    latencies = _read_latencies(ctx, segments)
    if not latencies:
        raise BenchError("no request was answered in the timed windows")
    if ctx.workload.loop == "batch":
        done = sum(len(results) for s in segments for _, _, results in s.batches)
    else:
        done = sum(
            1 for s in segments for _, _, resp in s.timed
            if resp is not None and "error" not in resp
        )
    # Open loop: the scheduled window, so the figure is the offered rate
    # while the server keeps up and drops when answers go missing.
    if ctx.workload.loop == "open":
        window = ctx.window_s * len(segments)
    else:
        window = sum(s.window_s for s in segments)
    return {
        "latency_p50_ms": _nearest_rank(latencies, 0.50) * 1000.0,
        "throughput_rps": done / window,
        "setup_s": statistics.median(s.setup_s for s in segments),
        "rss_peak_mb": statistics.median(s.rss_peak_mb for s in segments),
    }


def _read_p99_ms(ctx: Run, segments: list[Segment]) -> float:
    """p99 read latency (nearest rank); a per-layer metric, see README."""
    latencies = _read_latencies(ctx, segments)
    return _nearest_rank(latencies, 0.99) * 1000.0 if latencies else 0.0


def _ingest_p50_ms(segments: list[Segment]) -> float:
    writes = [lat for s in segments for key, lat, resp in s.timed if key[0] == "rate" and resp]
    return statistics.median(writes) * 1000.0 if writes else 0.0


E2E_UNITS = {
    "latency_p50_ms": "ms",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}
LAYER_UNITS = {
    "server.overloaded": "count",
    "cache.invalidations": "count",
    "index.rows_built": "count",
    "index.rows_changed": "count",
    "kernels.pearson_calls": "count",
    "exec.bootstrap_bytes": "bytes",
    "exec.sync_messages": "count",
}


def _unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    return "ratio"


def run(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    from repro.data import generate_scale_dataset
    from repro.data.serialization import save_dataset
    from workloads import RATINGS_PER_USER, WORKLOADS, make_plan, tiny

    started = clock()
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ctx = Run(workload, args.seed, args.seconds, bool(args.trace), run_dir, started + RUN_BUDGET_S)
    try:
        dataset = generate_scale_dataset(
            num_users=workload.users,
            num_items=workload.items,
            ratings_per_user=RATINGS_PER_USER,
            seed=args.seed,
        )
        ctx.dataset_path = run_dir / "dataset.json"
        save_dataset(dataset, ctx.dataset_path)
        ctx.plan = make_plan(workload, list(dataset.users.ids()), args.seed, ctx.window_s)
        segments = [
            _run_segment(ctx, index, traced=ctx.trace and index > 0)
            for index in range(SEGMENTS)
        ]
        attempted, failed, self_test_ok = _check(ctx, segments)
        if ctx.trace:
            with open(WORK / f"spans-{workload.name}.jsonl", "w", encoding="utf-8") as out:
                for number, segment in enumerate(segments):
                    for record in segment.spans:
                        out.write(json.dumps([number, *record]) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lags = [lag for s in segments for lag in s.lags_ms]
    lag_p99 = _nearest_rank(lags, 0.99) if lags else 0.0
    lag_ok = lag_p99 <= LAG_BOUND_MS
    untraced = [s for s in segments if not s.traced]
    e2e = _e2e(ctx, untraced)
    record = {
        "host": _host_record(),
        "workload": workload.name,
        "tiny": bool(args.tiny),
        "seed": args.seed,
        "seconds": args.seconds,
        "segments": SEGMENTS,
        "shape": workload.record(),
        "samples": {
            "timed_requests": sum(len(s.timed) for s in untraced),
            "batches": sum(len(s.batches) for s in untraced),
            "checked": attempted,
        },
        "loadgen_lag_p99_ms": lag_p99,
        "segment_setup_s": [s.setup_s for s in segments],
        "latency_p99_ms": _read_p99_ms(ctx, untraced),
        "segment_p99_ms": [_read_p99_ms(ctx, [s]) for s in segments],
        "ingest_p50_ms": _ingest_p50_ms(segments),
        "self_test_rejects_tampered": self_test_ok,
        "wall_s": clock() - started,
    }
    print("run record: " + json.dumps(record, sort_keys=True))
    correct = failed == 0 and self_test_ok and lag_ok
    if not lag_ok:
        print(f"INVALID: load generator lag p99 {lag_p99:.2f} ms > bound {LAG_BOUND_MS} ms")
    if ctx.trace:
        metrics = _trace_metrics(ctx, segments, e2e, lag_p99, attempted, failed)
    else:
        metrics = e2e
        for name, value in metrics.items():
            print(f"{workload.name:>11}  {name:<16} {value:12.4f} {E2E_UNITS[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                # An invalid run is reported as invalid, not as a number.
                "metrics": {
                    name: {"value": value, "unit": E2E_UNITS.get(name) or _unit(name)}
                    for name, value in metrics.items()
                }
                if lag_ok
                else {},
            }
        )
    )
    return 0 if lag_ok else 1


def _trace_metrics(
    ctx: Run,
    segments: list[Segment],
    untraced_e2e: dict[str, float],
    lag_p99: float,
    attempted: int,
    failed: int,
) -> dict[str, float]:
    from breakdown import SegmentTrace, layer_metrics

    traced = [s for s in segments if s.traced]
    traces = [
        SegmentTrace(
            spans=s.spans,
            client=s.rid_latency,
            counters=s.counters,
            pool=s.pool,
            built_rows=s.built_rows,
            batches=len(s.batches),
        )
        for s in traced
    ]
    metrics = layer_metrics(traces, ctx.workload.pool_workers)
    layers = metrics.pop("_layers")
    latency = metrics.pop("_latency_ms")
    requests = metrics.pop("_requests")
    traced_p50 = _e2e(ctx, traced)["latency_p50_ms"]
    metrics["loadgen.lag_p99_ms"] = lag_p99
    metrics["trace.overhead_frac"] = traced_p50 / untraced_e2e["latency_p50_ms"] - 1.0
    metrics["client.ingest_p50_ms"] = _ingest_p50_ms(segments)
    metrics["client.latency_p99_ms"] = _read_p99_ms(ctx, [s for s in segments if not s.traced])
    metrics["client.failed_frac"] = failed / attempted if attempted else 0.0
    name = ctx.workload.name
    print(f"== {name}: per-layer self time, mean per request ({requests} traced requests) ==")
    for layer, value in layers.items():
        share = value / latency if latency else 0.0
        print(f"{name:>11}  {layer:<13} {value:10.4f} ms  {share:7.1%}")
    print(f"{name:>11}  {'sum':<13} {sum(layers.values()):10.4f} ms  (end to end {latency:.4f} ms)")
    print(
        f"{name:>11}  trace.unattributed_frac {metrics['trace.unattributed_frac']:.4f}"
        f"  trace.overhead_frac {metrics['trace.overhead_frac']:.4f}"
    )
    for key in sorted(metrics):
        print(f"{name:>11}  {key:<28} {metrics[key]:14.4f} {_unit(key)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-sized workloads")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
