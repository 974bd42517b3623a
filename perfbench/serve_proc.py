"""The serving process of one benchmark segment.

Builds what ``repro serve --listen`` builds -- a ``RecommendationService``
over a dataset file, warmed as the workload asks, behind a
``RequestServer`` on a loopback port -- and then obeys JSON commands on
stdin, answering each with one JSON line on stdout:

* ``mark``  -- remember the service and server counters (window start);
* ``stats`` -- counters since the mark, peak RSS, pool statistics;
* ``run``   -- batch mode only: closed loop of ``recommend_many`` calls;
* ``stop``  -- stop the server and the service, write spans, exit.

Usage: ``python3 perfbench/serve_proc.py JOB.json`` where the job file
is written by ``perfbench/run.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time


def _vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set size (``VmHWM``) of one process, in kB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _rss_peak_mb() -> float:
    """This process's peak RSS plus that of its live children (pool workers)."""
    total = _vm_hwm_kb()
    for child in multiprocessing.active_children():
        total += _vm_hwm_kb(child.pid)
    return total / 1024.0


class _Counters:
    """Service and server counters, read as deltas since a mark."""

    def __init__(self, service, registry) -> None:
        self.service = service
        self.registry = registry
        self.base = self._read()

    def _read(self) -> dict:
        stats = self.service.stats()
        flat = {}
        for cache in ("similarity_cache", "relevance_cache", "group_cache"):
            for key in ("hits", "misses", "invalidations"):
                flat[f"{cache}.{key}"] = stats[cache][key]
        flat["server_overloads"] = self.registry.value("server_overloads")
        flat["server_errors"] = self.registry.value("server_errors")
        worker_ms = 0.0
        worker_pearson = 0
        for name, labels, metric in self.registry.metrics():
            label_map = dict(labels)
            if "worker" not in label_map:
                continue
            if name == "request_ms" and label_map.get("kind") == "group":
                worker_ms += metric.sum
            elif name == "kernel_ms" and label_map.get("kernel") == "pearson_one_vs_many":
                worker_pearson += metric.count
        flat["worker_request_ms"] = worker_ms
        flat["worker_pearson_calls"] = worker_pearson
        return flat

    def mark(self) -> None:
        self.base = self._read()

    def delta(self) -> dict:
        now = self._read()
        return {key: now[key] - self.base[key] for key in now}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    # The protocol owns the real stdout; anything the library prints
    # goes to stderr instead of corrupting a reply.
    out = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr

    def reply(message: dict) -> None:
        out.write(json.dumps(message) + "\n")
        out.flush()

    recorder = None
    if job["trace"]:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)

    from repro.config import RecommenderConfig
    from repro.data import serialization
    from repro.data.groups import Group
    from repro.obs import reset_registry
    from repro.serving import RequestServer
    from repro.serving.service import RecommendationService

    registry = reset_registry()
    dataset = serialization.load_dataset(job["dataset"])
    config = RecommenderConfig(**job["config"])
    service = RecommendationService(dataset, config, metrics=registry)
    if recorder is not None:
        spans.install_on_service(recorder, service)
    rows_built = service.warm() if job["warm_index"] else 0

    server = None
    batches = [[Group(member_ids=members) for members in batch] for batch in job["batches"]]
    if job["mode"] == "server":
        server = RequestServer(service, metrics=registry)
        host, port = server.start()
        reply({"event": "ready", "host": host, "port": port, "rows_built": rows_built})
    else:
        # Untimed warm-up: one pass over the batch list.  The pool hands
        # chunk i of a batch to worker i mod width, so replaying the
        # same batches later finds every worker's peer rows built.
        for batch in batches:
            service.recommend_many(batch)
        reply({"event": "ready", "rows_built": rows_built})

    counters = _Counters(service, registry)
    for line in sys.stdin:
        command = json.loads(line)
        kind = command["cmd"]
        if kind == "mark":
            counters.mark()
            reply({"event": "marked"})
        elif kind == "run":
            reply(_run_batches(service, batches, command["seconds"], recorder))
        elif kind == "stats":
            pool_stats = getattr(service.backend, "pool_stats", None)
            reply(
                {
                    "event": "stats",
                    "counters": counters.delta(),
                    "rss_peak_mb": _rss_peak_mb(),
                    "pool": pool_stats() if pool_stats is not None else None,
                    "built_rows": service.stats()["index"]["built_rows"],
                }
            )
        elif kind == "stop":
            if server is not None:
                server.stop()
            service.close()
            if recorder is not None:
                recorder.dump(job["spans_out"])
            reply({"event": "stopped"})
            return 0
    return 1


def _run_batches(service, batches, seconds: float, recorder) -> dict:
    """Closed loop of ``recommend_many`` over the batch list, cycling."""
    done = []
    clock = time.perf_counter
    window_end = clock() + seconds
    number = 0
    while clock() < window_end:
        position = number % len(batches)
        started = clock()
        if recorder is not None:
            results = recorder.rooted(
                "client.batch", f"b{number}", service.recommend_many, batches[position]
            )
        else:
            results = service.recommend_many(batches[position])
        finished = clock()
        done.append(
            {
                "position": position,
                "rid": f"b{number}",
                "start": started,
                "end": finished,
                "results": [[list(r.items), r.report.fairness] for r in results],
            }
        )
        number += 1
    return {"event": "ran", "batches": done}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
