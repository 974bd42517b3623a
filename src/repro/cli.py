"""Command-line interface of the library.

``repro-health`` (or ``python -m repro.cli``) exposes the main workflows
without writing any Python:

* ``generate`` — create a synthetic health or nutrition dataset and
  save it as JSON;
* ``recommend`` — run the caregiver pipeline on a dataset for a random
  or explicit group and print the fairness-aware recommendation;
* ``table2`` — reproduce the paper's Table II (brute force vs heuristic);
* ``prop1`` — verify Proposition 1 over a sweep of group sizes;
* ``ablation`` — run the aggregation / similarity / value-quality
  ablations;
* ``serve`` — load a dataset into a warm
  :class:`~repro.serving.RecommendationService` and answer a stream of
  JSONL requests, printing latency and cache statistics (``--strict``
  validates every response against the declared shapes; ``--listen
  HOST:PORT`` serves concurrent JSONL streams over TCP instead, with
  bounded in-flight admission control);
* ``worker`` — join a ``--backend remote`` fleet as a separate worker
  process, connecting to the parent's listener over TCP;
* ``stats`` — replay a request stream quietly and print the metrics
  registry (text, JSON, or Prometheus exposition format);
* ``validate`` — check a dataset JSON (and optional group file) against
  the declared shapes of :mod:`repro.validation`, printing one
  actionable line per violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .config import KNOWN_EXEC_BACKENDS, RecommenderConfig
from .exec import DEFAULT_HEARTBEAT_INTERVAL, DEFAULT_IDLE_TTL
from .core.pipeline import CaregiverPipeline
from .data.datasets import generate_dataset
from .data.groups import Group, random_group
from .data.nutrition import generate_nutrition_dataset
from .data.serialization import load_dataset, save_dataset
from .eval.experiments import (
    run_aggregation_ablation,
    run_similarity_ablation,
    run_table2,
    run_value_quality,
    verify_proposition1,
)
from .eval.reporting import (
    format_aggregation_ablation,
    format_proposition1,
    format_similarity_ablation,
    format_table2,
    format_value_quality,
)


def _add_workload_arguments(sub: argparse.ArgumentParser) -> None:
    """Arguments shared by the ``serve`` and ``stats`` request replays."""
    sub.add_argument("dataset", help="path of a dataset JSON (or '-' to generate)")
    sub.add_argument(
        "requests",
        help="path of a JSONL request file (or '-' for a synthetic workload)",
    )
    sub.add_argument(
        "--synthetic-requests",
        type=int,
        default=100,
        help="size of the synthetic workload when requests is '-'",
    )
    sub.add_argument("--group-size", type=int, default=5)
    sub.add_argument("--z", type=int, default=10)
    sub.add_argument("--top-k", type=int, default=10)
    sub.add_argument(
        "--similarity",
        choices=["ratings", "profile", "semantic", "hybrid"],
        default="ratings",
    )
    sub.add_argument(
        "--aggregation", choices=["average", "minimum"], default="average"
    )
    sub.add_argument("--peer-threshold", type=float, default=0.2)
    sub.add_argument(
        "--backend",
        choices=list(KNOWN_EXEC_BACKENDS),
        default="serial",
        help=(
            "execution backend for the index build and batch requests; "
            "results are bit-identical across backends"
        ),
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker count for the chosen backend (default: one CPU per "
            "worker for thread/pool/remote); with --backend serial, >1 "
            "falls back to a thread pool over runs of consecutive group "
            "requests"
        ),
    )
    sub.add_argument("--seed", type=int, default=7)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-health",
        description="Fairness-aware group recommendations in the health domain",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("output", help="path of the JSON dataset to write")
    generate.add_argument("--kind", choices=["health", "nutrition"], default="health")
    generate.add_argument("--users", type=int, default=100)
    generate.add_argument("--items", type=int, default=200)
    generate.add_argument("--ratings-per-user", type=int, default=25)
    generate.add_argument("--seed", type=int, default=7)

    recommend = subparsers.add_parser(
        "recommend", help="run the caregiver pipeline on a dataset"
    )
    recommend.add_argument("dataset", help="path of a dataset JSON (or '-' to generate)")
    recommend.add_argument("--group", nargs="*", default=None, help="member user ids")
    recommend.add_argument("--group-size", type=int, default=5)
    recommend.add_argument("--z", type=int, default=10)
    recommend.add_argument("--top-k", type=int, default=10)
    recommend.add_argument(
        "--similarity",
        choices=["ratings", "profile", "semantic", "hybrid"],
        default="ratings",
    )
    recommend.add_argument(
        "--aggregation", choices=["average", "minimum"], default="average"
    )
    recommend.add_argument("--seed", type=int, default=7)

    table2 = subparsers.add_parser("table2", help="reproduce Table II")
    table2.add_argument("--group-size", type=int, default=4)
    table2.add_argument("--repeats", type=int, default=1)
    table2.add_argument(
        "--max-subsets",
        type=int,
        default=None,
        help="skip cells that would enumerate more subsets than this",
    )
    table2.add_argument(
        "--backend",
        choices=list(KNOWN_EXEC_BACKENDS),
        default="serial",
        help="execution backend the (m, z) grid cells run on",
    )

    prop1 = subparsers.add_parser("prop1", help="verify Proposition 1")
    prop1.add_argument("--candidates", type=int, default=30)

    ablation = subparsers.add_parser("ablation", help="run an extension ablation")
    ablation.add_argument(
        "kind", choices=["aggregation", "similarity", "value-quality"]
    )
    ablation.add_argument("--seed", type=int, default=7)

    evaluate = subparsers.add_parser(
        "evaluate", help="offline accuracy of the similarity measures (holdout)"
    )
    evaluate.add_argument("dataset", help="path of a dataset JSON (or '-' to generate)")
    evaluate.add_argument("--test-fraction", type=float, default=0.2)
    evaluate.add_argument("--k", type=int, default=10)
    evaluate.add_argument("--seed", type=int, default=7)

    serve = subparsers.add_parser(
        "serve", help="answer a stream of requests from a warm service"
    )
    _add_workload_arguments(serve)
    serve.add_argument(
        "--pool-min-workers",
        type=int,
        default=0,
        help=(
            "with --backend pool/remote: autoscaling floor — idle workers "
            "shrink to this width after --pool-idle-ttl seconds (0 = pin "
            "at the --workers width)"
        ),
    )
    serve.add_argument(
        "--pool-max-workers",
        type=int,
        default=0,
        help=(
            "with --backend pool/remote: autoscaling ceiling — the fleet "
            "grows toward this width under batch queue depth (0 = pin at "
            "the --workers width)"
        ),
    )
    serve.add_argument(
        "--pool-idle-ttl",
        type=float,
        default=DEFAULT_IDLE_TTL,
        help=(
            "with --backend pool/remote: seconds without a dispatch before "
            "the fleet shrinks back to --pool-min-workers"
        ),
    )
    serve.add_argument(
        "--pool-target-p99-ms",
        type=float,
        default=0.0,
        help=(
            "with --backend pool/remote: latency-target autoscaling — grow "
            "one worker while the windowed batch p99 exceeds this many ms, "
            "shrink one after it recovers below half the target "
            "(0 = queue-depth scaling only)"
        ),
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="hash-shard the neighbor index into N independent partitions",
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help=(
            "neighbor-index snapshot directory (a manifest plus one file "
            "per shard): load it if PATH holds a manifest (rejecting a "
            "stale fingerprint), otherwise warm the index and save it "
            "there; later saves are incremental, and a PATH that is a "
            "regular file is rejected"
        ),
    )
    serve.add_argument(
        "--packed-spill",
        default=None,
        metavar="DIR",
        help=(
            "spill the packed CSR arrays to DIR and mmap them back, so pool workers bootstrap from the shared "
            "page cache instead of a full state ship (the directory also "
            "holds the dataset snapshot and mutation journal workers "
            "replay on boot)"
        ),
    )
    serve.add_argument(
        "--similarity-cache", type=int, default=500_000, help="pair-score LRU capacity"
    )
    serve.add_argument(
        "--relevance-cache", type=int, default=10_000, help="relevance-row LRU capacity"
    )
    serve.add_argument(
        "--no-warm",
        action="store_true",
        help="skip the eager neighbor-index build (rows build lazily)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request output lines"
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "after the stream, dump the full metrics registry as "
            "Prometheus exposition text plus a JSON snapshot"
        ),
    )
    serve.add_argument(
        "--validation",
        choices=["strict", "log", "off"],
        default="off",
        help=(
            "response-shape enforcement: 'strict' fails a request whose "
            "answer violates the declared shapes, 'log' only counts "
            "violations (validation_failures{shape=...} in --metrics "
            "output), 'off' skips the checks"
        ),
    )
    serve.add_argument(
        "--strict",
        action="store_true",
        help="shorthand for --validation strict",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help=(
            "instead of replaying the request file, serve concurrent "
            "JSONL request streams over TCP from the warm service "
            "(port 0 picks a free port; the bound address is printed)"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        help=(
            "with --listen: cross-connection ceiling on concurrently "
            "executing requests; excess requests are rejected "
            'immediately with a typed {"error": "overloaded"} response'
        ),
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --listen: stop after N successfully answered requests "
            "(default: serve until interrupted)"
        ),
    )
    serve.add_argument(
        "--remote-heartbeat-interval",
        type=float,
        default=2.0,
        help=(
            "with --backend pool/remote: seconds between a worker's "
            "heartbeat beacons"
        ),
    )
    serve.add_argument(
        "--remote-heartbeat-timeout",
        type=float,
        default=10.0,
        help=(
            "with --backend pool/remote: seconds of mid-batch silence "
            "after which a worker is declared dead and its in-flight "
            "tasks are requeued onto the survivors"
        ),
    )
    serve.add_argument(
        "--degraded-mode",
        choices=["off", "serial"],
        default="off",
        help=(
            "with --backend pool/remote: total-fleet-loss policy — 'off' "
            "fails the batch loudly, 'serial' falls back to "
            "bit-identical in-process serial execution (responses are "
            'marked "degraded": true)'
        ),
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "with --listen: per-request time budget; an overrunning "
            'request is answered with {"error": "deadline"} '
            "(0 = no budget)"
        ),
    )

    worker = subparsers.add_parser(
        "worker",
        help="join a remote execution fleet as a worker process",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help=(
            "address of the parent RemoteBackend listener (printed by "
            "'repro serve --backend remote --listen ...')"
        ),
    )
    worker.add_argument(
        "--fingerprint",
        default=None,
        help=(
            "config fingerprint this worker expects to serve; the "
            "handshake fails loudly when the parent serves different "
            "recommendation semantics (default: accept the parent's)"
        ),
    )
    worker.add_argument(
        "--heartbeat-interval",
        type=float,
        default=DEFAULT_HEARTBEAT_INTERVAL,
        help="seconds between heartbeat beacons to the parent",
    )
    worker.add_argument(
        "--rejoin-attempts",
        type=int,
        default=0,
        metavar="N",
        help=(
            "reconnect with exponential backoff after a dropped "
            "connection, for up to N consecutive dead sessions; the "
            "worker is re-admitted at the parent's current epoch via a "
            "full BOOT (0 = exit on the first drop)"
        ),
    )

    validate = subparsers.add_parser(
        "validate",
        help="check a dataset (and optional group file) against the declared shapes",
    )
    validate.add_argument("dataset", help="path of a dataset JSON to check")
    validate.add_argument(
        "--groups",
        default=None,
        metavar="PATH",
        help=(
            "also check a JSON group file (a list of group objects, or "
            '{"groups": [...]}) including membership referential '
            "integrity against the dataset's user registry"
        ),
    )

    stats = subparsers.add_parser(
        "stats",
        help="replay a request stream quietly and print the metrics registry",
    )
    _add_workload_arguments(stats)
    stats.add_argument(
        "--format",
        choices=["text", "json", "prometheus"],
        default="text",
        help=(
            "text renders the latency/cache tables, json dumps the "
            "registry snapshot, prometheus emits exposition text"
        ),
    )

    return parser


def _command_generate(args: argparse.Namespace) -> int:
    if args.kind == "nutrition":
        dataset = generate_nutrition_dataset(
            num_users=args.users,
            num_recipes=args.items,
            ratings_per_user=args.ratings_per_user,
            seed=args.seed,
        )
    else:
        dataset = generate_dataset(
            num_users=args.users,
            num_items=args.items,
            ratings_per_user=args.ratings_per_user,
            seed=args.seed,
        )
    path = save_dataset(dataset, args.output)
    print(
        f"wrote {dataset.num_users} users, {dataset.num_items} items, "
        f"{dataset.num_ratings} ratings to {path}"
    )
    return 0


def _command_recommend(args: argparse.Namespace) -> int:
    if args.dataset == "-":
        dataset = generate_dataset(seed=args.seed)
    else:
        dataset = load_dataset(args.dataset)
    if args.group:
        group = Group(member_ids=list(args.group), caregiver_id="cli")
    else:
        group = random_group(dataset.users.ids(), args.group_size, seed=args.seed)
    config = RecommenderConfig(
        top_k=args.top_k,
        top_z=args.z,
        similarity=args.similarity,
        aggregation=args.aggregation,
    )
    pipeline = CaregiverPipeline(dataset, config)
    recommendation = pipeline.recommend(group)
    print(f"group: {', '.join(group.member_ids)}")
    print(f"fairness: {recommendation.report.fairness:.3f}")
    print(f"value:    {recommendation.report.value:.3f}")
    print("recommended items:")
    for item_id in recommendation.items:
        item = dataset.items.get(item_id) if item_id in dataset.items else None
        title = item.title if item else ""
        score = recommendation.candidates.item_group_relevance(item_id)
        print(f"  {item_id}  group-relevance={score:.3f}  {title}")
    return 0


def _command_table2(args: argparse.Namespace) -> int:
    result = run_table2(
        group_size=args.group_size,
        repeats=args.repeats,
        max_subsets=args.max_subsets,
        backend=args.backend,
    )
    print(format_table2(result))
    return 0


def _command_prop1(args: argparse.Namespace) -> int:
    rows = verify_proposition1(num_candidates=args.candidates)
    print(format_proposition1(rows))
    failures = [row for row in rows if not row.holds]
    return 1 if failures else 0


def _command_ablation(args: argparse.Namespace) -> int:
    if args.kind == "aggregation":
        print(format_aggregation_ablation(run_aggregation_ablation(seed=args.seed)))
    elif args.kind == "similarity":
        print(format_similarity_ablation(run_similarity_ablation(seed=args.seed)))
    else:
        print(format_value_quality(run_value_quality(seed=args.seed)))
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    from .eval.reporting import format_table
    from .eval.validation import compare_similarities
    from .similarity.profile_sim import ProfileSimilarity
    from .similarity.ratings_sim import (
        CosineRatingSimilarity,
        JaccardRatingSimilarity,
        PearsonRatingSimilarity,
    )

    if args.dataset == "-":
        dataset = generate_dataset(seed=args.seed)
    else:
        dataset = load_dataset(args.dataset)
    results = compare_similarities(
        dataset.ratings,
        {
            "pearson": lambda train: PearsonRatingSimilarity(train),
            "cosine": lambda train: CosineRatingSimilarity(train),
            "jaccard": lambda train: JaccardRatingSimilarity(train),
            "profile": lambda train: ProfileSimilarity(dataset.users),
        },
        test_fraction=args.test_fraction,
        k=args.k,
        seed=args.seed,
    )
    rows = [
        [
            name,
            metrics["mae"],
            metrics["rmse"],
            metrics["coverage"],
            metrics["precision_at_k"],
            metrics["recall_at_k"],
            metrics["hit_rate"],
        ]
        for name, metrics in results.items()
    ]
    print(
        format_table(
            ["similarity", "MAE", "RMSE", "coverage", f"P@{args.k}", f"R@{args.k}", "hit rate"],
            rows,
            float_format="{:.3f}",
        )
    )
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    """Check a dataset (and optional group file) against the shapes."""
    import json

    from .validation import validate_dataset_payload, validate_groups_payload

    def _read_json(path: str):
        try:
            return json.loads(Path(path).read_text(encoding="utf-8")), None
        except (OSError, json.JSONDecodeError) as exc:
            return None, f"error: cannot read {path}: {exc}"

    payload, problem = _read_json(args.dataset)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    violations = validate_dataset_payload(payload)
    checked = [f"dataset {args.dataset}"]
    if args.groups:
        groups_payload, problem = _read_json(args.groups)
        if problem:
            print(problem, file=sys.stderr)
            return 2
        users = payload.get("users") if isinstance(payload, dict) else None
        known_ids = [
            entry.get("user_id")
            for entry in (users or {}).get("users", [])
            if isinstance(entry, dict) and isinstance(entry.get("user_id"), str)
        ]
        violations.extend(validate_groups_payload(groups_payload, known_ids))
        checked.append(f"groups {args.groups}")
    if violations:
        for violation in violations:
            print(violation)
        print(
            f"\nvalidation FAILED: {len(violations)} violation(s) across "
            f"{' + '.join(checked)}",
            file=sys.stderr,
        )
        return 1
    print(f"validation OK: {' + '.join(checked)} matched the declared shapes")
    return 0


def _workload_config(args: argparse.Namespace, **overrides) -> RecommenderConfig:
    """Build the service config shared by ``serve`` and ``stats``."""
    return RecommenderConfig(
        top_k=args.top_k,
        top_z=args.z,
        similarity=args.similarity,
        aggregation=args.aggregation,
        peer_threshold=args.peer_threshold,
        exec_backend=args.backend,
        # 0 = auto-detect CPUs; an explicit --workers pins the width.
        exec_workers=args.workers or 0,
        **overrides,
    )


def _load_workload(args: argparse.Namespace, dataset):
    if args.requests == "-":
        from .serving import synthetic_workload

        return synthetic_workload(
            dataset.users.ids(),
            num_requests=args.synthetic_requests,
            group_size=args.group_size,
            seed=args.seed,
        )
    from .serving import load_requests

    return load_requests(args.requests)


def _replay_requests(service, requests, args, emit) -> int:
    """Stream ``requests`` through ``service``; returns requests answered.

    Consecutive group requests form one batch so --workers can fan them
    out; user/rate requests are natural batch boundaries (a rate must
    invalidate before the next read).  With workers=1 and a serial
    backend the batch path degenerates to the sequential loop.  Latency
    is not timed here: every request path observes its own ``request_ms``
    histogram inside the service, one observation per request — the
    caller reads the distribution back from the registry.
    """
    from .obs import request_context

    number = 0
    pending: list = []

    def _flush() -> None:
        nonlocal number
        if not pending:
            return
        # One request id per batch: the recommend_many/exec_dispatch
        # spans of every request in the batch share it.
        with request_context(f"batch@{number + 1}"):
            results = service.recommend_many(
                [request.group() for request in pending],
                z=pending[0].z,
                workers=args.workers,
            )
        for request, recommendation in zip(pending, results):
            number += 1
            emit(number, request, recommendation)
        pending.clear()

    batching = (args.workers or 1) > 1 or args.backend != "serial"
    for request in requests:
        if request.kind == "group" and batching:
            # recommend_many takes one z for the whole batch; a z
            # change closes the current batch.
            if pending and pending[0].z != request.z:
                _flush()
            pending.append(request)
            continue
        _flush()
        number += 1
        with request_context(f"req-{number}"):
            if request.kind == "group":
                result = service.recommend_group(request.group(), z=request.z)
            elif request.kind == "user":
                result = service.recommend_user(request.user_id, k=request.k)
            else:
                service.ingest_rating(
                    request.user_id, request.item_id, request.value
                )
                result = None
        emit(number, request, result)
    _flush()
    return number


def _parse_endpoint(spec: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` CLI argument, validating the port."""
    host, separator, port_text = spec.rpartition(":")
    if not separator or not host:
        raise SystemExit(f"error: expected HOST:PORT, got {spec!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(
            f"error: invalid port {port_text!r} in {spec!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise SystemExit(f"error: port {port} out of range in {spec!r}")
    return host, port


def _serve_listen(service, registry, args: argparse.Namespace) -> int:
    """The ``serve --listen`` front end: JSONL request streams over TCP."""
    import time

    from .eval.reporting import format_latency_histogram, format_serving_stats
    from .obs import render_json
    from .serving import RequestServer

    host, port = _parse_endpoint(args.listen)
    # A remote backend shares the story: print the worker rendezvous
    # address so external `repro worker` processes can join the fleet.
    if service.backend.name == "remote":
        worker_host, worker_port = service.backend.listen()
        print(
            f"remote workers join with: repro worker "
            f"--connect {worker_host}:{worker_port}"
        )
    server = RequestServer(
        service,
        host,
        port,
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout or None,
        metrics=registry,
    )
    bound_host, bound_port = server.start()
    print(
        f"listening on {bound_host}:{bound_port} "
        f"(max in-flight {args.max_inflight}"
        + (
            f", stopping after {args.max_requests} requests)"
            if args.max_requests is not None
            else ")"
        ),
        flush=True,
    )
    answered = registry.counter("server_requests")
    try:
        while (
            args.max_requests is None
            or answered.value < args.max_requests
        ):
            time.sleep(0.05)
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        # Drain in order: stop admitting new requests, then stop the
        # service's worker pool/fleet through the escalation path — a
        # SIGINT mid-stream must leave no orphan worker processes.
        server.stop()
        service.close()
    print()
    print(format_latency_histogram(
        registry.merged_histogram("request_ms", exclude_labels=("worker",))
    ))
    print(format_serving_stats(service.stats()))
    if args.metrics:
        print()
        print("== metrics (json) ==")
        print(render_json(registry, indent=2))
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from .exec import run_worker
    from .exec.wire import WireError
    from .resilience import RetryPolicy

    host, port = _parse_endpoint(args.connect)
    # N rejoin attempts = N+1 total sessions under the policy.
    rejoin = (
        RetryPolicy(max_attempts=args.rejoin_attempts + 1)
        if args.rejoin_attempts > 0
        else None
    )
    try:
        served = run_worker(
            host,
            port,
            fingerprint=args.fingerprint,
            heartbeat_interval=args.heartbeat_interval,
            rejoin=rejoin,
        )
    except WireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConnectionError as exc:
        print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 3
    print(f"worker served {served} task item(s)")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .eval.reporting import format_latency_histogram, format_serving_stats
    from .eval.timing import stopwatch
    from .obs import render_json, render_prometheus, reset_registry
    from .serving import RecommendationService

    # A fresh process-wide registry per invocation: kernel and service
    # metrics from an earlier command never bleed into this report.
    registry = reset_registry()
    if args.dataset == "-":
        dataset = generate_dataset(seed=args.seed)
    else:
        dataset = load_dataset(args.dataset)
    config = _workload_config(
        args,
        similarity_cache_size=args.similarity_cache,
        relevance_cache_size=args.relevance_cache,
        pool_min_workers=args.pool_min_workers,
        pool_max_workers=args.pool_max_workers,
        pool_idle_ttl=args.pool_idle_ttl,
        pool_target_p99_ms=args.pool_target_p99_ms,
        remote_heartbeat_interval=args.remote_heartbeat_interval,
        remote_heartbeat_timeout=args.remote_heartbeat_timeout,
        degraded_mode=args.degraded_mode,
        index_shards=args.shards,
        packed_spill=args.packed_spill or "",
        validation="strict" if args.strict else args.validation,
    )
    service = RecommendationService(dataset, config, metrics=registry)
    requests = _load_workload(args, dataset)

    from .serving.snapshot import MANIFEST_NAME

    snapshot_path = Path(args.snapshot) if args.snapshot else None
    # A regular file at PATH goes to load_snapshot too, which rejects it
    # with a typed SnapshotError instead of a crash on save.
    snapshot_present = snapshot_path is not None and (
        snapshot_path.is_file() or (snapshot_path / MANIFEST_NAME).exists()
    )
    if snapshot_present:
        from .exceptions import SnapshotError

        try:
            with stopwatch() as load_elapsed:
                loaded = service.load_snapshot(snapshot_path)
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"loaded neighbor-index snapshot: {loaded} rows from "
            f"{snapshot_path} in {load_elapsed():.1f} ms"
        )
    else:
        with stopwatch() as warm_elapsed:
            if not args.no_warm:
                built = service.warm()
                print(
                    f"warmed neighbor index: {built} rows in "
                    f"{warm_elapsed():.1f} ms"
                )
        # Never snapshot a cold index: with --no-warm there is nothing
        # worth saving, and an empty snapshot would suppress warm-up on
        # every later run.
        if snapshot_path is not None and not args.no_warm:
            service.save_snapshot(snapshot_path)
            print(f"saved neighbor-index snapshot to {snapshot_path}")

    if args.listen is not None:
        return _serve_listen(service, registry, args)

    def _emit(number: int, request, result) -> None:
        if args.quiet:
            return
        if request.kind == "group":
            line = (
                f"group [{', '.join(request.members)}] -> "
                f"{', '.join(result.items)} "
                f"(fairness={result.report.fairness:.3f})"
            )
        elif request.kind == "user":
            line = (
                f"user {request.user_id} -> "
                f"{', '.join(item.item_id for item in result)}"
            )
        else:
            line = (
                f"rate {request.user_id} {request.item_id} "
                f"= {request.value:g} (caches invalidated)"
            )
        print(f"[{number:4d}] {line}")

    with stopwatch() as total_elapsed:
        answered = _replay_requests(service, requests, args, _emit)
        total_ms = total_elapsed()

    throughput = answered / (total_ms / 1000.0) if total_ms > 0 else 0.0
    print()
    # The latency table is the registry's own per-request histogram
    # (merged over the group/user/ingest kinds) — batched requests are
    # observed one at a time inside the service, not as batch averages.
    print(format_latency_histogram(registry.merged_histogram("request_ms", exclude_labels=("worker",))))
    print(f"throughput: {throughput:.1f} requests/s")
    print()
    print(format_serving_stats(service.stats()))
    if args.metrics:
        print()
        print("== metrics (prometheus) ==")
        print(render_prometheus(registry), end="")
        print()
        print("== metrics (json) ==")
        print(render_json(registry, indent=2))
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from .eval.reporting import format_latency_histogram, format_serving_stats
    from .obs import render_json, render_prometheus, reset_registry
    from .serving import RecommendationService

    registry = reset_registry()
    if args.dataset == "-":
        dataset = generate_dataset(seed=args.seed)
    else:
        dataset = load_dataset(args.dataset)
    config = _workload_config(args)
    requests = _load_workload(args, dataset)
    with RecommendationService(dataset, config, metrics=registry) as service:
        service.warm()
        _replay_requests(service, requests, args, lambda *unused: None)
        if args.format == "prometheus":
            print(render_prometheus(registry), end="")
        elif args.format == "json":
            print(render_json(registry, indent=2))
        else:
            print(format_latency_histogram(registry.merged_histogram("request_ms", exclude_labels=("worker",))))
            print()
            print(format_serving_stats(service.stats()))
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "recommend": _command_recommend,
    "table2": _command_table2,
    "prop1": _command_prop1,
    "ablation": _command_ablation,
    "evaluate": _command_evaluate,
    "serve": _command_serve,
    "stats": _command_stats,
    "validate": _command_validate,
    "worker": _command_worker,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
