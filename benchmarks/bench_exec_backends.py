"""Execution backends on the serving hot paths: build + batch requests.

The ``repro.exec`` refactor promises two things:

1. **bit-identical results** on every backend (serial / pool) —
   asserted here on both the neighbour-index rows and the batch
   recommendations;
2. **real parallelism for the CPU-bound paths** — the index build is
   pure Pearson arithmetic, so the pool's worker processes should beat
   serial once ≥ 2 CPU cores are available.

Run directly (``python benchmarks/bench_exec_backends.py [--quick]``)
or via ``pytest benchmarks/bench_exec_backends.py``.  Either way the
measured numbers land in ``BENCH_exec.json`` next to the repo root so
regressions are diffable.  ``--quick`` shrinks the dataset for CI smoke
runs (correctness checks still run; the speedup assertion needs the
full size *and* ≥ 2 cores).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import RecommenderConfig  # noqa: E402
from repro.data.datasets import generate_dataset  # noqa: E402
from repro.eval.reporting import format_table  # noqa: E402
from repro.eval.timing import stopwatch  # noqa: E402
from repro.exec import default_workers, get_backend  # noqa: E402
from repro.serving import RecommendationService, synthetic_workload  # noqa: E402

#: Where the measured numbers are written for regression diffing.
RESULT_PATH = _ROOT / "BENCH_exec.json"

BACKENDS = ("serial", "pool")


@dataclass
class BackendTimings:
    """Wall-clock of one backend on both hot paths."""

    backend: str
    workers: int
    build_ms: float
    batch_ms: float


@dataclass
class ExecBenchResult:
    """All backends on one workload, plus the parity verdict."""

    num_users: int
    num_items: int
    num_requests: int
    available_cpus: int
    timings: list[BackendTimings] = field(default_factory=list)
    identical_results: bool = True

    def timing(self, backend: str) -> BackendTimings:
        for row in self.timings:
            if row.backend == backend:
                return row
        raise KeyError(backend)

    @property
    def pool_build_speedup(self) -> float:
        serial = self.timing("serial").build_ms
        pool = self.timing("pool").build_ms
        return serial / pool if pool > 0 else float("inf")


def run_backend_comparison(
    num_users: int = 300,
    num_items: int = 240,
    ratings_per_user: int = 30,
    num_requests: int = 24,
    distinct_groups: int = 24,
    group_size: int = 5,
    workers: int | None = None,
    seed: int = 42,
) -> ExecBenchResult:
    """Time index build + recommend_many on every backend.

    Each backend gets a fresh service (cold caches, cold index) over
    the same dataset and workload; rows and recommendations are
    compared against the serial reference for bit-identity.
    """
    workers = workers or max(2, default_workers())
    dataset = generate_dataset(
        num_users=num_users,
        num_items=num_items,
        ratings_per_user=ratings_per_user,
        seed=seed,
    )
    config = RecommenderConfig(peer_threshold=0.1, top_z=10)
    workload = synthetic_workload(
        dataset.users.ids(),
        num_requests=num_requests,
        group_size=group_size,
        distinct_groups=distinct_groups,
        seed=seed,
    )
    groups = [request.group() for request in workload if request.kind == "group"]

    result = ExecBenchResult(
        num_users=num_users,
        num_items=num_items,
        num_requests=len(groups),
        available_cpus=default_workers(),
    )
    reference_rows = None
    reference_items = None
    for name in BACKENDS:
        backend = get_backend(name, workers)
        service = RecommendationService(dataset, config, backend=backend)
        with stopwatch() as elapsed:
            service.warm()
            build_ms = elapsed()
        with stopwatch() as elapsed:
            recommendations = service.recommend_many(groups)
            batch_ms = elapsed()
        backend.close()
        rows = service.index.snapshot_rows()
        items = [recommendation.items for recommendation in recommendations]
        if reference_rows is None:
            reference_rows, reference_items = rows, items
        elif rows != reference_rows or items != reference_items:
            result.identical_results = False
        result.timings.append(
            BackendTimings(
                backend=name,
                workers=backend.workers,
                build_ms=build_ms,
                batch_ms=batch_ms,
            )
        )
    return result


def write_result(result: ExecBenchResult, path: Path = RESULT_PATH) -> Path:
    """Persist the measurements as JSON for regression diffing."""
    payload = {
        "benchmark": "exec_backends",
        "workload": {
            "num_users": result.num_users,
            "num_items": result.num_items,
            "num_requests": result.num_requests,
            "available_cpus": result.available_cpus,
        },
        "identical_results": result.identical_results,
        "pool_build_speedup": result.pool_build_speedup,
        "timings": [asdict(row) for row in result.timings],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def test_backends_bit_identical():
    """Serial and pool must agree on rows and rankings."""
    result = run_backend_comparison(
        num_users=80, num_items=100, ratings_per_user=15, num_requests=8
    )
    assert result.identical_results


def test_pool_backend_beats_serial_on_index_build():
    """The acceptance bar: the pool wins the build on >= 2 workers.

    A single-CPU machine cannot parallelise anything — the comparison
    is only meaningful (and only asserted) with >= 2 cores available.
    """
    import pytest

    if default_workers() < 2:
        pytest.skip("needs >= 2 CPU cores to demonstrate a speedup")
    result = run_backend_comparison(workers=max(2, default_workers()))
    write_result(result)
    assert result.identical_results
    assert result.pool_build_speedup > 1.0, (
        f"pool build {result.timing('pool').build_ms:.0f} ms not "
        f"faster than serial {result.timing('serial').build_ms:.0f} ms"
    )


def main(argv: list[str] | None = None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    if quick:
        result = run_backend_comparison(
            num_users=60, num_items=80, ratings_per_user=12, num_requests=6
        )
    else:
        result = run_backend_comparison()
    rows = [
        [row.backend, row.workers, row.build_ms, row.batch_ms]
        for row in result.timings
    ]
    print(
        format_table(
            ["backend", "workers", "index build (ms)", "batch serve (ms)"],
            rows,
            float_format="{:.1f}",
        )
    )
    print(
        f"\nbit-identical across backends: {result.identical_results}\n"
        f"pool vs serial build speedup: "
        f"{result.pool_build_speedup:.2f}x "
        f"({result.available_cpus} CPU(s) available)"
    )
    path = write_result(result)
    print(f"wrote {path}")
    if not result.identical_results:
        print("ERROR: backends disagree on results", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
