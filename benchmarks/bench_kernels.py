"""Packed CSR kernels vs the dict oracle on the Pearson hot paths.

The ``repro.kernels`` layer promises two things:

1. **bit-identical scores** — the packed kernel must agree with the
   dict-of-dicts oracle (:class:`repro.kernels.oracle.DictPearsonSimilarity`)
   on every neighbour-index row and every batched similarity score,
   exactly (``==``, no tolerance);
2. **a layout win** — no string hashing, no per-pair set construction,
   no repeated mean/deviation recomputation, which should make the
   cold ``NeighborIndex.build`` and warm repeated ``similarities``
   batches several times faster (target ~3x, asserted >= 2x).

Run directly (``python benchmarks/bench_kernels.py [--quick]
[--output PATH]``) or via ``pytest benchmarks/bench_kernels.py``.  The
measured numbers land in ``BENCH_kernels.json`` next to the repo root
(override with ``--output``, which is how CI compares a fresh run
against the committed baseline without clobbering it).  ``--quick``
shrinks the dataset for CI smoke runs — parity is still asserted, the
speedup bars are not (shared runners make timing flaky).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.data.datasets import generate_dataset  # noqa: E402
from repro.eval.reporting import format_table  # noqa: E402
from repro.eval.timing import stopwatch  # noqa: E402
from repro.kernels.oracle import DictPearsonSimilarity  # noqa: E402
from repro.serving.index import NeighborIndex  # noqa: E402
from repro.similarity.ratings_sim import PearsonRatingSimilarity  # noqa: E402

#: Where the measured numbers are written for regression diffing.
RESULT_PATH = _ROOT / "BENCH_kernels.json"

#: The acceptance bar (the measured target is ~3x).
MIN_SPEEDUP = 2.0


@dataclass
class KernelBenchResult:
    """Both kernels on one workload, plus the parity verdict."""

    num_users: int
    num_items: int
    ratings_per_user: int
    build_ms: dict[str, float]
    warm_batch_ms: dict[str, float]
    identical_results: bool

    @property
    def build_speedup(self) -> float:
        """Dict-oracle over packed wall-clock on the cold index build."""
        packed = self.build_ms["packed"]
        return self.build_ms["dict"] / packed if packed > 0 else float("inf")

    @property
    def warm_batch_speedup(self) -> float:
        """Dict-oracle over packed wall-clock on warm similarity batches."""
        packed = self.warm_batch_ms["packed"]
        return (
            self.warm_batch_ms["dict"] / packed if packed > 0 else float("inf")
        )


def run_kernel_comparison(
    num_users: int = 400,
    num_items: int = 300,
    ratings_per_user: int = 40,
    warm_rounds: int = 3,
    seed: int = 42,
) -> KernelBenchResult:
    """Time index build + warm similarity batches on both kernels.

    Each kernel gets a fresh measure and a fresh flat
    :class:`NeighborIndex` over the same dataset.  The build is the
    cold path (every row computed once); the warm phase then re-runs
    the full one-vs-all ``similarities`` batch for every user
    ``warm_rounds`` times — means/deviations are hot, which is the
    steady serving state.  Rows and scores are compared across kernels
    with ``==``.
    """
    dataset = generate_dataset(
        num_users=num_users,
        num_items=num_items,
        ratings_per_user=ratings_per_user,
        seed=seed,
    )
    matrix = dataset.ratings
    users = matrix.user_ids()
    build_ms: dict[str, float] = {}
    warm_batch_ms: dict[str, float] = {}
    rows: dict[str, dict] = {}
    scores: dict[str, list] = {}
    measures = {
        "dict": DictPearsonSimilarity,
        "packed": PearsonRatingSimilarity,
    }
    for kernel, make_measure in measures.items():
        measure = make_measure(matrix)
        index = NeighborIndex(matrix, measure, threshold=0.1)
        with stopwatch() as elapsed:
            index.build()
            build_ms[kernel] = elapsed()
        with stopwatch() as elapsed:
            batches = []
            for _ in range(warm_rounds):
                for user_id in users:
                    batches.append(measure.similarities(user_id, users))
            warm_batch_ms[kernel] = elapsed()
        rows[kernel] = index.snapshot_rows()
        scores[kernel] = batches
    identical = (
        rows["packed"] == rows["dict"] and scores["packed"] == scores["dict"]
    )
    return KernelBenchResult(
        num_users=num_users,
        num_items=num_items,
        ratings_per_user=ratings_per_user,
        build_ms=build_ms,
        warm_batch_ms=warm_batch_ms,
        identical_results=identical,
    )


def write_result(result: KernelBenchResult, path: Path = RESULT_PATH) -> Path:
    """Persist the measurements as JSON for regression diffing."""
    payload = {
        "benchmark": "kernels",
        "workload": {
            "num_users": result.num_users,
            "num_items": result.num_items,
            "ratings_per_user": result.ratings_per_user,
        },
        "identical_results": result.identical_results,
        "build_ms": result.build_ms,
        "warm_batch_ms": result.warm_batch_ms,
        "build_speedup": result.build_speedup,
        "warm_batch_speedup": result.warm_batch_speedup,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def test_kernels_bit_identical():
    """The packed kernel and the dict oracle agree on rows and batch
    scores exactly."""
    result = run_kernel_comparison(
        num_users=80, num_items=100, ratings_per_user=15, warm_rounds=1
    )
    assert result.identical_results


def test_packed_kernel_beats_dict_oracle():
    """The acceptance bar: >= 2x on the build and on warm batches."""
    result = run_kernel_comparison()
    write_result(result)
    assert result.identical_results
    assert result.build_speedup >= MIN_SPEEDUP, (
        f"packed build {result.build_ms['packed']:.0f} ms vs dict "
        f"{result.build_ms['dict']:.0f} ms — only "
        f"{result.build_speedup:.2f}x"
    )
    assert result.warm_batch_speedup >= MIN_SPEEDUP, (
        f"packed warm batches {result.warm_batch_ms['packed']:.0f} ms vs "
        f"dict {result.warm_batch_ms['dict']:.0f} ms — only "
        f"{result.warm_batch_speedup:.2f}x"
    )


def main(argv: list[str] | None = None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    quick = "--quick" in args
    output = RESULT_PATH
    if "--output" in args:
        output = Path(args[args.index("--output") + 1])
    if quick:
        result = run_kernel_comparison(
            num_users=60, num_items=80, ratings_per_user=12, warm_rounds=1
        )
    else:
        result = run_kernel_comparison()
    print(
        format_table(
            ["kernel", "index build (ms)", "warm batches (ms)"],
            [
                [kernel, result.build_ms[kernel], result.warm_batch_ms[kernel]]
                for kernel in ("dict", "packed")
            ],
            float_format="{:.1f}",
        )
    )
    print(
        f"\nbit-identical packed-vs-oracle: {result.identical_results}\n"
        f"build speedup: {result.build_speedup:.2f}x, "
        f"warm batch speedup: {result.warm_batch_speedup:.2f}x "
        f"(bar: {MIN_SPEEDUP:.1f}x, quick={quick})"
    )
    path = write_result(result, output)
    print(f"wrote {path}")
    if not result.identical_results:
        print("ERROR: packed kernel and oracle disagree", file=sys.stderr)
        return 1
    if not quick and (
        result.build_speedup < MIN_SPEEDUP
        or result.warm_batch_speedup < MIN_SPEEDUP
    ):
        print(
            f"ERROR: packed kernel under the {MIN_SPEEDUP:.1f}x bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
