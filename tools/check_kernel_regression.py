#!/usr/bin/env python3
"""Advisory perf gate over the packed-kernel speedups.

Compares a fresh ``bench_kernels`` run against the committed
``BENCH_kernels.json`` baseline and **warns** (never fails) when either
measured speedup — the cold index build or the warm similarity batches
— regressed by more than the threshold (default 20%).  Timing on
shared CI runners is noisy, so this gate is advisory by design: it
prints GitHub ``::warning::`` annotations and always exits 0, except
for *structural* problems (missing/corrupt files, a fresh run that is
no longer bit-identical packed-vs-oracle), which exit 1 because they
mean the benchmark itself is broken, not slow.

Usage::

    python tools/check_kernel_regression.py BASELINE.json FRESH.json [--threshold 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The speedup fields compared between baseline and fresh runs.
SPEEDUP_KEYS = ("build_speedup", "warm_batch_speedup")


def load_result(path: Path) -> dict:
    """Read one ``BENCH_kernels.json`` payload, validating its shape."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    for key in SPEEDUP_KEYS:
        if not isinstance(payload.get(key), (int, float)):
            raise SystemExit(f"error: {path} has no numeric {key!r} field")
    return payload


def compare(baseline: dict, fresh: dict, threshold: float) -> list[str]:
    """Return one warning line per speedup that regressed past the bar."""
    warnings = []
    for key in SPEEDUP_KEYS:
        old = float(baseline[key])
        new = float(fresh[key])
        floor = old * (1.0 - threshold)
        if new < floor:
            warnings.append(
                f"::warning::kernel perf regression: {key} fell from "
                f"{old:.2f}x (baseline) to {new:.2f}x "
                f"(> {threshold:.0%} below baseline)"
            )
    return warnings


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, help="committed BENCH_kernels.json")
    parser.add_argument("fresh", type=Path, help="freshly measured BENCH_kernels.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="tolerated fractional speedup drop before warning (default 0.2)",
    )
    args = parser.parse_args(argv)
    baseline = load_result(args.baseline)
    fresh = load_result(args.fresh)
    if fresh.get("identical_results") is not True:
        print(
            "error: fresh benchmark run is not bit-identical "
            "packed-vs-oracle — that is a correctness failure, not a perf one",
            file=sys.stderr,
        )
        return 1
    warnings = compare(baseline, fresh, args.threshold)
    for line in warnings:
        print(line)
    if not warnings:
        print(
            "kernel perf OK: "
            + ", ".join(
                f"{key}={float(fresh[key]):.2f}x "
                f"(baseline {float(baseline[key]):.2f}x)"
                for key in SPEEDUP_KEYS
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
