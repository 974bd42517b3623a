#!/usr/bin/env python3
"""Advisory perf gate over the scale-benchmark results.

Compares a fresh ``bench_scale`` run against the committed
``BENCH_scale.json`` baseline and **warns** (never fails) when the warm
serve speedup, the cold serve speedup or the worker-bootstrap ratio
regressed by more than the threshold (default 25%).  CI quick runs use
tiny workloads on shared runners, so timing is advisory by design:
regressions print GitHub ``::warning::`` annotations and exit 0.

Only *structural* breakage exits 1:

* missing/corrupt result files,
* a fresh run whose packed-vs-oracle outputs are no longer
  bit-identical (``identical_results``), or
* a spill bootstrap that stopped being smaller than the full state
  ship (``bootstrap_bytes``) — both mean the packed takeover itself is
  broken, not slow.

Usage::

    python tools/check_scale_regression.py BASELINE.json FRESH.json [--threshold 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The ratio fields compared between baseline and fresh runs.
SPEEDUP_KEYS = ("warm_serve_speedup", "cold_serve_speedup", "bootstrap_ratio")


def load_result(path: Path) -> dict:
    """Read one ``BENCH_scale.json`` payload, validating its shape."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    if not isinstance(payload.get("warm_serve_speedup"), (int, float)):
        raise SystemExit(f"error: {path} has no numeric 'warm_serve_speedup'")
    return payload


def compare(baseline: dict, fresh: dict, threshold: float) -> list[str]:
    """Return one warning line per ratio that regressed past the bar.

    Keys absent from either payload (e.g. ``bootstrap_ratio`` when the
    bootstrap phase was skipped) are silently ignored — quick CI runs
    may measure a subset of the full benchmark.
    """
    warnings = []
    for key in SPEEDUP_KEYS:
        old = baseline.get(key)
        new = fresh.get(key)
        if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
            continue
        floor = float(old) * (1.0 - threshold)
        if float(new) < floor:
            warnings.append(
                f"::warning::scale perf regression: {key} fell from "
                f"{float(old):.2f}x (baseline) to {float(new):.2f}x "
                f"(> {threshold:.0%} below baseline)"
            )
    return warnings


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, help="committed BENCH_scale.json")
    parser.add_argument("fresh", type=Path, help="freshly measured BENCH_scale.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="tolerated fractional ratio drop before warning (default 0.25)",
    )
    args = parser.parse_args(argv)
    baseline = load_result(args.baseline)
    fresh = load_result(args.fresh)
    if fresh.get("identical_results") is not True:
        print(
            "error: fresh scale run is not bit-identical packed-vs-oracle "
            "— that is a correctness failure, not a perf one",
            file=sys.stderr,
        )
        return 1
    boot = fresh.get("bootstrap_bytes") or {}
    spill = boot.get("spill")
    full = boot.get("full_ship")
    if (
        isinstance(spill, (int, float))
        and isinstance(full, (int, float))
        and spill >= full > 0
    ):
        print(
            "error: spill bootstrap is no longer smaller than a full "
            f"state ship ({spill:.0f} >= {full:.0f} bytes) — the mmap "
            "spill path is broken",
            file=sys.stderr,
        )
        return 1
    warnings = compare(baseline, fresh, args.threshold)
    for line in warnings:
        print(line)
    if not warnings:
        summary = ", ".join(
            f"{key}={float(fresh[key]):.2f}x"
            for key in SPEEDUP_KEYS
            if isinstance(fresh.get(key), (int, float))
        )
        print(f"scale perf OK: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
