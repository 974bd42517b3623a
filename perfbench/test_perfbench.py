"""Self-tests of the benchmark, at tiny size.

Each workload runs end to end in a few seconds: the output keeps the
contract of ``BENCHMARK.json`` (metric names and units), every answer
matches the cold pipeline, and the checker rejects a tampered answer.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["ingest_mix"]

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_keeps_the_contract(workload: str, trace: str) -> None:
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1.5", "--trace", trace, "--tiny"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_checker_rejects_a_tampered_answer() -> None:
    key = ("group", ("user-1", "user-2"))
    answers = {key: (["item-00001", "item-00002"], 0.5)}
    good = {"items": ["item-00001", "item-00002"], "fairness": 0.5}
    assert workloads.matches(key, good, answers)
    assert not workloads.matches(key, workloads.tamper(good), answers)
    assert not workloads.matches(key, {**good, "fairness": 0.5000000000000001}, answers)
    assert not workloads.matches(key, {"error": "overloaded"}, answers)


def test_size_quota_follows_the_power_law() -> None:
    from repro.data import ScaleConfig

    sizes = workloads.size_quota(32, ScaleConfig())
    assert len(sizes) == 32
    assert sizes.count(2) > sizes.count(3) > sizes.count(4) >= sizes.count(10)


def test_fails_without_the_repository(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__")
    )
    done = _run("--workload", "dashboard", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
