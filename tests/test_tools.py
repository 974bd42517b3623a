"""The CI gate scripts under ``tools/`` actually gate.

Two properties are pinned for each checker: the live repository passes
it (so CI stays green), and a synthetic violation fails it (so the
gate is not vacuously green).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), *args],
        capture_output=True,
        text=True,
    )


class TestCheckDocstrings:
    def test_repository_surfaces_pass(self):
        result = _run("check_docstrings.py")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_missing_docstring_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Module doc present."""\n\ndef exported():\n    return 1\n'
        )
        result = _run("check_docstrings.py", str(bad))
        assert result.returncode == 1
        assert "exported" in result.stdout

    def test_private_names_exempt(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text('"""Module doc."""\n\ndef _internal():\n    return 1\n')
        result = _run("check_docstrings.py", str(good))
        assert result.returncode == 0

    def test_undocumented_public_method_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Module doc."""\n\n'
            'class Thing:\n'
            '    """Class doc."""\n\n'
            '    def act(self):\n'
            '        return 1\n'
        )
        result = _run("check_docstrings.py", str(bad))
        assert result.returncode == 1
        assert "Thing.act" in result.stdout


class TestCheckDocs:
    def test_repository_docs_pass(self):
        result = _run("check_docs.py")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_broken_relative_link_fails(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# Title\n\nSee [missing](no-such-file.md).\n")
        result = _run("check_docs.py", str(doc))
        assert result.returncode == 1
        assert "no-such-file.md" in result.stdout

    def test_broken_anchor_fails(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# Only Heading\n\nJump to [gone](#nowhere).\n")
        result = _run("check_docs.py", str(doc))
        assert result.returncode == 1
        assert "#nowhere" in result.stdout

    def test_valid_anchor_and_link_pass(self, tmp_path):
        other = tmp_path / "other.md"
        other.write_text("# Target Section\n\ncontent\n")
        doc = tmp_path / "doc.md"
        doc.write_text(
            "# Top\n\n[ok](other.md#target-section) and [self](#top).\n"
        )
        result = _run("check_docs.py", str(doc), str(other))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_unclosed_fence_fails(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# Title\n\n```bash\necho unclosed\n")
        result = _run("check_docs.py", str(doc))
        assert result.returncode == 1
        assert "fence" in result.stdout


class TestCheckKernelRegression:
    def _result(self, build=4.0, warm=5.0, identical=True) -> dict:
        return {
            "benchmark": "kernels",
            "identical_results": identical,
            "build_speedup": build,
            "warm_batch_speedup": warm,
        }

    def _write(self, path: Path, payload: dict) -> Path:
        import json

        path.write_text(json.dumps(payload))
        return path

    def test_committed_baseline_parses(self, tmp_path):
        fresh = self._write(tmp_path / "fresh.json", self._result())
        result = _run(
            "check_kernel_regression.py",
            str(ROOT / "BENCH_kernels.json"),
            str(fresh),
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_within_threshold_passes_quietly(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", self._result(4.0, 5.0))
        fresh = self._write(tmp_path / "fresh.json", self._result(3.5, 4.5))
        result = _run("check_kernel_regression.py", str(baseline), str(fresh))
        assert result.returncode == 0
        assert "::warning::" not in result.stdout
        assert "kernel perf OK" in result.stdout

    def test_regression_warns_but_does_not_fail(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", self._result(4.0, 5.0))
        fresh = self._write(tmp_path / "fresh.json", self._result(2.0, 5.0))
        result = _run("check_kernel_regression.py", str(baseline), str(fresh))
        assert result.returncode == 0  # advisory: warn, never fail
        assert "::warning::" in result.stdout
        assert "build_speedup" in result.stdout

    def test_parity_failure_is_fatal(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", self._result())
        fresh = self._write(
            tmp_path / "fresh.json", self._result(identical=False)
        )
        result = _run("check_kernel_regression.py", str(baseline), str(fresh))
        assert result.returncode == 1
        assert "bit-identical" in result.stderr

    def test_corrupt_payload_is_fatal(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", self._result())
        broken = tmp_path / "fresh.json"
        broken.write_text("{not json")
        result = _run("check_kernel_regression.py", str(baseline), str(broken))
        assert result.returncode != 0


class TestCheckScaleRegression:
    def _result(
        self,
        warm=5.9,
        cold=1.5,
        ratio=150000.0,
        identical=True,
        spill=1322.0,
        full=235645768.0,
    ) -> dict:
        return {
            "benchmark": "scale",
            "identical_results": identical,
            "warm_serve_speedup": warm,
            "cold_serve_speedup": cold,
            "bootstrap_ratio": ratio,
            "bootstrap_bytes": {"spill": spill, "full_ship": full},
        }

    def _write(self, path: Path, payload: dict) -> Path:
        import json

        path.write_text(json.dumps(payload))
        return path

    def test_committed_baseline_parses(self, tmp_path):
        fresh = self._write(tmp_path / "fresh.json", self._result())
        result = _run(
            "check_scale_regression.py",
            str(ROOT / "BENCH_scale.json"),
            str(fresh),
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_within_threshold_passes_quietly(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", self._result(warm=5.0))
        fresh = self._write(tmp_path / "fresh.json", self._result(warm=4.5))
        result = _run("check_scale_regression.py", str(baseline), str(fresh))
        assert result.returncode == 0
        assert "::warning::" not in result.stdout
        assert "scale perf OK" in result.stdout

    def test_regression_warns_but_does_not_fail(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", self._result(warm=6.0))
        fresh = self._write(tmp_path / "fresh.json", self._result(warm=2.0))
        result = _run("check_scale_regression.py", str(baseline), str(fresh))
        assert result.returncode == 0  # advisory: warn, never fail
        assert "::warning::" in result.stdout
        assert "warm_serve_speedup" in result.stdout

    def test_missing_bootstrap_ratio_is_tolerated(self, tmp_path):
        # Quick CI runs may skip phases; absent keys are not regressions.
        baseline = self._write(tmp_path / "base.json", self._result())
        payload = self._result()
        del payload["bootstrap_ratio"]
        del payload["bootstrap_bytes"]
        fresh = self._write(tmp_path / "fresh.json", payload)
        result = _run("check_scale_regression.py", str(baseline), str(fresh))
        assert result.returncode == 0

    def test_parity_failure_is_fatal(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", self._result())
        fresh = self._write(
            tmp_path / "fresh.json", self._result(identical=False)
        )
        result = _run("check_scale_regression.py", str(baseline), str(fresh))
        assert result.returncode == 1
        assert "bit-identical" in result.stderr

    def test_spill_not_smaller_than_ship_is_fatal(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", self._result())
        fresh = self._write(
            tmp_path / "fresh.json",
            self._result(spill=500.0, full=400.0),
        )
        result = _run("check_scale_regression.py", str(baseline), str(fresh))
        assert result.returncode == 1
        assert "spill" in result.stderr

    def test_corrupt_payload_is_fatal(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", self._result())
        broken = tmp_path / "fresh.json"
        broken.write_text("{not json")
        result = _run("check_scale_regression.py", str(baseline), str(broken))
        assert result.returncode != 0
