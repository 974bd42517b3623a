"""End-to-end test of the CLI ``serve`` command and the request model."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.serving.requests import (
    ServeRequest,
    load_requests,
    parse_request,
    save_requests,
    synthetic_workload,
)


class TestRequestModel:
    def test_parse_group_request(self):
        request = parse_request({"type": "group", "members": ["u1", "u2"], "z": 3})
        assert request.kind == "group"
        assert request.members == ("u1", "u2")
        assert request.z == 3
        assert request.group().member_ids == ["u1", "u2"]

    def test_parse_user_and_rate_requests(self):
        user = parse_request({"type": "user", "user_id": "u1", "k": 4})
        assert (user.kind, user.user_id, user.k) == ("user", "u1", 4)
        rate = parse_request(
            {"type": "rate", "user_id": "u1", "item_id": "d1", "value": 4}
        )
        assert (rate.kind, rate.item_id, rate.value) == ("rate", "d1", 4.0)

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "nope"},
            {"type": "group", "members": []},
            {"type": "user"},
            {"type": "rate", "user_id": "u1", "item_id": "d1"},
            {"type": "group", "members": "user-00"},
            {"type": "group", "members": ["u1", 2]},
            [1],
            42,
            "x",
            None,
            {"type": "user", "user_id": 5},
            {"type": "rate", "user_id": ["u1"], "item_id": "d1", "value": 3},
            {"type": "rate", "user_id": 5, "item_id": "d1", "value": 3},
            {"type": "rate", "user_id": {"a": 1}, "item_id": "d1", "value": 3},
            {"type": "rate", "user_id": "u1", "item_id": 7, "value": 3},
        ],
    )
    def test_invalid_requests_rejected(self, payload):
        with pytest.raises(ValueError):
            parse_request(payload)

    def test_jsonl_roundtrip(self, tmp_path):
        requests = [
            ServeRequest(kind="group", members=("u1", "u2"), z=3),
            ServeRequest(kind="user", user_id="u1"),
            ServeRequest(kind="rate", user_id="u1", item_id="d1", value=2.0),
        ]
        path = save_requests(requests, tmp_path / "requests.jsonl")
        assert load_requests(path) == requests

    def test_jsonl_error_points_at_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "user", "user_id": "u1"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_requests(path)

    def test_synthetic_workload_is_repeated_and_overlapping(self):
        users = [f"u{i}" for i in range(30)]
        workload = synthetic_workload(
            users, num_requests=50, group_size=4, distinct_groups=5, seed=3
        )
        assert len(workload) == 50
        distinct = {request.members for request in workload}
        assert len(distinct) <= 5  # heavy repetition by construction


class TestServeCommand:
    def _write_dataset(self, tmp_path):
        dataset_path = tmp_path / "dataset.json"
        code = main(
            [
                "generate",
                str(dataset_path),
                "--users",
                "20",
                "--items",
                "30",
                "--ratings-per-user",
                "10",
            ]
        )
        assert code == 0
        return dataset_path

    def test_serve_jsonl_stream_end_to_end(self, tmp_path, capsys):
        dataset_path = self._write_dataset(tmp_path)
        dataset = json.loads(dataset_path.read_text())
        user_ids = [user["user_id"] for user in dataset["users"]["users"]][:4]
        item_id = dataset["ratings"]["ratings"][0][1]
        requests_path = tmp_path / "requests.jsonl"
        lines = [
            {"type": "group", "members": user_ids[:3], "z": 3},
            {"type": "user", "user_id": user_ids[3], "k": 3},
            {"type": "rate", "user_id": user_ids[0], "item_id": item_id, "value": 5},
            {"type": "group", "members": user_ids[:3], "z": 3},
        ]
        requests_path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n"
        )
        capsys.readouterr()

        code = main(
            [
                "serve",
                str(dataset_path),
                str(requests_path),
                "--peer-threshold",
                "0.0",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "warmed neighbor index: 20 rows" in out
        assert "throughput:" in out
        assert "group_requests   : 2" in out
        assert "user_requests    : 1" in out
        assert "ingested_ratings : 1" in out
        assert "hit rate" in out
        assert "neighbor index: 20/20 rows" in out

    def test_serve_synthetic_workload_prints_request_lines(self, tmp_path, capsys):
        dataset_path = self._write_dataset(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "serve",
                str(dataset_path),
                "-",
                "--synthetic-requests",
                "5",
                "--group-size",
                "3",
                "--peer-threshold",
                "0.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("group [") == 5
        assert "latency" in out

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "data.json", "reqs.jsonl"])
        assert args.workers is None  # auto: one per CPU for pool/remote
        assert args.backend == "serial"
        assert not hasattr(args, "kernel")
        assert not hasattr(args, "shards")
        assert args.snapshot is None
        assert args.similarity_cache == 500_000
        assert args.relevance_cache == 10_000
        assert args.no_warm is False


class TestServeBackendsAndSnapshots:
    def _dataset(self, tmp_path):
        dataset_path = tmp_path / "data.json"
        code = main(
            [
                "generate",
                str(dataset_path),
                "--users",
                "20",
                "--items",
                "30",
                "--ratings-per-user",
                "10",
            ]
        )
        assert code == 0
        return dataset_path

    @pytest.mark.parametrize("backend", ["pool", "remote"])
    def test_serve_with_backend(self, tmp_path, capsys, backend):
        dataset_path = self._dataset(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "serve",
                str(dataset_path),
                "-",
                "--synthetic-requests",
                "8",
                "--backend",
                backend,
                "--workers",
                "2",
                "--peer-threshold",
                "0.0",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput:" in out

    @pytest.mark.parametrize(
        "flag",
        [
            "--kernel",
            "--shards",
            "--pool-min-workers",
            "--pool-max-workers",
            "--pool-idle-ttl",
            "--pool-target-p99-ms",
        ],
        ids=lambda flag: flag[2:],
    )
    def test_serve_rejects_deleted_flag(self, flag, capsys):
        """The packed kernels are the only compute path (no --kernel),
        the neighbour index is never sharded (no --shards), and the
        worker fleet's width is --workers (no --pool-* autoscaling).
        --backend offers serial and the worker fleet only."""
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        usage = capsys.readouterr().out
        assert flag not in usage
        assert "{serial,pool,remote}" in usage
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "data.json", "-", flag, "2"])
        assert exc_info.value.code == 2

    def test_serve_snapshot_save_then_load(self, tmp_path, capsys):
        dataset_path = self._dataset(tmp_path)
        snapshot_path = tmp_path / "index_snapshot"
        args = [
            "serve",
            str(dataset_path),
            "-",
            "--synthetic-requests",
            "4",
            "--peer-threshold",
            "0.0",
            "--snapshot",
            str(snapshot_path),
            "--quiet",
        ]
        capsys.readouterr()
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "saved neighbor-index snapshot" in first
        assert (snapshot_path / "manifest.json").exists()

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "loaded neighbor-index snapshot: 20 rows" in second
        assert "warmed neighbor index" not in second

    def test_serve_pool_backend_with_sharded_snapshot_dir(
        self, tmp_path, capsys
    ):
        """--backend pool + a directory --snapshot: save a manifest and
        one shard file on the first run, restart from them on the
        second."""
        from repro.serving.snapshot import MANIFEST_NAME

        dataset_path = self._dataset(tmp_path)
        snapshot_dir = tmp_path / "index_snapshot"
        args = [
            "serve",
            str(dataset_path),
            "-",
            "--synthetic-requests",
            "6",
            "--backend",
            "pool",
            "--workers",
            "2",
            "--peer-threshold",
            "0.0",
            "--snapshot",
            str(snapshot_dir),
            "--quiet",
        ]
        capsys.readouterr()
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "saved neighbor-index snapshot" in first
        assert (snapshot_dir / MANIFEST_NAME).exists()
        assert len(list(snapshot_dir.glob("shard-*.json"))) == 1

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "loaded neighbor-index snapshot: 20 rows" in second
        assert "warmed neighbor index" not in second

    def test_serve_rejects_stale_snapshot(self, tmp_path, capsys):
        dataset_path = self._dataset(tmp_path)
        snapshot_path = tmp_path / "index_snapshot"
        base = [
            "serve",
            str(dataset_path),
            "-",
            "--synthetic-requests",
            "2",
            "--snapshot",
            str(snapshot_path),
            "--quiet",
        ]
        assert main(base + ["--peer-threshold", "0.0"]) == 0
        capsys.readouterr()
        code = main(base + ["--peer-threshold", "0.3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "stale" in captured.err

    def test_serve_rejects_a_regular_file_snapshot(self, tmp_path, capsys):
        """A --snapshot PATH that is a regular file (e.g. a snapshot of
        the retired single-file layout) exits 2 with a typed message
        instead of a traceback, and the file is left untouched."""
        dataset_path = self._dataset(tmp_path)
        snapshot_path = tmp_path / "index_snapshot"
        snapshot_path.write_text("{}")
        capsys.readouterr()
        code = main(
            [
                "serve",
                str(dataset_path),
                "-",
                "--synthetic-requests",
                "2",
                "--snapshot",
                str(snapshot_path),
                "--quiet",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "regular file" in captured.err
        assert "Traceback" not in captured.err
        assert snapshot_path.read_text() == "{}"

    def test_no_warm_does_not_save_an_empty_snapshot(self, tmp_path, capsys):
        dataset_path = self._dataset(tmp_path)
        snapshot_path = tmp_path / "index_snapshot"
        capsys.readouterr()
        code = main(
            [
                "serve",
                str(dataset_path),
                "-",
                "--synthetic-requests",
                "2",
                "--no-warm",
                "--snapshot",
                str(snapshot_path),
                "--quiet",
            ]
        )
        assert code == 0
        assert not snapshot_path.exists()


class TestRequestValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "group", "members": ["u1", "u2"], "z": 0},
            {"type": "group", "members": ["u1", "u2"], "z": -4},
            {"type": "user", "user_id": "u1", "k": 0},
            {"type": "user", "user_id": "u1", "k": json.loads("1e400")},
            {"type": "user", "user_id": "u1", "k": float("-inf")},
            {"type": "group", "members": ["u1", "u2"], "z": float("nan")},
            {"type": "user", "user_id": "u1", "k": 2.9},
            {"type": "user", "user_id": "u1", "k": True},
            {"type": "group", "members": ["u1", "u2"], "z": "3"},
        ],
    )
    def test_non_positive_z_k_rejected_at_parse_time(self, payload):
        with pytest.raises(ValueError, match="positive"):
            parse_request(payload)

    def test_an_integral_float_z_k_is_an_int(self):
        request = parse_request({"type": "user", "user_id": "u1", "k": 3.0})
        assert request.k == 3
        assert type(request.k) is int

    def test_missing_z_k_still_default(self):
        request = parse_request({"type": "group", "members": ["u1", "u2"]})
        assert request.z is None


class TestMetricsSurfaces:
    """``serve --metrics`` and the ``stats`` command."""

    def _dataset(self, tmp_path):
        dataset_path = tmp_path / "data.json"
        assert main(
            [
                "generate",
                str(dataset_path),
                "--users",
                "20",
                "--items",
                "30",
                "--ratings-per-user",
                "10",
            ]
        ) == 0
        return dataset_path

    def test_serve_metrics_dumps_prometheus_and_json(self, tmp_path, capsys):
        dataset_path = self._dataset(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "serve",
                str(dataset_path),
                "-",
                "--synthetic-requests",
                "5",
                "--peer-threshold",
                "0.0",
                "--quiet",
                "--metrics",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "== metrics (prometheus) ==" in out
        assert "== metrics (json) ==" in out
        # Request latency quantiles, cache counters, kernel timings.
        assert 'repro_request_ms{kind="group",quantile="0.99"}' in out
        assert 'repro_cache_hits_total{cache="similarity"}' in out
        assert 'repro_kernel_calls_total{kernel="pearson_one_vs_many"}' in out

    def test_serve_without_metrics_keeps_the_dump_out(self, tmp_path, capsys):
        dataset_path = self._dataset(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "serve",
                str(dataset_path),
                "-",
                "--synthetic-requests",
                "3",
                "--peer-threshold",
                "0.0",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "== metrics" not in out

    def test_stats_text_format(self, tmp_path, capsys):
        dataset_path = self._dataset(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "stats",
                str(dataset_path),
                "-",
                "--synthetic-requests",
                "5",
                "--peer-threshold",
                "0.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "latency" in out
        assert "group_requests" in out
        assert "hit rate" in out
        # A quiet replay: no per-request lines.
        assert "group [" not in out

    def test_stats_json_format_is_valid_json(self, tmp_path, capsys):
        dataset_path = self._dataset(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "stats",
                str(dataset_path),
                "-",
                "--synthetic-requests",
                "4",
                "--peer-threshold",
                "0.0",
                "--format",
                "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert "group_requests" in payload
        assert "request_ms" in payload

    def test_stats_prometheus_format(self, tmp_path, capsys):
        dataset_path = self._dataset(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "stats",
                str(dataset_path),
                "-",
                "--synthetic-requests",
                "4",
                "--peer-threshold",
                "0.0",
                "--format",
                "prometheus",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE repro_group_requests_total counter" in out
        assert "# TYPE repro_request_ms summary" in out
