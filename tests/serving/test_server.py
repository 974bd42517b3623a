"""The async JSONL front end over real TCP connections.

Everything here talks to :class:`~repro.serving.server.RequestServer`
through actual sockets — the same path ``repro serve --listen`` wires
up — so framing, per-connection ordering, admission control and
shutdown are tested as a client would experience them, not via method
calls on internals.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.config import RecommenderConfig
from repro.data.groups import Group
from repro.exceptions import ReproError
from repro.obs import MetricsRegistry
from repro.serving import OverloadedError, RecommendationService, RequestServer

CONFIG = RecommenderConfig(peer_threshold=0.1, top_z=4, top_k=5, max_peers=10)


@pytest.fixture
def service(mutable_dataset) -> RecommendationService:
    svc = RecommendationService(mutable_dataset, CONFIG)
    yield svc
    svc.close()


def _connect(address: tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=10.0)
    sock.settimeout(10.0)
    return sock


def _send(sock: socket.socket, payload: object) -> None:
    line = payload if isinstance(payload, str) else json.dumps(payload)
    sock.sendall((line + "\n").encode())


def _readline(sock: socket.socket) -> dict:
    buffer = bytearray()
    while not buffer.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            raise AssertionError("server closed mid-response")
        buffer.extend(chunk)
    return json.loads(buffer.decode())


def _ask(sock: socket.socket, payload: object) -> dict:
    _send(sock, payload)
    return _readline(sock)


class TestRequestKinds:
    def test_group_request_round_trip(self, service, mutable_dataset):
        members = mutable_dataset.users.ids()[:4]
        reference = service.recommend_group(
            Group(member_ids=list(members), caregiver_id="serve"), z=3
        )
        with RequestServer(service) as server:
            with _connect(server.address) as sock:
                response = _ask(
                    sock, {"type": "group", "members": members, "z": 3}
                )
        assert response["id"] == 1
        assert response["kind"] == "group"
        assert response["members"] == list(members)
        assert response["items"] == list(reference.items)
        assert response["fairness"] == reference.report.fairness

    def test_user_request_round_trip(self, service, mutable_dataset):
        user_id = mutable_dataset.users.ids()[0]
        expected = [
            item.item_id for item in service.recommend_user(user_id, k=4)
        ]
        with RequestServer(service) as server:
            with _connect(server.address) as sock:
                response = _ask(sock, {"type": "user", "user_id": user_id, "k": 4})
        assert response == {
            "id": 1,
            "kind": "user",
            "user": user_id,
            "items": expected,
        }

    def test_rate_request_mutates_and_orders_within_connection(
        self, service, mutable_dataset
    ):
        user_id = mutable_dataset.users.ids()[0]
        item_id = mutable_dataset.ratings.item_ids()[0]
        with RequestServer(service) as server:
            with _connect(server.address) as sock:
                first = _ask(
                    sock,
                    {
                        "type": "rate",
                        "user_id": user_id,
                        "item_id": item_id,
                        "value": 5,
                    },
                )
                # Strict in-order processing: this same connection's
                # next read sees its own write.
                second = _ask(sock, {"type": "user", "user_id": user_id})
        assert first == {
            "id": 1,
            "kind": "rate",
            "user": user_id,
            "item": item_id,
            "ok": True,
        }
        assert second["id"] == 2
        assert mutable_dataset.ratings.get(user_id, item_id) == 5.0

    def test_blank_lines_are_skipped_not_answered(self, service):
        with RequestServer(service) as server:
            with _connect(server.address) as sock:
                _send(sock, "")
                response = _ask(
                    sock, {"type": "user", "user_id": service.dataset.users.ids()[0]}
                )
        assert response["id"] == 1  # the blank line consumed no id


class TestRejections:
    def test_unparseable_json_is_bad_request(self, service):
        with RequestServer(service) as server:
            with _connect(server.address) as sock:
                response = _ask(sock, "this is not json")
        assert response["id"] == 1
        assert response["error"] == "bad-request"
        assert response["detail"]

    def test_unknown_request_type_is_bad_request(self, service):
        with RequestServer(service) as server:
            with _connect(server.address) as sock:
                response = _ask(sock, {"type": "divine"})
        assert response["error"] == "bad-request"
        assert "unknown request type" in response["detail"]

    def test_connection_survives_a_rejected_line(self, service):
        with RequestServer(service) as server:
            with _connect(server.address) as sock:
                assert _ask(sock, "garbage")["error"] == "bad-request"
                good = _ask(
                    sock, {"type": "user", "user_id": service.dataset.users.ids()[0]}
                )
        assert "error" not in good
        assert good["id"] == 2

    def test_repro_errors_map_to_their_type_name(self):
        class _Exploding:
            def recommend_user(self, user_id, k=None):
                raise ReproError(f"no such user {user_id!r}")

        registry = MetricsRegistry()
        server = RequestServer(_Exploding(), metrics=registry)
        with server:
            with _connect(server.address) as sock:
                response = _ask(sock, {"type": "user", "user_id": "ghost"})
        assert response["error"] == "ReproError"
        assert "ghost" in response["detail"]
        assert registry.counter("server_errors").value == 1


class _StallingService:
    """A service double whose requests block until released."""

    def __init__(self) -> None:
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()

    def recommend_user(self, user_id: str, k: int | None = None) -> list:
        self.entered.release()
        assert self.release.wait(timeout=30.0)
        return []


class TestAdmissionControl:
    def test_overload_is_shed_immediately_and_typed(self):
        stalling = _StallingService()
        registry = MetricsRegistry()
        server = RequestServer(stalling, max_inflight=1, metrics=registry)
        with server:
            blocked = _connect(server.address)
            rejected = _connect(server.address)
            try:
                _send(blocked, {"type": "user", "user_id": "a"})
                # The admitted request is inside the service before the
                # second one arrives — no race on the inflight gauge.
                assert stalling.entered.acquire(timeout=10.0)
                response = _ask(rejected, {"type": "user", "user_id": "b"})
                assert response["error"] == "overloaded"
                assert response["inflight"] == 1
                assert response["max_inflight"] == 1
                assert "overloaded" in response["detail"]
                stalling.release.set()
                admitted = _readline(blocked)
                assert admitted == {"id": 1, "kind": "user", "user": "a", "items": []}
            finally:
                stalling.release.set()
                blocked.close()
                rejected.close()
        assert registry.counter("server_overloads").value == 1
        assert registry.counter("server_requests").value == 1

    def test_capacity_recovers_after_the_burst(self):
        stalling = _StallingService()
        server = RequestServer(stalling, max_inflight=1, metrics=MetricsRegistry())
        with server:
            with _connect(server.address) as first:
                _send(first, {"type": "user", "user_id": "a"})
                assert stalling.entered.acquire(timeout=10.0)
                stalling.release.set()
                _readline(first)
            # The in-flight slot is free again: a fresh request is served.
            with _connect(server.address) as second:
                response = _ask(second, {"type": "user", "user_id": "c"})
        assert "error" not in response

    def test_overloaded_error_is_typed(self):
        error = OverloadedError(inflight=4, max_inflight=4)
        assert isinstance(error, ReproError)
        assert error.inflight == 4
        assert error.max_inflight == 4
        assert "max_inflight=4" in str(error)

    def test_max_inflight_must_be_positive(self, service):
        with pytest.raises(ValueError, match="max_inflight"):
            RequestServer(service, max_inflight=0)


class _SlowService:
    """A service double that overruns any small request budget."""

    def recommend_user(
        self, user_id: str, k: int | None = None, *, deadline=None
    ) -> list:
        time.sleep(0.15)
        if deadline is not None:
            deadline.check(f"recommend_user({user_id!r})")
        return []


class _DegradingService:
    """A service double whose backend 'degrades' on every request."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def recommend_user(self, user_id: str, k: int | None = None) -> list:
        self.metrics.counter("pool_degraded_dispatches").inc()
        return []


class TestResilienceSurface:
    def test_overload_rejection_carries_a_retry_hint(self):
        stalling = _StallingService()
        server = RequestServer(stalling, max_inflight=1, metrics=MetricsRegistry())
        with server:
            blocked = _connect(server.address)
            rejected = _connect(server.address)
            try:
                _send(blocked, {"type": "user", "user_id": "a"})
                assert stalling.entered.acquire(timeout=10.0)
                response = _ask(rejected, {"type": "user", "user_id": "b"})
                assert response["error"] == "overloaded"
                # No request has completed yet: the latency window is
                # empty and the fixed fallback hint is served.
                assert response["retry_after_ms"] == 50
                stalling.release.set()
                _readline(blocked)
                stalling.release.clear()
                # With one stalled completion in the window, the hint
                # tracks the windowed p50 instead of the fallback.
                _send(blocked, {"type": "user", "user_id": "a"})
                assert stalling.entered.acquire(timeout=10.0)
                hinted = _ask(rejected, {"type": "user", "user_id": "b"})
                assert hinted["error"] == "overloaded"
                assert isinstance(hinted["retry_after_ms"], int)
                assert hinted["retry_after_ms"] >= 1
            finally:
                stalling.release.set()
                blocked.close()
                rejected.close()

    def test_request_timeout_maps_to_a_deadline_error(self):
        registry = MetricsRegistry()
        server = RequestServer(
            _SlowService(), request_timeout=0.05, metrics=registry
        )
        with server:
            with _connect(server.address) as sock:
                response = _ask(sock, {"type": "user", "user_id": "slow"})
        assert response["error"] == "deadline"
        assert "recommend_user('slow')" in response["detail"]
        assert registry.counter("server_deadline_timeouts").value == 1
        assert registry.counter("server_errors").value == 1

    def test_generous_timeout_rides_through_the_real_service(self, service):
        with RequestServer(service, request_timeout=30.0) as server:
            with _connect(server.address) as sock:
                response = _ask(
                    sock,
                    {"type": "user", "user_id": service.dataset.users.ids()[0]},
                )
        assert "error" not in response
        assert response["kind"] == "user"

    def test_degraded_dispatch_marks_the_response(self):
        degrading = _DegradingService()
        registry = MetricsRegistry()
        server = RequestServer(degrading, metrics=registry)
        with server:
            with _connect(server.address) as sock:
                response = _ask(sock, {"type": "user", "user_id": "a"})
        assert response["degraded"] is True
        assert registry.counter("server_degraded_responses").value == 1

    def test_request_timeout_must_be_positive(self, service):
        with pytest.raises(ValueError, match="request_timeout"):
            RequestServer(service, request_timeout=0.0)


class TestLifecycle:
    def test_start_is_idempotent_and_reports_the_address(self, service):
        server = RequestServer(service)
        try:
            address = server.start()
            assert server.start() == address == server.address
            assert address[1] > 0
        finally:
            server.stop()
        assert server.address is None

    def test_stop_with_dangling_connection_does_not_hang(self, service):
        server = RequestServer(service)
        address = server.start()
        sock = _connect(address)  # never sends, never closes
        try:
            server.stop()  # must unwind the open handler cleanly
        finally:
            sock.close()
        assert server.address is None

    def test_stop_is_idempotent(self, service):
        server = RequestServer(service)
        server.start()
        server.stop()
        server.stop()

    def test_connection_counter_tracks_streams(self, service):
        registry = MetricsRegistry()
        with RequestServer(service, metrics=registry) as server:
            for _ in range(3):
                with _connect(server.address) as sock:
                    _ask(
                        sock,
                        {"type": "user", "user_id": service.dataset.users.ids()[0]},
                    )
        assert registry.counter("server_connections").value == 3
        assert registry.counter("server_requests").value == 3
