"""The async JSONL front end over real TCP connections.

Everything here talks to :class:`~repro.serving.server.RequestServer`
through actual sockets — the same path ``repro serve --listen`` wires
up — so framing, per-connection ordering, admission control and
shutdown are tested as a client would experience them, not via method
calls on internals.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time

import pytest

from repro.config import RecommenderConfig
from repro.data.groups import Group
from repro.exceptions import ReproError
from repro.obs import MetricsRegistry
from repro.resilience import mark_degraded
from repro.serving import OverloadedError, RecommendationService, RequestServer
from repro.serving.server import MAX_LINE_BYTES

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


#: How long a test holds the event loop while other lines arrive.
_HELD_S = 0.2


class _LoopHoldingService:
    """A service double that holds the event loop while it serves.

    ``recommend_user("block")`` returns once :attr:`release` is set;
    any other user takes ``hold`` seconds.  Like the real service it
    checks its deadline on entry, and :attr:`served` lists each user it
    went on to compute for.
    """

    def __init__(self, hold: float = 0.0) -> None:
        self.hold = hold
        self.entered = threading.Event()
        self.release = threading.Event()
        self.served: list[str] = []

    def recommend_user(self, user_id, k=None, *, deadline=None) -> list:
        if deadline is not None:
            deadline.check(f"recommend_user({user_id!r})")
        self.served.append(user_id)
        if user_id == "block":
            self.entered.set()
            assert self.release.wait(timeout=30.0)
        else:
            time.sleep(self.hold)
        return []


def _behind_a_held_loop(server, held, users) -> list[dict]:
    """Answers to a ``block`` request and to ``users``, in that order.

    Each user is sent on its own connection while ``block`` holds the
    loop, so the server reads all of their lines in one loop turn.
    """
    connections = server.metrics.counter("server_connections")
    expected = connections.value + len(users) + 1
    socks = [_connect(server.address) for _ in range(len(users) + 1)]
    try:
        # Every handler is reading before the loop is held; a connection
        # still being accepted would read its line a turn late.
        give_up = time.monotonic() + 10.0
        while connections.value < expected:
            assert time.monotonic() < give_up, "connections never set up"
            time.sleep(0.001)
        _send(socks[0], {"type": "user", "user_id": "block"})
        assert held.entered.wait(timeout=10.0)
        for sock, user in zip(socks[1:], users):
            _send(sock, {"type": "user", "user_id": user})
        time.sleep(_HELD_S)  # the lines land while the loop is held
        held.release.set()
        return [_readline(sock) for sock in socks]
    finally:
        held.release.set()
        for sock in socks:
            sock.close()


class _ThreadRecorder:
    """Serves through a real service, recording each caller's thread."""

    def __init__(self, service: RecommendationService) -> None:
        self.service = service
        self.threads: list[int] = []

    def recommend_group(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        return self.service.recommend_group(*args, **kwargs)

    def recommend_user(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        return self.service.recommend_user(*args, **kwargs)

    def ingest_rating(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        return self.service.ingest_rating(*args, **kwargs)


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

    @pytest.mark.parametrize(
        "line",
        [
            "[1]",
            "42",
            '"x"',
            "null",
            '{"type": "group", "members": "user-00"}',
            pytest.param("[" * 50_000, id="nested-too-deep"),
        ],
    )
    def test_a_line_that_is_not_a_request_object_is_bad_request(
        self, service, line
    ):
        user_id = service.dataset.users.ids()[0]
        with RequestServer(service) as server:
            with _connect(server.address) as sock:
                rejected = _ask(sock, line)
                good = _ask(sock, {"type": "user", "user_id": user_id})
        assert rejected["id"] == 1
        assert rejected["error"] == "bad-request"
        assert "error" not in good
        assert good["id"] == 2

    @pytest.mark.parametrize(
        "k", ["1e400", "Infinity", "-Infinity", "NaN", "2.9", "true"]
    )
    def test_a_non_integral_k_is_bad_request_and_the_stream_goes_on(
        self, service, k
    ):
        user_id = service.dataset.users.ids()[0]
        registry = MetricsRegistry()
        with RequestServer(service, metrics=registry) as server:
            with _connect(server.address) as sock:
                rejected = _ask(
                    sock, f'{{"type": "user", "user_id": "{user_id}", "k": {k}}}'
                )
                good = _ask(sock, {"type": "user", "user_id": user_id})
        assert rejected["error"] == "bad-request"
        assert "'k'" in rejected["detail"]
        assert registry.counter("server_errors").value == 1
        assert "error" not in good
        assert good["id"] == 2

    @pytest.mark.parametrize(
        ("field", "value"),
        [("user_id", ["u0000"]), ("user_id", 5), ("user_id", {"a": 1}),
         ("item_id", 7)],
        ids=["user-list", "user-number", "user-object", "item-number"],
    )
    def test_a_non_string_id_is_bad_request_and_adds_nothing(
        self, service, field, value
    ):
        request = {
            "type": "rate",
            "user_id": service.dataset.users.ids()[0],
            "item_id": service.dataset.ratings.item_ids()[0],
            "value": 3,
        }
        request[field] = value
        users, items = service.matrix.num_users, service.matrix.num_items
        with RequestServer(service) as server:
            with _connect(server.address) as sock:
                response = _ask(sock, request)
        assert response["error"] == "bad-request"
        assert repr(field) in response["detail"]
        assert (service.matrix.num_users, service.matrix.num_items) == (
            users,
            items,
        )

    def test_an_oversized_line_is_bad_request_and_closes(self, service):
        user_id = service.dataset.users.ids()[0]
        with RequestServer(service) as server:
            with _connect(server.address) as sock:
                _send(sock, "x" * 70_000)
                response = _readline(sock)
                # The server closed the connection: an orderly end of
                # stream, or a reset if part of the line was unread.
                try:
                    assert sock.recv(1) == b""
                except ConnectionResetError:
                    pass
            with _connect(server.address) as sock:
                good = _ask(sock, {"type": "user", "user_id": user_id})
        assert response["id"] == 1
        assert response["error"] == "bad-request"
        assert str(MAX_LINE_BYTES) in response["detail"]
        assert "error" not in good

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


class TestAdmissionControl:
    def test_overload_is_shed_immediately_and_typed(self):
        held = _LoopHoldingService()
        registry = MetricsRegistry()
        server = RequestServer(held, max_inflight=1, metrics=registry)
        with server:
            first, *burst = _behind_a_held_loop(server, held, ["b", "c"])
        assert first == {"id": 1, "kind": "user", "user": "block", "items": []}
        shed = [answer for answer in burst if "error" in answer]
        served = [answer for answer in burst if "error" not in answer]
        # Both lines were read in one turn: the first counted in filled
        # the backlog, the second was shed before anything ran.
        assert len(shed) == len(served) == 1
        assert shed[0]["error"] == "overloaded"
        assert shed[0]["inflight"] == 1
        assert shed[0]["max_inflight"] == 1
        assert "overloaded" in shed[0]["detail"]
        assert held.served == ["block", served[0]["user"]]
        assert registry.counter("server_overloads").value == 1
        assert registry.counter("server_requests").value == 2

    def test_capacity_recovers_after_the_burst(self):
        held = _LoopHoldingService()
        registry = MetricsRegistry()
        server = RequestServer(held, max_inflight=1, metrics=registry)
        with server:
            _behind_a_held_loop(server, held, ["b", "c"])
            # The backlog drained: a fresh request is served.
            with _connect(server.address) as sock:
                response = _ask(sock, {"type": "user", "user_id": "d"})
        assert "error" not in response
        assert held.served[-1] == "d"
        assert registry.counter("server_overloads").value == 1

    def test_overloaded_error_is_typed(self):
        error = OverloadedError(inflight=4, max_inflight=4)
        assert isinstance(error, ReproError)
        assert error.inflight == 4
        assert error.max_inflight == 4
        assert "max_inflight=4" in str(error)

    def test_max_inflight_must_be_positive(self, service):
        with pytest.raises(ValueError, match="max_inflight"):
            RequestServer(service, max_inflight=0)


class TestOneThread:
    def test_hits_misses_and_writes_run_on_the_loop_thread(
        self, service, mutable_dataset
    ):
        recorder = _ThreadRecorder(service)
        ids = mutable_dataset.users.ids()
        group = {"type": "group", "members": ids[:3]}
        rate = {
            "type": "rate",
            "user_id": ids[0],
            "item_id": mutable_dataset.ratings.item_ids()[0],
            "value": 4,
        }
        before = set(threading.enumerate())
        server = RequestServer(recorder, metrics=MetricsRegistry())
        server.start()
        try:
            with _connect(server.address) as sock:
                answers = [_ask(sock, group), _ask(sock, group), _ask(sock, rate)]
            added = set(threading.enumerate()) - before
        finally:
            server.stop()
        left = set(threading.enumerate()) - before
        assert all("error" not in answer for answer in answers)
        group_cache = service.stats()["group_cache"]
        assert (group_cache["misses"], group_cache["hits"]) == (1, 1)
        assert len(added) == 1  # start() added the loop thread, nothing else
        (loop_thread,) = added
        assert recorder.threads == [loop_thread.ident] * 3
        assert not left  # stop() removed it


class TestCacheHitsOnTheLoop:
    """Hits and misses both run on the loop; the cache decides which computes."""

    @pytest.mark.parametrize(
        ("kind", "cache", "counter"),
        [("group", "group_cache", "group_requests"),
         ("user", "relevance_cache", "user_requests")],
    )
    def test_repeats_count_one_miss_and_the_rest_hits(
        self, mutable_dataset, kind, cache, counter
    ):
        registry = MetricsRegistry()
        service = RecommendationService(mutable_dataset, CONFIG, metrics=registry)
        ids = mutable_dataset.users.ids()
        request = (
            {"type": "group", "members": ids[:3]}
            if kind == "group"
            else {"type": "user", "user_id": ids[0]}
        )
        repeats = 5
        try:
            with RequestServer(service) as server:
                with _connect(server.address) as sock:
                    answers = [_ask(sock, request) for _ in range(repeats)]
            stats = service.stats()
        finally:
            service.close()
        assert all("error" not in answer for answer in answers)
        assert len({json.dumps(a["items"]) for a in answers}) == 1
        assert stats[cache]["misses"] == 1
        assert stats[cache]["hits"] == repeats - 1
        assert stats["requests"][counter] == repeats
        assert registry.counter("server_requests").value == repeats
        # server_request_ms observes every request the loop runs.
        assert registry.histogram("server_request_ms").count == repeats

    def test_strict_validation_fails_a_poisoned_hit_on_the_loop(
        self, mutable_dataset
    ):
        config = dataclasses.replace(CONFIG, validation="strict")
        registry = MetricsRegistry()
        service = RecommendationService(mutable_dataset, config, metrics=registry)
        members = mutable_dataset.users.ids()[:3]
        try:
            clean = service.recommend_group(Group(member_ids=members))
            poisoned = dataclasses.replace(
                clean, plain_top_z=tuple(reversed(clean.plain_top_z))
            )
            service.group_cache.put((tuple(members), config.top_z), poisoned)
            with RequestServer(service) as server:
                with _connect(server.address) as sock:
                    response = _ask(sock, {"type": "group", "members": members})
            group_cache = service.stats()["group_cache"]
        finally:
            service.close()
        assert response["error"] == "ValidationError"
        assert "score_order" in response["detail"]
        # The poisoned entry was the hit that failed, not a recompute:
        # the one miss is the clean compute above.
        assert (group_cache["hits"], group_cache["misses"]) == (1, 1)
        assert registry.counter("server_errors").value == 1


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
        mark_degraded()
        return []


class _BystanderService:
    """A double whose registry sees another request's degraded batch.

    The shared ``pool_degraded_dispatches`` counter moves while this
    request runs, but nothing degraded served it.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def recommend_user(self, user_id: str, k: int | None = None) -> list:
        self.metrics.counter("pool_degraded_dispatches").inc()
        return []


class TestResilienceSurface:
    def test_overload_rejection_carries_a_retry_hint(self, service):
        # No request has completed yet: the latency window is empty and
        # the fixed fallback hint is served.
        fresh = RequestServer(service, metrics=MetricsRegistry())
        assert fresh._retry_after_ms() == 50
        held = _LoopHoldingService()
        server = RequestServer(held, max_inflight=1, metrics=MetricsRegistry())
        with server:
            _, *burst = _behind_a_held_loop(server, held, ["b", "c"])
        (shed,) = [answer for answer in burst if "error" in answer]
        # The hint is the windowed p50 of server_request_ms; the window
        # holds one request, the one that held the loop.
        assert isinstance(shed["retry_after_ms"], int)
        assert shed["retry_after_ms"] >= _HELD_S * 1000

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

    def test_a_budget_spent_in_the_backlog_computes_nothing(self):
        held = _LoopHoldingService(hold=0.3)
        registry = MetricsRegistry()
        server = RequestServer(held, request_timeout=0.1, metrics=registry)
        with server:
            first, *burst = _behind_a_held_loop(server, held, ["b", "c"])
        assert "error" not in first
        # Both were admitted in one turn; the second waited 0.3 s behind
        # the first, past its 0.1 s budget.
        late = [answer for answer in burst if "error" in answer]
        served = [answer for answer in burst if "error" not in answer]
        assert len(late) == len(served) == 1
        assert late[0]["error"] == "deadline"
        assert held.served == ["block", served[0]["user"]]
        assert registry.counter("server_deadline_timeouts").value == 1

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

    def test_a_concurrent_fallback_does_not_mark_the_response(self):
        bystander = _BystanderService()
        registry = MetricsRegistry()
        server = RequestServer(bystander, metrics=registry)
        with server:
            with _connect(server.address) as sock:
                response = _ask(sock, {"type": "user", "user_id": "a"})
        assert "degraded" not in response
        assert registry.counter("server_degraded_responses").value == 0

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

    def test_stop_right_after_a_connect_logs_no_loop_error(
        self, service, monkeypatch
    ):
        # asyncio's debug mode slows the loop down enough that the new
        # connection is still being set up when stop() unwinds it; the
        # autouse fixture fails the test on any loop error logged.
        monkeypatch.setenv("PYTHONASYNCIODEBUG", "1")
        for _ in range(3):
            server = RequestServer(service)
            sock = _connect(server.start())
            try:
                server.stop()
            finally:
                sock.close()

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
