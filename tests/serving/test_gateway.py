"""Async gateway tests: wires, admission, coalescing, drain, lifecycle,
identity.

The gateway is the TCP front: both wires spoken on one listener, every
response byte-identical to serial ``StreamingService.handle``, plus
admission control (typed ``overloaded`` shedding, never a hang or a
silent drop), compile coalescing for concurrent same-scene audits, and
a stop that leaves no connection or thread behind.
"""

import asyncio
import json
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import frames, protocol
from repro.api.client import AuditClient, parse_address
from repro.api.protocol import OverloadedError
from repro.serving import GatewayWorker, StreamingService
from repro.serving.edits import InsertObservation, RemoveTrack

from tests.core.conftest import make_obs
from tests.serving.conftest import GatedService, model_scene


def _raw_connect(address):
    sock = socket.create_connection(parse_address(address), timeout=30)
    return sock, sock.makefile("rwb")


def _raw_call(stream, request: dict) -> dict:
    stream.write((json.dumps(request) + "\n").encode("utf-8"))
    stream.flush()
    return json.loads(stream.readline())


# ------------------------------------------------------------------ wires


class TestWires:
    def test_line_json_round_trip(self, fitted_fixy):
        with GatewayWorker(fitted_fixy) as worker:
            with AuditClient.connect(worker.address) as client:
                session_id = client.open_session(model_scene("gw-line"))
                assert session_id == "gw-line"
                edited = client.edit(
                    session_id,
                    InsertObservation(
                        "gw-line-t0",
                        make_obs(9, 1.0, source="model", conf=0.9),
                    ),
                )
                assert edited["changed"] == ["gw-line-t0"]
                ranked = client.rank(session_id, kind="tracks", top_k=2)
                assert len(ranked) == 2
                assert client.close_session(session_id) is True
                stats = client.stats()
                assert stats["live_sessions"] == 0

    def test_framed_wire_round_trip(self, fitted_fixy):
        from repro.api import AuditSpec

        scene = model_scene("gw-framed")
        packed = frames.pack_scene(scene)
        fingerprint = frames.scene_fingerprint(packed)
        with GatewayWorker(fitted_fixy) as worker:
            with AuditClient.connect(worker.address, wire="frames") as client:
                hello = client.hello()
                assert hello["protocol_version"] == protocol.PROTOCOL_VERSION
                client.send_request(
                    "audit",
                    blobs=(packed,),
                    spec=AuditSpec(kind="tracks", top_k=2).to_dict(),
                    scene_hashes=[fingerprint],
                )
                response = client.recv_response()
                assert len(response["result"]["items"]) == 2
                # The body is cached now: hash-only audit, no blob.
                client.send_request(
                    "audit",
                    spec=AuditSpec(kind="tracks", top_k=2).to_dict(),
                    scene_hashes=[fingerprint],
                )
                warm = client.recv_response()
                assert warm["result"]["items"] == response["result"]["items"]
                assert warm["scene_cache"]["hits"] == 1

    def test_both_wires_one_listener(self, fitted_fixy):
        with GatewayWorker(fitted_fixy) as worker:
            with AuditClient.connect(worker.address) as lines, \
                    AuditClient.connect(worker.address, wire="frames") as framed:
                assert lines.hello()["protocol_version"] >= 1
                assert framed.hello()["protocol_version"] == 2

    def test_bad_json_line(self, fitted_fixy):
        with GatewayWorker(fitted_fixy) as worker:
            sock, stream = _raw_connect(worker.address)
            try:
                stream.write(b"this is not json\n")
                stream.flush()
                response = json.loads(stream.readline())
                assert response["ok"] is False
                assert "bad JSON" in response["error"]["message"]
                # The connection survives, like the stdio serve loop.
                assert _raw_call(stream, {"v": 2, "op": "stats"})["ok"] is True
            finally:
                stream.close()
                sock.close()

    def test_strict_service_rejects_v0_with_structured_error(
        self, fitted_fixy
    ):
        service = StreamingService(fitted_fixy)
        with GatewayWorker(service=service) as worker:
            sock, stream = _raw_connect(worker.address)
            try:
                response = _raw_call(stream, {"op": "stats"})
                assert response["ok"] is False
                assert response["error"]["code"] == protocol.UNSUPPORTED_VERSION
            finally:
                stream.close()
                sock.close()

    def test_blank_lines_skipped(self, fitted_fixy):
        with GatewayWorker(fitted_fixy) as worker:
            sock, stream = _raw_connect(worker.address)
            try:
                stream.write(b"\n\n")
                stream.flush()
                assert _raw_call(stream, {"v": 2, "op": "stats"})["ok"] is True
            finally:
                stream.close()
                sock.close()


# -------------------------------------------------------------- admission


class TestAdmission:
    def test_queue_full_sheds_typed_overloaded(self, fitted_fixy):
        service = GatedService(fitted_fixy)
        with GatewayWorker(
            service=service, max_inflight=1, max_queue=0, client_budget=8
        ) as worker:
            sock, stream = _raw_connect(worker.address)
            try:
                # Park the only executor thread on the gate.
                stream.write(
                    (json.dumps({"v": 1, "op": "stats", "gate": True}) + "\n")
                    .encode("utf-8")
                )
                stream.flush()
                assert service.entered.wait(timeout=10)
                # The window (1 inflight + 0 queue) is now full.
                with AuditClient.connect(worker.address) as other:
                    with pytest.raises(OverloadedError) as excinfo:
                        other.stats()
                    assert excinfo.value.code == protocol.OVERLOADED
                    assert (
                        excinfo.value.details["reason"] == "queue_full"
                    )
                    assert excinfo.value.details["max_queue"] == 0
                service.release()
                parked = json.loads(stream.readline())
                assert parked["ok"] is True  # the gated request completed
            finally:
                stream.close()
                sock.close()

    def test_client_budget_sheds_pipelined_requests(self, fitted_fixy):
        service = GatedService(fitted_fixy)
        with GatewayWorker(
            service=service, max_inflight=1, max_queue=8, client_budget=1
        ) as worker:
            with AuditClient.connect(worker.address, wire="frames") as client:
                client.send_request("stats", gate=True)
                assert service.entered.wait(timeout=10)
                # Second pipelined request from the same connection:
                # past its budget of 1 in-flight.
                client.send_request("stats")
                service.release()
                assert client.recv_response()["ok"] is True
                with pytest.raises(OverloadedError) as excinfo:
                    client.recv_response()
                assert excinfo.value.details["reason"] == "client_budget"

    def test_shed_counter_advances(self, fitted_fixy):
        from repro.serving.gateway import _SHED

        service = GatedService(fitted_fixy)
        before = _SHED.value(reason="queue_full")
        with GatewayWorker(
            service=service, max_inflight=1, max_queue=0
        ) as worker:
            sock, stream = _raw_connect(worker.address)
            try:
                stream.write(
                    (json.dumps({"v": 1, "op": "stats", "gate": True}) + "\n")
                    .encode("utf-8")
                )
                stream.flush()
                assert service.entered.wait(timeout=10)
                with AuditClient.connect(worker.address) as other:
                    with pytest.raises(OverloadedError):
                        other.stats()
                assert worker.gateway.requests_shed == 1
                service.release()
                json.loads(stream.readline())
            finally:
                stream.close()
                sock.close()
        assert _SHED.value(reason="queue_full") == before + 1


# -------------------------------------------------------------- coalescing


class TestCoalescing:
    def _audit_request(self, fingerprint, **extra):
        from repro.api import AuditSpec

        return {
            "v": 2,
            "op": "audit",
            "spec": AuditSpec(kind="tracks", top_k=2).to_dict(),
            "scene_hashes": [fingerprint],
            **extra,
        }

    def test_identical_inflight_audits_share_one_execution(
        self, fitted_fixy
    ):
        from repro.serving.gateway import _COALESCE

        scene = model_scene("gw-coalesce")
        packed = frames.pack_scene(scene)
        fingerprint = frames.scene_fingerprint(packed)
        service = GatedService(fitted_fixy, scene_cache=4)
        service.scene_cache.ingest(packed)
        handled_before = service.requests_handled
        leads_before = _COALESCE.value(outcome="lead")
        hits_before = _COALESCE.value(outcome="hit")
        with GatewayWorker(
            service=service, max_inflight=1, max_queue=16, client_budget=4
        ) as worker:
            request = self._audit_request(fingerprint, gate=True)
            streams = []
            for _ in range(3):
                sock, stream = _raw_connect(worker.address)
                streams.append((sock, stream))
                stream.write((json.dumps(request) + "\n").encode("utf-8"))
                stream.flush()
            try:
                assert service.entered.wait(timeout=10)
                # All three are in flight on one future; release the lead.
                service.release()
                bodies = {streams[i][1].readline() for i in range(3)}
                assert len(bodies) == 1  # byte-identical shared response
                assert json.loads(bodies.pop())["ok"] is True
            finally:
                for sock, stream in streams:
                    stream.close()
                    sock.close()
        assert _COALESCE.value(outcome="lead") == leads_before + 1
        assert _COALESCE.value(outcome="hit") == hits_before + 2
        # The service executed the audit exactly once.
        assert service.requests_handled == handled_before + 1

    def test_different_requests_do_not_coalesce(self, fitted_fixy):
        gateway = GatewayWorker(fitted_fixy).gateway
        scene = model_scene("gw-key")
        fingerprint = frames.scene_fingerprint(frames.pack_scene(scene))
        base = self._audit_request(fingerprint)
        key = gateway._coalesce_key(base, None)
        assert key is not None
        assert gateway._coalesce_key(dict(base, extra=1), None) != key
        # Stateful or body-shipping variants never coalesce.
        assert gateway._coalesce_key(dict(base, session_id="s"), None) is None
        assert gateway._coalesce_key(dict(base, trace_id="t"), None) is None
        assert (
            gateway._coalesce_key(dict(base, scene_hashes=[]), None) is None
        )
        assert gateway._coalesce_key({"op": "stats"}, None) is None

    def test_sequential_audits_do_not_coalesce(self, fitted_fixy):
        """Coalescing shares *in-flight* work only — a finished response
        is never replayed to a later request."""
        scene = model_scene("gw-seq")
        packed = frames.pack_scene(scene)
        fingerprint = frames.scene_fingerprint(packed)
        service = StreamingService(fitted_fixy, scene_cache=4)
        service.scene_cache.ingest(packed)
        handled_before = service.requests_handled
        with GatewayWorker(service=service) as worker:
            sock, stream = _raw_connect(worker.address)
            try:
                first = _raw_call(stream, self._audit_request(fingerprint))
                second = _raw_call(stream, self._audit_request(fingerprint))
                assert first["ok"] and second["ok"]
            finally:
                stream.close()
                sock.close()
        assert service.requests_handled == handled_before + 2


# ------------------------------------------------------------------ drain


class TestDrain:
    def test_stop_answers_inflight_before_closing(self, fitted_fixy):
        service = GatedService(fitted_fixy)
        worker = GatewayWorker(service=service, drain_timeout=10)
        sock, stream = _raw_connect(worker.address)
        try:
            stream.write(
                (json.dumps({"v": 1, "op": "stats", "gate": True}) + "\n")
                .encode("utf-8")
            )
            stream.flush()
            assert service.entered.wait(timeout=10)
            stopper = threading.Thread(target=worker.stop)
            stopper.start()
            # The gateway is draining but the parked request must still
            # be answered once it completes — never silently dropped.
            service.release()
            response = json.loads(stream.readline())
            assert response["ok"] is True
            stopper.join(timeout=30)
            assert not stopper.is_alive()
            # After the drain the connection is closed: clean EOF.
            assert stream.readline() == b""
        finally:
            stream.close()
            sock.close()

    def test_stop_twice_is_safe(self, fitted_fixy):
        worker = GatewayWorker(fitted_fixy)
        worker.stop()
        worker.stop()
        assert not worker.thread.is_alive()

    def test_connections_gauge_returns_to_zero(self, fitted_fixy):
        from repro.serving.gateway import _CONNECTIONS

        with GatewayWorker(fitted_fixy) as worker:
            with AuditClient.connect(worker.address) as client:
                client.stats()
                assert _CONNECTIONS.value() >= 1
        assert _CONNECTIONS.value() == 0


# -------------------------------------------------------------- lifecycle


def _assert_stop_closes_idle_client(fixy) -> None:
    worker = GatewayWorker(fixy)
    sock, stream = _raw_connect(worker.address)
    try:
        assert _raw_call(stream, {"v": 1, "op": "stats"})["ok"] is True
        # The client now sits idle; stopping the worker must close its
        # connection.
        worker.stop()
        sock.settimeout(10)  # a hang here is the bug this pins
        assert stream.readline() == b""
    finally:
        stream.close()
        sock.close()
    assert not worker.thread.is_alive()


async def _wait_closed_since_python_312(server) -> None:
    """``Server.wait_closed`` as Python 3.12 has it: it also waits
    until every accepted connection has dropped (3.11 returns once the
    listener is closed)."""
    if server._waiters is None:
        return
    waiter = server._loop.create_future()
    server._waiters.append(waiter)
    await waiter


class TestLifecycle:
    def test_stop_closes_live_connections(self, fitted_fixy):
        """`stop()` must end accepted conversations, not just the
        listener: a client parked on an idle read sees a prompt EOF."""
        _assert_stop_closes_idle_client(fitted_fixy)

    def test_stop_closes_live_connections_with_312_wait_closed(
        self, fitted_fixy, monkeypatch
    ):
        """The same check under Python 3.12's ``Server.wait_closed``,
        which would hold shutdown open for as long as the idle client
        stays connected if shutdown awaited it first."""
        monkeypatch.setattr(
            asyncio.base_events.Server,
            "wait_closed",
            _wait_closed_since_python_312,
        )
        _assert_stop_closes_idle_client(fitted_fixy)

    def test_stop_leaves_no_gateway_threads(self, fitted_fixy):
        """No ``gateway-worker`` (event loop) or ``gateway-exec``
        (executor) thread of a stopped worker stays alive. Other live
        gateways (session fixtures) are left out by the snapshot."""
        before = set(threading.enumerate())
        worker = GatewayWorker(fitted_fixy)
        clients = [AuditClient.connect(worker.address) for _ in range(3)]
        for client in clients:
            client.stats()
        spawned = [
            t for t in threading.enumerate()
            if t not in before and t.name.startswith("gateway-")
        ]
        names = {t.name for t in spawned}
        assert "gateway-worker" in names
        assert any(name.startswith("gateway-exec") for name in names)
        worker.stop()
        for client in clients:
            client.close()
        for thread in spawned:
            thread.join(timeout=10)
            assert not thread.is_alive(), thread.name


# ---------------------------------------------- concurrent byte identity


def _client_ops(client_index: int, op_codes: list[str]) -> list[dict]:
    """A deterministic per-session op sequence from drawn op codes."""
    scene_id = f"ident-{client_index}"
    scene = model_scene(scene_id, n_tracks=3)
    requests = [{"v": 1, "op": "open", "scene": scene.to_dict()}]
    for step, code in enumerate(op_codes):
        if code == "edit":
            requests.append(
                {
                    "v": 1,
                    "op": "edit",
                    "session_id": scene_id,
                    "edit": InsertObservation(
                        f"{scene_id}-t0",
                        make_obs(
                            10 + step, 1.0 + 0.1 * step,
                            source="model", conf=0.9,
                        ),
                    ).to_dict(),
                }
            )
        elif code == "remove":
            requests.append(
                {
                    "v": 1,
                    "op": "edit",
                    "session_id": scene_id,
                    "edit": RemoveTrack(f"{scene_id}-t2").to_dict(),
                }
            )
        elif code == "rank":
            requests.append(
                {
                    "v": 1,
                    "op": "rank",
                    "session_id": scene_id,
                    "kind": "tracks",
                    "top_k": 2,
                }
            )
        elif code == "audit":
            from repro.api import AuditSpec

            requests.append(
                {
                    "v": 1,
                    "op": "audit",
                    "session_id": scene_id,
                    "spec": AuditSpec(kind="tracks", top_k=2).to_dict(),
                }
            )
        elif code == "standing":
            from repro.api import AuditSpec

            requests.append(
                {
                    "v": 1,
                    "op": "subscribe",
                    "session_id": scene_id,
                    "audit_id": f"{scene_id}-watch",
                    "spec": AuditSpec(kind="tracks", top_k=2).to_dict(),
                }
            )
            requests.append(
                {
                    "v": 1,
                    "op": "standing",
                    "session_id": scene_id,
                    "audit_id": f"{scene_id}-watch",
                }
            )
    requests.append({"v": 1, "op": "close", "session_id": scene_id})
    return requests


#: Wall-clock payload fields — everything else must match bit-for-bit.
_VOLATILE_KEYS = ("timings", "maintain_ms")


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_timings(v)
            for k, v in obj.items()
            if k not in _VOLATILE_KEYS
        }
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _run_interleaved(address, per_client_requests):
    """Each client on its own connection+thread: real interleaving."""
    responses = [None] * len(per_client_requests)
    errors = []

    def run(index, requests):
        try:
            sock, stream = _raw_connect(address)
            try:
                responses[index] = [_raw_call(stream, r) for r in requests]
            finally:
                stream.close()
                sock.close()
        except Exception as exc:  # pragma: no cover - surfaced by assert
            errors.append((index, exc))

    threads = [
        threading.Thread(target=run, args=(i, reqs))
        for i, reqs in enumerate(per_client_requests)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    return _strip_timings(responses)


class TestConcurrentByteIdentity:
    @settings(max_examples=5, deadline=None)
    @given(
        schedules=st.lists(
            st.lists(
                st.sampled_from(
                    ["edit", "remove", "rank", "audit", "standing"]
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=2,
            max_size=4,
        )
    )
    def test_interleaved_clients_match_serial(self, fitted_fixy, schedules):
        """N interleaved clients, mixed audit/edit/standing ops: the
        gateway and plain serial execution produce identical responses
        (hypothesis draws the schedule)."""
        per_client = [
            _client_ops(i, codes) for i, codes in enumerate(schedules)
        ]

        def fresh():
            return StreamingService(fitted_fixy, max_sessions=16)

        with GatewayWorker(service=fresh(), max_inflight=3) as worker:
            via_gateway = _run_interleaved(worker.address, per_client)
        serial_service = fresh()
        via_serial = _strip_timings(
            [
                [serial_service.handle(request) for request in requests]
                for requests in per_client
            ]
        )
        assert via_gateway == via_serial
