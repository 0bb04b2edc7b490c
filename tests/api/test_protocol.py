"""Versioned wire protocol: negotiation, structured errors on every
front, the client, transport hardening (EOF / garbage / timeout), and
worker registration ops."""

import io
import json
import socket
import threading

import pytest

from repro.api import AuditClient, AuditSpec, FilterSpec
from repro.api import protocol
from repro.api.client import parse_address
from repro.serving import GatewayWorker, InsertObservation, StreamingService

from tests.core.conftest import make_obs
from tests.serving.conftest import GatedService, model_scene


@pytest.fixture
def service(api_fixy):
    return StreamingService(api_fixy, max_sessions=4)


class TestVersionNegotiation:
    def test_v1_round_trip_carries_version(self, service):
        response = service.handle(
            protocol.make_request("open", scene=model_scene("v1").to_dict())
        )
        assert response["ok"] is True
        assert response["v"] == protocol.PROTOCOL_VERSION

    def test_unknown_version_rejected_round_trip(self, service):
        for bad in (99, "two", None):
            response = service.handle(
                {"v": bad, "op": "stats"}
            )
            assert response["ok"] is False
            assert response["v"] == protocol.PROTOCOL_VERSION
            assert response["error"]["code"] == "unsupported_version"
            assert response["error"]["details"]["supported"] == list(
                protocol.SUPPORTED_VERSIONS
            )

    def test_v1_request_answered_in_v1(self, service):
        """A v2 build answers a v1 peer in the v1 dialect."""
        response = service.handle({"v": 1, "op": "stats"})
        assert response["ok"] is True
        assert response["v"] == 1
        error = service.handle({"v": 1, "op": "warp"})
        assert error["ok"] is False and error["v"] == 1

    def test_strict_service_rejects_versionless(self, service):
        response = service.handle({"op": "stats"})
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported_version"


def _stdio_exchange(fixy, tmp_path, lines: list[str]) -> list[dict]:
    """Feed ``lines`` to ``repro.cli serve`` over stdio."""
    from repro.cli import _cmd_serve, build_parser

    model_path = tmp_path / "model.json"
    fixy.learned.save(model_path)
    args = build_parser().parse_args(["serve", "--model", str(model_path)])
    out = io.StringIO()
    stdin = io.StringIO("\n".join(lines))
    assert _cmd_serve(args, stdin=stdin, stdout=out) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _socket_exchange(address, lines: list[str]) -> list[dict]:
    """Send ``lines`` one at a time over one line-JSON connection."""
    sock = socket.create_connection(parse_address(address), timeout=30)
    with sock, sock.makefile("rwb") as stream:
        responses = []
        for line in lines:
            stream.write(line.encode("utf-8") + b"\n")
            stream.flush()
            responses.append(json.loads(stream.readline()))
    return responses


#: JSON values equal to a supported version in Python that are not
#: protocol versions.
NON_INTEGER_VERSIONS = (True, 1.0, 2.0)


class TestOneDialect:
    @pytest.mark.parametrize("front", ["stdio", "gateway"])
    def test_unversioned_and_bad_json_are_structured(
        self, api_fixy, tmp_path, front
    ):
        """Every front answers a request without ``"v"`` or with a
        non-integer ``"v"`` with a structured ``unsupported_version``
        and an undecodable line with ``bad_json``, all stamped with
        this build's version, and keeps serving versioned requests on
        the same stream. The gateway's load shedding answers such
        requests the same way."""
        lines = [
            json.dumps({"op": "stats"}),
            "this is not json",
            *(json.dumps({"v": v, "op": "stats"})
              for v in NON_INTEGER_VERSIONS),
            json.dumps({"v": 1, "op": "stats"}),
        ]
        if front == "stdio":
            responses = _stdio_exchange(api_fixy, tmp_path, lines)
        else:
            service = GatedService(api_fixy)
            with GatewayWorker(
                service=service, max_inflight=1, max_queue=0
            ) as worker:
                responses = _socket_exchange(worker.address, lines)
                sock = socket.create_connection(
                    parse_address(worker.address), timeout=30
                )
                with sock, sock.makefile("rwb") as parked:
                    # Park the only executor thread, then shed.
                    parked.write(b'{"v": 1, "op": "stats", "gate": true}\n')
                    parked.flush()
                    assert service.entered.wait(timeout=10)
                    sheds = _socket_exchange(
                        worker.address,
                        [json.dumps({"op": "stats"})]
                        + [
                            json.dumps({"v": v, "op": "stats"})
                            for v in NON_INTEGER_VERSIONS
                        ],
                    )
                    service.release()
                    assert json.loads(parked.readline())["ok"] is True
            for shed in sheds:
                assert shed["ok"] is False
                assert type(shed["v"]) is int
                assert shed["v"] == protocol.PROTOCOL_VERSION
                assert shed["error"]["code"] == protocol.OVERLOADED
        unversioned, garbage, *non_integer, v1 = responses
        assert len(non_integer) == len(NON_INTEGER_VERSIONS)
        for rejected in (unversioned, *non_integer):
            assert rejected["ok"] is False
            assert type(rejected["v"]) is int
            assert rejected["v"] == protocol.PROTOCOL_VERSION
            assert rejected["error"]["code"] == protocol.UNSUPPORTED_VERSION
        assert garbage["ok"] is False
        assert garbage["v"] == protocol.PROTOCOL_VERSION
        assert garbage["error"]["code"] == protocol.BAD_JSON
        assert v1["ok"] is True and v1["v"] == 1


class TestStructuredErrors:
    def test_unknown_rank_kind_code(self, service):
        service.handle(
            protocol.make_request("open", scene=model_scene("k").to_dict())
        )
        response = service.handle(
            protocol.make_request("rank", session_id="k", kind="galaxies")
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown_rank_kind"
        assert response["error"]["details"]["valid_kinds"] == [
            "tracks", "bundles", "observations",
        ]

    def test_unknown_session_code(self, service):
        response = service.handle(
            protocol.make_request("rank", session_id="ghost")
        )
        assert response["error"]["code"] == "unknown_session"

    def test_missing_field_is_bad_request(self, service):
        response = service.handle(protocol.make_request("open"))
        assert response["error"]["code"] == "bad_request"
        assert "scene" in response["error"]["message"]

    def test_unknown_op_code(self, service):
        response = service.handle(protocol.make_request("warp"))
        assert response["error"]["code"] == "unknown_op"

    def test_invalid_spec_code(self, service):
        response = service.handle(
            protocol.make_request(
                "audit",
                spec={"kind": "tracks", "nope": 1},
                scenes=[model_scene("s").to_dict()],
            )
        )
        assert response["error"]["code"] == "invalid_spec"

    def test_every_response_is_json_safe(self, service):
        for request in (
            protocol.make_request("stats"),
            protocol.make_request("rank", session_id="ghost"),
            {"v": 99, "op": "stats"},
        ):
            json.dumps(service.handle(request))


class TestClient:
    def test_full_session_lifecycle(self, service):
        client = AuditClient.local(service=service)
        scene = model_scene("cl", n_tracks=3)
        session_id = client.open_session(scene)
        assert session_id == "cl"
        edited = client.edit(
            session_id,
            InsertObservation("cl-t0", make_obs(9, 1.0, source="model", conf=0.9)),
        )
        assert edited["changed"] == ["cl-t0"] and edited["version"] == 1
        results = client.rank(session_id, kind="tracks", top_k=2)
        assert len(results) == 2 and results[0]["kind"] == "track"
        assert client.stats()["live_sessions"] == 1
        assert client.close_session(session_id) is True
        assert client.close_session(session_id) is False

    def test_typed_errors_raise_protocol_error(self, service):
        client = AuditClient.local(service=service)
        client.open_session(model_scene("err"))
        with pytest.raises(protocol.ProtocolError) as exc:
            client.rank("err", kind="galaxies")
        assert exc.value.code == "unknown_rank_kind"
        with pytest.raises(protocol.ProtocolError) as exc:
            client.rank("ghost")
        assert exc.value.code == "unknown_session"

    def test_audit_over_shipped_scenes_matches_inline(self, service, api_fixy):
        from repro.api import Audit

        client = AuditClient.local(service=service)
        spec = AuditSpec(
            kind="tracks",
            top_k=3,
            filters=FilterSpec(has_model=True, has_human=False),
        )
        scenes = [model_scene(f"au-{i}", n_tracks=3) for i in range(2)]
        remote = client.audit(spec, scenes=scenes)
        local = Audit(spec, fixy=api_fixy).run(scenes=scenes)
        assert [i.to_dict() for i in remote.items] == [
            i.to_dict(spec.kind) for i in local.items
        ]
        assert remote.provenance.spec_hash == spec.spec_hash()

    def test_audit_over_live_session(self, service):
        client = AuditClient.local(service=service)
        client.open_session(model_scene("live", n_tracks=4))
        result = client.audit(
            AuditSpec(kind="tracks", top_k=2), session_id="live"
        )
        assert len(result.items) == 2
        assert result.provenance.backend == "session"

    def test_hello_and_health_ops(self, service, api_fixy):
        client = AuditClient.local(service=service)
        hello = client.hello()
        assert hello["protocol_version"] == protocol.PROTOCOL_VERSION
        assert hello["model_fingerprint"] == api_fixy.learned.fingerprint()
        assert hello["capacity"] == 1
        assert set(hello["ops"]) >= {"audit", "hello", "health", "rank"}
        assert hello["features"]  # advertised feature names
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["requests_handled"] >= 1
        assert "live_sessions" in health

    def test_over_streams_transport(self, api_fixy):
        """The client speaks the line-JSON framing `cli serve` uses,
        against a real serve() loop over OS pipes."""
        import os

        service = StreamingService(api_fixy, max_sessions=2)
        c2s_read, c2s_write = os.pipe()
        s2c_read, s2c_write = os.pipe()
        server_in = os.fdopen(c2s_read, "r")
        server_out = os.fdopen(s2c_write, "w")
        client_writer = os.fdopen(c2s_write, "w")
        client_reader = os.fdopen(s2c_read, "r")
        server = threading.Thread(
            target=service.serve, args=(server_in, server_out), daemon=True
        )
        server.start()
        try:
            client = AuditClient.over_streams(
                writer=client_writer, reader=client_reader
            )
            assert client.open_session(model_scene("stream", n_tracks=2)) == (
                "stream"
            )
            assert len(client.rank("stream", top_k=1)) == 1
            assert client.stats()["live_sessions"] == 1
        finally:
            client_writer.close()  # EOF ends the serve loop
            server.join(timeout=10)
            server_in.close()
            server_out.close()
            client_reader.close()
        assert not server.is_alive()


def stream_client(response_text: str) -> AuditClient:
    """A client whose 'server' is a canned byte stream."""
    return AuditClient.over_streams(
        writer=io.StringIO(), reader=io.StringIO(response_text)
    )


class TestTransportHardening:
    """EOF, garbage, and timeout are typed ProtocolError subclasses —
    never a raw json/OSError escaping to the caller."""

    def test_eof_mid_response_is_stream_closed(self):
        client = stream_client("")  # server died before answering
        with pytest.raises(protocol.StreamClosedError) as exc:
            client.stats()
        assert exc.value.code == "worker_unavailable"
        assert isinstance(exc.value, protocol.ProtocolError)

    def test_garbage_line_is_malformed_response(self):
        for bad in ('{"ok": true, "v":', "not json at all", "[1, 2, 3]"):
            client = stream_client(bad + "\n")
            with pytest.raises(protocol.MalformedResponseError) as exc:
                client.stats()
            assert exc.value.code == "bad_json"

    def test_closed_stream_write_is_stream_closed(self):
        writer = io.StringIO()
        writer.close()
        client = AuditClient.over_streams(writer=writer, reader=io.StringIO())
        with pytest.raises(protocol.StreamClosedError):
            client.stats()

    def test_request_timeout_over_real_socket(self):
        """A silent server trips the per-request deadline with a typed
        RequestTimeoutError, and the deadline is per request."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            client = AuditClient.connect(
                "127.0.0.1:%d" % listener.getsockname()[1], timeout=0.2
            )
            conn, _ = listener.accept()  # connected, but never respond
            with pytest.raises(protocol.RequestTimeoutError) as exc:
                client.stats()
            assert exc.value.code == "request_timeout"
            assert "stats" in exc.value.message
            client.close()
            conn.close()
        finally:
            listener.close()

    def test_connect_refused_is_stream_closed(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(protocol.StreamClosedError):
            AuditClient.connect(f"127.0.0.1:{port}", connect_timeout=0.5)

    def test_transport_errors_pickle_round_trip(self):
        import pickle

        for err in (
            protocol.StreamClosedError("gone", details={"worker": "h:1"}),
            protocol.MalformedResponseError("junk"),
            protocol.RequestTimeoutError("slow"),
        ):
            clone = pickle.loads(pickle.dumps(err))
            assert type(clone) is type(err)
            assert clone.code == err.code
            assert clone.message == err.message
            assert clone.details == err.details

    def test_parse_address_forms(self):
        from repro.api.client import parse_address

        assert parse_address("localhost:7500") == ("localhost", 7500)
        assert parse_address(("10.0.0.1", 80)) == ("10.0.0.1", 80)
        for bad in ("no-port", ":7500", "host:notanumber"):
            with pytest.raises(ValueError):
                parse_address(bad)
