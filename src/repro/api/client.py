"""AuditClient: the in-repo Python client for the serving protocol.

Speaks the versioned protocol (:mod:`repro.api.protocol`) over any
transport that maps a request dict to a response dict:

- :meth:`AuditClient.local` — in-process, directly onto a
  :class:`~repro.serving.service.StreamingService` (no serialization
  beyond the protocol's own dicts; ideal for tests and embedding);
- :meth:`AuditClient.over_streams` — line-delimited JSON over a
  reader/writer pair, the framing ``python -m repro.cli serve`` speaks
  on stdio (and the same framing the TCP transport uses);
- :meth:`AuditClient.connect` — the same framing over a TCP socket to
  a ``python -m repro.cli serve --listen HOST:PORT`` worker, with a
  per-request timeout (the transport the ``remote`` backend rides);
  pass ``wire="frames"`` to speak the protocol v2 binary framed wire
  (:mod:`repro.api.frames`) on the same port — scene payloads then
  travel as raw packed blobs instead of JSON, and requests can be
  pipelined (:meth:`AuditClient.send_request` /
  :meth:`AuditClient.recv_response`).

Every client speaks one protocol version per connection (``version=``;
default the build's :data:`~repro.api.protocol.PROTOCOL_VERSION`) and
requires the server to answer in kind.

Failures come back as :class:`~repro.api.protocol.ProtocolError` with
the server's structured code — a typo'd rank kind raises the same
``unknown_rank_kind`` whether it happened in-process or across a pipe.
Transport failures are typed too: EOF mid-response raises
:class:`~repro.api.protocol.StreamClosedError`, a partial or garbage
response line :class:`~repro.api.protocol.MalformedResponseError`, a
missed deadline :class:`~repro.api.protocol.RequestTimeoutError`, and
a broken v2 frame :class:`~repro.api.protocol.FrameDecodeError` /
:class:`~repro.api.protocol.FrameTooLargeError`.
"""

from __future__ import annotations

import json
import socket as _socket

from repro.api import frames, protocol
from repro.api.result import AuditResult
from repro.api.spec import AuditSpec

__all__ = ["AuditClient", "parse_address"]


def parse_address(address) -> tuple[str, int]:
    """``"host:port"`` (or a ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address must be 'host:port', got {address!r}"
        )
    return host, int(port)


class _StreamTransport:
    """One JSON line out, one JSON line back, with typed failures.

    When built over a socket (``sock``), ``timeout`` is applied per
    request as an *idle* deadline: each underlying socket operation
    (the write, each read while waiting for the response line) must
    make progress within ``timeout`` seconds. A silent server trips it;
    a server that keeps dripping bytes keeps the request alive.
    """

    def __init__(self, writer, reader, sock=None, timeout: float | None = None):
        self._writer = writer
        self._reader = reader
        self._sock = sock
        self.timeout = timeout
        self.bytes_sent = 0
        self.bytes_received = 0

    def __call__(self, request: dict) -> dict:
        try:
            if self._sock is not None:
                self._sock.settimeout(self.timeout)
            line_out = json.dumps(request) + "\n"
            self._writer.write(line_out)
            self._writer.flush()
            self.bytes_sent += len(line_out)
            line = self._reader.readline()
        except (TimeoutError, _socket.timeout):
            raise protocol.RequestTimeoutError(
                f"no response within {self.timeout}s "
                f"(op {request.get('op')!r})"
            ) from None
        except (BrokenPipeError, ConnectionError, OSError, ValueError) as exc:
            # ValueError covers writes on a stream closed under us.
            raise protocol.StreamClosedError(
                f"stream broke mid-request: {exc}"
            ) from None
        if not line:
            raise protocol.StreamClosedError(
                "server closed the stream before responding"
            )
        self.bytes_received += len(line)
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise protocol.MalformedResponseError(
                f"response line is not JSON: {exc}"
            ) from None
        if not isinstance(response, dict):
            raise protocol.MalformedResponseError(
                f"response is not a protocol envelope: "
                f"{type(response).__name__}"
            )
        return response

    def close(self) -> None:
        for resource in (self._writer, self._reader, self._sock):
            if resource is not None:
                try:
                    resource.close()
                except OSError:
                    pass


class _FrameTransport:
    """The protocol v2 binary framed wire over one socket.

    Same request/response dicts as the line-JSON transport, but each
    message is a length-prefixed frame (JSON header + raw blobs, see
    :mod:`repro.api.frames`), and :meth:`send` / :meth:`recv` are
    exposed separately so a coordinator can pipeline several requests
    before reading the first response. ``timeout`` is the same idle
    deadline the stream transport applies.
    """

    class _CountingReader:
        """Binary reader wrapper tallying exact bytes consumed."""

        def __init__(self, raw):
            self._raw = raw
            self.count = 0

        def read(self, n: int) -> bytes:
            data = self._raw.read(n)
            self.count += len(data)
            return data

        def close(self) -> None:
            self._raw.close()

    def __init__(self, sock, timeout: float | None = None):
        self._sock = sock
        self._reader = self._CountingReader(sock.makefile("rb"))
        self._writer = sock.makefile("wb")
        self.timeout = timeout
        self.bytes_sent = 0

    def send(self, request: dict, blobs: tuple[bytes, ...] = ()) -> None:
        try:
            self._sock.settimeout(self.timeout)
            self.bytes_sent += frames.write_frame(self._writer, request, blobs)
        except (TimeoutError, _socket.timeout):
            raise protocol.RequestTimeoutError(
                f"no progress within {self.timeout}s sending "
                f"(op {request.get('op')!r})"
            ) from None
        except (BrokenPipeError, ConnectionError, OSError, ValueError) as exc:
            raise protocol.StreamClosedError(
                f"stream broke mid-request: {exc}"
            ) from None

    def recv(self) -> tuple[dict, list[bytes]]:
        try:
            self._sock.settimeout(self.timeout)
            frame = frames.read_frame(self._reader)
        except (TimeoutError, _socket.timeout):
            raise protocol.RequestTimeoutError(
                f"no response frame within {self.timeout}s"
            ) from None
        except protocol.TransportError:
            raise  # already typed (truncated / malformed / oversized)
        except (ConnectionError, OSError, ValueError) as exc:
            raise protocol.StreamClosedError(
                f"stream broke mid-response: {exc}"
            ) from None
        return frame

    @property
    def bytes_received(self) -> int:
        return self._reader.count

    def __call__(self, request: dict) -> dict:
        self.send(request)
        header, _ = self.recv()
        return header

    def close(self) -> None:
        for resource in (self._writer, self._reader, self._sock):
            try:
                resource.close()
            except OSError:
                pass


class AuditClient:
    """Typed client over a ``dict -> dict`` protocol transport."""

    def __init__(self, transport, version: int = protocol.PROTOCOL_VERSION):
        if not protocol.is_supported_version(version):
            raise ValueError(
                f"unsupported client protocol version {version!r}; "
                f"expected one of {protocol.SUPPORTED_VERSIONS}"
            )
        self._send = transport
        self.version = version

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def local(cls, fixy=None, service=None, **service_options) -> "AuditClient":
        """A client wired straight into an in-process service.

        Pass an existing ``service``, or a fitted ``fixy`` to build
        one (``service_options`` forward to
        :class:`~repro.serving.service.StreamingService`).
        """
        if service is None:
            if fixy is None:
                raise ValueError("AuditClient.local needs a fixy or a service")
            from repro.serving.service import StreamingService

            service = StreamingService(fixy, **service_options)
        return cls(service.handle)

    @classmethod
    def over_streams(cls, writer, reader) -> "AuditClient":
        """A client speaking line-delimited JSON over ``writer``/``reader``."""
        return cls(_StreamTransport(writer, reader))

    @classmethod
    def connect(
        cls,
        address,
        timeout: float | None = None,
        connect_timeout: float | None = 5.0,
        wire: str = "json",
        version: int | None = None,
    ) -> "AuditClient":
        """A client over a fresh TCP connection to ``"host:port"``.

        ``connect_timeout`` bounds the TCP handshake; ``timeout`` is
        the per-request idle deadline (``None`` = wait forever),
        raising :class:`~repro.api.protocol.RequestTimeoutError` when
        missed. ``wire`` picks the framing: ``"json"`` (line-JSON, the
        v1 wire every worker speaks) or ``"frames"`` (the v2 binary
        framed wire — only against a server that advertises it in
        ``hello``'s ``wire_formats``). ``version`` stamps every
        request (defaults to the build's version for ``"json"``, and
        is always v2 for ``"frames"``).
        Connection refusal/timeouts raise
        :class:`~repro.api.protocol.StreamClosedError` so callers see
        one typed failure for "worker not there".
        """
        if wire not in ("json", "frames"):
            raise ValueError(
                f"wire must be 'json' or 'frames', got {wire!r}"
            )
        host, port = parse_address(address)
        try:
            sock = _socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise protocol.StreamClosedError(
                f"cannot connect to worker {host}:{port}: {exc}"
            ) from None
        try:
            # Requests are small; never let Nagle hold a frame back.
            sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        except OSError:
            pass
        if wire == "frames":
            return cls(_FrameTransport(sock, timeout=timeout), version=2)
        return cls(
            _StreamTransport(
                sock.makefile("w", encoding="utf-8", newline="\n"),
                sock.makefile("r", encoding="utf-8", newline="\n"),
                sock=sock,
                timeout=timeout,
            ),
            version=(
                version if version is not None else protocol.PROTOCOL_VERSION
            ),
        )

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------
    def _call(self, op: str, **fields) -> dict:
        fields = {k: v for k, v in fields.items() if v is not None}
        response = self._send(
            protocol.make_request(op, version=self.version, **fields)
        )
        return self._check(response)

    def request(self, op: str, **fields) -> dict:
        """Send one op and return the full *checked* response envelope.

        Unlike the typed convenience methods below, the envelope keeps
        every additive field the server attached — ``spans`` (the
        worker's piggybacked trace spans), ``scene_cache``, whatever a
        later protocol version adds. ``None``-valued fields are
        dropped before sending, same as every other call.
        """
        return self._call(op, **fields)

    def _check(self, response) -> dict:
        """Validate one response envelope (version, ok flag, errors)."""
        if not isinstance(response, dict):
            raise protocol.ProtocolError(
                protocol.INTERNAL_ERROR,
                f"malformed response: {type(response).__name__}",
            )
        if response.get("ok"):
            version = response.get("v")
            if version != self.version:
                raise protocol.ProtocolError(
                    protocol.UNSUPPORTED_VERSION,
                    f"server answered in protocol version {version!r}; this "
                    f"client speaks {self.version}",
                )
            return response
        error = response.get("error")
        if isinstance(error, dict):
            code = error.get("code", protocol.INTERNAL_ERROR)
            if code == protocol.OVERLOADED:
                # Typed: the admission layer shed this request — it
                # never executed, so retry-after-backoff is always safe.
                raise protocol.OverloadedError(
                    error.get("message", "server overloaded"),
                    details=error.get("details"),
                )
            raise protocol.ProtocolError(
                code,
                error.get("message", "unknown error"),
                details=error.get("details"),
            )
        # Not a structured error object: the server broke the protocol.
        raise protocol.ProtocolError(protocol.INTERNAL_ERROR, str(error))

    # ------------------------------------------------------------------
    # Pipelined framed calls (v2 wire only)
    # ------------------------------------------------------------------
    @property
    def supports_pipelining(self) -> bool:
        """Whether the transport separates send from receive (frames)."""
        return hasattr(self._send, "send") and hasattr(self._send, "recv")

    def send_request(self, op: str, blobs: tuple[bytes, ...] = (), **fields):
        """Write one framed request without waiting for its response.

        Responses arrive in request order via :meth:`recv_response` —
        the coordinator's chunk pipelining (encode chunk *i+1* while
        the worker ranks chunk *i*). Only valid on a framed transport.
        """
        if not self.supports_pipelining:
            raise protocol.ProtocolError(
                protocol.INTERNAL_ERROR,
                "send_request needs a framed transport "
                "(connect with wire='frames')",
            )
        fields = {k: v for k, v in fields.items() if v is not None}
        self._send.send(
            protocol.make_request(op, version=self.version, **fields), blobs
        )

    def recv_response(self) -> dict:
        """Read + validate the next in-order framed response."""
        response, _blobs = self._send.recv()
        return self._check(response)

    @property
    def bytes_sent(self) -> int:
        """Bytes written to the transport so far (0 for in-process)."""
        return getattr(self._send, "bytes_sent", 0)

    @property
    def bytes_received(self) -> int:
        return getattr(self._send, "bytes_received", 0)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def open_session(self, scene, session_id: str | None = None) -> str:
        """Open a streaming session for ``scene``; returns its id."""
        payload = scene.to_dict() if hasattr(scene, "to_dict") else scene
        return self._call("open", scene=payload, session_id=session_id)[
            "session_id"
        ]

    def edit(self, session_id: str, edit, standing: bool | None = None) -> dict:
        """Apply a :class:`~repro.serving.edits.SceneEdit` (or its dict).

        Returns ``{"changed": [track ids], "version": n}`` — plus, when
        the session has standing audits, ``"standing"``: each
        subscription's incrementally maintained top-k as
        ``{audit_id: {"kind", "rescored", "results"}}``. Pass
        ``standing=False`` to suppress those payloads (the audits are
        still maintained server-side, just not echoed).
        """
        payload = edit.to_dict() if hasattr(edit, "to_dict") else edit
        response = self._call(
            "edit", session_id=session_id, edit=payload, standing=standing
        )
        out = {"changed": response["changed"], "version": response["version"]}
        if "standing" in response:
            out["standing"] = response["standing"]
        return out

    def rank(
        self,
        session_id: str,
        kind: str = "tracks",
        top_k: int | None = None,
    ) -> list[dict]:
        """Rank a live session's components; returns scored-item dicts."""
        return self._call("rank", session_id=session_id, kind=kind, top_k=top_k)[
            "results"
        ]

    def audit(
        self,
        spec: AuditSpec | dict,
        scenes=None,
        session_id: str | None = None,
    ) -> AuditResult:
        """Execute an :class:`AuditSpec` server-side.

        Either over live server state (``session_id``) or over scenes
        shipped with the request (``scenes``: live Scene objects or
        their dicts). Returns the typed :class:`AuditResult`.
        """
        payload = spec.to_dict() if isinstance(spec, AuditSpec) else spec
        scene_payloads = None
        if scenes is not None:
            if hasattr(scenes, "scene_id"):
                scenes = [scenes]
            scene_payloads = [
                s.to_dict() if hasattr(s, "to_dict") else s for s in scenes
            ]
        response = self._call(
            "audit", spec=payload, scenes=scene_payloads, session_id=session_id
        )
        return AuditResult.from_dict(response["result"])

    def subscribe(
        self,
        session_id: str,
        spec: AuditSpec | dict,
        audit_id: str | None = None,
    ) -> dict:
        """Register ``spec`` as a standing audit on a live session.

        Returns ``{"audit_id", "kind", "results"}`` — the initial
        top-k; every subsequent :meth:`edit` response carries the
        incrementally maintained update.
        """
        payload = spec.to_dict() if isinstance(spec, AuditSpec) else spec
        response = self._call(
            "subscribe", session_id=session_id, spec=payload, audit_id=audit_id
        )
        return {
            "audit_id": response["audit_id"],
            "kind": response["kind"],
            "results": response["results"],
        }

    def unsubscribe(self, session_id: str, audit_id: str) -> bool:
        """Drop a standing audit; returns whether it was subscribed."""
        return self._call(
            "unsubscribe", session_id=session_id, audit_id=audit_id
        )["unsubscribed"]

    def standing(self, session_id: str, audit_id: str) -> dict:
        """Read a standing audit's maintained top-k without editing.

        Returns ``{"audit_id", "kind", "results", "stats"}``; an
        unknown id raises with the ``unknown_subscription`` code.
        """
        response = self._call(
            "standing", session_id=session_id, audit_id=audit_id
        )
        return {
            k: v for k, v in response.items() if k not in ("ok", "v")
        }

    def close_session(self, session_id: str) -> bool:
        """Close a session; returns whether it was live."""
        return self._call("close", session_id=session_id)["closed"]

    def stats(self) -> dict:
        """Server-side session-store counters."""
        response = self._call("stats")
        return {k: v for k, v in response.items() if k not in ("ok", "v")}

    def hello(self) -> dict:
        """The worker's registration card.

        ``{"protocol_version", "model_fingerprint", "capacity",
        "features", "ops"}`` — what the pool checks before handing a
        worker any scenes.
        """
        response = self._call("hello")
        return {k: v for k, v in response.items() if k not in ("ok", "v")}

    def health(self) -> dict:
        """Liveness + serving stats (``status``, ``uptime_s``,
        ``requests_handled``, session-store counters)."""
        response = self._call("health")
        return {k: v for k, v in response.items() if k not in ("ok", "v")}

    def metrics(self, text: bool = False) -> dict:
        """The worker's metrics snapshot (protocol v2+).

        Returns ``{"metrics": <registry snapshot>}``, plus ``"text"``
        (the Prometheus exposition) when ``text=True``. A v1
        connection gets a typed ``unsupported_version`` rejection.
        """
        response = self._call("metrics", text=True if text else None)
        return {k: v for k, v in response.items() if k not in ("ok", "v")}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the transport (a no-op for in-process transports)."""
        closer = getattr(self._send, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "AuditClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
