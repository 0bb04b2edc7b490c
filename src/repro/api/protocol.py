"""The versioned client/service wire protocol.

One schema, shared verbatim by :class:`~repro.serving.service.StreamingService`
(the server side, ``python -m repro.cli serve``) and
:class:`~repro.api.client.AuditClient` (the in-repo client): plain JSON
dicts, one request → one response.

Envelope (protocol version 1):

.. code-block:: json

    {"v": 1, "op": "rank", "session_id": "s", "kind": "tracks"}
    {"v": 1, "ok": true,  "kind": "tracks", "results": [...]}
    {"v": 1, "ok": false, "error": {"code": "unknown_rank_kind",
                                    "message": "unknown rank kind 'galaxy'; ...",
                                    "details": {"valid_kinds": [...]}}}

Rules:

- every request and response carries ``"v"``, the protocol version;
- ``"ok"`` is always present on responses; failures carry a structured
  ``error`` object with a machine-readable ``code`` from
  :data:`ERROR_CODES` (never a bare string);
- unknown versions — and requests with no ``"v"`` at all — are
  rejected with ``unsupported_version``, stamped with the server's own
  version: the server never guesses what a client meant;
- a line that does not decode as JSON is answered with ``bad_json``,
  stamped the same way (it has no version to answer in).

Introduced at protocol version 1 (additions are strictly additive): the
``hello``/``health`` ops register and monitor workers for distributed
execution (:mod:`repro.api.pool`), and the
``model_mismatch``/``worker_unavailable``/``request_timeout`` codes
report distributed failures. Client-side transport failures raise
typed :class:`TransportError` subclasses (:class:`StreamClosedError`,
:class:`MalformedResponseError`, :class:`RequestTimeoutError`) carrying
those same codes.

Protocol version 2 adds the **binary framed wire** and
**content-addressed scene transport** (:mod:`repro.api.frames`):

- a peer may speak the same request/response dicts over length-prefixed
  binary frames (a JSON header plus zero or more raw blobs) instead of
  line-JSON; the wire format is per-connection, self-identifying (a
  framed connection opens with :data:`repro.api.frames.MAGIC`, which can
  never begin a JSON line), and advertised in ``hello`` as
  ``wire_formats``;
- an ``audit`` request may carry ``scene_hashes`` (content hashes of
  packed scenes) instead of ``scenes``; bodies travel as frame blobs,
  the server keeps a bounded LRU of decoded scenes keyed by hash, and a
  request naming hashes the server does not hold is answered with
  ``{"ok": true, "need": [missing...]}`` so the client resends only the
  missing bodies;
- new codes: ``frame_too_large`` / ``frame_malformed`` (the framed
  transport's failure vocabulary, raised client-side as
  :class:`FrameTooLargeError` / :class:`FrameDecodeError`) and
  ``unknown_scene_hash`` (a hash that can be neither resolved nor
  refilled).

Additive v2 extension — **standing audits**: the ``subscribe`` /
``unsubscribe`` / ``standing`` ops register an
:class:`~repro.api.spec.AuditSpec` as a standing query on a live
session (:class:`repro.serving.standing.StandingAudit`), after which an
``edit`` response carries the incrementally maintained top-k of every
subscription under ``"standing"`` (suppress with ``"standing": false``
in the edit request). A subscription id the session does not hold is
answered with the ``unknown_subscription`` code. Being additive, all of
this rides the existing version: older peers simply never send the new
ops, and ``hello``'s ``ops`` list advertises them.

Additive extension — **load shedding**: a serving front with an
admission layer (:mod:`repro.serving.gateway`) may answer a request it
chose not to execute with the ``overloaded`` code instead of stalling;
the request is retryable by construction, ``details`` carries the
queueing state, and v1 peers receive it in their own version like any
other structured error. Raised client-side as
:class:`OverloadedError`.

The v2 *JSON dialect* is otherwise identical to v1, and servers answer
every request in the version it was asked in — a v1 client keeps
working against a v2 build. A worker pool dispatches over the v2
framed wire only, so every worker in a pool must advertise it.

Typed failures cross the boundary as codes:
:class:`~repro.core.scoring.UnknownRankKindError` →
``unknown_rank_kind``, :class:`~repro.api.backends.UnknownBackendError`
→ ``unknown_backend``, :class:`~repro.api.spec.SpecValidationError` →
``invalid_spec``, a missing session → ``unknown_session``; the mapping
lives in :func:`classify_exception` so client and server agree forever.
"""

from __future__ import annotations

from repro.core.scoring import UnknownRankKindError

__all__ = [
    "BASELINE_VERSION",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "FrameDecodeError",
    "FrameTooLargeError",
    "MalformedResponseError",
    "OverloadedError",
    "ProtocolError",
    "RequestTimeoutError",
    "StreamClosedError",
    "TransportError",
    "classify_exception",
    "error_response",
    "is_supported_version",
    "make_request",
    "negotiate_version",
    "ok_response",
]

#: Current protocol version spoken by this build (v2: binary frames +
#: content-addressed scene transport; the JSON dialect is unchanged).
PROTOCOL_VERSION = 2

#: The oldest dialect every peer speaks — what a coordinator uses to
#: ``hello`` a worker whose version it does not know yet.
BASELINE_VERSION = 1

#: Versions this server answers in their own dialect (ascending).
SUPPORTED_VERSIONS = (1, 2)

# Machine-readable error codes (the protocol's stable error vocabulary).
UNSUPPORTED_VERSION = "unsupported_version"
UNKNOWN_OP = "unknown_op"
BAD_JSON = "bad_json"
BAD_REQUEST = "bad_request"
UNKNOWN_SESSION = "unknown_session"
UNKNOWN_RANK_KIND = "unknown_rank_kind"
UNKNOWN_BACKEND = "unknown_backend"
INVALID_SPEC = "invalid_spec"
INTERNAL_ERROR = "internal_error"
MODEL_MISMATCH = "model_mismatch"
WORKER_UNAVAILABLE = "worker_unavailable"
REQUEST_TIMEOUT = "request_timeout"
FRAME_TOO_LARGE = "frame_too_large"
FRAME_MALFORMED = "frame_malformed"
UNKNOWN_SCENE_HASH = "unknown_scene_hash"
UNKNOWN_SUBSCRIPTION = "unknown_subscription"
OVERLOADED = "overloaded"

ERROR_CODES = (
    UNSUPPORTED_VERSION,
    UNKNOWN_OP,
    BAD_JSON,
    BAD_REQUEST,
    UNKNOWN_SESSION,
    UNKNOWN_RANK_KIND,
    UNKNOWN_BACKEND,
    INVALID_SPEC,
    INTERNAL_ERROR,
    MODEL_MISMATCH,
    WORKER_UNAVAILABLE,
    REQUEST_TIMEOUT,
    FRAME_TOO_LARGE,
    FRAME_MALFORMED,
    UNKNOWN_SCENE_HASH,
    UNKNOWN_SUBSCRIPTION,
    OVERLOADED,
)


class ProtocolError(Exception):
    """A structured protocol failure (code + message + details).

    Raised server-side to short-circuit into an error response, and
    client-side when a response carries ``ok: false``.
    """

    def __init__(self, code: str, message: str, details: dict | None = None):
        self.code = code
        self.message = message
        self.details = dict(details or {})
        super().__init__(f"[{code}] {message}")

    def __reduce__(self):
        return (type(self), (self.code, self.message, self.details))


class TransportError(ProtocolError):
    """A client-side transport failure (the request never completed).

    Unlike a structured error *response* — which means the server is
    alive and said no — a transport error means the conversation itself
    broke: the stream closed, the bytes were not a protocol response,
    or the deadline passed. Each failure mode is its own subclass with
    a fixed code, so callers (the worker pool's requeue logic above
    all) can switch on the type instead of parsing messages.
    """

    code_class: str = INTERNAL_ERROR

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(self.code_class, message, details)

    def __reduce__(self):
        return (type(self), (self.message, self.details))


class StreamClosedError(TransportError):
    """EOF or a broken pipe mid-conversation: the worker is gone."""

    code_class = WORKER_UNAVAILABLE


class MalformedResponseError(TransportError):
    """The server's bytes were not a protocol response (partial or
    garbage line, or a non-object JSON value)."""

    code_class = BAD_JSON


class RequestTimeoutError(TransportError):
    """The per-request deadline passed with no response line."""

    code_class = REQUEST_TIMEOUT


class FrameTooLargeError(TransportError):
    """A v2 frame declared a header/blob beyond the hard size caps —
    reading on would buffer unbounded bytes, so the frame is refused
    before its body is read (the stream is left unsynced: close it)."""

    code_class = FRAME_TOO_LARGE


class FrameDecodeError(TransportError):
    """The bytes were not a well-formed v2 frame (bad magic, a header
    that is not a JSON object, an unpackable scene blob)."""

    code_class = FRAME_MALFORMED


class OverloadedError(ProtocolError):
    """The server shed this request under load (code ``overloaded``).

    Raised client-side when a response carries the ``overloaded``
    code — the async gateway's admission layer answers instead of
    stalling once its queue bound or the per-client budget is
    exceeded (:mod:`repro.serving.gateway`). The request was *not*
    executed; it is always safe to retry after backing off
    (``details`` carries ``reason`` plus the queue depth/limits the
    client can base its backoff on).
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(OVERLOADED, message, details)

    def __reduce__(self):
        return (type(self), (self.message, self.details))


# ---------------------------------------------------------------------------
# Envelope constructors
# ---------------------------------------------------------------------------
def make_request(op: str, *, version: int = PROTOCOL_VERSION, **fields) -> dict:
    """A v-stamped request dict."""
    return {"v": version, "op": op, **fields}


def ok_response(fields: dict, *, version: int = PROTOCOL_VERSION) -> dict:
    """A successful response envelope."""
    return {"v": version, "ok": True, **fields}


def error_response(
    code: str,
    message: str,
    *,
    version: int = PROTOCOL_VERSION,
    details: dict | None = None,
) -> dict:
    """A failed response envelope with a structured error object."""
    error: dict = {"code": code, "message": message}
    if details:
        error["details"] = dict(details)
    return {"v": version, "ok": False, "error": error}


# ---------------------------------------------------------------------------
# Version negotiation
# ---------------------------------------------------------------------------
def is_supported_version(version) -> bool:
    """Whether ``version`` is a dialect this build answers in.

    Only a JSON integer counts: ``true``, ``1.0`` and ``2.0`` compare
    equal to a supported version in Python but are not versions, and
    echoing one back would stamp a response with ``"v": true``.
    """
    return type(version) is int and version in SUPPORTED_VERSIONS


def negotiate_version(request: dict) -> int:
    """The dialect to answer ``request`` in: its own ``"v"``.

    A request without ``"v"``, or whose ``"v"`` fails
    :func:`is_supported_version`, raises :class:`ProtocolError` with
    ``unsupported_version``.
    """
    if not isinstance(request, dict) or "v" not in request:
        raise ProtocolError(
            UNSUPPORTED_VERSION,
            'request has no protocol version field "v"; add "v": '
            f"{PROTOCOL_VERSION}",
            details={"supported": list(SUPPORTED_VERSIONS)},
        )
    version = request["v"]
    if is_supported_version(version):
        return version
    raise ProtocolError(
        UNSUPPORTED_VERSION,
        f"unsupported protocol version {version!r}",
        details={"supported": list(SUPPORTED_VERSIONS)},
    )


# ---------------------------------------------------------------------------
# Exception → error code mapping
# ---------------------------------------------------------------------------
def classify_exception(exc: Exception) -> ProtocolError:
    """Fold any server-side exception into a structured ProtocolError."""
    if isinstance(exc, ProtocolError):
        return exc
    if isinstance(exc, UnknownRankKindError):
        return ProtocolError(
            UNKNOWN_RANK_KIND, str(exc), details={"valid_kinds": list(exc.valid)}
        )
    # Late imports: protocol must stay importable from the serving layer
    # without dragging the whole api package in.
    from repro.api.backends import UnknownBackendError
    from repro.api.spec import SpecValidationError

    if isinstance(exc, UnknownBackendError):
        return ProtocolError(
            UNKNOWN_BACKEND, str(exc), details={"valid_backends": list(exc.valid)}
        )
    if isinstance(exc, SpecValidationError):
        return ProtocolError(INVALID_SPEC, str(exc))
    if isinstance(exc, KeyError):
        message = exc.args[0] if exc.args else str(exc)
        if isinstance(message, str) and "no live session" in message:
            return ProtocolError(UNKNOWN_SESSION, message)
        if isinstance(message, str) and "no standing audit" in message:
            return ProtocolError(UNKNOWN_SUBSCRIPTION, message)
        return ProtocolError(
            BAD_REQUEST, f"missing request field: {message}"
        )
    if isinstance(exc, (TypeError, ValueError)):
        return ProtocolError(BAD_REQUEST, f"{type(exc).__name__}: {exc}")
    return ProtocolError(INTERNAL_ERROR, f"{type(exc).__name__}: {exc}")
